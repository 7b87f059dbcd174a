"""RMSProp over a model's whole parameter vector.

The parameters, their gradients and the squared-gradient average r are
each one contiguous float64 vector in the same layout (network.py), so a
step is a few in-place elementwise ufunc calls per run of STEP_CHUNK
elements: elementwise, it computes what a step per parameter array
would, in the same operation order and so bit for bit.
"""

import numpy as np

from ..errors import ContractError

# Elements one pass of the step updates: its scratch vector stays at
# 256 KB, so that training holds no extra whole-vector buffer at its peak
# (the backward pass), and a model of up to this size takes one pass.
STEP_CHUNK = 1 << 15


class RmsPropState:
    """Accumulator r, a scratch vector and the fixed run constants (gamma,
    eta, epsilon) for a parameter vector shaped like theta.

    r_t = gamma * r_{t-1} + (1 - gamma) * g^2
    theta_{t+1} = theta_t - eta * g / (sqrt(r_t) + epsilon)
    """

    def __init__(self, theta, gamma=0.9, eta=0.001, epsilon=1e-8):
        if not 0.0 < gamma < 1.0:
            raise ContractError(f"gamma must be in (0, 1), got {gamma}")
        if eta <= 0.0 or epsilon <= 0.0:
            raise ContractError("eta and epsilon must be positive")
        self.gamma = gamma
        self.eta = eta
        self.epsilon = epsilon
        self.r = np.zeros_like(theta)
        self.scratch = np.empty(min(theta.size, STEP_CHUNK))


def rmsprop_step(theta, grad, state):
    """Update the parameter vector theta in place from the gradient vector
    grad, which the step consumes: it ends up scaled by eta. Allocates
    nothing; returns theta for convenience."""
    g = state.gamma
    for lo in range(0, theta.size, STEP_CHUNK):
        part = slice(lo, lo + STEP_CHUNK)
        th, gr, r = theta[part], grad[part], state.r[part]
        tmp = state.scratch[: th.size]
        r *= g
        np.multiply(1.0 - g, gr, out=tmp)
        tmp *= gr
        r += tmp
        np.sqrt(r, out=tmp)
        tmp += state.epsilon
        gr *= state.eta
        np.divide(gr, tmp, out=tmp)
        th -= tmp
    return theta
