"""Dense numeric kernels, neural layers with analytic gradients, and RMSProp.

All arrays are float64 numpy arrays. A "matrix" is a 2-D row-major array.
One sequence is laid out one timestep per row, (m, d); a batch of
sequences travels as a time-major block (T, B, d), each row padded at its
end to the block's length T and carrying its own live length. No
deep-learning framework is used anywhere: every gradient in this package
is derived by hand and checked against finite differences in the test
suite.
"""

from .kernels import softmax, maxpool1d_same, dropout_apply, glorot_init
from .loss import weighted_cross_entropy
from .optim import RmsPropState, rmsprop_step
from .network import Hyperparams, NetBatch, NetInput, SequenceNet

__all__ = [
    "softmax",
    "maxpool1d_same",
    "dropout_apply",
    "glorot_init",
    "weighted_cross_entropy",
    "RmsPropState",
    "rmsprop_step",
    "Hyperparams",
    "NetBatch",
    "NetInput",
    "SequenceNet",
]
