"""Exception types shared across the toolkit, and the field check of its
settings dataclasses."""

import math
import types
from dataclasses import fields


class SentboundError(Exception):
    """Base class for all toolkit errors."""


class ContractError(SentboundError):
    """An operation was called with arguments that violate its contract."""


def check_field_types(settings, what):
    """ContractError unless each field of the dataclass settings (what) holds
    its annotated type: an int field an int, a float field a finite float or
    an int, neither of them a bool; any other class an instance of it; and
    an `X | None` field None or what an X field holds."""
    for f in fields(settings):
        got = getattr(settings, f.name)
        kinds = f.type.__args__ if isinstance(f.type, types.UnionType) else (f.type,)
        if got is None and types.NoneType in kinds:
            continue
        accepted = tuple((int, float) if kind is float else kind for kind in kinds)
        if isinstance(got, bool) or not isinstance(got, accepted):
            names = " | ".join("None" if kind is types.NoneType else kind.__name__
                               for kind in kinds)
            raise ContractError(f"{what} {f.name} must be of type {names}, got {got!r}")
        if isinstance(got, float) and not math.isfinite(got):
            raise ContractError(f"{what} {f.name} must be finite, got {got!r}")


class ParseError(SentboundError):
    """A data file is malformed. Carries file and line context when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
            if line is not None:
                loc = f"{path}:{line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class ModelFileError(SentboundError):
    """A model container is corrupt, truncated, or from an unknown version."""


class NumericError(SentboundError):
    """Training produced a non-finite quantity."""
