"""The package's one exception type, and its checks on choices, integers and reals."""
import math
import numbers

import numpy as np


class SegfuseError(Exception):
    """Every segfuse failure; `code` is a stable machine-checkable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def check_choice(code: str, name: str, value, choices) -> None:
    """The one check that a setting `name` is one of `choices`; fails with `code`."""
    if value not in choices:
        raise SegfuseError(code, f"{name} must be one of {choices}, got '{value}'")


def check_int(code: str, name: str, value, low: int, high: int | None = None) -> None:
    """The one check on an integer setting `name`: an integer, numpy's too but
    not a bool, in low..high, or >= low if high is None; fails with `code`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise SegfuseError(code, f"{name} must be an integer {span}, got {value!r}")


def check_float(code: str, name: str, value, low: float = -math.inf,
                high: float = math.inf) -> None:
    """The one check on a real-valued setting `name`: a real number, numpy's
    too but not a bool, in [low, high] (NaN never is; `sys.float_info.max`
    bounds a finite one); fails with `code`.  A numpy scalar is compared as
    its exact Python value: float32 would round the bounds, even to inf."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not
            low <= (value.item() if isinstance(value, np.generic) else value) <= high):
        raise SegfuseError(code, f"{name} must be a real number in [{low}, {high}], "
                                 f"got {value!r}")
