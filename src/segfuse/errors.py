"""The package's one exception type, and its five checks: on choices,
integers, reals, sizes that must agree, and arrays that must be finite.

Each check fails with the caller's code and one message form, so a message
says what rule broke, not where the check sits.  Every range, count and
membership check in the package is one of these five; a parse or structure
failure, such as a bad magic number or a line that does not parse, raises
`SegfuseError` with its own words."""
import math
import numbers
import sys

import numpy as np


class SegfuseError(Exception):
    """Every segfuse failure; `code` is a stable machine-checkable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def check_choice(code: str, name: str, value, choices) -> None:
    """The one check that a setting `name` is one of `choices`; fails with `code`."""
    if value not in choices:
        raise SegfuseError(code, f"{name} must be one of {choices}, got {value!r}")


def check_int(code: str, name: str, value, low: int, high: int | None = None) -> None:
    """The one check on an integer setting `name`: an integer, numpy's too but
    not a bool, in low..high, or >= low if high is None; fails with `code`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise SegfuseError(code, f"{name} must be an integer {span}, got {value!r}")


def check_float(code: str, name: str, value, low: float = -math.inf,
                high: float = math.inf) -> None:
    """The one check on a real-valued setting `name`: a Python or numpy int
    or float, not a bool, and an int only if it fits a float64, in [low,
    high] (NaN never is; `sys.float_info.max` bounds a finite one); fails
    with `code`.  A numpy scalar is compared as its exact Python value:
    float32 would round the bounds, even to inf."""
    exact = value.item() if isinstance(value, np.generic) else value
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(exact, int) and abs(exact) > sys.float_info.max
            or not low <= exact <= high):
        raise SegfuseError(code, f"{name} must be a real number in [{low}, {high}], "
                                 f"got {value!r}")


def check_equal(code: str, what: str, **sizes) -> None:
    """The one check that inputs agree: `sizes` maps each input's name to
    its `what`, such as a class count or dims; fails with `code`."""
    if len(set(sizes.values())) > 1:
        raise SegfuseError(code, f"{what} differ: " + ", ".join(
            f"{name} has {value}" for name, value in sizes.items()))


def check_finite(code: str, name: str, arr: np.ndarray) -> None:
    """The one NaN/Inf check, on the array `name`; fails with `code`.  min
    and max propagate NaN, so a NaN fails as an infinity does."""
    if arr.size and not (arr.min() > -np.inf and arr.max() < np.inf):
        raise SegfuseError(code, f"{name} must hold no NaN or Inf")
