"""The package's one exception type, and its checks on choices and integers."""
import numbers


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
