"""The package's one exception type, and its one check on a named choice."""


class SegfuseError(Exception):
    """Every segfuse failure; `code` is a stable machine-checkable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def check_choice(code: str, name: str, value, choices) -> None:
    """The one check that a setting `name` is one of `choices`; fails with `code`."""
    if value not in choices:
        raise SegfuseError(code, f"{name} must be one of {choices}, got '{value}'")
