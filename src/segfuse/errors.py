"""The package's one exception type."""


class SegfuseError(Exception):
    """Every segfuse failure; `code` is a stable machine-checkable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
