"""Exception types shared across the package."""


class InputRangeError(ValueError):
    """An argument lies outside the supported numeric domain."""


class InvalidParameterError(ValueError):
    """A parameter combination is structurally invalid (bad field order, bad shape)."""


class ResourceLimitError(RuntimeError):
    """A configured size or budget bound would be exceeded."""


class OutputError(RuntimeError):
    """An artifact could not be written: its destination failed, or its format
    cannot hold it."""
