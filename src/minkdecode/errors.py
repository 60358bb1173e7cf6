"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a contract: domain, shape, parity, or file format."""


class DataFormatError(ValidationError):
    """A data file is malformed. Message names the file and line."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")

