"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class DataError(Exception):
    """Base class for dataset and partition problems."""


class ParseError(DataError):
    """Malformed input file."""


class DimensionError(DataError):
    """A vector or row does not match the expected dimension."""


class PartitionError(DataError):
    """Requested partition is infeasible for the given data."""


class NotFoundError(DataError):
    """Referenced point, key, or record does not exist."""


class StorageError(Exception):
    """A checkpoint could not be written or read back."""

