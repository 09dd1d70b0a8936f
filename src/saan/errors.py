"""Exception types shared across the package."""


class SaanError(Exception):
    """Base class for all library errors."""


class ShapeError(SaanError, ValueError):
    """Tensor dimensions violate an op's contract; message names the axis."""


class CodecError(SaanError, ValueError):
    """Malformed binary or text file; carries the byte offset where parsing
    failed and, once a loader has named it, the file's path."""

    def __init__(self, message: str, offset: int | None = None, path=None):
        self.reason, self.offset, self.path = message, offset, path
        if path is not None:
            message = f"{path}: {message}"
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class ManifestError(SaanError, ValueError):
    """Invalid dataset manifest (missing files, bad splits, absent bins)."""


class InventoryError(SaanError, ValueError):
    """Checkpoint parameter inventory does not match the model definition."""


class AnnotationError(SaanError, ValueError):
    """Dot annotation outside the paired image bounds; names the dot index."""


class BinningError(SaanError, ValueError):
    """Degenerate density-scale bins (e.g. all training counts equal)."""


class TrainingError(SaanError, RuntimeError):
    """Numeric failure: a non-finite loss, gradient or prediction, or a
    failed gradient check; names the step or input."""


class ConfigError(SaanError, ValueError):
    """Invalid training/CLI configuration value or unknown config key."""
