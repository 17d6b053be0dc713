"""Exception types shared across the pipeline."""


class MammoCadError(Exception):
    """Base class for all errors raised by this package."""


class PgmError(MammoCadError):
    """Base class for PGM file problems."""


class MalformedHeader(PgmError):
    """PGM header is missing tokens, has a bad magic, or bad dimensions."""


class UnsupportedMaxval(PgmError):
    """PGM maxval exceeds 255 (only 8-bit images are supported)."""


class TruncatedData(PgmError):
    """PGM data section holds fewer samples than the header promises."""


class InvalidPixelValue(PgmError):
    """PGM data section holds a non-numeric or out-of-range sample."""


class IoFailure(MammoCadError):
    """Underlying OS-level read/write failure."""


class NotDivisible(MammoCadError):
    """Image dimensions are not divisible by the requested pyramid factor."""


class EmptyHistogram(MammoCadError):
    """Histogram has zero total pixels."""


class RegionTooSmall(MammoCadError):
    """Region has too few pixels (or too small a bounding box) to estimate."""


class DegenerateFit(MammoCadError):
    """Log-log fit impossible: all scales identical."""


class DegenerateRegion(MammoCadError):
    """Region geometry is degenerate for the requested descriptor."""


class TooManyRegions(MammoCadError):
    """A label map has more regions than a PGM sample can number."""


class ConfigError(MammoCadError):
    """Pipeline configuration file or value is invalid."""


class PipelineStageError(MammoCadError):
    """A pipeline stage failed; message carries the stage name."""
