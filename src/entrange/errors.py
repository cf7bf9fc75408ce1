"""Exception types shared across the package."""


class EntrangeError(Exception):
    """Base class for all library errors."""


class InvalidOrder(EntrangeError, ValueError):
    """Renyi order outside the supported range (alpha must be > 1)."""


class InvalidWeight(EntrangeError, ValueError):
    """A weight that must be positive (or nonnegative) is not."""


class Underflow(EntrangeError, ValueError):
    """A delete update would remove at least the entire remaining mass, or a
    Renyi moment, exact or sampled, underflowed to 0. CLI exit code 3."""


class EmptyRange(EntrangeError, ValueError):
    """A query range contains no (eligible) points."""


class OrderNotIndexed(EntrangeError, KeyError):
    """Renyi order requested from an index that was not built for it."""


class TooManyBuckets(EntrangeError, ValueError):
    """Requested more partition buckets than there are items."""


class WeightsNotSupported(EntrangeError, ValueError):
    """Structure only supports unit-weight points."""


class DataFormatError(EntrangeError, ValueError):
    """Malformed input data (CSV/TSV ingestion). CLI exit code 3."""


class IndexFileError(EntrangeError, ValueError):
    """Problem with a persisted index file. CLI exit code 4."""


class NotAnIndex(IndexFileError):
    """File does not start with the index magic bytes."""


class UnsupportedVersion(IndexFileError):
    """Index file written in a format version this build does not read."""


class IndexKindMismatch(IndexFileError):
    """Index file holds a different kind of structure than requested."""
