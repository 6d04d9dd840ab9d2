"""Exception hierarchy for the repro package.

Every subsystem raises errors derived from :class:`ReproError` so callers
can catch package-level failures with one ``except`` clause while still
discriminating by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CompressionError(ReproError):
    """A codec failed to compress or decompress a payload."""


class UnknownCompressorError(CompressionError, KeyError):
    """A compressor name or numeric id was not found in the registry."""


class FormatError(ReproError):
    """A serialized structure (partition, record file) is malformed."""


class FanStoreError(ReproError):
    """Base class for FanStore runtime errors."""


class ManifestError(FanStoreError, FormatError):
    """A dataset manifest is missing, truncated, hand-edited, or fails
    its schema/digest validation."""


class DataIntegrityError(FanStoreError, OSError):
    """Stored bytes failed digest verification and could not be
    repaired from any replica or shared-FS copy (the EIO of the store:
    ``errno`` is set accordingly and ``filename`` names the path)."""

    def __init__(self, path: str, detail: str = "") -> None:
        import errno as _errno

        message = f"{path}: data integrity violation"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.errno = _errno.EIO
        self.filename = path


class FileNotFoundInStoreError(FanStoreError, FileNotFoundError):
    """The requested path does not exist in the FanStore namespace
    (``errno`` is ENOENT, ``filename`` names the path)."""

    def __init__(self, path: str) -> None:
        import errno as _errno

        super().__init__(path)
        self.errno = _errno.ENOENT
        self.filename = path


class WriteViolationError(FanStoreError, PermissionError):
    """The multi-read single-write model was violated (e.g. reopening a
    closed output file for writing, or two writers on one path);
    ``errno`` is EACCES, ``filename`` names the path when known."""

    def __init__(self, detail: str, path: str | None = None) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.EACCES
        self.filename = path


class BadFileDescriptorError(FanStoreError, OSError):
    """Operation on a file descriptor that is not open (``errno`` is
    EBADF; ``filename`` names the path when the fd resolved to one)."""

    def __init__(self, detail: str, path: str | None = None) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.EBADF
        self.filename = path


class InvalidArgumentError(FanStoreError, OSError):
    """A POSIX-surface call was driven with an invalid argument
    (negative pread offset, unknown whence, unsupported mode); the
    EINVAL of the store."""

    def __init__(self, detail: str, path: str | None = None) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.EINVAL
        self.filename = path


class WireFormatError(FanStoreError, FormatError):
    """A daemon wire body (request envelope or reply) is structurally
    malformed. A server counts a malformed request and drops it; a
    client counts a malformed reply as a failed attempt. Neither side
    crashes on one."""


class CapacityError(FanStoreError):
    """A node's burst buffer cannot host the data assigned to it."""


class MembershipError(FanStoreError):
    """The cluster-membership protocol failed: a join or promotion
    handshake got no (or a rejecting) answer, or a view operation was
    driven with inconsistent arguments."""


class CommError(ReproError):
    """Base class for communicator failures."""


class RankError(CommError, ValueError):
    """A rank argument was outside ``[0, size)``."""


class CommClosedError(CommError, RuntimeError):
    """Communication attempted on a torn-down communicator."""


class RankDeadError(CommError, RuntimeError):
    """Communication attempted by (or teardown observed on) a rank that
    the fault-injection layer has declared dead — the in-process analog
    of a node crash mid-job."""


class RetryExhaustedError(CommError, TimeoutError):
    """A request/reply exchange failed every attempt of its bounded
    retry budget (and, for reads, every failover tier). TimeoutError is
    OSError-family, so the POSIX contract applies: ``errno`` is
    ETIMEDOUT and ``filename`` names the subject path when there is
    one."""

    def __init__(self, detail: str, path: str | None = None) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.ETIMEDOUT
        self.filename = path


class DeadlineExpiredError(CommError, TimeoutError):
    """A request's propagated deadline ran out before (or while) the
    exchange completed — the remaining ladder is abandoned rather than
    stacking further timeouts. Deliberately *not* a
    :class:`RetryExhaustedError`: failover arms catch that to descend
    the ladder, and a dead deadline means there is no ladder left to
    descend. ``errno`` is ETIMEDOUT; ``filename`` names the subject
    path when there is one."""

    def __init__(self, detail: str, path: str | None = None) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.ETIMEDOUT
        self.filename = path


class ServerOverloadedError(FanStoreError, OSError):
    """A daemon shed the request from its admission queue instead of
    serving it. The EAGAIN of the store: back off (honouring
    ``retry_after_s``) instead of retry-storming; ``filename`` names
    the subject path when there is one."""

    def __init__(
        self,
        detail: str,
        path: str | None = None,
        *,
        retry_after_s: float = 0.0,
    ) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.EAGAIN
        self.filename = path
        self.retry_after_s = retry_after_s


class StaleEpochError(FanStoreError, OSError):
    """A mutating request carried a fencing token (membership view
    epoch) older than the serving rank's — the sender is acting on a
    pre-partition view of the cluster and must refresh before retrying.
    The ESTALE of the store: ``filename`` names the subject path when
    there is one, and ``server_epoch`` reports the epoch the server
    fenced with."""

    def __init__(
        self,
        detail: str,
        path: str | None = None,
        *,
        server_epoch: int = 0,
    ) -> None:
        import errno as _errno

        super().__init__(detail)
        self.errno = _errno.ESTALE
        self.filename = path
        self.server_epoch = server_epoch


class StorageFullError(FanStoreError, OSError):
    """A write was refused because local storage (or the journal's
    segment budget) is exhausted — refused *early*, before any bytes
    were torn: the store fails the write typed rather than half-apply
    it. The ENOSPC of the store: ``errno`` is set accordingly and
    ``filename`` names the path the write was for."""

    def __init__(self, path: str, detail: str = "") -> None:
        import errno as _errno

        message = f"{path}: storage full"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.errno = _errno.ENOSPC
        self.filename = path


class SelectionError(ReproError):
    """The compressor-selection algorithm received inconsistent inputs."""


class SimulationError(ReproError):
    """The discrete-event model was driven with invalid parameters."""
