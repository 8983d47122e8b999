"""Exception types shared across the package."""


class QueueMCError(Exception):
    """Base class for all package errors.

    When one aborts ``engine.run_chains``, the chain output of the
    iterations completed before it is attached as ``partial_output``.
    """

    partial_output = None


class DuplicateQueueError(QueueMCError):
    """A queue with this name already exists in the fabric."""


class WireFormatError(QueueMCError, ValueError):
    """A serialized message or frame could not be decoded."""


class KeyExistsError(QueueMCError):
    """Object-store key already written; objects are immutable."""


class NotFoundError(QueueMCError, KeyError):
    """Object-store key does not exist."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)


class CorruptionError(QueueMCError):
    """Stored bytes do not match their recorded digest."""


class StorageFullError(QueueMCError):
    """The backing store ran out of capacity."""


class ConfigurationError(QueueMCError, ValueError):
    """Invalid backend or run configuration."""


class SimulationStalledError(QueueMCError):
    """A virtual-clock wait had no scheduled event to advance to."""


class WorkerCrashError(QueueMCError):
    """A worker failed while executing a task; the task is not retried."""


class NonFiniteDensityError(QueueMCError):
    """A likelihood or prior evaluated to NaN or +inf.

    -inf is a legal zero density and is rejected by the sampler like any
    other proposal; NaN and +inf have no meaning and abort the run.
    """


class InvalidGridError(QueueMCError, ValueError):
    """Radial evaluation grid is outside the profile support."""


class ShapeMismatchError(QueueMCError, ValueError):
    """Model and data maps have different shapes."""


class ClusterEvalError(QueueMCError):
    """Likelihood evaluation failed for one cluster.

    Carries the cluster id so multi-cluster failures are attributable.
    """

    def __init__(self, cluster_id: str, cause: BaseException):
        super().__init__(f"likelihood evaluation failed for cluster {cluster_id!r}: {cause}")
        self.cluster_id = cluster_id
        self.__cause__ = cause


class MissingResponseError(QueueMCError):
    """A likelihood response did not arrive within the timeout, or, on
    virtual time, will never arrive. ``missing_ids`` holds the msg_ids of
    the unanswered requests."""

    def __init__(self, missing_ids):
        super().__init__(f"timed out waiting for {len(missing_ids)} response(s): "
                         f"{sorted(missing_ids)[:5]}...")
        self.missing_ids = set(missing_ids)


class DuplicateResponseError(QueueMCError):
    """A response matches no pending request: it answers a request already
    answered, or one from an earlier run."""
