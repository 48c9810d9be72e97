"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. Sub-hierarchies mirror the package
layout: buffer-manager errors, storage errors, database-engine errors,
and simulation/configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed or configured with invalid parameters."""


class PolicyError(ReproError):
    """A replacement policy was driven through an illegal state transition."""


class NoEvictableFrameError(PolicyError):
    """A victim was requested but no resident page may be evicted.

    Raised by the buffer pool when every frame is pinned, or by a policy
    when its candidate set is empty.
    """


class BufferError_(ReproError):
    """Base class for buffer-manager errors.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`BufferError`.
    """


class PageNotResidentError(BufferError_, KeyError):
    """An operation required a page to be resident in the pool but it was not."""


class InvalidPinError(BufferError_):
    """A page was unpinned more times than it was pinned."""


class StorageError(ReproError):
    """Base class for simulated-disk errors."""


class PageNotAllocatedError(StorageError, KeyError):
    """A read or write addressed a page id that was never allocated."""


class TraceFormatError(StorageError, ValueError):
    """A trace file could not be parsed."""


class DatabaseError(ReproError):
    """Base class for the miniature database engine."""


class RecordNotFoundError(DatabaseError, KeyError):
    """A key lookup found no matching record."""


class DuplicateKeyError(DatabaseError, ValueError):
    """An insert collided with an existing unique key."""


class PageOverflowError(DatabaseError):
    """A record does not fit on a slotted page."""


class TransactionError(DatabaseError):
    """A transaction was used after commit/abort, or nested illegally."""


class TransactionAborted(DatabaseError):
    """Control-flow exception signalling a (possibly injected) abort."""


class SimulationError(ReproError):
    """The simulation harness was misused (e.g. measuring before warm-up)."""


class OracleError(SimulationError):
    """An oracle policy (Belady, A0) was used without its required knowledge."""
