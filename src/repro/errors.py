"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
distinguishing configuration mistakes from runtime/verification failures.

The full hierarchy::

    ReproError
    ├── ConfigurationError            (also ValueError)
    │   ├── SizeError
    │   ├── LayoutError
    │   └── ScheduleError
    ├── CommunicationError            (also RuntimeError)
    │   ├── PeerFailedError           — a specific rank died or went silent
    │   ├── SpmdTimeoutError          (also TimeoutError) — a deadline expired
    │   └── CorruptPayloadError       — a checksum rejected a payload
    ├── ServiceError                  (also RuntimeError)
    │   ├── AdmissionError            — request rejected/shed at the door
    │   │   └── MemoryBudgetError     — too big even for the spill-to-disk path
    │   ├── ServiceClosedError        — submitted to a closed service
    │   ├── ShardUnavailableError     — no healthy shard could take the request
    │   ├── RequestTimeoutError       (also TimeoutError) — client deadline expired
    │   └── FrameCorruptError         — a wire frame failed its checksum
    └── VerificationError             (also AssertionError)

The three :class:`CommunicationError` subclasses are raised by the
fault-tolerant transport (:mod:`repro.faults`): :class:`PeerFailedError`
names the rank that failed and the phase it failed in, carrying the retry
history that led to the verdict; :class:`SpmdTimeoutError` is the watchdog's
"nobody in particular, but the deadline passed" escalation (it additionally
derives from :class:`TimeoutError` so generic timeout handlers catch it);
:class:`CorruptPayloadError` reports a payload whose checksum never
validated within the retry budget — corruption is *always* surfaced as this
typed error, never as silently wrong data.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied.

    Raised for problems that are detectable before any work starts: sizes that
    are not powers of two, more processors than keys, negative model
    parameters, layouts that do not cover the requested network column, and so
    on.
    """


class SizeError(ConfigurationError):
    """A size argument (``N``, ``P`` or ``n``) violates a structural
    constraint of the bitonic sorting network (power of two, positivity,
    divisibility)."""


class LayoutError(ConfigurationError):
    """A data layout was asked to translate an address outside its domain, or
    a layout's parameters are mutually inconsistent."""


class ScheduleError(ConfigurationError):
    """A remap schedule could not be constructed for the requested
    ``(N, P)`` pair and strategy (e.g. cyclic-blocked with ``N < P**2``)."""


class CommunicationError(ReproError, RuntimeError):
    """The simulated machine was asked to perform an impossible transfer,
    such as a message addressed to a processor outside the machine or a
    payload whose length disagrees with its declared size."""


class PeerFailedError(CommunicationError):
    """A specific peer rank crashed or went silent.

    Raised by the fault-tolerant transport when a watchdog concludes that a
    named rank will never answer: its barrier collapsed, or it stopped
    acknowledging retransmissions while other peers kept making progress.

    Attributes
    ----------
    rank:
        The rank judged dead (``None`` when the culprit is unknowable, e.g.
        a collapsed barrier that does not identify its breaker).
    phase:
        The communication phase in which the failure was detected.
    retries:
        Retry history accumulated before giving up (one entry per attempt).
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        phase: Optional[str] = None,
        retries: Sequence[str] = (),
    ):
        super().__init__(message)
        self.rank = rank
        self.phase = phase
        self.retries = list(retries)


class SpmdTimeoutError(CommunicationError, TimeoutError):
    """An SPMD deadline expired with no specific peer to blame.

    Raised by :func:`repro.runtime.threads.run_spmd` when the world misses
    its wall-clock budget, and by the reliable transport when a collective's
    retry budget drains without isolating a single failed rank.  Also a
    :class:`TimeoutError` so generic timeout handlers catch it.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        phase: Optional[str] = None,
        retries: Sequence[str] = (),
    ):
        super().__init__(message)
        self.rank = rank
        self.phase = phase
        self.retries = list(retries)


class CorruptPayloadError(CommunicationError):
    """A payload's checksum never validated within the retry budget.

    The reliable transport detects in-flight corruption by checksum and
    normally recovers by requesting a retransmission; this error is the
    escalation when every attempt from a sender arrived corrupted.  It names
    the sending rank and the phase so a wrong sort can never be silent.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        phase: Optional[str] = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.rank = rank
        self.phase = phase
        self.attempts = attempts


class ServiceError(ReproError, RuntimeError):
    """A failure of the serving layer (:mod:`repro.service`) itself, as
    opposed to a failure of the sort a request carried (those re-raise
    the underlying :class:`CommunicationError` / job exception)."""


class AdmissionError(ServiceError):
    """Admission control turned a request away at the door.

    Load admission is the bounded queue and the caller's own deadline:
    :meth:`repro.service.SortService.submit` raises this when the queue
    is full (``reason="queue-full"``) or the estimated completion time
    exceeds the request's ``deadline_s`` (``reason="deadline"``).  A
    :class:`~repro.service.SortServer` at its connection cap refuses a
    new connection with ``reason="connections"``, and
    :class:`MemoryBudgetError` is the ``"memory-budget"`` case.  The
    request was *not* enqueued; the caller may retry later, shrink the
    request, or relax the deadline.

    Attributes
    ----------
    reason:
        ``"queue-full"``, ``"deadline"``, ``"connections"`` or
        ``"memory-budget"``.
    est_seconds:
        Planner-estimated completion time (queue wait included) at the
        moment of rejection; 0.0 for queue-full rejections.
    """

    def __init__(self, message: str, reason: str = "", est_seconds: float = 0.0):
        super().__init__(message)
        self.reason = reason
        self.est_seconds = est_seconds


class MemoryBudgetError(AdmissionError):
    """A request does not fit even the out-of-core path's budgets.

    A request whose estimated in-memory working set exceeds the service's
    memory budget degrades to the spill-to-disk external sort; this error
    is the escalation when *that* is impossible too — the estimated spill
    footprint exceeds the configured disk budget.  A subclass of
    :class:`AdmissionError` (``reason="memory-budget"``) because it is an
    admission verdict: the request was never enqueued.

    Attributes
    ----------
    required_bytes:
        Estimated bytes the cheapest viable path would need.
    budget_bytes:
        The budget it did not fit (disk budget for external rejections).
    """

    def __init__(self, message: str, required_bytes: int = 0,
                 budget_bytes: int = 0):
        super().__init__(message, reason="memory-budget")
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class ServiceClosedError(ServiceError):
    """The service was closed before (or while) the request could run."""


class ShardUnavailableError(ServiceError):
    """No healthy shard could take (or finish) the request.

    Raised by the shard router when every shard is ejected (circuit open,
    failed health checks) or when the failover budget drained without a
    surviving shard completing the request.  Carries the per-shard status
    observed at the moment of the verdict so callers can tell "everything
    is down" from "everything is saturated".

    Attributes
    ----------
    shards:
        ``{shard_name: status_string}`` snapshot at failure time.
    attempts:
        Shard attempts (first try + failovers) made for this request.
    """

    def __init__(self, message: str, shards: Optional[dict] = None,
                 attempts: int = 0):
        super().__init__(message)
        self.shards = dict(shards or {})
        self.attempts = attempts


class RequestTimeoutError(ServiceError, TimeoutError):
    """A request's end-to-end deadline expired.

    The deadline is the *client's*: the remaining-time budget travels
    client → router → shard admission → world dispatch, and whichever
    layer first observes the budget at zero raises this instead of doing
    work the caller has already given up on.  Also a
    :class:`TimeoutError` so generic timeout handlers catch it.

    Attributes
    ----------
    deadline_s:
        The original end-to-end budget, in seconds.
    elapsed_s:
        Time spent before the expiry verdict.
    stage:
        Which layer gave up (``"client"``, ``"router"``, ``"admission"``,
        ``"dispatch"``, ``"result-wait"``).
    """

    def __init__(self, message: str, deadline_s: float = 0.0,
                 elapsed_s: float = 0.0, stage: str = ""):
        super().__init__(message)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        self.stage = stage


class FrameCorruptError(ServiceError):
    """A wire frame failed its CRC (or structural) check.

    The length-prefixed frame protocol (:mod:`repro.service.net`)
    checksums every payload; a receiver that cannot validate a frame
    raises this instead of ever acting on damaged bytes.  The client
    treats it as retriable (idempotent request ids make the retry safe).

    Attributes
    ----------
    frame_type:
        Numeric frame type if the header was readable, else ``None``.
    detail:
        What specifically failed (``"crc"``, ``"magic"``, ``"version"``,
        ``"truncated"``, ``"meta"``).
    """

    def __init__(self, message: str, frame_type: Optional[int] = None,
                 detail: str = ""):
        super().__init__(message)
        self.frame_type = frame_type
        self.detail = detail


class VerificationError(ReproError, AssertionError):
    """A self-check failed: a sort produced output that is not a permutation
    of its input or is not globally sorted.  This indicates a bug in an
    algorithm implementation, never a user mistake."""
