"""The replica policy of both serve topologies, written once.

Every keyed operation walks the key's owner shards: a read fails over
until one owner answers, a put or a tombstone fans out to every owner.
What differs between topologies is only the *transport* — a blocking
:class:`~repro.store.store.ImageStore` call inside the thread topology's
offload, an async worker request in the proxy.  The decision is shared:
each topology loops over a :class:`ReplicaWalk` and reports every
owner's outcome into it, and the walk decides.

One outcome is classed by the HTTP status it stands for — a worker reply
by its status code, an in-process exception by the status
:func:`~repro.serve.routes.status_for` gives it at dispatch:

* **answer** (2xx/3xx) — the owner served the operation;
* **miss** (404) — the owner answered but does not hold the key (yet:
  replication and reshard migration can lag), so the walk moves on;
* **refusal** (any other 4xx) — the request itself is bad and equally
  bad on every owner, so the walk stops and the refusal is the verdict;
* **fault** (5xx, or an owner that cannot be reached) — the owner is
  sick: its health record takes a failure, ``failovers`` (reads) or
  ``write_failovers`` (writes) is bumped, and the walk moves on.  A
  detected integrity failure (a CRC mismatch answers 500) is a fault
  like any other, so a corrupt replica fails over to an intact one.

When no owner answers, a refusal outranks a fault and a fault outranks a
miss: with one owner unreadable the blob may live there, so a 404 would
lie.  Deadline expiry is the request's, not an owner's: it aborts the
walk, and a fault reported once the request's deadline has lapsed is
blamed on the deadline, not on the owner.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Tuple

from repro.exceptions import DeadlineExceededError
from repro.serve.deadline import RequestContext
from repro.serve.health import HealthTracker
from repro.serve.router import ShardT, StoreRouter
from repro.serve.routes import status_for
from repro.serve.stats import ServerStats

__all__ = ["ANSWER", "FAULT", "MISS", "REFUSAL", "ReplicaSet", "ReplicaWalk", "outcome_for"]

ANSWER = "answer"
MISS = "miss"
REFUSAL = "refusal"
FAULT = "fault"

#: Which outcome decides a walk that no owner answered, strongest first.
_PRECEDENCE = (REFUSAL, ANSWER, FAULT, MISS)


def outcome_for(status: int) -> str:
    """How one owner's status steers a walk (see the module docstring)."""
    if status < 400:
        return ANSWER
    if status == 404:
        return MISS
    if status < 500:
        return REFUSAL
    return FAULT


class ReplicaWalk(Generic[ShardT]):
    """One keyed operation over its owners; the transport loop reports in.

    Iterating yields the ``(name, shard)`` owners still worth trying; after
    each one the loop reports exactly one outcome about it —
    :meth:`replied` with a status or :meth:`raised` with an exception (or
    :meth:`call` for a blocking transport, which runs it and reports).  The iteration ends early
    once the verdict is decided: a read's first answer, any refusal.
    :meth:`result` then returns the verdict, raising it when it is an
    exception.
    """

    def __init__(
        self,
        owners: List[Tuple[str, ShardT]],
        health: HealthTracker,
        stats: ServerStats,
        fan_out: bool,
        context: Optional[RequestContext] = None,
    ) -> None:
        self._owners = owners
        self._health = health
        self._stats = stats
        self._fan_out = fan_out
        self._counter = "write_failovers" if fan_out else "failovers"
        self._context = context
        self._current = ""
        self._done = False
        self._verdicts: Dict[str, Any] = {}
        #: Owners that answered, in walk order (a write's replica list).
        self.replicas: List[str] = []

    def __iter__(self) -> Iterator[Tuple[str, ShardT]]:
        for position, (name, shard) in enumerate(self._owners):
            if self._done:
                return
            if position and not self._fan_out and self._context is not None:
                # A stalled replica must not consume the next one's budget.
                self._context.check("replica failover")
            self._current = name
            yield name, shard

    def replied(self, status: int, value: Any) -> None:
        """The current owner's outcome, classed by ``status``."""
        name = self._current
        outcome = outcome_for(status)
        if outcome == FAULT:
            if self._context is not None:
                # An owner that failed because this request gave up (its
                # deadline lapsed, its client left) is not sick.
                self._context.check("replica %s" % name)
            self._health.record_failure(name)
            self._stats.bump(self._counter)
            self._stats.bump_shard(name, self._counter)
        else:
            self._health.record_success(name)
        if outcome == ANSWER:
            self.replicas.append(name)
            self._verdicts.setdefault(ANSWER, value)
            self._done = not self._fan_out
        else:
            self._verdicts[outcome] = value
            self._done = outcome == REFUSAL

    def raised(self, error: Exception) -> None:
        """The current owner raised ``error``: classed by its dispatch status."""
        if isinstance(error, DeadlineExceededError):
            raise error
        self.replied(status_for(error), error)

    def call(self, function: Callable[..., Any], *args: Any) -> None:
        """Run a blocking transport call against the current owner and report."""
        try:
            value = function(*args)
        except Exception as error:
            self.raised(error)
        else:
            self.replied(200, value)

    def result(self) -> Any:
        """The verdict: the (first) answer, else the strongest failure."""
        for outcome in _PRECEDENCE:
            if outcome in self._verdicts:
                verdict = self._verdicts[outcome]
                if isinstance(verdict, BaseException):
                    raise verdict
                return verdict
        raise AssertionError("a replica walk ended without trying an owner")


class ReplicaSet(Generic[ShardT]):
    """Owner order plus the health and counters every walk reports into."""

    def __init__(
        self, router: StoreRouter[ShardT], health: HealthTracker, stats: ServerStats
    ) -> None:
        self.router = router
        self.health = health
        self.stats = stats

    def read(
        self, key: str, context: Optional[RequestContext] = None
    ) -> ReplicaWalk[ShardT]:
        """A failover walk: rendezvous order, believed-healthy owners first.

        A down owner is a last resort, never skipped: health can reorder a
        read's attempts but never hide data.
        """
        owners = self.health.prefer_healthy(self.router.owners(key))
        return ReplicaWalk(owners, self.health, self.stats, False, context)

    def write(
        self, key: str, context: Optional[RequestContext] = None
    ) -> ReplicaWalk[ShardT]:
        """A fan-out walk over every owner; it succeeds when one answers.

        A down replica must not fail a write another owner can take; read
        failover heals the gap once the shard revives.
        """
        return ReplicaWalk(self.router.owners(key), self.health, self.stats, True, context)
