"""The replica policy, once: verdicts, counters and health per outcome.

Both topologies drive the same :class:`~repro.serve.replicas.ReplicaWalk`
— the thread topology reports in-process exceptions through
:meth:`ReplicaWalk.call`, the proxy reports worker replies by status
(and unreachable shards by exception).  One table of per-owner outcome
sequences pins what each walk decides, what it counts and what it tells
the health tracker, through both reporting paths.
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    BitstreamError,
    BlobNotFoundError,
    ConfigError,
    DeadlineExceededError,
    StoreError,
)
from repro.serve.deadline import Deadline, RequestContext
from repro.serve.health import HealthTracker
from repro.serve.proxy import WorkerReply, WorkerUnreachableError
from repro.serve.replicas import ReplicaSet, ReplicaWalk, outcome_for
from repro.serve.router import StoreRouter
from repro.serve.routes import status_for
from repro.serve.stats import ServerStats

OWNERS = ("a", "b", "c")

#: outcome -> (in-process exception or None for an answer, worker status
#: or None for an unreachable worker fleet)
OUTCOMES = {
    "answer": (None, 200),
    "miss": (BlobNotFoundError, 404),
    "client": (ConfigError, 400),
    "fault": (BitstreamError, 500),  # an integrity failure answers 500
    "unreachable": (StoreError, None),
}

#: (mode, per-owner outcomes, verdict, owners tried, failover delta,
#: health calls).  ``verdict`` is ``answer:<owner>`` or the outcome whose
#: failure the walk ends with.
CASES = [
    # reads: the first answer wins, misses and faults move on
    ("read", ("answer", "fault", "fault"), "answer:a", "a", 0, "+a"),
    ("read", ("fault", "answer", "fault"), "answer:b", "ab", 1, "-a +b"),
    ("read", ("unreachable", "fault", "answer"), "answer:c", "abc", 2, "-a -b +c"),
    ("read", ("miss", "answer", "answer"), "answer:b", "ab", 0, "+a +b"),
    # reads: a client error is the verdict and stops the walk
    ("read", ("client", "answer", "answer"), "client", "a", 0, "+a"),
    ("read", ("fault", "client", "answer"), "client", "ab", 1, "-a +b"),
    # reads: nobody answered — a fault outranks a miss, the last fault wins
    ("read", ("miss", "miss", "miss"), "miss", "abc", 0, "+a +b +c"),
    ("read", ("miss", "fault", "miss"), "fault", "abc", 1, "+a -b +c"),
    ("read", ("unreachable", "miss", "miss"), "unreachable", "abc", 1, "-a +b +c"),
    ("read", ("fault", "miss", "unreachable"), "unreachable", "abc", 2, "-a +b -c"),
    # writes: fan out to every owner, succeed when one answered
    ("write", ("answer", "answer", "answer"), "answer:a", "abc", 0, "+a +b +c"),
    ("write", ("fault", "answer", "unreachable"), "answer:b", "abc", 2, "-a +b -c"),
    ("write", ("miss", "answer", "miss"), "answer:b", "abc", 0, "+a +b +c"),
    # writes: a client error is the verdict, even after an answer
    ("write", ("answer", "client", "answer"), "client", "ab", 0, "+a +b"),
    # writes: nobody answered
    ("write", ("unreachable", "unreachable", "unreachable"), "unreachable", "abc", 3, "-a -b -c"),
    ("write", ("miss", "fault", "miss"), "fault", "abc", 1, "+a -b +c"),
    ("write", ("miss", "miss", "miss"), "miss", "abc", 0, "+a +b +c"),
]


class _RecordingTracker(HealthTracker):
    def __init__(self):
        super().__init__(list(OWNERS))
        self.calls = []

    def record_success(self, name):
        self.calls.append("+" + name)
        super().record_success(name)

    def record_failure(self, name):
        self.calls.append("-" + name)
        super().record_failure(name)


def _walk(mode, tracker, stats, context=None):
    owners = [(name, name) for name in OWNERS]
    return ReplicaWalk(owners, tracker, stats, fan_out=mode == "write", context=context)


def _run_in_process(walk, outcomes):
    """The thread topology's loop: blocking calls reported by exception."""
    plan = dict(zip(OWNERS, outcomes))
    tried = []

    def call(name):
        tried.append(name)
        error = OUTCOMES[plan[name]][0]
        if error is not None:
            raise error("owner %s: %s" % (name, plan[name]))
        return "value-" + name

    for name, shard in walk:
        walk.call(call, shard)
    try:
        return "answer:" + walk.result()[len("value-"):], tried
    except Exception as error:
        failed = {OUTCOMES[kind][0]: kind for kind in OUTCOMES if kind != "answer"}
        return failed[type(error)], tried


def _run_worker_replies(walk, outcomes):
    """The proxy's loop: replies reported by status, dead fleets raised."""
    plan = dict(zip(OWNERS, outcomes))
    tried = []
    for name, _ in walk:
        tried.append(name)
        status = OUTCOMES[plan[name]][1]
        if status is None:
            walk.raised(WorkerUnreachableError("no worker of shard %s" % name))
        else:
            walk.replied(status, WorkerReply(status, {"x-owner": name}))
    try:
        reply = walk.result()
    except WorkerUnreachableError:
        return "unreachable", tried
    by_status = {status: kind for kind, (_, status) in OUTCOMES.items()}
    kind = by_status[reply.status]
    return ("answer:" + reply.headers["x-owner"]) if kind == "answer" else kind, tried


@pytest.mark.parametrize("transport", [_run_in_process, _run_worker_replies])
@pytest.mark.parametrize(
    "mode, outcomes, verdict, tried, failovers, health",
    CASES,
    ids=["%s-%s" % (case[0], "-".join(case[1])) for case in CASES],
)
def test_walk_decides_counts_and_reports_health(
    transport, mode, outcomes, verdict, tried, failovers, health
):
    tracker = _RecordingTracker()
    stats = ServerStats()
    walk = _walk(mode, tracker, stats)
    got_verdict, got_tried = transport(walk, outcomes)
    assert got_verdict == verdict
    assert "".join(got_tried) == tried
    counter = "write_failovers" if mode == "write" else "failovers"
    other = "failovers" if mode == "write" else "write_failovers"
    assert stats.counter(counter) == failovers
    assert stats.counter(other) == 0
    faulted = [call[1:] for call in tracker.calls if call.startswith("-")]
    for name in OWNERS:
        assert stats.shard_counter(name, counter) == faulted.count(name)
    assert " ".join(tracker.calls) == health
    answered = [name for name, kind in zip(OWNERS, outcomes) if kind == "answer"]
    assert walk.replicas == [name for name in answered if name in tried]


def test_deadline_expiry_aborts_the_walk_without_blaming_the_owner():
    tracker = _RecordingTracker()
    stats = ServerStats()
    walk = _walk("read", tracker, stats)
    for _, _ in walk:
        with pytest.raises(DeadlineExceededError):
            walk.call(_raise, DeadlineExceededError("budget spent"))
        break
    assert tracker.calls == []
    assert stats.counter("failovers") == 0


def test_fault_after_the_deadline_lapsed_is_the_deadline_not_the_owner():
    tracker = _RecordingTracker()
    stats = ServerStats()
    walk = _walk("read", tracker, stats, context=RequestContext(Deadline(0.0)))
    for _, _ in walk:
        # e.g. a stalled backend that gave up because the request expired
        with pytest.raises(DeadlineExceededError):
            walk.call(_raise, StoreError("stalled read abandoned"))
        break
    assert tracker.calls == []
    assert stats.counter("failovers") == 0


def test_lapsed_context_stops_a_read_before_the_next_owner():
    tracker = _RecordingTracker()
    context = RequestContext(Deadline(0.0))
    walk = _walk("read", tracker, ServerStats(), context=context)
    tried = []
    with pytest.raises(DeadlineExceededError):
        for name, _ in walk:
            tried.append(name)
            walk.replied(404, None)  # a miss moves on, the deadline stops it
    assert tried == ["a"]
    assert tracker.calls == ["+a"]


def test_read_order_prefers_healthy_owners_and_writes_keep_rendezvous_order():
    router = StoreRouter([_Shard() for _ in OWNERS], list(OWNERS), replication=3)
    tracker = HealthTracker(list(OWNERS), down_after=1)
    replicas = ReplicaSet(router, tracker, ServerStats())
    ranked = [name for name, _ in router.owners("some-key")]
    tracker.record_failure(ranked[0])
    assert [name for name, _ in replicas.read("some-key")] == ranked[1:] + ranked[:1]
    assert [name for name, _ in replicas.write("some-key")] == ranked


@pytest.mark.parametrize(
    "status, outcome",
    [(200, "answer"), (201, "answer"), (404, "miss"), (400, "refusal"),
     (429, "refusal"), (500, "fault"), (503, "fault"), (504, "fault")],
)
def test_outcome_for_status(status, outcome):
    assert outcome_for(status) == outcome


@pytest.mark.parametrize(
    "error, status",
    [(BlobNotFoundError("x"), 404), (ConfigError("x"), 400), (StoreError("x"), 503),
     (BitstreamError("x"), 500), (DeadlineExceededError("x"), 504), (KeyError("x"), 500)],
)
def test_status_for_matches_the_dispatch(error, status):
    assert status_for(error) == status


class _Shard:
    engine = "reference"

    def close(self):
        pass


def _raise(error):
    raise error
