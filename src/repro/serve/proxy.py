"""The routing proxy of the multi-process topology (``--topology proc``).

:class:`ReproProxy` is the public face of a fleet of shard worker
processes (:mod:`repro.serve.worker`).  It is a
:class:`~repro.serve.app.ServerCore` like the in-process
:class:`~repro.serve.app.ReproServer` and adds only the data-plane
``_handle_*`` methods — the route table, the 404/405 derivation, the
error envelope, admission control, deadlines, streaming framing, the
drain sequence and the control-plane routes are shared, so the two
topologies cannot drift apart request by request.

Placement and failover reuse the exact machinery of the in-process tier:
:class:`~repro.serve.router.StoreRouter` ranks owner shards per key and
the :class:`~repro.serve.replicas.ReplicaSet` walk decides failover,
fan-out and health — except the shards are :class:`RemoteShard` handles
that speak HTTP over loopback, and a worker's reply is classed by its
status code.  Within one shard a keyed request prefers its affinity
worker — the same worker every time for a given key, so worker-local
caches and single-flight coalescing keep working — before trying the
shard's other workers.

What the proxy forwards it forwards **verbatim**: a worker's error
envelope (with the worker's ``request_id``) and its response bytes pass
through untouched, and streamed regions are re-framed chunk-for-chunk as
they arrive, so first-chunk latency survives the extra hop.  What the
proxy must compute itself — the content key for ``PUT`` routing — it
does by encoding Netpbm bodies in its own thread pool, then fans the
encoded container out to every owner shard.

The remaining request budget rides to workers as ``x-deadline-ms``, so
a proxy-side deadline bounds worker-side decode work too.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)
from urllib.parse import quote

from repro.exceptions import (
    DeadlineExceededError,
    ServeError,
    StoreError,
)
from repro.serve.app import (
    ServerCore,
    ServerHandle,
    ServiceCore,
    StreamingBody,
    start_server_thread,
)
from repro.serve.client import ServeClient
from repro.serve.deadline import RequestContext
from repro.serve.http import HttpRequest, json_payload
from repro.serve.replicas import ReplicaWalk
from repro.serve.worker import WorkerGroup, WorkerProcess, WorkerSupervisor
from repro.store.catalog import CatalogFilter

__all__ = [
    "ProxyService",
    "RemoteShard",
    "ReproProxy",
    "WorkerUnreachableError",
    "start_proxy_thread",
]

#: Failures of one worker connection: a pooled socket may be stale.
_TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError)
#: Failures of one worker attempt that a sibling worker may not share.
_ATTEMPT_ERRORS = (StoreError,) + _TRANSPORT_ERRORS


class WorkerUnreachableError(StoreError):
    """No worker process of a shard could be reached (or all timed out).

    A :class:`~repro.exceptions.StoreError` on purpose: the shard-level
    failover and error mapping treat an unreachable worker fleet exactly
    like an unreadable local store — try the next replica, and answer
    ``503``/``upstream_unhealthy`` only when every owner is gone.
    """


@dataclass
class WorkerReply:
    """One worker response: status + headers + verbatim body.

    ``chunks`` is set only for a streamed (chunked) 2xx answer: the
    de-framed payloads, read lazily.  Every other reply is buffered.
    """

    status: int
    headers: Dict[str, str]
    body: bytes = b""
    chunks: Optional[AsyncIterator[bytes]] = None

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "application/octet-stream")


def _render_request(
    method: str, target: str, body: bytes, extra: List[Tuple[str, str]]
) -> bytes:
    lines = [
        "%s %s HTTP/1.1" % (method, target),
        "host: 127.0.0.1",
        "content-length: %d" % len(body),
    ]
    lines.extend("%s: %s" % pair for pair in extra)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("worker closed the connection before answering")
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError("worker sent a malformed status line %r" % status_line)
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("worker closed the connection mid-headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


async def _read_body(reader: asyncio.StreamReader, headers: Dict[str, str]) -> bytes:
    if headers.get("transfer-encoding", "").lower() == "chunked":
        pieces: List[bytes] = []
        while True:
            piece = await _read_chunk(reader)
            if piece is None:
                return b"".join(pieces)
            pieces.append(piece)
    length = int(headers.get("content-length", "0"))
    return await reader.readexactly(length) if length else b""


async def _read_chunk(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One chunked-transfer frame; ``None`` on the terminating frame."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("worker closed the connection mid-stream")
    size = int(line.strip().split(b";")[0], 16)
    if size == 0:
        await reader.readline()  # the blank line after the 0-size frame
        return None
    piece = await reader.readexactly(size)
    await reader.readexactly(2)  # the frame's trailing CRLF
    return piece


class RemoteShard:
    """One shard's worker group, spoken to over loopback HTTP.

    Satisfies the :class:`~repro.serve.router.Shard` surface routing
    needs (a name-ranked handle with an engine that closes) plus the
    health probe.  Keep-alive connections are pooled per worker and
    tagged with the worker's spawn generation, so a restarted worker's
    stale sockets are discarded instead of retried.
    """

    def __init__(
        self,
        group: WorkerGroup,
        request_timeout: float = 30.0,
        pool_size: int = 32,
    ) -> None:
        self.group = group
        self.request_timeout = request_timeout
        self.pool_size = pool_size
        self._pools: Dict[
            int, Deque[Tuple[int, asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}

    @property
    def name(self) -> str:
        return self.group.shard_name

    @property
    def engine(self) -> str:
        return self.group.spec.engine

    def close(self) -> None:
        for pool in self._pools.values():
            while pool:
                _, _, writer = pool.popleft()
                _close_writer(writer)

    def probe(self, timeout: float) -> None:
        """Raise unless some live worker of the shard answers ``/healthz``."""
        if next(_ask_workers(self.group, ServeClient.healthz, timeout), None) is None:
            raise WorkerUnreachableError(
                "no worker of shard %s answered the health probe" % self.name
            )

    # -- connection pool ------------------------------------------------ #

    def _checkout(
        self, worker: WorkerProcess
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        pool = self._pools.get(worker.index)
        while pool:
            generation, reader, writer = pool.popleft()
            if generation == worker.generation and not writer.is_closing():
                return reader, writer
            _close_writer(writer)
        return None

    def _checkin(
        self,
        worker: WorkerProcess,
        generation: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        pool = self._pools.setdefault(worker.index, deque())
        if generation != worker.generation or writer.is_closing():
            _close_writer(writer)
        elif len(pool) >= self.pool_size:
            _close_writer(writer)
        else:
            pool.append((generation, reader, writer))

    # -- request plumbing ----------------------------------------------- #

    def _attempt_budget(self, context: Optional[RequestContext]) -> float:
        budget = self.request_timeout
        if context is not None:
            remaining = context.deadline.remaining
            if not math.isinf(remaining):
                if remaining <= 0:
                    raise DeadlineExceededError(
                        "request deadline lapsed before the worker call"
                    )
                budget = min(budget, remaining)
        return budget

    @staticmethod
    def _forward_headers(context: Optional[RequestContext]) -> List[Tuple[str, str]]:
        if context is None:
            return []
        remaining = context.deadline.remaining
        if math.isinf(remaining):
            return []
        return [("x-deadline-ms", "%d" % max(1, int(remaining * 1000)))]

    async def _exchange(
        self,
        worker: WorkerProcess,
        method: str,
        target: str,
        body: bytes,
        context: Optional[RequestContext],
        stream: bool,
    ) -> WorkerReply:
        """One request/response on one worker connection.

        The head is read eagerly.  A chunked 2xx answer to a ``stream``
        request keeps its body on the wire as :attr:`WorkerReply.chunks`;
        any other body is read here — a buffered reply is a streamed one
        joined — so error envelopes forward verbatim and failover can
        keep trying.
        """
        payload = _render_request(method, target, body, self._forward_headers(context))
        for pooled in (True, False):
            conn = self._checkout(worker) if pooled else None
            if pooled and conn is None:
                continue
            generation = worker.generation
            if conn is None:
                reader, writer = await asyncio.open_connection(worker.host, worker.port)
            else:
                reader, writer = conn
            try:
                writer.write(payload)
                await writer.drain()
                status, headers = await _read_head(reader)
                chunked = headers.get("transfer-encoding", "").lower() == "chunked"
                if stream and chunked and status < 300:
                    pieces = self._stream_pieces(worker, generation, reader, writer)
                    return WorkerReply(status, headers, chunks=pieces)
                reply_body = await _read_body(reader, headers)
            except _TRANSPORT_ERRORS:
                _close_writer(writer)
                if conn is not None:
                    continue  # a stale pooled socket; retry on a fresh one
                raise
            if headers.get("connection", "").lower() == "close":
                _close_writer(writer)
            else:
                self._checkin(worker, generation, reader, writer)
            return WorkerReply(status, headers, reply_body)
        raise ConnectionError("worker %s has no usable connection" % worker.label)

    async def _attempt(
        self,
        worker: WorkerProcess,
        method: str,
        target: str,
        body: bytes,
        context: Optional[RequestContext],
        stream: bool = False,
    ) -> WorkerReply:
        """One exchange bounded by the worker timeout and the request deadline."""
        budget = self._attempt_budget(context)
        try:
            return await asyncio.wait_for(
                self._exchange(worker, method, target, body, context, stream), budget
            )
        except asyncio.TimeoutError:
            if context is not None and context.deadline.expired:
                raise DeadlineExceededError(
                    "worker call ran past the request deadline"
                ) from None
            raise StoreError(
                "worker %s did not answer within %.1fs" % (worker.label, budget)
            ) from None

    async def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        context: Optional[RequestContext] = None,
        key: Optional[str] = None,
        stream: bool = False,
        every_worker: bool = False,
    ) -> WorkerReply:
        """One request against this shard, failing over across its workers.

        Transport failures, timeouts and retryable statuses (a draining
        or shedding worker: 429/503) move on to the group's next worker;
        everything else — including worker-side 4xx/500 envelopes — is
        the shard's answer.  Raises :class:`WorkerUnreachableError` when
        no worker produced an answer at all.

        ``every_worker`` sends the request to the whole group instead, for
        mutations that must land in every worker's catalog view
        (tombstones): workers of one shard share the blob backend but keep
        independent catalogs, so a delete applied to just one would let a
        sibling worker resurrect the key on failover reads.  The shard's
        reply is then the first success, else the first failure other
        than a miss, else a miss.
        """
        replies: List[WorkerReply] = []
        last_error: Optional[BaseException] = None
        for worker in self.group.candidates(key):
            try:
                reply = await self._attempt(worker, method, target, body, context, stream)
            except _ATTEMPT_ERRORS as error:
                last_error = error
                continue
            if not every_worker and reply.status not in (429, 503):
                return reply
            replies.append(reply)
        if not replies:
            raise WorkerUnreachableError(
                "no worker of shard %s answered %s %s (%s)"
                % (self.name, method, target, last_error)
            )
        return min(replies, key=lambda reply: (reply.status >= 300, reply.status == 404))

    async def _stream_pieces(
        self,
        worker: WorkerProcess,
        generation: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> AsyncIterator[bytes]:
        """De-framed chunk payloads of one in-flight worker stream.

        The connection returns to the pool only after the terminating
        frame; an abandoned or failed iteration closes it instead, so a
        half-read stream can never be mistaken for an idle socket.
        """
        completed = False
        try:
            while True:
                piece = await asyncio.wait_for(
                    _read_chunk(reader), self.request_timeout
                )
                if piece is None:
                    completed = True
                    return
                yield piece
        finally:
            if completed:
                self._checkin(worker, generation, reader, writer)
            else:
                _close_writer(writer)


def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except (RuntimeError, OSError):  # pragma: no cover - loop already gone
        pass


def _merge_counters(target: Dict[str, object], source: Dict[str, object]) -> None:
    """Recursively sum numeric counters of ``source`` into ``target``.

    Dicts merge key-by-key, ints and floats add (bools are flags, not
    counters — first writer wins), anything else keeps the first value
    seen.  Used to aggregate worker ``/stats`` documents into one
    fleet-wide view with the same shape.
    """
    for key, value in source.items():
        if isinstance(value, dict):
            node = target.setdefault(key, {})
            if isinstance(node, dict):
                _merge_counters(node, cast(Dict[str, object], value))
        elif isinstance(value, bool):
            target.setdefault(key, value)
        elif isinstance(value, (int, float)):
            current = target.get(key)
            if isinstance(current, (int, float)) and not isinstance(current, bool):
                target[key] = current + value
            else:
                target[key] = value
        else:
            target.setdefault(key, value)


def _ask_workers(
    group: WorkerGroup, ask: Callable[[ServeClient], Dict[str, Any]], timeout: float
) -> Iterator[Dict[str, Any]]:
    """``ask``'s document from every live worker of ``group`` that answers."""
    for worker in group.workers:
        if not worker.alive:
            continue
        try:
            with ServeClient(worker.host, worker.port, timeout=timeout) as client:
                document = ask(client)
        except (ServeError, OSError):
            continue
        yield document


class ProxyService(ServiceCore[RemoteShard]):
    """The proxy-side counterpart of :class:`~repro.serve.app.ImageService`.

    The front-end settings, replicas and control-plane documents are the
    shared :class:`~repro.serve.app.ServiceCore`'s; the shards are
    :class:`RemoteShard` handles over the supervisor's worker groups, and
    the ``/stats`` and ``/catalog`` documents are aggregated from the
    worker fleet.  ``options`` are :class:`ServiceCore`'s front-end
    parameters.
    """

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        worker_timeout: float = 30.0,
        **options: Any,
    ) -> None:
        self.supervisor = supervisor
        shards = [
            RemoteShard(group, request_timeout=worker_timeout)
            for group in supervisor.groups
        ]
        super().__init__(shards, supervisor.shard_names, **options)

    def close(self) -> None:
        super().close()
        self.supervisor.stop()

    def stats_payload(self) -> Dict[str, object]:
        """The fleet-wide ``/stats``: proxy front-end + aggregated workers.

        ``server``/``admission``/``clients`` are the proxy's own (they
        describe the public socket); ``flight`` and ``shards`` are the
        worker documents merged counter-by-counter, so coalescing and
        cache behaviour stay observable per shard no matter how many
        processes serve it; ``workers`` reports the process fleet (pids,
        ports, restart counts) for operators and the chaos drill.
        """
        flight: Dict[str, object] = {}
        sections: List[Dict[str, object]] = []
        for group in self.supervisor.groups:
            merged: Dict[str, object] = {}
            for document in _ask_workers(group, ServeClient.stats, timeout=5.0):
                worker_flight = document.get("flight")
                if isinstance(worker_flight, dict):
                    _merge_counters(flight, worker_flight)
                for shard_section in document.get("shards", ()):
                    if isinstance(shard_section, dict):
                        _merge_counters(merged, shard_section)
            merged["name"] = group.shard_name
            merged["joining"] = False
            sections.append(merged)
        return dict(
            super().stats_payload(),
            flight=flight,
            shards=sections,
            workers=self.supervisor.snapshot(),
        )

    def _catalog_pages(
        self, filter: CatalogFilter, bound: Optional[int]
    ) -> Iterator[Tuple[List[Dict[str, Any]], int]]:
        """Per shard: the union of its workers' catalog views.

        Workers of one shard keep independent catalog views (each records
        the puts it handled), so the group's listing is the union of its
        workers', deduplicated per key newest-first, with the same
        pushed-down bound per worker.
        """
        tag: Optional[str] = None
        if filter.tags:
            tag_key, tag_value = filter.tags[0]
            tag = tag_key if tag_value is None else "%s=%s" % (tag_key, tag_value)

        def query(client: ServeClient) -> Dict[str, Any]:
            return client.catalog(
                limit=bound,
                offset=0,
                tag=tag,
                planes=filter.planes,
                engine=filter.engine,
                include_deleted=filter.include_deleted,
                deleted_only=filter.deleted_only,
            )

        for group in self.supervisor.groups:
            documents = list(_ask_workers(group, query, timeout=10.0))
            if not documents:
                raise StoreError(
                    "no worker of shard %s answered the catalog query"
                    % group.shard_name
                )
            rows = [row for document in documents for row in document.get("entries", ())]
            # Oldest first, so the newest copy of a key is the one kept.
            rows.sort(key=lambda row: row["created_at"])
            by_key = {row["key"]: row for row in rows}
            total = sum(int(document.get("total", 0)) for document in documents)
            yield list(by_key.values()), max(0, total - (len(rows) - len(by_key)))


class ReproProxy(ServerCore[ProxyService]):
    """The proxy front-end: :class:`ServerCore` with forwarding handlers.

    Every data-plane route walks the key's owner shards through the
    shared replica policy; only the transport — an async worker request
    — is the proxy's own.
    """

    @staticmethod
    async def _walk(
        walk: ReplicaWalk[RemoteShard],
        call: Callable[[RemoteShard], Awaitable[WorkerReply]],
    ) -> WorkerReply:
        """Drive one replica walk with an async worker call per owner."""
        for _, shard in walk:
            try:
                reply = await call(shard)
            except Exception as error:
                walk.raised(error)
            else:
                walk.replied(reply.status, reply)
        return walk.result()

    def _relay(
        self, reply: WorkerReply, context: RequestContext
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        """A worker reply as this proxy's response, passed through as-is.

        A streamed answer is committed: a mid-stream worker death aborts
        the client's stream (truncated chunked body) exactly as an
        in-process decode failure would.
        """
        if reply.chunks is None:
            return reply.status, reply.body, reply.content_type
        body = StreamingBody(reply.chunks, self._stream_release(context))
        return reply.status, body, reply.content_type

    # -- data-plane handlers -------------------------------------------- #

    async def _forward(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        """Forward one keyed read, failing over across owner shards.

        Workers speak the same route table, so the read travels as routed
        here.  With ``?stream=1`` the failover happens *before* the first
        chunk: once a worker's 2xx head is accepted the stream is
        committed.
        """
        key = str(params["key"])
        stream = self._flag_query(request, "stream")
        target = quote(request.path) + ("?stream=1" if stream else "")
        reply = await self._walk(
            self.service.replicas.read(key, context),
            lambda shard: shard.request(
                request.method, target, request.body, context, key, stream
            ),
        )
        return self._relay(reply, context)

    _handle_get_image = _handle_get_plane = _forward
    _handle_get_region = _handle_get_regions = _forward

    async def _handle_put_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        service = self.service
        stream, encoded = await self._offload(
            context,
            service.prepare_put,
            request.body,
            self._int_query(request, "stripes"),
            self._flag_query(request, "plane_delta"),
        )
        key = hashlib.sha256(stream).hexdigest()
        walk = service.replicas.write(key, context)
        reply = await self._walk(
            walk, lambda shard: shard.request("PUT", "/images", stream, context, key)
        )
        if reply.status >= 300:
            # A refusal (equally bad on every owner) or the last fault:
            # the worker's envelope forwards verbatim.
            return self._relay(reply, context)
        outcome = service.write_outcome(
            key, walk.replicas, bytes=len(stream), encoded=encoded
        )
        return 201, json_payload(outcome), "application/json"

    async def _handle_delete_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        ttl = self._ttl_query(request)
        target = quote(request.path)
        if ttl is not None:
            target += "?ttl=%s" % ttl
        walk = self.service.replicas.write(key, context)
        # Every worker of the group keeps its own catalog, and the
        # tombstone must land in all of them or a failover read through a
        # sibling worker would resurrect the key.
        reply = await self._walk(
            walk,
            lambda shard: shard.request(
                "DELETE", target, context=context, key=key, every_worker=True
            ),
        )
        if reply.status >= 300:
            return self._relay(reply, context)
        entry = json.loads(reply.body.decode("utf-8"))
        outcome = self.service.write_outcome(
            key,
            walk.replicas,
            deleted_at=entry.get("deleted_at"),
            purge_after=entry.get("purge_after"),
        )
        return 200, json_payload(outcome), "application/json"


def start_proxy_thread(
    service: ProxyService, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0
) -> ServerHandle:
    """Boot a :class:`ReproProxy` on a daemon thread (tests, smokes)."""
    return start_server_thread(service, host, port, timeout, server_class=ReproProxy)
