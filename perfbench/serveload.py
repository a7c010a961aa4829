"""Workloads ``regions-hot`` and ``regions-cold-ingest``: region reads over HTTP.

Both boot ``repro-serve`` as a subprocess (``python -m repro.serve.cli``)
on a store prepared in setup, and drive it from this process with a closed
loop of ``CLIENTS`` threads, each with its own ``ServeClient``: a region
consumer asks for the next region only after the last one arrives.  Every
response is checked against pixels computed from the source image.

* ``regions-hot`` (thread topology, 2 shards, R=1): setup reads every
  region once, so the decoded cache holds the whole working set and the
  entropy engine does no work while measuring.  The time goes to image
  construction, Netpbm serialisation, HTTP and the client's parse.
* ``regions-cold-ingest`` (proc topology, 2 shards x 1 worker, R=2): the
  decoded cache per shard is a small fraction of the working set, so
  reads pay range reads and small-cell entropy decodes across the proxy
  hop, and one put of a never-seen image goes in per ten reads.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from common import (
    ENGINE,
    OUT,
    ROOT,
    BenchError,
    descendants,
    median,
    peak_rss_mb,
    percentile,
    program_env,
    reap_leftovers,
    run_dir,
    stop_process,
    supported_percentile,
    window_rate,
    write_json,
)
from inputs import (
    MIXED_REGIONS,
    SINGLE_STRIPE_REGIONS,
    STRIPES,
    SourceImage,
    cold_ops,
    hot_ops,
    ingest_image,
    pixels_of,
    working_set,
)

SHARDS = 2
CLIENTS = 2
SETUP_REPEATS = 3
BOOT_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Shape:
    """One serve workload's topology, working set and cache size."""

    name: str
    topology: str
    replication: int
    images: int
    planar: bool
    size: int
    regions: Tuple[Tuple[int, int], ...]
    cache_bytes: int
    ops: Callable[[int, int, int, int], Iterator[Tuple[str, int, int]]]
    prewarm: bool


# Hot reads are the re-anchor baseline's warm read: 256x256, 8 stripes,
# one- and two-stripe regions, so a request is mostly image building,
# serialisation and parsing rather than process wake-ups.
HOT = Shape("regions-hot", "thread", 1, 2, False, 256, MIXED_REGIONS, 32 << 20, hot_ops,
            prewarm=True)
# Cold reads are all one shape (one 8-row stripe of a 3-plane image) so that
# a read is either a whole miss or a whole hit and the percentiles sit inside
# the miss population instead of between two populations.
COLD = Shape("regions-cold-ingest", "proc", 2, 12, True, 64, SINGLE_STRIPE_REGIONS, 128 << 10,
             cold_ops, prewarm=False)
SHAPES = {shape.name: shape for shape in (HOT, COLD)}


def decoded_bytes(images: List[SourceImage]) -> int:
    """Decoded-cache footprint of a working set: cells are int64 arrays."""
    return sum(8 * image.samples for image in images)


# ---------------------------------------------------------------------- #
# inputs and stores
# ---------------------------------------------------------------------- #


@dataclass
class Inputs:
    seed: int
    shape: Shape
    images: List[SourceImage]
    expected: Dict[Tuple[int, int], List[List[int]]]

    @classmethod
    def build(cls, seed: int, shape: Shape, plant: bool = False) -> "Inputs":
        """Source images and expected region pixels; ``plant`` corrupts one pixel per region."""
        images = working_set(seed, shape.images, shape.planar, shape.size)
        expected = {
            (index, region): image.region_pixels(span)
            for index, image in enumerate(images)
            for region, span in enumerate(shape.regions)
        }
        if plant:
            for planes in expected.values():
                planes[0][0] ^= 1
        return cls(seed, shape, images, expected)


def open_service(shape: Shape, root: Path):
    from repro.serve.app import ImageService
    from repro.serve.cli import open_shards

    stores = open_shards(root, SHARDS, "fs", shape.cache_bytes, ENGINE)
    return ImageService(stores, replication=shape.replication)


def ingest(inputs: Inputs, root: Path) -> Tuple[List[str], int]:
    """Store the working set under ``root`` through the program's own put path.

    Returns the content keys and the total stored container bytes.
    """
    service = open_service(inputs.shape, root)
    try:
        replies = [service.put_image(image.netpbm(), stripes=STRIPES) for image in inputs.images]
    finally:
        service.close()
    return [str(reply["key"]) for reply in replies], sum(int(reply["bytes"]) for reply in replies)


# ---------------------------------------------------------------------- #
# server lifecycle
# ---------------------------------------------------------------------- #


class Server:
    """A ``repro-serve`` subprocess on a prepared store root."""

    def __init__(self, shape: Shape, root: Path, logs: Path) -> None:
        command = [
            sys.executable, "-m", "repro.serve.cli", "--port", "0", "--engine", ENGINE,
            "--shards", str(SHARDS), "--root", str(root), "--topology", shape.topology,
            "--replication", str(shape.replication), "--cache-bytes", str(shape.cache_bytes),
        ]
        self.stdout_path = logs / "stdout.log"
        self.stderr_path = logs / "stderr.log"
        with open(self.stdout_path, "w") as stdout, open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                command, stdout=stdout, stderr=stderr, env=program_env(), cwd=str(ROOT)
            )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[^\s:]+:(\d+)", self.stdout_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        stop_process(self.process)
        raise BenchError(
            "repro-serve did not start: %s" % self.stderr_path.read_text()[-2000:]
        )

    def client(self, port: Optional[int] = None):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", port or self.port, timeout=60.0)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.stop()

    def stop(self) -> Dict[str, object]:
        """SIGTERM; the server must exit 0 and leave no worker behind."""
        children = descendants(self.process.pid)
        rss = peak_rss_mb([self.process.pid] + children)
        code = stop_process(self.process)
        leftovers = reap_leftovers(children, "repro.serve.worker")
        return {"exit_code": code, "leftover_workers": leftovers, "peak_rss_mb": rss,
                "clean": code == 0 and not leftovers}


@dataclass
class Setup:
    server: Server
    keys: List[str]
    stored_bytes: int
    seconds: float
    failures: int


def set_up(inputs: Inputs, work: Path, index: int) -> Setup:
    """Prepare a store, boot the server on it and (hot) read every region once."""
    started = time.perf_counter()
    root = work / ("store-%d" % index)
    logs = work / ("server-%d" % index)
    logs.mkdir(parents=True)
    keys, stored_bytes = ingest(inputs, root)
    server = Server(inputs.shape, root, logs)
    failures = 0
    try:
        with server.client() as client:
            client.healthz()
            if inputs.shape.prewarm:
                for image_index, key in enumerate(keys):
                    for region, (start, stop) in enumerate(inputs.shape.regions):
                        image = client.get_region(key, start, stop)
                        failures += pixels_of(image) != inputs.expected[(image_index, region)]
    except BaseException:
        server.stop()
        raise
    return Setup(server, keys, stored_bytes, time.perf_counter() - started, failures)


# ---------------------------------------------------------------------- #
# load
# ---------------------------------------------------------------------- #


@dataclass
class Sample:
    kind: str  # "read" or "put"
    started: float
    latency_ms: float
    ok: bool
    samples: int = 0


class OpStream:
    """One seeded op stream over the working set; ``next_op`` materialises an op."""

    def __init__(self, inputs: Inputs, keys: List[str], stream: int) -> None:
        self.inputs = inputs
        self.keys = keys
        self.stream = stream
        self._ops = inputs.shape.ops(inputs.seed, stream, len(keys), len(inputs.shape.regions))
        self.last_put: Optional[Tuple[str, SourceImage]] = None

    def next_op(self) -> Tuple[str, Tuple]:
        """``("read", (key, region, expected))`` or ``("put", (image,))``."""
        kind, first, region = next(self._ops)
        if kind == "put":
            return "put", (ingest_image(self.inputs.seed, self.stream, first, self.inputs.images),)
        if kind == "read_new":
            if self.last_put is None:
                raise BenchError("read of a new image before any put")
            key, image = self.last_put
            return "read", (key, region, image.region_pixels(self.inputs.shape.regions[region]))
        return "read", (self.keys[first], region, self.inputs.expected[(first, region)])


class ClientTarget:
    """Ops over HTTP through ``ServeClient``."""

    def __init__(self, client) -> None:
        self.client = client

    def get_region(self, key: str, start: int, stop: int):
        return self.client.get_region(key, start, stop)

    def put_image(self, body: bytes) -> Dict:
        return self.client.put_image(body, stripes=STRIPES)

    def pixels(self, result) -> List[List[int]]:
        return pixels_of(result)

    def reset(self) -> None:
        self.client.close()


class ServiceTarget:
    """The same ops called in-process on an ``ImageService``."""

    def __init__(self, service) -> None:
        self.service = service

    def get_region(self, key: str, start: int, stop: int):
        return self.service.get_region(key, start, stop)

    def put_image(self, body: bytes) -> Dict:
        return self.service.put_image(body, stripes=STRIPES)

    def pixels(self, result) -> List[List[int]]:
        from repro.imaging.pnm import read_image

        return pixels_of(read_image(io.BytesIO(result[0])))

    def reset(self) -> None:
        pass


def run_ops(ops: OpStream, target, samples: List[Sample], until: Optional[float] = None,
            count: Optional[int] = None, tracer=None, prefix: str = "client") -> None:
    """Closed loop: the next op goes out only after the previous one returned.

    Stops at ``until`` (perf_counter) or after ``count`` ops.  With a
    tracer every op is a root span ``<prefix>.read`` / ``<prefix>.put``.
    """
    while (until is None or time.perf_counter() < until) and (count is None or len(samples) < count):
        kind, args = ops.next_op()
        body = args[0].netpbm() if kind == "put" else b""
        started = time.perf_counter()
        span = (
            tracer.span(prefix + "." + kind, request=tracer.next_request())
            if tracer is not None else contextlib.nullcontext()
        )
        try:
            with span:
                if kind == "read":
                    key, region, expected = args
                    start, stop = ops.inputs.shape.regions[region]
                    result = target.get_region(key, start, stop)
                else:
                    result = target.put_image(body)
            latency = time.perf_counter() - started
            if kind == "read":
                ok = target.pixels(result) == expected
                count_samples = sum(len(plane) for plane in expected)
            else:
                ok = len(result.get("replicas", ())) == ops.inputs.shape.replication
                ops.last_put = (str(result["key"]), args[0])
                count_samples = args[0].samples
        except Exception as error:  # counted as a failed operation; the loop goes on
            latency = time.perf_counter() - started
            ok = False
            count_samples = 0
            print("%s: %s failed: %r" % (ops.inputs.shape.name, kind, error), file=sys.stderr)
            target.reset()
        samples.append(Sample(kind, started, 1e3 * latency, ok, count_samples if ok else 0))


def closed_loop(inputs: Inputs, setup: Setup, seconds: float, first_stream: int) -> Dict[str, object]:
    """CLIENTS threads for ``seconds``; returns samples and generator CPU share."""
    per_thread: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    targets = [ClientTarget(setup.server.client()) for _ in range(CLIENTS)]
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    until = wall_start + seconds
    threads = [
        threading.Thread(
            target=run_ops,
            args=(OpStream(inputs, setup.keys, first_stream + index), targets[index],
                  per_thread[index], until),
        )
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            raise BenchError("client thread did not finish")
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    for target in targets:
        target.reset()
    return {
        "samples": [sample for samples in per_thread for sample in samples],
        "start": wall_start,
        "wall_s": wall,
        "cpu_frac": cpu / wall,
    }


def measure(name: str, seed: int, seconds: float, plant: bool = False) -> Dict[str, object]:
    """The untraced run: end-to-end metrics of one serve workload.

    A read is one region GET; ``mpx_s`` counts the samples of every
    region delivered and every image put, per second.
    """
    shape = SHAPES[name]
    inputs = Inputs.build(seed, shape, plant)
    work = run_dir(name)
    setups: List[float] = []
    failed = 0
    stops = []
    for index in range(SETUP_REPEATS):
        setup = set_up(inputs, work, index)
        setups.append(setup.seconds)
        failed += setup.failures
        if index < SETUP_REPEATS - 1:
            stops.append(setup.server.stop())
            shutil.rmtree(work / ("store-%d" % index), ignore_errors=True)
    with setup.server:
        load = closed_loop(inputs, setup, seconds, first_stream=0)
        with setup.server.client() as client:
            stats = client.stats()
        stops.append(setup.server.stop())
    shutil.rmtree(work / ("store-%d" % (SETUP_REPEATS - 1)), ignore_errors=True)

    samples = load["samples"]
    reads = [s.latency_ms for s in samples if s.kind == "read"]
    puts = [s.latency_ms for s in samples if s.kind == "put"]

    def rate(weighted: List[Tuple[Sample, float]]) -> float:
        """Per-second rate over the run, the median of ten equal windows."""
        return window_rate(
            [(s.started + s.latency_ms / 1e3, weight) for s, weight in weighted],
            load["start"], load["start"] + load["wall_s"],
        )

    unclean = sum(not stop["clean"] for stop in stops)
    failed += sum(not s.ok for s in samples) + unclean
    prewarm_reads = len(inputs.expected) * SETUP_REPEATS if shape.prewarm else 0
    attempted = len(samples) + prewarm_reads + len(stops)
    metrics = {
        "setup_s": (median(setups), "s"),
        "read_rps": (rate([(s, 1.0) for s in samples if s.kind == "read" and s.ok]), "1/s"),
        "read_p50_ms": (percentile(reads, 0.50), "ms"),
        "mpx_s": (rate([(s, s.samples / 1e6) for s in samples]), "Mpx/s"),
        "bits_per_sample": (8.0 * setup.stored_bytes / sum(i.samples for i in inputs.images), "bit"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (stops[-1]["peak_rss_mb"], "MiB"),
    }
    cache = cache_counters(stats)
    extra = {
        "read_p90_ms": (percentile(reads, 0.90), "ms"),
        "failed_frac": (failed / attempted, "frac"),
        "reads": (len(reads), "count"),
        "loadgen_cpu_frac": (load["cpu_frac"], "frac"),
        "working_set_decoded_bytes": (decoded_bytes(inputs.images), "B"),
        "cache_bytes_per_shard": (shape.cache_bytes, "B"),
        "cache_hit_rate": (cache["hit_rate"], "frac"),
        "unclean_stops": (unclean, "count"),
    }
    if supported_percentile(len(reads), 0.99):
        extra["read_p99_ms"] = (percentile(reads, 0.99), "ms")
    if puts:
        extra["puts"] = (len(puts), "count")
        extra["put_p50_ms"] = (percentile(puts, 0.50), "ms")
        if supported_percentile(len(puts), 0.90):
            extra["put_p90_ms"] = (percentile(puts, 0.90), "ms")
    write_json(work / "raw.json", {
        "setups_s": setups, "stops": stops,
        "samples": [(s.kind, s.started, s.latency_ms, s.ok) for s in samples],
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


# ---------------------------------------------------------------------- #
# /stats
# ---------------------------------------------------------------------- #


def cache_counters(stats: Dict) -> Dict[str, float]:
    hits = sum(shard["cache"]["hits"] for shard in stats["shards"])
    misses = sum(shard["cache"]["misses"] for shard in stats["shards"])
    evictions = sum(shard["cache"]["evictions"] for shard in stats["shards"])
    return {"hits": hits, "misses": misses, "evictions": evictions,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0}


def endpoint_ms(stats: Dict) -> Dict[str, Tuple[int, float]]:
    """Per-endpoint (count, total ms) from the server's own histograms."""
    return {
        name: (entry["count"], entry["count"] * entry["mean_ms"])
        for name, entry in stats["server"]["endpoints"].items()
    }


def serve_counters(stats: Dict) -> Dict[str, int]:
    counters = stats["server"].get("counters", {})
    restarts = sum(
        worker.get("restarts", 0)
        for workers in stats.get("workers", {}).values()
        for worker in workers
    )
    return {
        "coalesced": stats["flight"]["coalesced"],
        "shed": counters.get("shed", 0),
        "failovers": counters.get("failovers", 0),
        "worker_restarts": restarts,
    }


def delta(after: Dict, before: Dict) -> Dict:
    return {key: after[key] - before.get(key, 0) for key in after}


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #


def proxy_hop_ms(server: Server, stats: Dict, inputs: Inputs, keys: List[str]) -> float:
    """The same warm region read via the proxy and straight to its worker."""
    from repro.serve.router import rendezvous_shard

    names = sorted(stats["workers"])
    pairs = []
    with server.client() as proxy:
        for image_index in range(4):
            key = keys[image_index]
            shard = names[rendezvous_shard(names, key)]
            start, stop = inputs.shape.regions[image_index]
            expected = inputs.expected[(image_index, image_index)]
            with server.client(stats["workers"][shard][0]["port"]) as direct:
                for round_index in range(12):
                    timings = []
                    for client in (direct, proxy):
                        started = time.perf_counter()
                        image = client.get_region(key, start, stop)
                        timings.append(time.perf_counter() - started)
                        if pixels_of(image) != expected:
                            raise BenchError("proxy hop probe read wrong pixels")
                    if round_index >= 2:
                        pairs.append(1e3 * (timings[1] - timings[0]))
    return median(pairs)


def in_process(inputs: Inputs, root: Path, count: int, tracer=None) -> Tuple[int, List[Sample]]:
    """Replay ``count`` ops of stream 0 on ImageService objects in this process.

    The store is prepared exactly as for the server, then reopened, so the
    replay starts from the same state: headers unparsed, caches empty
    (``regions-hot`` then reads every region once, like its setup).
    Returns the failed warm-up reads and the replay's samples.
    """
    from spans import Seams

    keys, _ = ingest(inputs, root)
    service = open_service(inputs.shape, root)
    target = ServiceTarget(service)
    failures = 0
    replay: List[Sample] = []
    try:
        if inputs.shape.prewarm:
            for image_index, key in enumerate(keys):
                for region, (start, stop) in enumerate(inputs.shape.regions):
                    pixels = target.pixels(target.get_region(key, start, stop))
                    failures += pixels != inputs.expected[(image_index, region)]
        seams = Seams(tracer, service.router.stores) if tracer else contextlib.nullcontext()
        with seams:
            run_ops(OpStream(inputs, keys, 0), target, replay, count=count, tracer=tracer,
                    prefix="service")
    finally:
        service.close()
    return failures, replay


def trace(name: str, seed: int, seconds: float) -> Dict[str, object]:
    """The traced run: per-layer metrics of one serve workload."""
    from spans import Tracer

    import repro.serve.client as client_module

    shape = SHAPES[name]
    inputs = Inputs.build(seed, shape)
    work = run_dir(name + "-trace")
    setup = set_up(inputs, work, 0)
    failed = setup.failures
    with setup.server:
        with setup.server.client() as client:
            booted = client.stats()

        # 1. wire replay: one client, stream 0, client spans
        wire = Tracer()
        wire_samples: List[Sample] = []
        original_read_image = client_module.read_image
        client_module.read_image = wire.wrap("client.parse", original_read_image)
        try:
            with setup.server.client() as client:
                run_ops(OpStream(inputs, setup.keys, 0), ClientTarget(client), wire_samples,
                        until=time.perf_counter() + 0.3 * seconds, tracer=wire, prefix="client")
        finally:
            client_module.read_image = original_read_image
        with setup.server.client() as client:
            replayed = client.stats()
        hop = 0.0
        if shape.topology == "proc":
            hop = proxy_hop_ms(setup.server, replayed, inputs, setup.keys)

        # 2. closed loop with CLIENTS threads: generator CPU share and concurrency counters
        load = closed_loop(inputs, setup, 0.2 * seconds, first_stream=1)
        with setup.server.client() as client:
            final = client.stats()
        stop = setup.server.stop()
    failed += sum(not s.ok for s in wire_samples + load["samples"]) + (not stop["clean"])

    # 3. the same ops in-process: untraced, then traced
    count = len(wire_samples)
    plain_failures, plain_samples = in_process(inputs, work / "plain", count)
    tracer = Tracer()
    traced_failures, traced_samples = in_process(inputs, work / "traced", count, tracer)
    failed += plain_failures + traced_failures
    failed += sum(not s.ok for s in plain_samples + traced_samples)
    attempted = len(wire_samples) + len(load["samples"]) + len(plain_samples) + len(traced_samples)
    wire.dump(OUT / "traces" / ("%s-seed%d-wire.jsonl" % (name, seed)))
    tracer.dump(OUT / "traces" / ("%s-seed%d-service.jsonl" % (name, seed)))
    for directory in ("store-0", "plain", "traced"):
        shutil.rmtree(work / directory, ignore_errors=True)

    layers = layer_metrics(tracer.spans, wire.spans, plain_samples, booted, replayed, final)
    layers["proxy.hop_ms"] = (hop, "ms")
    if count:
        server_ms = sum(total for _, total in delta_endpoints(replayed, booted).values())
        wire_ms = sum(s.latency_ms for s in wire_samples)
        plain_ms = sum(s.latency_ms for s in plain_samples)
        layers["trace.unaccounted_frac"] = ((server_ms - hop * count - plain_ms) / wire_ms, "frac")
    layers["loadgen.cpu_frac"] = (load["cpu_frac"], "frac")
    extra = {"wire_ops": (count, "count"), "loadgen_ops": (len(load["samples"]), "count"),
             "spans": (len(tracer.spans), "count")}
    return {"attempted": attempted, "failed": failed, "metrics": layers, "extra": extra}


def delta_endpoints(after: Dict, before: Dict) -> Dict[str, Tuple[int, float]]:
    new, old = endpoint_ms(after), endpoint_ms(before)
    return {
        name: (count - old.get(name, (0, 0.0))[0], total - old.get(name, (0, 0.0))[1])
        for name, (count, total) in new.items()
        if name in ("get_region", "put_image")
    }


def layer_metrics(spans, wire_spans, plain: List[Sample], booted: Dict, replayed: Dict,
                  final: Dict) -> Dict[str, Tuple[float, str]]:
    from spans import Breakdown

    service = Breakdown(spans)
    roots = [s for s in spans if s.parent is None]
    reads = [s.request for s in roots if s.name == "service.read"]
    puts = [s.request for s in roots if s.name == "service.put"]
    misses = [r for r in reads if service.has(r, "engine.decode") or service.has(r, "backend.read_ranges")]
    hits = sorted(set(reads) - set(misses))
    root_ns = sum(s.duration_ns for s in roots)
    engine_ns = sum(s.duration_ns for s in spans if s.name.startswith("engine."))

    def mean_ms(name: str) -> float:
        group = service.named(name)
        return sum(s.duration_ns for s in group) / len(group) / 1e6 if group else 0.0

    def mean_bytes(name: str) -> float:
        group = service.named(name)
        return sum(s.attrs["bytes"] for s in group) / len(group) if group else 0.0

    def span_self_ms(name: str) -> float:
        group = service.named(name)
        return service.total_self_ms(name) / len(group) if group else 0.0

    wire = Breakdown(wire_spans)
    wire_roots = [s for s in wire_spans if s.parent is None]
    wire_reads = [s.request for s in wire_roots if s.name == "client.read"]
    wire_total_ms = sum(s.duration_ns for s in wire_roots) / 1e6
    parse_ms = sum(s.duration_ns for s in wire.named("client.parse")) / 1e6
    server_ms = sum(total for _, total in delta_endpoints(replayed, booted).values())
    cache = cache_counters(replayed)
    cache_before = cache_counters(booted)
    cache_hits = cache["hits"] - cache_before["hits"]
    cache_misses = cache["misses"] - cache_before["misses"]
    counters = delta(serve_counters(final), serve_counters(booted))
    plain_reads = [s.latency_ms for s in plain if s.kind == "read"]
    plain_puts = [s.latency_ms for s in plain if s.kind == "put"]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "engine.encode_mpx_s.cell": (service.rate_mpx_s("engine.encode"), "Mpx/s"),
        "engine.decode_mpx_s.cell": (service.rate_mpx_s("engine.decode"), "Mpx/s"),
        "engine.busy_frac": (engine_ns / root_ns if root_ns else 0.0, "frac"),
        "cellgrid.encode_self_ms": (service.mean_self_ms(["cellgrid.encode"], puts), "ms"),
        "cellgrid.decode_self_ms": (service.mean_self_ms(["cellgrid.decode"], misses), "ms"),
        "cellgrid.assemble_ms": (service.mean_self_ms(["cellgrid.assemble"], reads), "ms"),
        "bitstream.parse_header_us": (1e3 * span_self_ms("bitstream.parse_header"), "us"),
        "imaging.build_image_ms": (service.mean_self_ms(["imaging.build_image"], reads), "ms"),
        "imaging.netpbm_write_ms": (service.mean_self_ms(["imaging.netpbm_write"], reads), "ms"),
        "store.read_self_ms.hit": (service.mean_self_ms(["store.read"], hits), "ms"),
        "store.read_self_ms.miss": (service.mean_self_ms(["store.read"], misses), "ms"),
        "store.backend.read_ranges_ms": (mean_ms("backend.read_ranges"), "ms"),
        "store.backend.bytes_read_per_read": (mean_bytes("backend.read_ranges"), "B"),
        "store.cache.hit_rate": (
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0, "frac"),
        "store.cache.evictions": (cache["evictions"] - cache_before["evictions"], "count"),
        "store.put_stream_ms": (span_self_ms("store.put_stream"), "ms"),
        "store.backend.put_ms": (mean_ms("backend.put"), "ms"),
        "service.get_region_ms": (mean(plain_reads), "ms"),
        "service.put_image_ms": (mean(plain_puts), "ms"),
        "http.overhead_ms": (
            (wire_total_ms - parse_ms - server_ms) / len(wire_roots) if wire_roots else 0.0, "ms"),
        "client.parse_ms": (parse_ms / len(wire_reads) if wire_reads else 0.0, "ms"),
        "serve.flight.coalesced": (counters["coalesced"], "count"),
        "serve.shed": (counters["shed"], "count"),
        "serve.failovers": (counters["failovers"], "count"),
        "serve.worker_restarts": (counters["worker_restarts"], "count"),
        "trace.overhead_frac": (
            (root_ns / 1e6 - sum(plain_reads) - sum(plain_puts)) / (sum(plain_reads) + sum(plain_puts))
            if plain else 0.0, "frac"),
    }
