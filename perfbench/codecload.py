"""Workload ``codec-batch``: whole-image encode + decode of the corpus.

The seven seeded corpus images (four grey, three 3-plane, 64x64) are
written as Netpbm files, then a separate codec process reads them, builds
``ProposedCodec(engine="fast")`` and encodes and decodes every image in
passes until the run time is used.  There is no store and no HTTP: nearly
all the time is entropy engine and modelling.

Run as a script, this module is that codec process:
``python perfbench/codecload.py --child INPUT_DIR --seconds S [--setup-only]``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    ENGINE,
    OUT,
    PAPER_MPX_S,
    BenchError,
    median,
    percentile,
    program_env,
    require_program,
    run_dir,
    self_peak_rss_mb,
    write_json,
)

SETUP_REPEATS = 3


def write_inputs(seed: int, directory: Path) -> List[Path]:
    from inputs import codec_corpus

    paths = []
    for index, image in enumerate(codec_corpus(seed)):
        suffix = "pgm" if image.planes.shape[0] == 1 else "ppm"
        path = directory / ("%02d-%s.%s" % (index, image.name, suffix))
        path.write_bytes(image.netpbm())
        paths.append(path)
    return paths


def load_images(paths: List[Path]):
    from repro.imaging.pnm import read_image

    return [read_image(io.BytesIO(path.read_bytes())) for path in paths]


def sample_count(image) -> int:
    return getattr(image, "sample_count", None) or image.pixel_count


def _timed(tracer, name: str, call):
    """``call()`` and its duration in ns, as a root span when tracing."""
    if tracer is None:
        started = time.perf_counter_ns()
        result = call()
        return result, time.perf_counter_ns() - started
    with tracer.span(name, request=tracer.next_request()) as span:
        result = call()
    return result, span.duration_ns


def run_pass(codec, images, tracer=None) -> Dict[str, object]:
    """Encode and decode every image once; returns timings, digests, failures."""
    encode_ns = decode_ns = 0
    decode_ms = []
    total_bytes = 0
    digests = []
    failures = 0
    for index, image in enumerate(images):
        try:
            stream, encode_time = _timed(tracer, "codec.encode", lambda: codec.encode(image))
            decoded, decode_time = _timed(tracer, "codec.decode", lambda: codec.decode(stream))
        except Exception as error:  # a failed operation is counted, not fatal
            print("codec-batch: image %d failed: %r" % (index, error), file=sys.stderr)
            failures += 1
            digests.append("")
            continue
        encode_ns += encode_time
        decode_ns += decode_time
        decode_ms.append(decode_time / 1e6)
        total_bytes += len(stream)
        digests.append(hashlib.sha256(stream).hexdigest())
        if decoded != image:
            failures += 1
    return {
        "encode_s": encode_ns / 1e9,
        "decode_s": decode_ns / 1e9,
        "decode_ms": decode_ms,
        "samples": sum(sample_count(image) for image in images),
        "bytes": total_bytes,
        "digests": digests,
        "failures": failures,
    }


def child_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    require_program()
    from repro.core.codec import ProposedCodec
    from repro.imaging.synthetic import generate_image

    images = load_images(sorted(args.child.glob("*.p?m")))
    codec = ProposedCodec(engine=ENGINE)
    warm = generate_image("lena", size=16)
    if codec.decode(codec.encode(warm)) != warm:
        raise BenchError("warm-up round trip failed")
    print("ready", flush=True)
    if args.setup_only:
        return 0
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < args.seconds:
        passes.append(run_pass(codec, images))
    print(json.dumps({"passes": passes, "peak_rss_mb": self_peak_rss_mb()}), flush=True)
    return 0


def _spawn(input_dir: Path, seconds: float, setup_only: bool):
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(input_dir),
               "--seconds", repr(seconds)]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=program_env())
    line = process.stdout.readline()
    ready_s = time.perf_counter() - started
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise BenchError("codec process did not start (exit %s)" % process.returncode)
    return process, ready_s


def run_child(input_dir: Path, seconds: float) -> Dict[str, object]:
    """Set the codec process up SETUP_REPEATS times; measure on the last."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        process, ready_s = _spawn(input_dir, seconds, setup_only=True)
        process.stdout.read()
        if process.wait(timeout=60) != 0:
            raise BenchError("codec process exited %d" % process.returncode)
        setups.append(ready_s)
    process, ready_s = _spawn(input_dir, seconds, setup_only=False)
    setups.append(ready_s)
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    try:
        output = process.communicate(timeout=seconds + 120)[0]
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError("codec process overran its run")
    cpu_frac = (time.process_time() - cpu_start) / (time.perf_counter() - wall_start)
    if process.returncode != 0:
        raise BenchError("codec process exited %d" % process.returncode)
    result = json.loads(output.strip().splitlines()[-1])
    result["setup_s"] = median(setups)
    result["loadgen_cpu_frac"] = cpu_frac
    return result


def check_digests(seed: int, passes: List[Dict[str, object]]) -> int:
    """Encoded bytes must repeat across passes and across runs of one seed.

    Returns the number of image encodes whose bytes differ.
    """
    reference = passes[0]["digests"]
    cache = OUT / "digests" / ("codec-batch-seed%d.json" % seed)
    if cache.exists():
        reference = json.loads(cache.read_text())
    else:
        write_json(cache, reference)
    return sum(
        1
        for one in passes
        for got, want in zip(one["digests"], reference)
        if got != want
    )


def measure(seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: end-to-end metrics.

    A read is one whole-image decode; ``mpx_s`` counts every sample encoded
    and decoded per second of codec time.
    """
    work = run_dir("codec-batch")
    write_inputs(seed, work)
    result = run_child(work, seconds)
    passes = result["passes"]
    attempted = sum(len(one["digests"]) for one in passes)
    failed = sum(one["failures"] for one in passes) + check_digests(seed, passes)
    first = passes[0]
    decodes = [ms for one in passes for ms in one["decode_ms"]]
    encode_mpx_s = median([one["samples"] / one["encode_s"] / 1e6 for one in passes])
    decode_mpx_s = median([one["samples"] / one["decode_s"] / 1e6 for one in passes])
    metrics = {
        "setup_s": (result["setup_s"], "s"),
        "read_rps": (len(decodes) / sum(one["decode_s"] for one in passes), "1/s"),
        "read_p50_ms": (percentile(decodes, 0.50), "ms"),
        "mpx_s": (median([2 * one["samples"] / (one["encode_s"] + one["decode_s"]) / 1e6
                          for one in passes]), "Mpx/s"),
        "bits_per_sample": (8.0 * first["bytes"] / first["samples"], "bit"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    extra = {
        "read_p90_ms": (percentile(decodes, 0.90), "ms"),
        "encode_mpx_s": (encode_mpx_s, "Mpx/s"),
        "decode_mpx_s": (decode_mpx_s, "Mpx/s"),
        "paper_fraction.decode": (decode_mpx_s / PAPER_MPX_S, "frac"),
        "failed_frac": (failed / attempted, "frac"),
        "passes": (len(passes), "count"),
        "reads": (len(decodes), "count"),
        "loadgen_cpu_frac": (result["loadgen_cpu_frac"], "frac"),
    }
    write_json(work / "raw.json", result)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #


def sentinel_rates() -> Dict[str, float]:
    """Decode Mpx/s of a fixed 64x64 grey image, by engine name (ENGINE and reference)."""
    from repro.core.codec import ProposedCodec
    from repro.imaging.synthetic import generate_image

    image = generate_image("lena", size=64)
    stream = ProposedCodec(engine=ENGINE).encode(image)
    rates = {}
    for engine, repeats in ((ENGINE, 5), ("reference", 3)):
        codec = ProposedCodec(engine=engine)
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            if codec.decode(stream) != image:
                raise BenchError("%s engine sentinel decode mismatch" % engine)
            timings.append(time.perf_counter() - started)
        rates[engine] = image.pixel_count / median(timings) / 1e6
    return rates


def trace(seed: int, seconds: float) -> Dict[str, object]:
    """The traced run: per-layer metrics of codec-batch."""
    from spans import Breakdown, Seams, Tracer

    from repro.core.codec import ProposedCodec

    work = run_dir("codec-batch-trace")
    paths = write_inputs(seed, work)
    child = run_child(work, seconds / 4.0)
    failed = sum(one["failures"] for one in child["passes"]) + check_digests(seed, child["passes"])

    images = load_images(paths)
    codec = ProposedCodec(engine=ENGINE)
    run_pass(codec, images)  # warm-up
    plain = []
    started = time.monotonic()
    while not plain or time.monotonic() - started < seconds / 4.0:
        plain.append(run_pass(codec, images))
    tracer = Tracer()
    traced = []
    with Seams(tracer):
        for _ in plain:
            traced.append(run_pass(codec, images, tracer=tracer))
    failed += sum(one["failures"] for one in plain + traced) + check_digests(seed, plain + traced)
    attempted = len(images) * (len(plain) + len(traced)) + sum(len(p["digests"]) for p in child["passes"])
    tracer.dump(OUT / "traces" / ("codec-batch-seed%d.jsonl" % seed))

    breakdown = Breakdown(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    root_ns = sum(s.duration_ns for s in roots)
    plain_ns = sum(1e9 * (one["encode_s"] + one["decode_s"]) for one in plain)
    engine_ns = sum(s.duration_ns for s in breakdown.spans if s.name.startswith("engine."))
    front_ns = sum(breakdown.total_self_ms(name) for name in ("codec.encode", "codec.decode")) * 1e6

    encodes = [s.request for s in roots if s.name == "codec.encode"]
    decodes = [s.request for s in roots if s.name == "codec.decode"]
    layer = {
        "engine.encode_mpx_s.image": (breakdown.rate_mpx_s("engine.encode"), "Mpx/s"),
        "engine.decode_mpx_s.image": (breakdown.rate_mpx_s("engine.decode"), "Mpx/s"),
        "engine.busy_frac": (engine_ns / root_ns, "frac"),
        "cellgrid.encode_self_ms": (breakdown.mean_self_ms(["cellgrid.encode"], encodes), "ms"),
        "cellgrid.decode_self_ms": (breakdown.mean_self_ms(["cellgrid.decode"], decodes), "ms"),
        "cellgrid.assemble_ms": (breakdown.mean_self_ms(["cellgrid.assemble"], decodes), "ms"),
        "imaging.build_image_ms": (breakdown.mean_self_ms(["imaging.build_image"], decodes), "ms"),
        "loadgen.cpu_frac": (child["loadgen_cpu_frac"], "frac"),
        "trace.overhead_frac": ((root_ns - plain_ns) / plain_ns, "frac"),
        "trace.unaccounted_frac": (front_ns / root_ns, "frac"),
    }
    extra = {"passes": (len(traced), "count"), "spans": (len(tracer.spans), "count")}
    return {"attempted": attempted, "failed": failed, "metrics": layer, "extra": extra}


if __name__ == "__main__":
    sys.exit(child_main())
