#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload codec-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
replays the same seeded operations with spans around every layer and
prints the per-layer metrics instead.  The metric names, units and bounds
are those of ``BENCHMARK.json``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw runs and span files go to
``.perfbench_out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from common import ENGINE, OUT, PAPER_MPX_S, ROOT, BenchError, require_program, write_json

WORKLOADS = ("codec-batch", "regions-hot", "regions-cold-ingest")


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 plant: bool = False) -> Dict[str, object]:
    import codecload
    import serveload

    if workload == "codec-batch":
        if plant:
            raise BenchError("--plant-wrong-pixel applies to the serve workloads")
        return codecload.trace(seed, seconds) if traced else codecload.measure(seed, seconds)
    if traced:
        return serveload.trace(workload, seed, seconds)
    return serveload.measure(workload, seed, seconds, plant=plant)


def shape_metrics(spec: List[Dict], measured: Dict[str, Tuple[float, str]],
                  zero_fill: bool) -> Dict[str, Dict[str, object]]:
    """Order ``measured`` as ``spec`` lists it, checking names and units.

    Per-layer metrics of a layer the workload does not reach read 0
    (``zero_fill``); end-to-end metrics must all be measured.
    """
    unknown = sorted(set(measured) - {entry["name"] for entry in spec})
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    shaped = {}
    for entry in spec:
        if entry["name"] not in measured and not zero_fill:
            raise BenchError("workload did not measure %s" % entry["name"])
        value, unit = measured.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise BenchError("%s measured in %s, declared in %s" % (entry["name"], unit, entry["unit"]))
        shaped[entry["name"]] = {"value": float(value), "unit": unit}
    return shaped


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-pixel", action="store_true",
                        help="corrupt one expected pixel per region (checks the checker)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.monotonic()
    try:
        require_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              plant=args.plant_wrong_pixel)
        if args.trace:
            import codecload

            sentinel = codecload.sentinel_rates()
            result["metrics"]["engine.reference.decode_mpx_s"] = (sentinel["reference"], "Mpx/s")
            result["metrics"]["engine.paper_fraction"] = (sentinel[ENGINE] / PAPER_MPX_S, "frac")
        metrics = shape_metrics(
            spec["per_layer" if args.trace else "end_to_end"], result["metrics"],
            zero_fill=bool(args.trace),
        )
    except Exception:
        traceback.print_exc()
        return 1
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print("workload %s  seed %d  %s run  %.1f s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        time.monotonic() - started))
    for name, metric in metrics.items():
        print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    for name, (value, unit) in sorted(result.get("extra", {}).items()):
        print("  (%s %.6g %s)" % (name, value, unit))
    print("  failed_frac %.6g (%d of %d operations)%s" % (
        failed / attempted, failed, attempted, "  ** FAILURES **" if failed else ""))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    write_json(OUT / "runs" / ("%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns())),
        dict(summary, extra=result.get("extra", {})))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
