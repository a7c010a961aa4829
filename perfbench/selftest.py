"""Checks of the benchmark itself.

Run from the checkout root with ``python -m pytest perfbench/selftest.py``
(about a minute).  The file name keeps it out of the repository's default
test collection: it boots servers and runs every workload briefly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT, percentile, require_program  # noqa: E402
from spans import Breakdown, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_metric_with_its_unit(workload: str, trace: str) -> None:
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
        assert entry["name"] in done.stdout.split("\n{")[0]  # also printed by name
        if trace == "0":
            assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", ["regions-hot", "regions-cold-ingest"])
def test_planted_wrong_pixel_counts_as_failure(workload: str) -> None:
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--plant-wrong-pixel")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_two_seeds_give_different_inputs() -> None:
    require_program()
    from inputs import codec_corpus, cold_ops, hot_ops, ingest_image, working_set

    assert [i.netpbm() for i in codec_corpus(1)] != [i.netpbm() for i in codec_corpus(2)]
    assert [i.netpbm() for i in working_set(1, 2, True, 64)] != [
        i.netpbm() for i in working_set(2, 2, True, 64)
    ]
    assert [i.netpbm() for i in codec_corpus(5)] == [i.netpbm() for i in codec_corpus(5)]
    for ops in (hot_ops, cold_ops):
        first, second = ops(1, 0, 8, 15), ops(2, 0, 8, 15)
        assert [next(first) for _ in range(50)] != [next(second) for _ in range(50)]
    base = working_set(1, 2, False, 64)
    assert ingest_image(1, 0, 0, base).netpbm() != ingest_image(2, 0, 0, base).netpbm()
    assert ingest_image(1, 0, 0, base).netpbm() != ingest_image(1, 0, 1, base).netpbm()


def test_fails_without_the_program() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_excludes_children() -> None:
    tracer = Tracer()
    with tracer.span("root", request=tracer.next_request()):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    breakdown = Breakdown(tracer.spans)
    spans = {span.name: span for span in tracer.spans}
    request = spans["root"].request
    assert spans["grandchild"].request == request
    total = sum(breakdown.self_ns[request].values())
    assert total == spans["root"].duration_ns
    assert breakdown.self_ns[request]["child"] == (
        spans["child"].duration_ns - spans["grandchild"].duration_ns
    )


def test_percentile_is_nearest_rank() -> None:
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0
