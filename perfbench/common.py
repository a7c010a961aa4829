"""Shared plumbing of the benchmark: paths, statistics and process hygiene.

The benchmark runs from the root of a source checkout.  It imports the
program from ``src/`` and starts program processes with the same
``PYTHONPATH``; everything it writes goes under ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: The paper's hardware throughput (Chen et al., SOCC 2007), in Mpx/s.
PAPER_MPX_S = 15.35

#: Every workload runs the fastest engine that dispatches without numba.
ENGINE = "fast"


class BenchError(Exception):
    """The benchmark cannot run (missing program, server that will not boot)."""


def require_program() -> None:
    """Fail unless the program's sources are in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError("program sources not found under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: sources on the path, temp in OUT."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_NATIVE_PURE_PYTHON", None)
    return env


def run_dir(name: str) -> Path:
    """A fresh scratch directory under OUT for one run's stores and logs."""
    path = OUT / "work" / ("%s-%d-%d" % (name, os.getpid(), time.monotonic_ns()))
    path.mkdir(parents=True)
    return path


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 1]."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def window_rate(events: Sequence[Tuple[float, float]], start: float, end: float,
                windows: int = 10) -> float:
    """Median over ``windows`` equal slices of [start, end) of weight per second.

    ``events`` are ``(completion time, weight)`` pairs.  The median keeps a
    short stall of the machine from moving the rate of the whole run.
    """
    width = (end - start) / windows
    totals = [0.0] * windows
    for moment, weight in events:
        slot = int((moment - start) / width)
        if 0 <= slot < windows:
            totals[slot] += weight
    return median([total / width for total in totals])


def supported_percentile(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond percentile ``q``."""
    return count * (1.0 - q) >= 10.0


# ---------------------------------------------------------------------- #
# processes
# ---------------------------------------------------------------------- #


def _status_field(pid: int, field: str) -> Optional[int]:
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _is_zombie(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (OSError, IndexError):
        return True


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, found by walking /proc."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _status_field(int(entry), "PPid")
            if parent is not None:
                parents[int(entry)] = parent
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        value = _status_field(pid, "VmHWM")
        if value is not None:
            total_kb += value
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    return peak_rss_mb([os.getpid()])


def cmdline(pid: int) -> str:
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def alive(pid: int) -> bool:
    return os.path.exists("/proc/%d" % pid) and not _is_zombie(pid)


def stop_process(process: subprocess.Popen, timeout: float = 30.0) -> Optional[int]:
    """SIGTERM ``process`` and wait; SIGKILL if it overstays.  Returns its code."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout)
            return None
    return process.returncode


def reap_leftovers(pids: Iterable[int], marker: str) -> List[int]:
    """Kill any of ``pids`` still alive whose command line has ``marker``.

    Returns the pids that had to be killed (a hygiene failure).
    """
    leftovers = [pid for pid in pids if alive(pid) and marker in cmdline(pid)]
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(alive(pid) for pid in leftovers):
        time.sleep(0.05)
    return leftovers
