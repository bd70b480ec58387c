"""Shared helpers for the benchmark: paths, statistics, machine facts, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program's sources inside the checkout.
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals and trace dumps; emptied at the start and
#: end of every run and listed in ``.gitignore``.
WORK = os.path.join(ROOT, ".perfbench_work")


class BenchError(RuntimeError):
    """The benchmark cannot run here, or an output check failed."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail if the checkout lacks it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_workdir(name: str) -> str:
    """An empty directory under :data:`WORK` for one workload."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def clear_workdir() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


# -- host speed -------------------------------------------------------------
#: Seconds one pass of :func:`_reference_pass` takes on a quiet core of the
#: 2-core x86_64 VM the benchmark was defined on (Python 3.11.7).  It only
#: sets the scale of the metrics.
REFERENCE_PASS_S = 0.0065
#: Passes in one reference measurement (about 80 ms): short, so that a
#: run can take many, spread over its work.
REFERENCE_PASSES = 12


def _reference_pass() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class HostSpeed:
    """How fast the host runs: reference passes measured through a run.

    On a shared host the same work takes up to twice as long from one
    stretch of minutes to the next, and a fixed pure-Python loop slows
    down with it.  A run measures the loop between its units of work, on
    the CPU that runs them, and scales its timings by the mean slowdown
    against :data:`REFERENCE_PASS_S`.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.passes = 0

    def measure(self, cpu: Optional[int] = None) -> None:
        """Time ``REFERENCE_PASSES`` passes, on ``cpu`` if given (this
        thread then returns to the CPUs it had)."""
        home = os.sched_getaffinity(0)
        if cpu is not None:
            pin([cpu])
        try:
            start = time.perf_counter()
            for _ in range(REFERENCE_PASSES):
                _reference_pass()
            self.seconds += time.perf_counter() - start
            self.passes += REFERENCE_PASSES
        finally:
            if cpu is not None:
                pin(home)

    @property
    def slowdown(self) -> float:
        """Mean reference pass over :data:`REFERENCE_PASS_S` (1: as fast
        as the reference machine; 2: half as fast)."""
        if not self.passes:
            raise BenchError("the host's speed was never measured")
        return self.seconds / self.passes / REFERENCE_PASS_S


def work_cpu() -> int:
    """The CPU that runs the measured work: the highest one allowed."""
    return max(os.sched_getaffinity(0))


def pin(cpus: Iterable[int], pid: int = 0) -> None:
    """Move a process's main thread (``0``: this thread) to ``cpus``."""
    os.sched_setaffinity(pid, set(cpus))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in [0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(min(rank, len(sorted_values))) - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def machine_facts(seed: int) -> Dict[str, Any]:
    """What makes results from different machines incomparable."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "seed": int(seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def digest(value: Any) -> str:
    """Stable hex digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_number(hex_digest: str) -> int:
    """The first 48 bits of a digest: exact as a JSON number."""
    return int(hex_digest[:12], 16)


class Result:
    """What one run reports: counts, metrics with units, and diagnostics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.info: Dict[str, Any] = {}
        self.problems: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, message: str) -> None:
        """Record a failed output check (the run then reports incorrect)."""
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted >= 1

    def summary(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }


def select_metrics(
    measured: Mapping[str, Dict[str, Any]], declared: Sequence[Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Exactly the declared metrics, in declared order.

    A per-layer metric the workload never exercised reads 0 with its
    declared unit; a missing end-to-end metric is a benchmark bug.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for spec in declared:
        name = spec["name"]
        if name in measured:
            out[name] = {"value": measured[name]["value"], "unit": spec["unit"]}
        else:
            out[name] = {"value": 0.0, "unit": spec["unit"]}
    return out


def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, value: Any) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    os.replace(tmp, path)


def read_json(path: str) -> Optional[Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
