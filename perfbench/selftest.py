"""Self-test of the benchmark: every workload, both modes, at a tiny size.

    python3 perfbench/selftest.py

Checks that each run passes its output checks and reports exactly the
declared metrics with their units, and that the command refuses to run
(nonzero exit, no result line) in a directory holding only the benchmark.
Takes about a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from ctl import Size  # noqa: E402
from run import WORKLOADS, run_workload  # noqa: E402

TINY = {
    "ctl_mixed": Size(preload_per_tenant=40, nominal_rate=100.0, nominal_s=0.5,
                      warmup_s=0.4, saturate_requests=200, setups=2),
    "replay_contended": (256, "synth:n_jobs=1500,mean_interarrival_s=0.08,mean_runtime_s=600,"
                              "max_nodes_per_job=64,arrival_quantum_s=30"),
    "replay_sparse": (1024, "synth:n_jobs=400,mean_interarrival_s=0.75,mean_runtime_s=600,"
                            "max_nodes_per_job=16,arrival_quantum_s=30"),
    "usecases": {"use_cases": ("uc3", "uc6", "uc7"), "cold_starts": 1},
}


def check_run(name: str, trace: bool, declaration) -> None:
    result = run_workload(name, seed=3, seconds=0.0, trace=trace, size=TINY[name])
    if not result.correct:
        raise AssertionError(f"{name} trace={trace}: {result.problems}")
    declared = declaration["per_layer" if trace else "end_to_end"]
    if not trace:
        missing = [m["name"] for m in declared if m["name"] not in result.metrics]
        if missing:
            raise AssertionError(f"{name}: end-to-end metrics missing: {missing}")
    for spec in declared:
        got = result.metrics.get(spec["name"])
        if got is not None and got["unit"] != spec["unit"]:
            raise AssertionError(f"{name}: {spec['name']} in {got['unit']}, declared {spec['unit']}")
    if trace:
        undeclared = set(result.metrics) - {m["name"] for m in declared}
        if undeclared:
            raise AssertionError(f"{name}: undeclared per-layer metrics {sorted(undeclared)}")
    print(f"ok  {name} trace={int(trace)}", flush=True)


def check_refuses_without_program() -> None:
    """The command must fail, printing no result, without the program."""
    with tempfile.TemporaryDirectory(dir=common.ROOT) as bare:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(common.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "usecases", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or '"correct"' in done.stdout:
        raise AssertionError(f"ran without the program: {done.returncode} {done.stdout!r}")
    print("ok  refuses to run without the program", flush=True)


def main() -> int:
    declaration = common.load_declaration()
    common.require_program()
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                check_run(name, trace, declaration)
    finally:
        common.clear_workdir()
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
