"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``ctl_mixed``        open-loop writes and reads against the journaled netserver
* ``replay_contended`` a queue-forming trace replay (decision kernels busy)
* ``replay_sparse``    a trace replay with no queue (per-job overhead only)
* ``usecases``         the paper's uc1-uc7 at their registered defaults

``--trace 0`` measures with nothing installed in the program and prints
the end-to-end metrics; ``--trace 1`` additionally runs the workload with
layer spans installed and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; diagnostics (machine facts, checks that
failed, workload details) go to standard error.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("ctl_mixed", "replay_contended", "replay_sparse", "usecases")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None) -> common.Result:
    """Run one workload; ``size`` overrides its default size (self-test)."""
    result = common.Result()
    if name == "ctl_mixed":
        import ctl

        ctl.run(result, seed, seconds, trace, size)
    elif name in ("replay_contended", "replay_sparse"):
        import replay

        replay.run(result, name, seed, seconds, trace, size)
    else:
        import usecases

        usecases.run(result, seed, seconds, trace, **(size or {}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declaration = common.load_declaration()
        common.require_program()
        common.clear_workdir()
        began = time.perf_counter()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        elapsed = time.perf_counter() - began
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        common.clear_workdir()
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    if not args.trace:
        missing = [m["name"] for m in declared if m["name"] not in result.metrics]
        if missing:
            print(f"perfbench: end-to-end metrics not measured: {missing}", file=sys.stderr)
            return 2
    diagnostics = {
        "workload": args.workload,
        "machine": common.machine_facts(args.seed),
        "elapsed_s": round(elapsed, 3),
        "problems": result.problems,
        "info": result.info,
    }
    print("# " + json.dumps(diagnostics, sort_keys=True, default=str))
    summary = result.summary()
    summary["metrics"] = common.select_metrics(result.metrics, declared)
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
