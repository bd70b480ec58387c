"""``usecases``: the paper's uc1-uc7, at the pins of the golden tests.

The seven use cases run serially through
``repro.experiments.run_registered`` with the parameters pinned in
``tests/golden/regen.py`` (``GOLDEN_CASES``: seed 1, a few nodes and
evaluations each).  They are the only workload through ``core`` (tuner,
search), ``apps``, ``runtime``, ``node_mgmt``, ``powerapi`` and the
scalar hardware physics.

The pins fix every input, so every pass of the seven does the same work
whatever the benchmark seed (a use case's simulated work otherwise
varies with its seed by up to ~1.6x); the seed only labels the run.  A
pass takes a few seconds, so a run makes several after an untimed
warm-up pass and reports use-case runs per second over them, scaled by
the host's speed measured after every use case (``common.HostSpeed``).
Every pass, the warm-up too, must reproduce ``tests/golden/*_seed1.json``
bit for bit.

Set-up is a cold start: a fresh interpreter importing the use-case
registry, as ``python -m repro.experiments`` does.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    ROOT,
    Result,
    child_env,
    digest,
    digest_number,
    median,
    HostSpeed,
    pin,
    self_peak_rss_mb,
    work_cpu,
)
from layers import USE_CASES

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
COLD_START = "import repro.experiments as e; e.list_use_cases()"
#: A run makes at least this many timed passes.
MIN_PASSES = 3


def cold_start_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def load_pins() -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any], Any]:
    """The golden pins, the checked-in results, and the normaliser."""
    spec = importlib.util.spec_from_file_location("golden_regen", os.path.join(GOLDEN_DIR, "regen.py"))
    if spec is None or spec.loader is None:
        raise BenchError(f"no golden pins under {GOLDEN_DIR}")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    golden = {}
    for name in regen.GOLDEN_CASES:
        with open(os.path.join(GOLDEN_DIR, f"{name}_seed1.json"), encoding="utf-8") as fh:
            golden[name] = json.load(fh)
    return regen.GOLDEN_CASES, golden, regen.jsonify


def run_pass(result: Result, pins, golden, jsonify, use_cases: Tuple[str, ...],
             host: Optional[HostSpeed] = None):
    """Run every use case once at its pin and check it against its golden
    result, measuring ``host`` after each; (seconds per use case, digest
    per use case)."""
    from repro.experiments import run_registered

    walls: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    for name in use_cases:
        start = time.perf_counter()
        outcome = run_registered(name, **pins[name])
        walls[name] = time.perf_counter() - start
        if host is not None:
            host.measure()
        fresh = json.loads(json.dumps(jsonify(outcome)))
        digests[name] = digest(fresh)
        result.attempted += 1
        if fresh != golden[name]:
            result.failed += 1
            result.check(False, f"{name} no longer reproduces tests/golden/{name}_seed1.json")
    return walls, digests


def run(result: Result, seed: int, seconds: float, trace: bool,
        use_cases: Tuple[str, ...] = USE_CASES, cold_starts: int = 5) -> None:
    pin([work_cpu()])
    import repro.core.usecases  # noqa: F401  (imports are set-up, not measured work)

    host = HostSpeed()
    host.measure()
    setups: List[float] = []
    for _ in range(cold_starts):
        setups.append(cold_start_s())
        host.measure()
    pins, golden, jsonify = load_pins()
    _, digests = run_pass(result, pins, golden, jsonify, use_cases)  # warm-up
    passes: List[Dict[str, float]] = []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or (not trace and time.perf_counter() - began < seconds):
        passes.append(run_pass(result, pins, golden, jsonify, use_cases, host)[0])
    pass_s = [sum(walls.values()) for walls in passes]
    result.info.update({"passes": len(passes), "pass_s": [round(wall, 3) for wall in pass_s],
                        "slowdown": round(host.slowdown, 4)})
    if not trace:
        result.metric("throughput_per_s", len(use_cases) * len(passes) / sum(pass_s) * host.slowdown, "1/s")
        result.metric("setup_s", median(setups) / host.slowdown, "s")
        result.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
        return
    from layers import install_usecases, usecase_layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    install_usecases(tracer)
    try:
        traced_walls, traced_digests = run_pass(result, pins, golden, jsonify, use_cases)
    finally:
        tracer.unwrap_all()
    walls = {name: median(one[name] for one in passes) for name in use_cases}
    for name in use_cases:
        result.check(traced_digests[name] == digests[name], f"{name}: tracing changed its result")
        result.metric(f"experiments.run_registered.{name}.wall_s", walls[name], "s")
        result.metric(f"usecases.result_digest.{name}", digest_number(digests[name]), "hash")
    result.metrics.update(usecase_layer_metrics(tracer.snapshot(), sum(traced_walls.values()),
                                                sum(walls.values())))
    result.metric("host.slowdown", host.slowdown, "ratio")
