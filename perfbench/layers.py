"""Which program functions each workload's traced run wraps, and the
per-layer metrics derived from the spans.

Each span names the end-to-end metric it should move (see
``BENCHMARK.json`` and ``perfbench/README.md``).  Modules are imported
lazily: ``src/`` is on the path only after ``common.require_program``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Tuple

from common import percentile
from tracing import Tracer, layer_metrics

CTL_OPS = ("tuning.tell", "tuning.ask", "db.best_for", "db.top_k", "db.aggregate", "power.read")
USE_CASES = ("uc1", "uc2", "uc3", "uc4", "uc5", "uc6", "uc7")

CTL_SPANS: Dict[str, Tuple[str, ...]] = {
    "netserver.FrameBuffer.feed": ("calls", "self_s"),
    "netserver.frame_text": ("calls", "self_s"),
    "service.Request.from_dict": ("self_s",),
    "service.Response.to_dict": ("self_s",),
    **{f"service.handle.{op}": ("calls", "self_s") for op in CTL_OPS},
    "telemetry.sharding.add_evaluation": ("calls", "self_s"),
    "telemetry.sharding.where": ("calls", "self_s"),
    "telemetry.sharding.best_for": ("calls", "self_s"),
    "telemetry.sharding.top_k": ("calls", "self_s"),
    "telemetry.sharding.aggregate": ("calls", "self_s"),
    "telemetry.PerformanceDatabase.from_records": ("calls", "self_s"),
    "durability.JournalSegment.append": ("calls", "self_s", "bytes"),
}

REPLAY_SPANS: Dict[str, Tuple[str, ...]] = {
    "resource_manager.JobQueue.backfill_candidates": ("calls", "self_s"),
    "resource_manager.NodeAvailabilityProfile.earliest_start": ("calls", "self_s"),
    "resource_manager.SitePolicies.job_budget_w": ("calls",),
    "hardware.Cluster.allocate_nodes": ("self_s",),
    "hardware.Cluster.release_nodes": ("self_s",),
    "hardware.ClusterState.rank_free": ("calls", "self_s"),
    "workloads.TraceReplayApplication.make_simulator": ("self_s",),
    "sim.Environment.step": ("calls", "self_s"),
}

USECASE_SPANS: Dict[str, Tuple[str, ...]] = {
    "hardware.Node.execute_phase": ("calls", "self_s"),
    "hardware.CpuPackage.power_at": ("calls", "self_s"),
    "core.tuner.Autotuner.run": ("self_s",),
    "core.tuner.BatchAutotuner.run": ("self_s",),
    "core.search.ask": ("calls", "self_s"),
    "core.search.tell": ("calls", "self_s"),
    "core.search.ask_batch": ("calls", "self_s"),
    "core.search.tell_batch": ("calls", "self_s"),
    "node_mgmt.powercap.distribute_power_budget": ("calls", "self_s"),
    "hardware.Cluster.apply_power_caps": ("calls", "self_s"),
}


def wrap_function(tracer: Tracer, module: Any, name: str, label: str) -> None:
    """Wrap a module-level function under every ``repro`` module alias.

    Modules that imported the function by name hold their own reference;
    each one is rebound so every call site is traced.
    """
    original = getattr(module, name)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and getattr(loaded, name, None) is original:
            tracer.wrap(loaded, name, label)


# -- ctl_mixed --------------------------------------------------------------
def install_ctl(tracer: Tracer) -> None:
    from repro.durability.journal import JournalSegment
    from repro.netserver import server as netserver
    from repro.netserver.framing import FrameBuffer
    from repro.service.envelopes import Request, Response
    from repro.service.service import StackService
    from repro.telemetry.database import PerformanceDatabase
    from repro.telemetry.sharding import ShardedPerformanceDatabase

    tracer.wrap(FrameBuffer, "feed", "netserver.FrameBuffer.feed")
    tracer.wrap(netserver, "frame_text", "netserver.frame_text")
    tracer.wrap(netserver, "decode_wire_line", "service.decode_wire_line")
    tracer.wrap(Request, "from_dict", "service.Request.from_dict")
    tracer.wrap(Response, "to_dict", "service.Response.to_dict")
    tracer.wrap(
        StackService, "handle_dict", "service.handle_dict",
        key=lambda self, payload: payload.get("request_id") if isinstance(payload, dict) else None,
    )
    tracer.wrap(StackService, "handle", lambda self, request: f"service.handle.{request.op}")
    for method in ("add_evaluation", "where", "best_for", "top_k", "aggregate"):
        tracer.wrap(ShardedPerformanceDatabase, method, f"telemetry.sharding.{method}")
    # The tenant-scoped db.top_k copies the tenant's rows into a new store.
    tracer.wrap(PerformanceDatabase, "from_records", "telemetry.PerformanceDatabase.from_records")
    tracer.wrap(
        JournalSegment, "append", "durability.JournalSegment.append",
        payload_bytes=lambda self, payload: len(payload),
    )


def ctl_layer_metrics(dump: Dict[str, Any], plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of a traced ``ctl_mixed`` run.

    ``plain`` and ``traced`` are the same nominal-rate phase against an
    untraced and a traced server; ``dump`` is the traced server's trace.
    """
    trace = dump["window"]
    out = layer_metrics(trace, CTL_SPANS)
    phase = traced["measured"]
    keyed = dump["keyed"]
    waits = sorted(
        sample[3] * 1e3 - keyed[sample[4]] * 1e3 for sample in phase["samples"] if sample[4] in keyed
    )
    out["service.queue_wait_ms.p50"] = {"value": percentile(waits, 50), "unit": "ms"}
    out["service.queue_wait_ms.p99"] = {"value": percentile(waits, 99), "unit": "ms"}
    out["telemetry.sharding.rows_start"] = {"value": traced["rows_start"], "unit": "count"}
    out["telemetry.sharding.rows_end"] = {"value": traced["rows_end"], "unit": "count"}
    plain_phase = plain["measured"]
    plain_cpu = plain["cpu_s"] / max(1, plain_phase["sent"])
    traced_cpu = traced["cpu_s"] / max(1, phase["sent"])
    out["trace_overhead_pct"] = {"value": 100.0 * (traced_cpu / plain_cpu - 1.0), "unit": "%"}
    # Root spans run on the loop thread and the dispatch thread at once:
    # their CPU time, not their wall time, is a share of the process's.
    cpu = trace["cpu_s"]
    out["unaccounted_pct"] = {"value": 100.0 * (cpu - trace["root_cpu_s"]) / cpu, "unit": "%"}
    return out


# -- replays ----------------------------------------------------------------
def install_replay(tracer: Tracer) -> None:
    from repro.hardware.cluster import Cluster
    from repro.hardware.state import ClusterState
    from repro.resource_manager.policies import SitePolicies
    from repro.resource_manager.queue import JobQueue
    from repro.resource_manager.slurm import NodeAvailabilityProfile, PowerAwareScheduler
    from repro.sim.engine import Environment
    from repro.workloads.replay import TraceReplayApplication

    tracer.wrap(PowerAwareScheduler, "run_until_complete", "resource_manager.PowerAwareScheduler.run_until_complete")
    tracer.wrap(JobQueue, "backfill_candidates", "resource_manager.JobQueue.backfill_candidates")
    tracer.wrap(NodeAvailabilityProfile, "earliest_start", "resource_manager.NodeAvailabilityProfile.earliest_start")
    tracer.wrap(SitePolicies, "job_budget_w", "resource_manager.SitePolicies.job_budget_w")
    tracer.wrap(Cluster, "allocate_nodes", "hardware.Cluster.allocate_nodes")
    tracer.wrap(Cluster, "release_nodes", "hardware.Cluster.release_nodes")
    tracer.wrap(ClusterState, "rank_free_by_efficiency", "hardware.ClusterState.rank_free")
    tracer.wrap(ClusterState, "rank_free_by_temperature", "hardware.ClusterState.rank_free")
    tracer.wrap(TraceReplayApplication, "make_simulator", "workloads.TraceReplayApplication.make_simulator")
    tracer.wrap(Environment, "step", "sim.Environment.step")


def replay_layer_metrics(trace: Dict[str, Any], stats: Dict[str, float], plain_wall_s: float) -> Dict[str, Any]:
    out = layer_metrics(trace, REPLAY_SPANS)
    candidates = out["resource_manager.JobQueue.backfill_candidates.calls"]["value"]
    backfilled = stats["backfilled_jobs"]
    out["resource_manager.backfill_yield"] = {
        "value": backfilled / candidates if candidates else 0.0, "unit": "ratio",
    }
    out["resource_manager.backfilled_jobs"] = {"value": backfilled, "unit": "count"}
    out["resource_manager.mean_wait_s"] = {"value": stats["mean_wait_s"], "unit": "s"}
    out["resource_manager.utilization"] = {"value": stats["node_utilization"], "unit": "ratio"}
    steps = out["sim.Environment.step.calls"]["value"]
    out["sim.host_us_per_event"] = {"value": 1e6 * plain_wall_s / steps if steps else 0.0, "unit": "us"}
    top = trace["stats"]["resource_manager.PowerAwareScheduler.run_until_complete"]
    out["trace_overhead_pct"] = {"value": 100.0 * (top[1] / plain_wall_s - 1.0), "unit": "%"}
    out["unaccounted_pct"] = {"value": 100.0 * top[2] / top[1], "unit": "%"}
    return out


# -- usecases ---------------------------------------------------------------
def install_usecases(tracer: Tracer) -> None:
    import repro.core.usecases  # noqa: F401  (registers the use cases)
    from repro.core.tuner import Autotuner, BatchAutotuner
    from repro.experiments import registry
    from repro.hardware.cluster import Cluster
    from repro.hardware.cpu import CpuPackage
    from repro.hardware.node import Node
    from repro.node_mgmt import powercap

    tracer.wrap(registry.UseCaseDef, "run", "experiments.UseCaseDef.run")
    tracer.wrap(Node, "execute_phase", "hardware.Node.execute_phase")
    tracer.wrap(CpuPackage, "power_at", "hardware.CpuPackage.power_at")
    tracer.wrap(Autotuner, "run", "core.tuner.Autotuner.run")
    tracer.wrap(BatchAutotuner, "run", "core.tuner.BatchAutotuner.run")
    for cls in _search_classes():
        for method in ("ask", "tell", "ask_batch", "tell_batch"):
            if method in cls.__dict__:
                tracer.wrap(cls, method, f"core.search.{method}")
    wrap_function(tracer, powercap, "distribute_power_budget", "node_mgmt.powercap.distribute_power_budget")
    tracer.wrap(Cluster, "apply_power_caps", "hardware.Cluster.apply_power_caps")


def _search_classes() -> List[type]:
    """Every search algorithm class (methods are wrapped where defined)."""
    from repro.core.search.base import SearchAlgorithm

    seen: List[type] = []
    pending = [SearchAlgorithm]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def usecase_layer_metrics(trace: Dict[str, Any], traced_wall_s: float, plain_wall_s: float) -> Dict[str, Any]:
    out = layer_metrics(trace, USECASE_SPANS)
    top = trace["stats"]["experiments.UseCaseDef.run"]
    out["trace_overhead_pct"] = {"value": 100.0 * (traced_wall_s / plain_wall_s - 1.0), "unit": "%"}
    out["unaccounted_pct"] = {"value": 100.0 * top[2] / top[1], "unit": "%"}
    return out
