"""``replay_contended`` and ``replay_sparse``: synthetic traces drained by
the event-driven power-aware scheduler.

Set-up builds the inputs and the system: the seeded trace
(``repro.workloads``), the cluster, the site policies and the scheduler
with the trace submitted (``repro.resource_manager``).  The timed part is
``run_until_complete``.  A run repeats set-up and drain until its time is
used (at least ``MIN_REPLAYS`` times).  It reports jobs per second over
all the replays and the median set-up, scaled by the host's speed
measured between the replays (``common.HostSpeed``).

``replay_contended`` offers about 1.5x the cluster's capacity, so a queue
forms and FCFS head planning, EASY backfill and reservations do the work.
``replay_sparse`` offers about 0.65x on a 4x larger cluster: no queue, no
backfill, and arrival batches, launch and release accounting, DES steps
and free-node ranking dominate.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional, Tuple

from common import HostSpeed, Result, median, pin, self_peak_rss_mb, work_cpu

#: name -> (nodes, workload spec); the seed is the benchmark's.
REPLAYS = {
    # log-uniform widths 1..64 (mean ~15 nodes) x ~605 s runtimes at one
    # job per 1.5 s: ~1.5x the node-seconds 4,096 nodes supply.
    "replay_contended": (
        4096,
        "synth:n_jobs=10000,mean_interarrival_s=1.3,mean_runtime_s=600,"
        "max_nodes_per_job=64,arrival_quantum_s=30",
    ),
    # the same job mix on 16,384 nodes at one job per 0.94 s: ~0.65x.
    "replay_sparse": (
        16384,
        "synth:n_jobs=8000,mean_interarrival_s=0.74,mean_runtime_s=600,"
        "max_nodes_per_job=64,arrival_quantum_s=30",
    ),
}
#: A run makes at least this many replays.
MIN_REPLAYS = 3


def _bare_runtime(job, budget, scheduler):
    from repro.apps.mpi import RuntimeHooks

    return RuntimeHooks()


def build(n_nodes: int, spec: str, seed: int):
    """Inputs and system for one replay: (scheduler, number of jobs)."""
    from repro.experiments.shared import make_cluster
    from repro.resource_manager import PowerAwareScheduler, SchedulerConfig, SitePolicies
    from repro.sim.engine import Environment
    from repro.sim.rng import RandomStreams
    from repro.workloads.spec import workload_requests

    requests = workload_requests(spec, seed=seed)
    cluster = make_cluster(n_nodes, seed)
    policies = SitePolicies(system_power_budget_w=cluster.total_tdp_w(), reserve_fraction=0.0)
    config = SchedulerConfig(
        scheduling_interval_s=10.0,
        vectorized=True,
        driver="event",
        monitor_interval_s=600.0,
        backfill_depth=100,
        runtime_factory=_bare_runtime,
    )
    scheduler = PowerAwareScheduler(Environment(), cluster, policies, config, RandomStreams(seed))
    scheduler.submit_trace(requests)
    return scheduler, len(requests)


def drain(scheduler) -> tuple:
    """Run to completion; (seconds, stats dict).

    The collector stays on: its pauses are part of the program's cost.
    Only garbage left by the set-up is collected first.
    """
    gc.collect()
    start = time.perf_counter()
    stats = scheduler.run_until_complete()
    elapsed = time.perf_counter() - start
    return elapsed, stats.as_dict()


def check(result: Result, workload: str, n_jobs: int, stats: Dict[str, float]) -> None:
    result.attempted += n_jobs
    done = int(stats["jobs_completed"])
    result.failed += n_jobs - done
    result.check(done == n_jobs, f"{workload}: {done} of {n_jobs} jobs completed")
    if workload == "replay_contended":
        result.check(stats["backfilled_jobs"] > 0, "replay_contended made no backfills")
        result.check(stats["mean_wait_s"] > 0, "replay_contended formed no queue")
    else:
        result.check(stats["backfilled_jobs"] == 0, "replay_sparse backfilled jobs")


def run(result: Result, workload: str, seed: int, seconds: float, trace: bool,
        size: Optional[Tuple[int, str]] = None) -> None:
    n_nodes, spec = size or REPLAYS[workload]
    pin([work_cpu()])
    build(1, "synth:n_jobs=1", seed)  # imports are not part of set-up
    host = HostSpeed()
    host.measure()
    setups, walls = [], []
    stats_seen = None
    began = time.perf_counter()
    while len(walls) < MIN_REPLAYS or time.perf_counter() - began < seconds:
        # The previous replay's objects must not be alive, or collected,
        # while this set-up is timed.
        scheduler = None
        gc.collect()
        t0 = time.perf_counter()
        scheduler, n_jobs = build(n_nodes, spec, seed)
        setups.append(time.perf_counter() - t0)
        host.measure()
        wall, stats = drain(scheduler)
        host.measure()
        check(result, workload, n_jobs, stats)
        if stats_seen is not None:
            result.check(stats == stats_seen, f"{workload}: a repeated replay gave other statistics")
        stats_seen = stats
        walls.append(wall)
        if trace:
            break
    result.info.update({k: stats_seen[k] for k in ("backfilled_jobs", "mean_wait_s", "node_utilization")})
    result.info.update({"rates": [round(n_jobs / wall, 1) for wall in walls],
                        "slowdown": round(host.slowdown, 4)})
    if not trace:
        result.metric("throughput_per_s", n_jobs * len(walls) / sum(walls) * host.slowdown, "1/s")
        result.metric("setup_s", median(setups) / host.slowdown, "s")
        result.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
        return
    from layers import install_replay, replay_layer_metrics
    from tracing import Tracer

    scheduler = None  # released before the next one is built
    scheduler, n_jobs = build(n_nodes, spec, seed)
    tracer = Tracer()
    install_replay(tracer)
    try:
        _, stats = drain(scheduler)
    finally:
        tracer.unwrap_all()
    check(result, workload, n_jobs, stats)
    result.check(stats == stats_seen, f"{workload}: tracing changed the replay's statistics")
    result.metrics.update(replay_layer_metrics(tracer.snapshot(), stats, walls[0]))
    result.metric("host.slowdown", host.slowdown, "ratio")
