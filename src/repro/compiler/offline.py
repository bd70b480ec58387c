"""Offline/static co-tuning of the software stack outside the PowerStack (§4.2).

Section 4.2 points at the software the PowerStack does not directly
manage — compiler tool chains and their optimisation flags, and variants
of commonly used libraries (MPI, OpenMP) — and asks whether their impact
on the PowerStack's target metrics can be quantified and correlated.

:class:`OfflineCoTuningStudy` is that quantification harness:

* a :class:`SoftwareStackConfig` names one point in the offline space
  (optimisation level, extra flags, MPI variant, OpenMP variant, JIT);
* the study compiles the configuration with the
  :class:`~repro.compiler.clang.ClangToolchain`, wraps the target
  application so the flag-level code-efficiency multiplier and the
  library factors (communication time, wait power, threading overhead)
  take effect, runs it on the simulated nodes — optionally under a node
  power cap — and records runtime/power/energy;
* :meth:`OfflineCoTuningStudy.flag_impact` answers "can we quantify the
  impact of different compiler optimisation flags" by reporting each
  knob's marginal effect, and
  :meth:`OfflineCoTuningStudy.characteristic_correlations` answers "can
  we identify correlations between black-box characteristics of these
  dependencies and the efficiency metrics relevant to the PowerStack".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import Application
from repro.apps.mpi import MpiJobSimulator, RuntimeHooks, busy_wait_power_w
from repro.compiler.clang import ClangToolchain, CompileResult, OptimizationLevel
from repro.compiler.libraries import LibraryStack
from repro.hardware.node import Node
from repro.hardware.power_model import clamp
from repro.hardware.workload import PhaseDemand
from repro.sim.rng import RandomStreams
from repro.telemetry.database import PerformanceDatabase

__all__ = ["SoftwareStackConfig", "OfflineCoTuningStudy", "SoftwareAdjustedApplication"]


@dataclass(frozen=True)
class SoftwareStackConfig:
    """One point in the offline (compile-time) software configuration space."""

    opt_level: str = "-O2"
    march_native: bool = False
    fast_math: bool = False
    unroll_loops: bool = False
    mpi: str = "openmpi-busy"
    openmp: str = "libomp"
    jit: bool = False

    def toolchain(self) -> ClangToolchain:
        extra: List[str] = []
        if self.march_native:
            extra.append("-march=native")
        if self.fast_math:
            extra.append("-ffast-math")
        if self.unroll_loops:
            extra.append("-funroll-loops")
        return ClangToolchain(level=OptimizationLevel(self.opt_level), extra_flags=tuple(extra))

    def libraries(self) -> LibraryStack:
        return LibraryStack(mpi=self.mpi, openmp=self.openmp)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "opt_level": self.opt_level,
            "march_native": self.march_native,
            "fast_math": self.fast_math,
            "unroll_loops": self.unroll_loops,
            "mpi": self.mpi,
            "openmp": self.openmp,
            "jit": self.jit,
        }

    @classmethod
    def space(cls) -> Dict[str, List[Any]]:
        """The full offline tunable space (compiler × libraries)."""
        space: Dict[str, List[Any]] = {
            "opt_level": [lvl.value for lvl in OptimizationLevel],
            "march_native": [False, True],
            "fast_math": [False, True],
            "unroll_loops": [False, True],
            "jit": [False, True],
        }
        space.update({k: list(v) for k, v in LibraryStack.space().items()})
        return space


class SoftwareAdjustedApplication(Application):
    """An application viewed through a compiled binary and a library stack.

    The wrapper rescales each phase the inner application emits:

    * the core-bound fraction shrinks with the compiler's code-efficiency
      multiplier (better vectorisation retires the same work in fewer
      cycles),
    * the communication fraction is scaled by the MPI variant's
      communication-time factor,
    * the serial fraction grows with the OpenMP variant's threading
      overhead.
    """

    def __init__(self, inner: Application, compiled: CompileResult, libraries: LibraryStack):
        self.inner = inner
        self.compiled = compiled
        self.libraries = libraries
        self.name = f"{inner.name}[{'+'.join(compiled.flags)}|{libraries.mpi}|{libraries.openmp}]"

    # -- delegation -------------------------------------------------------------
    def parameter_space(self) -> Dict[str, Sequence[Any]]:
        return self.inner.parameter_space()

    def default_parameters(self) -> Dict[str, Any]:
        return self.inner.default_parameters()

    def validate_parameters(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        return self.inner.validate_parameters(params)

    def rank_constraint(self, ranks: int) -> bool:
        return self.inner.rank_constraint(ranks)

    def iterations(self, params: Mapping[str, Any]) -> int:
        return self.inner.iterations(params)

    def progress_metric(self) -> str:
        return self.inner.progress_metric()

    def semantic_state(self, params: Mapping[str, Any], iteration: int) -> Dict[str, Any]:
        return self.inner.semantic_state(params, iteration)

    # -- phase rescaling -----------------------------------------------------------
    def _adjust(self, demand: PhaseDemand) -> PhaseDemand:
        efficiency = self.compiled.efficiency_multiplier
        comm_factor = self.libraries.comm_time_factor()
        thread_overhead = self.libraries.thread_overhead_factor()

        core_s = demand.ref_seconds * demand.core_fraction / efficiency
        memory_s = demand.ref_seconds * demand.memory_fraction
        comm_s = demand.ref_seconds * demand.comm_fraction * comm_factor
        other_s = demand.ref_seconds * demand.other_fraction
        total = core_s + memory_s + comm_s + other_s
        if total <= 0:
            return demand
        return replace(
            demand,
            ref_seconds=total,
            core_fraction=core_s / total,
            memory_fraction=memory_s / total,
            comm_fraction=comm_s / total,
            serial_fraction=clamp(demand.serial_fraction * thread_overhead, 0.0, 1.0),
        )

    def setup_phases(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        return [self._adjust(p) for p in self.inner.setup_phases(params, nodes, ranks_per_node)]

    def phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        return [self._adjust(p) for p in self.inner.phase_sequence(params, nodes, ranks_per_node)]

    def iteration_phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int, iteration: int
    ) -> List[PhaseDemand]:
        return [
            self._adjust(p)
            for p in self.inner.iteration_phase_sequence(params, nodes, ranks_per_node, iteration)
        ]


class _LibraryWaitHooks(RuntimeHooks):
    """Applies the MPI variant's wait-power behaviour (busy-poll vs yield)."""

    def __init__(self, libraries: LibraryStack):
        self.libraries = libraries

    def wait_power_w(self, sim, node: Node, region: PhaseDemand, wait_s: float):
        return busy_wait_power_w(node) * self.libraries.wait_power_factor()


@dataclass
class OfflineCoTuningStudy:
    """Quantify the offline software stack's impact on PowerStack metrics."""

    nodes: Sequence[Node]
    application: Application
    params: Optional[Mapping[str, Any]] = None
    node_power_cap_w: Optional[float] = None
    include_compile_time: bool = False
    seed: int = 0
    database: PerformanceDatabase = field(default_factory=lambda: PerformanceDatabase("offline"))

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("the study needs at least one node")
        self.nodes = list(self.nodes)
        self._evaluations = 0

    # -- evaluation -----------------------------------------------------------------
    def evaluate(self, config: SoftwareStackConfig) -> Dict[str, float]:
        """Compile + run one software configuration and record its metrics."""
        compiled = config.toolchain().compile(jit=config.jit)
        libraries = config.libraries()
        wrapped = SoftwareAdjustedApplication(self.application, compiled, libraries)

        for node in self.nodes:
            node.allocated_to = None
            node.set_power_cap(self.node_power_cap_w)
            node.set_frequency(node.spec.cpu.freq_base_ghz)
            node.set_uncore_frequency(node.spec.cpu.uncore_max_ghz)

        self._evaluations += 1
        result = MpiJobSimulator.evaluate(
            self.nodes,
            wrapped,
            self.params,
            hooks=_LibraryWaitHooks(libraries),
            streams=RandomStreams(self.seed),
            job_id=f"offline-{self._evaluations}",
        )
        metrics = result.metrics()
        metrics["compile_time_s"] = compiled.compile_time_s
        metrics["code_efficiency"] = compiled.efficiency_multiplier
        metrics["comm_time_factor"] = libraries.comm_time_factor()
        metrics["wait_power_factor"] = libraries.wait_power_factor()
        if self.include_compile_time:
            metrics["runtime_s"] += compiled.compile_time_s
        self.database.add_evaluation(
            config=config.as_dict(),
            metrics=metrics,
            objective=metrics["runtime_s"],
            app=self.application.name,
            capped=str(self.node_power_cap_w is not None),
        )
        return metrics

    def sweep(self, configs: Sequence[SoftwareStackConfig]) -> List[Dict[str, float]]:
        """Evaluate a list of configurations; rows carry the config fields too."""
        rows: List[Dict[str, float]] = []
        for config in configs:
            metrics = self.evaluate(config)
            row: Dict[str, float] = {**config.as_dict(), **metrics}
            rows.append(row)
        return rows

    # -- §4.2 question 1: per-flag impact ----------------------------------------------
    def flag_impact(
        self,
        base: Optional[SoftwareStackConfig] = None,
        metrics: Sequence[str] = ("runtime_s", "energy_j"),
    ) -> List[Dict[str, float]]:
        """Marginal impact of toggling each offline knob from a base config.

        For every knob the study evaluates the base configuration and the
        configuration with only that knob changed (boolean knobs toggled,
        categorical knobs set to each alternative), and reports the relative
        change of each requested metric.
        """
        base = base or SoftwareStackConfig()
        reference = self.evaluate(base)
        rows: List[Dict[str, float]] = []
        for knob, values in SoftwareStackConfig.space().items():
            current = getattr(base, knob)
            for value in values:
                if value == current:
                    continue
                variant = SoftwareStackConfig(**{**base.as_dict(), knob: value})
                outcome = self.evaluate(variant)
                row: Dict[str, float] = {"knob": knob, "value": value}
                for metric in metrics:
                    ref = reference[metric]
                    row[f"{metric}_change"] = (
                        (outcome[metric] - ref) / ref if ref else float("nan")
                    )
                rows.append(row)
        return rows

    # -- §4.2 question 4: characteristic ↔ efficiency correlation ----------------------
    def characteristic_correlations(
        self,
        configs: Sequence[SoftwareStackConfig],
        characteristics: Sequence[str] = (
            "code_efficiency",
            "comm_time_factor",
            "wait_power_factor",
        ),
        targets: Sequence[str] = ("runtime_s", "energy_j", "flops_per_watt"),
    ) -> Dict[str, Dict[str, float]]:
        """Pearson correlation between black-box characteristics and metrics."""
        rows = self.sweep(configs)
        out: Dict[str, Dict[str, float]] = {}
        for characteristic in characteristics:
            xs = np.asarray([row[characteristic] for row in rows], dtype=float)
            out[characteristic] = {}
            for target in targets:
                ys = np.asarray([row[target] for row in rows], dtype=float)
                if xs.std() == 0.0 or ys.std() == 0.0:
                    out[characteristic][target] = 0.0
                else:
                    out[characteristic][target] = float(np.corrcoef(xs, ys)[0, 1])
        return out
