"""GEOPM agent plugins.

GEOPM's plugin interface lets sites "plug-and-play their own algorithms
of choice"; a typical installation ships five agents corresponding to
"the most common policies among HPC sites" (§3.2.2):

* monitoring only (:class:`MonitorAgent`),
* static power-cap assignment (:class:`PowerGovernorAgent`),
* power load balancing around the average node cap (:class:`PowerBalancerAgent`),
* static frequency assignment (:class:`FrequencyMapAgent`),
* energy efficiency under a performance-degradation threshold
  (:class:`EnergyEfficientAgent`).

Agents see per-epoch (per main-iteration) statistics for every node of
the job and adjust node controls for the next epoch.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.hardware.node import Node
from repro.hardware.power_model import clamp
from repro.hardware.workload import PhaseDemand

__all__ = [
    "Agent",
    "AGENT_REGISTRY",
    "MonitorAgent",
    "PowerGovernorAgent",
    "PowerBalancerAgent",
    "FrequencyMapAgent",
    "EnergyEfficientAgent",
]

#: Per-node epoch statistics handed to agents: hostname -> metric -> value.
EpochStats = Mapping[str, Mapping[str, float]]


class Agent(abc.ABC):
    """Base class for GEOPM agent plugins."""

    name = "agent"

    def startup(self, nodes: Sequence[Node], policy: "GeopmPolicyLike") -> None:
        """Apply initial controls when the controller starts."""

    def adjust(self, nodes: Sequence[Node], epoch: EpochStats, policy: "GeopmPolicyLike") -> None:
        """Adjust controls after an epoch (one application iteration)."""

    def on_region(self, nodes: Sequence[Node], region: PhaseDemand) -> None:
        """Optional per-region control (frequency-map style agents)."""

    def report(self) -> Dict[str, float]:
        """Agent-specific telemetry for the job report."""
        return {}


class GeopmPolicyLike:
    """Structural type of the policy object agents receive.

    (The concrete :class:`repro.runtime.geopm.GeopmPolicy` dataclass
    satisfies this; defined here only for documentation/typing without a
    circular import.)
    """

    power_budget_w: Optional[float]
    frequency_ghz: Optional[float]
    perf_degradation: float


#: Registry of agent classes by name (mirrors GEOPM's --geopm-agent option).
AGENT_REGISTRY: Dict[str, type] = {}


def _register(cls):
    AGENT_REGISTRY[cls.name] = cls
    return cls


@_register
class MonitorAgent(Agent):
    """No control — telemetry only ("monitoring application energy/power metrics")."""

    name = "monitor"

    def __init__(self) -> None:
        self.epochs = 0
        self.total_energy_j = 0.0

    def adjust(self, nodes, epoch, policy) -> None:
        self.epochs += 1
        self.total_energy_j += sum(stats.get("energy_j", 0.0) for stats in epoch.values())

    def report(self) -> Dict[str, float]:
        return {"epochs": float(self.epochs), "total_energy_j": self.total_energy_j}


@_register
class PowerGovernorAgent(Agent):
    """Static power-cap assignment for the lifetime of the job."""

    name = "power_governor"

    def startup(self, nodes, policy) -> None:
        if policy.power_budget_w is None or not nodes:
            return
        share = policy.power_budget_w / len(nodes)
        for node in nodes:
            node.set_power_cap(share)

    def adjust(self, nodes, epoch, policy) -> None:
        # Static: re-assert the cap in case something else changed it.
        self.startup(nodes, policy)


@_register
class PowerBalancerAgent(Agent):
    """Power load balancing based on the average node power cap.

    Nodes that finish their epoch early (large barrier wait) donate cap
    to the slow (critical-path) nodes, keeping the *total* job power at
    the budget while reducing the time-to-solution — the "steering power
    between nodes according to load imbalance patterns" objective.
    """

    name = "power_balancer"

    def __init__(self, step_fraction: float = 0.35, min_cap_margin_w: float = 0.0):
        if not 0.0 < step_fraction <= 1.0:
            raise ValueError("step_fraction must be in (0, 1]")
        self.step_fraction = float(step_fraction)
        self.min_cap_margin_w = float(min_cap_margin_w)
        self._caps: Dict[str, float] = {}
        self.adjustments = 0

    def startup(self, nodes, policy) -> None:
        if policy.power_budget_w is None or not nodes:
            return
        share = policy.power_budget_w / len(nodes)
        self._caps = {node.hostname: node.set_power_cap(share) or share for node in nodes}

    def adjust(self, nodes, epoch, policy) -> None:
        if policy.power_budget_w is None or not nodes:
            return
        if not self._caps:
            self.startup(nodes, policy)
        durations = {
            host: stats.get("duration_s", 0.0) for host, stats in epoch.items()
        }
        if not durations or max(durations.values()) <= 0:
            return
        mean_duration = float(np.mean(list(durations.values())))
        if mean_duration <= 0:
            return

        budget = policy.power_budget_w
        caps = dict(self._caps)
        for node in nodes:
            host = node.hostname
            duration = durations.get(host, mean_duration)
            current = caps.get(host, budget / len(nodes))
            # Slow nodes (above-average epoch time) get proportionally more power.
            imbalance = (duration - mean_duration) / mean_duration
            caps[host] = current * (1.0 + self.step_fraction * imbalance)

        # Renormalise to the job budget and clamp to enforceable ranges.
        total = sum(caps.values())
        if total <= 0:
            return
        scale = budget / total
        for node in nodes:
            host = node.hostname
            lo = node.spec.min_power_w + self.min_cap_margin_w
            hi = node.max_power_w()
            caps[host] = clamp(caps[host] * scale, lo, hi)
            node.set_power_cap(caps[host])
        self._caps = caps
        self.adjustments += 1

    def report(self) -> Dict[str, float]:
        out = {"adjustments": float(self.adjustments)}
        if self._caps:
            values = np.array(list(self._caps.values()))
            out["cap_spread_w"] = float(values.max() - values.min())
            out["cap_mean_w"] = float(values.mean())
        return out


@_register
class FrequencyMapAgent(Agent):
    """Static (or region-keyed) frequency assignment.

    With an explicit map the agent pins the mapped frequency when a
    region is entered; without one it applies the policy frequency for
    the whole job ("static frequency assignment for the entire lifetime
    of the application").
    """

    name = "frequency_map"

    def __init__(self, region_frequency_ghz: Optional[Mapping[str, float]] = None):
        self.region_frequency_ghz = dict(region_frequency_ghz or {})
        self.region_hits = 0

    def startup(self, nodes, policy) -> None:
        if policy.frequency_ghz is not None:
            for node in nodes:
                node.set_frequency(policy.frequency_ghz)

    def on_region(self, nodes, region: PhaseDemand) -> None:
        freq = self.region_frequency_ghz.get(region.name)
        if freq is None:
            return
        self.region_hits += 1
        for node in nodes:
            node.set_frequency(freq)

    def report(self) -> Dict[str, float]:
        return {"region_hits": float(self.region_hits)}


@_register
class EnergyEfficientAgent(Agent):
    """Energy efficiency under a performance-degradation threshold.

    The agent walks the frequency down epoch by epoch as long as the
    epoch time stays within ``(1 + perf_degradation)`` of the best epoch
    observed at full frequency, and backs off one step when it overshoots.
    """

    name = "energy_efficient"

    def __init__(self, step_ghz: float = 0.2):
        if step_ghz <= 0:
            raise ValueError("step_ghz must be positive")
        self.step_ghz = float(step_ghz)
        self._reference_epoch_s: Optional[float] = None
        self._current_freq: Optional[float] = None
        self._settled = False

    def startup(self, nodes, policy) -> None:
        for node in nodes:
            self._current_freq = node.set_frequency(node.spec.cpu.freq_max_ghz)

    def adjust(self, nodes, epoch, policy) -> None:
        if not nodes or not epoch:
            return
        epoch_s = float(np.mean([s.get("duration_s", 0.0) for s in epoch.values()]))
        if epoch_s <= 0:
            return
        spec = nodes[0].spec.cpu
        if self._reference_epoch_s is None:
            self._reference_epoch_s = epoch_s
            return
        if self._settled:
            return
        allowed = self._reference_epoch_s * (1.0 + policy.perf_degradation)
        current = self._current_freq or spec.freq_max_ghz
        if epoch_s <= allowed and current > spec.freq_min_ghz:
            target = max(spec.freq_min_ghz, current - self.step_ghz)
        elif epoch_s > allowed:
            target = min(spec.freq_max_ghz, current + self.step_ghz)
            self._settled = True
        else:
            self._settled = True
            return
        for node in nodes:
            self._current_freq = node.set_frequency(target)

    def report(self) -> Dict[str, float]:
        return {
            "final_frequency_ghz": self._current_freq or 0.0,
            "settled": 1.0 if self._settled else 0.0,
        }
