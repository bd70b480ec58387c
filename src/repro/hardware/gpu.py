"""Simple GPU accelerator model.

GEOPM's objectives in the paper include "adapting CPU/GPU PM controls
according to application phases" (§3.2.2), so nodes can optionally carry
accelerators.  The model is intentionally coarse: a GPU has a power range,
a frequency range, and executes offloaded work whose duration scales with
its frequency; it is enough to exercise the GPU control path of the
node-level manager and the GEOPM agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.power_model import clamp

__all__ = ["GpuSpec", "GpuExecution", "GpuDevice"]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of an accelerator."""

    model: str = "GPU-SIM A100"
    freq_min_ghz: float = 0.7
    freq_max_ghz: float = 1.4
    idle_power_w: float = 55.0
    max_power_w: float = 400.0
    min_power_cap_w: float = 100.0

    def __post_init__(self) -> None:
        if not 0 < self.freq_min_ghz <= self.freq_max_ghz:
            raise ValueError("require 0 < freq_min <= freq_max")
        if not 0 < self.idle_power_w <= self.max_power_w:
            raise ValueError("require 0 < idle_power <= max_power")
        if not 0 < self.min_power_cap_w <= self.max_power_w:
            raise ValueError("require 0 < min_power_cap <= max_power")


@dataclass(frozen=True)
class GpuExecution:
    """Outcome of an offloaded kernel execution."""

    duration_s: float
    power_w: float
    energy_j: float
    frequency_ghz: float
    power_capped: bool


class GpuDevice:
    """A single accelerator with frequency and power-cap controls."""

    def __init__(self, spec: GpuSpec | None = None, device_id: int = 0):
        self.spec = spec or GpuSpec()
        self.device_id = device_id
        self._freq_ghz = self.spec.freq_max_ghz
        self._power_cap_w: Optional[float] = None
        self._energy_j = 0.0

    @property
    def frequency_ghz(self) -> float:
        return self._freq_ghz

    @property
    def power_cap_w(self) -> Optional[float]:
        return self._power_cap_w

    @property
    def energy_j(self) -> float:
        return self._energy_j

    def set_frequency(self, freq_ghz: float) -> float:
        self._freq_ghz = clamp(freq_ghz, self.spec.freq_min_ghz, self.spec.freq_max_ghz)
        return self._freq_ghz

    def set_power_cap(self, watts: Optional[float]) -> Optional[float]:
        if watts is None:
            self._power_cap_w = None
            return None
        self._power_cap_w = clamp(watts, self.spec.min_power_cap_w, self.spec.max_power_w)
        return self._power_cap_w

    def power_at(self, freq_ghz: float, utilization: float) -> float:
        """Power draw at a frequency and utilization level (W)."""
        utilization = clamp(utilization, 0.0, 1.0)
        frac = (freq_ghz - self.spec.freq_min_ghz) / (
            self.spec.freq_max_ghz - self.spec.freq_min_ghz
        )
        frac = clamp(frac, 0.0, 1.0)
        dynamic = (self.spec.max_power_w - self.spec.idle_power_w) * utilization * (
            0.35 + 0.65 * frac**2
        )
        return self.spec.idle_power_w + dynamic

    def idle_power_w(self) -> float:
        return self.spec.idle_power_w

    def execute(self, ref_seconds: float, utilization: float = 0.9) -> GpuExecution:
        """Run an offloaded kernel of ``ref_seconds`` at max frequency."""
        if ref_seconds < 0:
            raise ValueError("ref_seconds must be >= 0")
        freq = self._freq_ghz
        capped = False
        if self._power_cap_w is not None:
            # Walk frequency down until power fits under the cap.
            for candidate in np.linspace(freq, self.spec.freq_min_ghz, 29):
                if self.power_at(float(candidate), utilization) <= self._power_cap_w + 1e-9:
                    capped = candidate < freq - 1e-9
                    freq = float(candidate)
                    break
            else:
                freq = self.spec.freq_min_ghz
                capped = True
        duration = ref_seconds * (self.spec.freq_max_ghz / freq) ** 0.85
        power = self.power_at(freq, utilization)
        if self._power_cap_w is not None:
            power = min(power, self._power_cap_w)
        energy = power * duration
        self._energy_j += energy
        return GpuExecution(
            duration_s=duration,
            power_w=power,
            energy_j=energy,
            frequency_ghz=freq,
            power_capped=capped,
        )
