"""Simulated annealing over the constrained configuration space."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.search.base import SearchAlgorithm, register_search
from repro.core.space import ParameterSpace

__all__ = ["SimulatedAnnealing"]


@register_search
class SimulatedAnnealing(SearchAlgorithm):
    """Metropolis-style local search with a geometric cooling schedule."""

    name = "annealing"

    def __init__(
        self,
        space: ParameterSpace,
        seed: int = 0,
        initial_temperature: float = 1.0,
        cooling: float = 0.92,
        restarts_after: int = 25,
    ):
        super().__init__(space, seed)
        if initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)
        self.restarts_after = int(restarts_after)

        self._temperature = self.initial_temperature
        self._current: Optional[Dict[str, Any]] = None
        self._current_objective: Optional[float] = None
        self._stale = 0
        #: Typical objective scale learned online, used to normalise deltas.
        self._scale: Optional[float] = None

    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """Propose a neighborhood batch around the current state.

        All proposals come from the *same* state (parallel tempering
        style): distinct neighbors first (drawn without replacement —
        duplicates would waste whole evaluations), then fresh random
        configurations as exploratory padding.  Acceptance happens
        per result when the batch of objectives arrives.
        """
        if self._current is None:
            return self.space.sample_many(self.rng, n)
        neighbors = self.space.neighbors(self._current, self.rng)
        if not neighbors:
            return self.space.sample_many(self.rng, n)
        picks = self.rng.choice(len(neighbors), size=min(n, len(neighbors)), replace=False)
        out = [dict(neighbors[i]) for i in picks]
        if len(out) < n:
            out.extend(self.space.sample_many(self.rng, n - len(out)))
        return out

    def _observe(self, config: Dict[str, Any], objective: float) -> None:
        if self._scale is None and np.isfinite(objective) and objective != 0:
            self._scale = abs(objective)

        if self._current is None or self._current_objective is None:
            self._current = dict(config)
            self._current_objective = objective
            return

        delta = objective - self._current_objective
        scale = self._scale or 1.0
        accept = delta <= 0
        if not accept and self._temperature > 1e-12:
            probability = float(np.exp(-(delta / scale) / self._temperature))
            accept = self.rng.random() < probability
        if accept:
            self._current = dict(config)
            self._current_objective = objective
            self._stale = 0
        else:
            self._stale += 1

        self._temperature *= self.cooling
        if self._stale >= self.restarts_after:
            # Random restart from the best point seen so far.
            best = self.best()
            if best is not None:
                self._current, self._current_objective = dict(best[0]), best[1]
            self._temperature = self.initial_temperature
            self._stale = 0
