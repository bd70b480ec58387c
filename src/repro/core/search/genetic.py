"""A steady-state genetic algorithm over configuration dictionaries."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.search.base import SearchAlgorithm, register_search
from repro.core.space import ParameterSpace

__all__ = ["GeneticAlgorithm"]


@register_search
class GeneticAlgorithm(SearchAlgorithm):
    """Tournament selection, uniform crossover, per-parameter mutation."""

    name = "genetic"

    def __init__(
        self,
        space: ParameterSpace,
        seed: int = 0,
        population_size: int = 16,
        mutation_rate: float = 0.2,
        tournament: int = 3,
    ):
        super().__init__(space, seed)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if tournament < 1:
            raise ValueError("tournament must be >= 1")
        self.population_size = int(population_size)
        self.mutation_rate = float(mutation_rate)
        self.tournament = int(tournament)
        #: Evaluated members: (config, objective); best kept at the front.
        self._population: List[Tuple[Dict[str, Any], float]] = []

    # -- GA operators -----------------------------------------------------------------
    def _select_parent(self) -> Dict[str, Any]:
        contenders = [
            self._population[int(self.rng.integers(0, len(self._population)))]
            for _ in range(min(self.tournament, len(self._population)))
        ]
        return dict(min(contenders, key=lambda item: item[1])[0])

    def _crossover(self, a: Mapping[str, Any], b: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            name: (a[name] if self.rng.random() < 0.5 else b[name]) for name in self.space.names()
        }

    def _mutate(self, config: Dict[str, Any]) -> Dict[str, Any]:
        mutated = dict(config)
        for name in self.space.names():
            if self.rng.random() < self.mutation_rate:
                mutated[name] = self.space[name].sample(self.rng)
        return mutated

    # -- batch interface: whole generations at once -----------------------------------
    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """Propose a whole generation of offspring from the current population."""
        out: List[Dict[str, Any]] = []
        deficit = self.population_size - len(self.history)
        if deficit > 0:
            out.extend(self.space.sample_many(self.rng, min(n, deficit)))
        if not self._population:
            if len(out) < n:
                out.extend(self.space.sample_many(self.rng, n - len(out)))
            return out
        while len(out) < n:
            for _ in range(30):
                child = self._mutate(
                    self._crossover(self._select_parent(), self._select_parent())
                )
                if self.space.is_allowed(child):
                    out.append(child)
                    break
            else:
                out.append(self.space.sample(self.rng))
        return out

    def _observe(self, config: Dict[str, Any], objective: float) -> None:
        self._population.append((config, objective))

    def tell_batch(
        self, configs: Sequence[Mapping[str, Any]], objectives: Sequence[float]
    ) -> None:
        """Absorb a generation with a single sort instead of one per result."""
        super().tell_batch(configs, objectives)
        self._population.sort(key=lambda item: item[1])
        del self._population[self.population_size:]
