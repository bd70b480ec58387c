"""Uniform random search (the baseline every surrogate must beat)."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.search.base import SearchAlgorithm, config_key, register_search
from repro.core.space import ParameterSpace

__all__ = ["RandomSearch"]


@register_search
class RandomSearch(SearchAlgorithm):
    """Samples allowed configurations uniformly at random, without repeats."""

    name = "random"

    def __init__(self, space: ParameterSpace, seed: int = 0):
        super().__init__(space, seed)
        self._seen: set = set()

    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """Draw a whole batch with one vectorized ``sample_many`` per round."""
        out: List[Dict[str, Any]] = []
        for _ in range(50):
            for config in self.space.sample_many(self.rng, n - len(out)):
                key = config_key(config)
                if key not in self._seen:
                    self._seen.add(key)
                    out.append(config)
                    if len(out) == n:
                        break
            if len(out) == n:
                return out
        # The space is (nearly) exhausted; pad with repeats rather than fail.
        out.extend(self.space.sample_many(self.rng, n - len(out)))
        return out
