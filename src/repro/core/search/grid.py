"""Exhaustive grid search and Latin-hypercube sampling."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.core.search.base import SearchAlgorithm, register_search
from repro.core.space import ParameterSpace

__all__ = ["GridSearch", "LatinHypercubeSearch"]


@register_search
class GridSearch(SearchAlgorithm):
    """Walks the (constrained) cartesian grid of representative values.

    This is the "exhaustive empirical exploration" option of §4.1; it is
    only practical for small spaces, which is exactly the point the
    ablation benchmark makes.
    """

    name = "grid"

    def __init__(self, space: ParameterSpace, seed: int = 0, resolution: int = 10):
        super().__init__(space, seed)
        self.resolution = int(resolution)
        self._iterator: Iterator[Dict[str, Any]] = space.grid_configurations(self.resolution)
        self._pending: Optional[Dict[str, Any]] = next(self._iterator, None)

    def is_exhausted(self) -> bool:
        return self._pending is None

    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """The next ``n`` grid points; a short batch once the grid runs out."""
        out: List[Dict[str, Any]] = []
        while len(out) < n and self._pending is not None:
            out.append(self._pending)
            self._pending = next(self._iterator, None)
        return out


@register_search
class LatinHypercubeSearch(SearchAlgorithm):
    """Space-filling design: stratified samples across every dimension."""

    name = "lhs"

    def __init__(self, space: ParameterSpace, seed: int = 0, batch: int = 16):
        super().__init__(space, seed)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = int(batch)
        self._queue: list = []

    def _refill(self, size: int) -> None:
        dims = len(self.space)
        if dims == 0:
            raise ValueError("cannot search an empty space")
        # One stratified permutation per dimension.
        samples = np.empty((size, dims))
        for d in range(dims):
            perm = self.rng.permutation(size)
            samples[:, d] = (perm + self.rng.random(size)) / size
        for config in self.space.decode_many(samples):
            if self.space.is_allowed(config):
                self._queue.append(config)
        if not self._queue:  # all rows violated constraints: fall back
            self._queue.append(self.space.sample(self.rng))

    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """Drain the stratified queue, refilling with whole LHS designs."""
        out: List[Dict[str, Any]] = []
        while len(out) < n:
            if not self._queue:
                self._refill(max(self.batch, n - len(out)))
            out.append(self._queue.pop(0))
        return out
