"""The ask/tell search interface and the algorithm factory.

Every algorithm proposes through one primitive:
:meth:`SearchAlgorithm.ask_batch` checks the batch size and calls the
algorithm's ``_propose(n)``, and :meth:`SearchAlgorithm.tell_batch`
records a batch of objectives and feeds each result to the ``_observe``
hook in arrival order.  The scalar ``ask()`` / ``tell()`` are one-line
sugar over the batch pair, so a batch tuner with batch size 1 and a
one-at-a-time loop run the same code.  Algorithms with natural batch
structure use it inside ``_propose``: population proposals in the
genetic search, single-surrogate-fit top-``n`` acquisition in the
Bayesian and forest searches, vectorized random and LHS draws.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.space import ParameterSpace
from repro.sim.rng import RandomStreams

__all__ = [
    "SearchAlgorithm",
    "SurrogateSearch",
    "config_key",
    "make_search",
    "SEARCH_REGISTRY",
]


def config_key(config: Mapping[str, Any]) -> tuple:
    """Canonical hashable key for a configuration dictionary.

    Order-insensitive and value-type-safe (``repr`` keeps ``1`` and
    ``"1"`` distinct).  Shared by the repeat-avoidance sets, the batch
    acquisition dedupe and the evaluation memoization cache so all of
    them agree on what "the same configuration" means.
    """
    return tuple(sorted((k, repr(v)) for k, v in config.items()))


class SearchAlgorithm(abc.ABC):
    """Base class: propose configurations (ask), learn from results (tell).

    The objective passed to :meth:`tell` is always *minimised*; the tuner
    handles direction and constraint penalties.
    """

    name = "search"

    def __init__(self, space: ParameterSpace, seed: int = 0):
        self.space = space
        self.streams = RandomStreams(seed)
        self.rng = self.streams.stream(f"search.{self.name}")
        #: Evaluated (config, objective) pairs in tell() order.
        self.history: List[Tuple[Dict[str, Any], float]] = []

    # -- interface -------------------------------------------------------------------
    def ask_batch(self, n: int) -> List[Dict[str, Any]]:
        """Propose up to ``n`` configurations to evaluate together.

        The proposals are what the algorithm would ask with no new
        information — exactly the parallel-evaluation semantics.  May
        return fewer than ``n`` configurations when the algorithm is
        exhausted mid-batch.
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
        return self._propose(n)

    def tell_batch(
        self, configs: Sequence[Mapping[str, Any]], objectives: Sequence[float]
    ) -> None:
        """Report measured objectives for a batch of configurations."""
        if len(configs) != len(objectives):
            raise ValueError(
                f"got {len(configs)} configs but {len(objectives)} objectives"
            )
        for config, objective in zip(configs, objectives):
            config, objective = dict(config), float(objective)
            self.history.append((config, objective))
            self._observe(config, objective)

    def ask(self) -> Dict[str, Any]:
        """Propose the next configuration to evaluate."""
        return self.ask_batch(1)[0]

    def tell(self, config: Mapping[str, Any], objective: float) -> None:
        """Report the measured objective for a configuration."""
        self.tell_batch([config], [objective])

    @abc.abstractmethod
    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """Up to ``n`` (``>= 1``) proposals given the history so far."""

    def _observe(self, config: Dict[str, Any], objective: float) -> None:
        """Per-result learning hook, called in arrival order (default: none)."""

    def is_exhausted(self) -> bool:
        """True when the algorithm has nothing new to propose (grid search)."""
        return False

    # -- helpers ----------------------------------------------------------------------
    def _select_top_distinct(
        self, pool: Sequence[Dict[str, Any]], scores: Sequence[float], n: int
    ) -> List[Dict[str, Any]]:
        """Top-``n`` distinct configurations from ``pool`` by descending score.

        Shared by the surrogate searches' ``_propose`` (one acquisition
        sweep, many proposals).  Pads with fresh random samples when the
        pool holds fewer than ``n`` distinct configurations; may return a
        short batch when the space itself is nearly exhausted.
        """
        out: List[Dict[str, Any]] = []
        seen: set = set()
        for i in np.argsort(-np.asarray(scores, dtype=float)):
            key = config_key(pool[i])
            if key in seen:
                continue
            seen.add(key)
            out.append(dict(pool[i]))
            if len(out) == n:
                break
        for _ in range(5):
            if len(out) == n:
                break
            for config in self.space.sample_many(self.rng, n - len(out)):
                key = config_key(config)
                if key not in seen:
                    seen.add(key)
                    out.append(config)
        return out

    def best(self) -> Optional[Tuple[Dict[str, Any], float]]:
        if not self.history:
            return None
        return min(self.history, key=lambda item: item[1])


class SurrogateSearch(SearchAlgorithm):
    """Shared skeleton for model-based searches (SMAC/BO style).

    Subclasses supply the surrogate by implementing :meth:`_fit` (train on
    the finite history, return the objective vector) and :meth:`_score`
    (acquisition value for a candidate pool).  The skeleton provides the
    one proposal loop: random warm-up, then fit once, score a
    ``sample_many`` pool plus the neighbours of the incumbent, and return
    the top-``n`` distinct candidates.
    """

    #: Objectives at or above this are treated as penalties, not data.
    PENALTY_THRESHOLD = 1e17

    #: Subclasses set these in __init__.
    initial_random: int
    candidates: int

    @abc.abstractmethod
    def _fit(self, finite: List[Tuple[Dict[str, Any], float]]) -> np.ndarray:
        """Fit the surrogate on the finite history; return the objectives."""

    @abc.abstractmethod
    def _score(self, pool: List[Dict[str, Any]], objectives: np.ndarray) -> np.ndarray:
        """Acquisition score (higher is better) for each pool candidate."""

    def _finite_history(self) -> List[Tuple[Dict[str, Any], float]]:
        return [
            (c, o)
            for c, o in self.history
            if np.isfinite(o) and o < self.PENALTY_THRESHOLD
        ]

    def _propose(self, n: int) -> List[Dict[str, Any]]:
        """Fit the surrogate once and return the top-``n`` distinct candidates.

        One surrogate fit + one acquisition sweep per batch instead of one
        per configuration — the dominant cost of the sequential loop.
        """
        finite = self._finite_history()
        if len(finite) < self.initial_random:
            return self.space.sample_many(self.rng, n)
        objectives = self._fit(finite)
        pool = self.space.sample_many(self.rng, self.candidates)
        best = self.best()
        if best is not None:
            pool.extend(self.space.neighbors(best[0], self.rng))
        scores = self._score(pool, objectives)
        return self._select_top_distinct(pool, scores, n)


#: Registry of search algorithms keyed by their short name.
SEARCH_REGISTRY: Dict[str, type] = {}


def register_search(cls):
    SEARCH_REGISTRY[cls.name] = cls
    return cls


def make_search(name: str, space: ParameterSpace, seed: int = 0, **kwargs: Any) -> SearchAlgorithm:
    """Instantiate a search algorithm by name (``"random"``, ``"forest"``, ...)."""
    key = name.strip().lower()
    if key not in SEARCH_REGISTRY:
        raise ValueError(f"unknown search algorithm {name!r}; available: {sorted(SEARCH_REGISTRY)}")
    return SEARCH_REGISTRY[key](space, seed=seed, **kwargs)
