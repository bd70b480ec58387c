"""Search algorithms for the auto-tuning loops (all ask/tell).

The paper's framework leaves the search method open ("using random
forests as default" in ytopt, §3.2.3; "one of many supported algorithms
for the space state search" in READEX, §3.2.4).  This package provides a
family of interchangeable algorithms behind one ask/tell interface.
Each algorithm implements only the batch form (``_propose(n)`` behind
``ask_batch``, optionally ``_observe`` behind ``tell_batch``); the scalar
``ask``/``tell`` are sugar on the base class:

* :class:`~repro.core.search.random_search.RandomSearch`
* :class:`~repro.core.search.grid.GridSearch` and
  :class:`~repro.core.search.grid.LatinHypercubeSearch`
* :class:`~repro.core.search.annealing.SimulatedAnnealing`
* :class:`~repro.core.search.genetic.GeneticAlgorithm`
* :class:`~repro.core.search.bayesian.GaussianProcessSearch` (GP + EI)
* :class:`~repro.core.search.forest.RandomForestSearch` (ytopt's default
  surrogate, implemented from scratch)
"""

from repro.core.search.annealing import SimulatedAnnealing
from repro.core.search.base import SearchAlgorithm, make_search
from repro.core.search.bayesian import GaussianProcessSearch
from repro.core.search.forest import RandomForestSearch
from repro.core.search.genetic import GeneticAlgorithm
from repro.core.search.grid import GridSearch, LatinHypercubeSearch
from repro.core.search.random_search import RandomSearch

__all__ = [
    "GaussianProcessSearch",
    "GeneticAlgorithm",
    "GridSearch",
    "LatinHypercubeSearch",
    "RandomForestSearch",
    "RandomSearch",
    "SearchAlgorithm",
    "SimulatedAnnealing",
    "make_search",
]
