"""Tests for the batched tuning engine.

Covers the batch ask/tell protocol of every registered search algorithm
(determinism under a fixed seed, validity of proposals, pinned proposal
streams), the Autotuner's equivalence at batch size 1 to a one-at-a-time
reference loop, evaluation memoization, thread-pool evaluation, the vectorized
ParameterSpace batch APIs, and the O(1) running best of the performance
database.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.core.constraints import ConstraintSet, ForbiddenCombination, MetricConstraint
from repro.core.cotuner import CoTuner
from repro.core.objectives import PENALTY_OBJECTIVE
from repro.core.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    OrdinalParameter,
)
from repro.core.search.base import SEARCH_REGISTRY, make_search
from repro.core.space import ParameterSpace
from repro.core.tuner import (
    Autotuner,
    BatchAutotuner,
    EvaluationCache,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)
from repro.sim.engine import Environment, Event, Process, Timeout
from repro.telemetry.database import PerformanceDatabase

ALL_SEARCHES = sorted(SEARCH_REGISTRY)


def make_space():
    return ParameterSpace.from_dict(
        {"x": [1, 2, 4, 8, 16, 32, 64], "y": [0.1, 0.2, 0.4, 0.8], "algo": ["a", "b", "c"]},
        name="synthetic",
    )


def evaluator(config):
    value = (
        abs(np.log2(config["x"]) - 3.0)
        + abs(config["y"] - 0.4) * 5.0
        + {"a": 0.5, "b": 0.0, "c": 1.0}[config["algo"]]
    )
    return {"runtime_s": 1.0 + value, "energy_j": (1.0 + value) * 200.0, "power_w": 200.0}


# -- batch ask/tell protocol -------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_ask_batch_proposes_valid_configs(name):
    space = make_space()
    search = make_search(name, space, seed=2)
    told = 0
    for _ in range(3):
        batch = search.ask_batch(8)
        assert 1 <= len(batch) <= 8
        for config in batch:
            space.validate(config)
        search.tell_batch(batch, [evaluator(c)["runtime_s"] for c in batch])
        told += len(batch)
    assert len(search.history) == told


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_ask_batch_deterministic_for_fixed_seed(name):
    def trajectory():
        search = make_search(name, make_space(), seed=3)
        batches = []
        for _ in range(4):
            batch = search.ask_batch(8)
            batches.append(batch)
            search.tell_batch(batch, [evaluator(c)["runtime_s"] for c in batch])
        return batches

    assert trajectory() == trajectory()


def _trajectory_digest(name, n, seed, rounds=20):
    """Digest of the configs an ask/tell loop proposes over ``rounds``."""
    search = make_search(name, make_space(), seed=seed)
    digest = hashlib.sha256()
    for _ in range(rounds):
        batch = [search.ask()] if n == 1 else search.ask_batch(n)
        digest.update(repr([sorted(c.items()) for c in batch]).encode())
        if n == 1:
            search.tell(batch[0], evaluator(batch[0])["runtime_s"])
        else:
            search.tell_batch(batch, [evaluator(c)["runtime_s"] for c in batch])
    return digest.hexdigest()[:16]


#: Pinned proposal streams, keyed by (algorithm, batch size, seed).  The
#: entries not commented below are unchanged since the scalar ``ask``
#: path existed beside ``ask_batch``, so they pin that collapsing the two
#: left those streams bit-identical.
PINNED_TRAJECTORIES = {
    ("annealing", 1, 0): "57cc93f63f082018",
    ("annealing", 1, 9): "b834e55e03bce9e2",
    # Moved: batch neighbours are drawn with ``rng.choice(..., replace=False)``
    # instead of a full ``rng.permutation`` (n=1 draws as before).
    ("annealing", 4, 0): "de6f5e7813e46467",
    ("annealing", 4, 9): "f5a40fb569700c9c",
    # Moved: after warm-up the one-at-a-time candidate pool became the
    # column-wise ``sample_many`` pool the batch path always used.
    ("bayesian", 1, 0): "5d7bba027c079c81",
    ("bayesian", 1, 9): "892f89508116d15b",
    ("bayesian", 4, 0): "d8f84157e6c6e26d",
    ("bayesian", 4, 9): "d7a38607ffbb4424",
    # Same pool change as bayesian at n=1; seed 0 happens to pick the
    # same configs from the new pool, seed 9 moved.
    ("forest", 1, 0): "a342054c76e6b0d7",
    ("forest", 1, 9): "ff91d5090809981f",
    ("forest", 4, 0): "d653686bd9c64576",
    ("forest", 4, 9): "8089cfbc67b9aae3",
    ("genetic", 1, 0): "961117a19e17e82e",
    ("genetic", 1, 9): "f5d5e8382275fe7d",
    ("genetic", 4, 0): "c0634561eff48f85",
    ("genetic", 4, 9): "8bc81e36de713e17",
    ("grid", 1, 0): "d98646c0021394d0",
    ("grid", 1, 9): "d98646c0021394d0",
    ("grid", 4, 0): "0deb65fd073c39e6",
    ("grid", 4, 9): "0deb65fd073c39e6",
    ("lhs", 1, 0): "8101cb370ce4afc8",
    ("lhs", 1, 9): "aa313811acfeec22",
    ("lhs", 4, 0): "9272919e8d8ae630",
    ("lhs", 4, 9): "a5d219666ae73f89",
    ("random", 1, 0): "2052e0c731ef7c13",
    ("random", 1, 9): "4577c0b6f9eac0bf",
    ("random", 4, 0): "4b17db3d7701eda9",
    ("random", 4, 9): "68b2edf310ff9f2c",
}


@pytest.mark.parametrize("name, n, seed", sorted(PINNED_TRAJECTORIES))
def test_search_trajectory_is_pinned(name, n, seed):
    assert _trajectory_digest(name, n, seed) == PINNED_TRAJECTORIES[name, n, seed]


def test_ask_batch_rejects_bad_size():
    search = make_search("random", make_space())
    with pytest.raises(ValueError):
        search.ask_batch(0)


def test_tell_batch_rejects_length_mismatch():
    search = make_search("random", make_space())
    batch = search.ask_batch(3)
    with pytest.raises(ValueError):
        search.tell_batch(batch, [1.0])


def test_grid_ask_batch_short_when_exhausted():
    space = ParameterSpace.from_dict({"a": [1, 2], "b": ["x", "y"]})
    search = make_search("grid", space, resolution=4)
    batch = search.ask_batch(10)
    assert len(batch) == 4
    assert search.is_exhausted()
    assert search.ask_batch(1) == []


def test_genetic_ask_batch_breeds_from_population():
    search = make_search("genetic", make_space(), seed=1, population_size=6)
    first = search.ask_batch(6)  # random fill of the initial population
    search.tell_batch(first, [evaluator(c)["runtime_s"] for c in first])
    second = search.ask_batch(6)  # bred generation
    assert len(second) == 6
    assert len(search._population) <= 6


# -- Autotuner -------------------------------------------------------------------------


def _sequential_reference(tuner):
    """The one-at-a-time ask/evaluate/tell loop, kept as the parity reference."""
    convergence, best = [], None
    for _ in range(tuner.max_evals):
        if tuner.search.is_exhausted():
            break
        config = tuner.space.validate(tuner.search.ask())
        if not tuner.space.is_allowed(config):
            tuner.search.tell(config, PENALTY_OBJECTIVE)
            continue
        record = tuner._record_evaluation(config, *tuner._call_evaluator(config))
        tuner.search.tell(config, tuner._search_value(record))
        if record.feasible and (best is None or record.objective < best.objective):
            best = record
        convergence.append(best.objective if best is not None else math.inf)
    best = best or tuner.database.best(minimize=True, feasible_only=False)
    return convergence, best


def _parity_evaluator(config):
    if config["x"] == 1 and config["algo"] == "a":
        raise RuntimeError("build failed")
    return evaluator(config)


def _parity_tuner(name):
    """A tuner whose loop sees every branch: forbidden proposals (the
    search is built on the unconstrained space), failures and
    metric-infeasible evaluations."""
    space = make_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["algo"] == "c" and cfg["x"] > 8,
            description="no c above x=8",
            required_keys=("algo", "x"),
        )
    )
    return Autotuner(
        space,
        _parity_evaluator,
        search=make_search(name, make_space(), seed=7),
        constraints=ConstraintSet().add(MetricConstraint(metric="runtime_s", upper=3.0)),
        max_evals=25,
    )


def test_batch_autotuner_is_the_autotuner():
    # perfbench wraps ``BatchAutotuner.__dict__["run"]`` in its traced run.
    assert BatchAutotuner is Autotuner
    assert "run" in Autotuner.__dict__


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_batch_size_one_reproduces_sequential_autotuner(name):
    reference = _parity_tuner(name)
    convergence, best = _sequential_reference(reference)
    batch_one = _parity_tuner(name).run()
    assert batch_one.evaluations > 0
    assert [r.to_dict() for r in reference.database] == [
        r.to_dict() for r in batch_one.database
    ]
    assert convergence == batch_one.convergence
    assert dict(best.config) == batch_one.best_config
    assert best.objective == batch_one.best_objective


def test_batch_autotuner_respects_max_evals_and_orders_records():
    seen = []
    tuner = BatchAutotuner(
        make_space(), evaluator, search="random", max_evals=50, seed=0, batch_size=16
    )
    result = tuner.run(callback=lambda index, record: seen.append(index))
    assert result.evaluations == 50
    assert seen == list(range(50))
    assert all(b <= a + 1e-12 for a, b in zip(result.convergence, result.convergence[1:]))


def test_batch_autotuner_memoizes_repeated_configs():
    calls = []

    def counting(config):
        calls.append(dict(config))
        return evaluator(config)

    tuner = BatchAutotuner(
        make_space(),
        counting,
        search="random",
        max_evals=300,
        seed=0,
        batch_size=32,
        cache_evaluations=True,
    )
    result = tuner.run()
    # 84 possible configurations: everything beyond one visit is a cache hit.
    assert result.evaluations == 300
    assert len(calls) <= 84
    assert result.cache_hits + result.cache_misses == 300
    assert result.cache_hits >= 300 - 84
    # The database still records every evaluation, hits included.
    assert len(result.database) == 300


def test_batch_autotuner_caches_failures_too():
    calls = []

    def failing(config):
        calls.append(dict(config))
        raise RuntimeError("deterministic failure")

    tuner = BatchAutotuner(
        make_space(),
        failing,
        search="random",
        max_evals=120,
        seed=1,
        batch_size=24,
        cache_evaluations=True,
    )
    result = tuner.run()
    assert result.failed_evaluations == 120
    assert len(calls) <= 84


def test_batch_autotuner_threadpool_matches_serial():
    serial = BatchAutotuner(
        make_space(), evaluator, search="random", max_evals=60, seed=4,
        batch_size=12, executor="serial", cache_evaluations=False,
    ).run()
    tuner = BatchAutotuner(
        make_space(), evaluator, search="random", max_evals=60, seed=4,
        batch_size=12, executor="thread", max_workers=4, cache_evaluations=False,
    )
    threaded = tuner.run()
    tuner.close()
    assert [r.to_dict() for r in serial.database] == [r.to_dict() for r in threaded.database]
    assert serial.best_config == threaded.best_config


def test_batch_autotuner_processpool_matches_serial():
    serial = BatchAutotuner(
        make_space(), evaluator, search="random", max_evals=60, seed=4,
        batch_size=12, executor="serial", cache_evaluations=False,
    ).run()
    tuner = BatchAutotuner(
        make_space(), evaluator, search="random", max_evals=60, seed=4,
        batch_size=12, executor="process", max_workers=2, cache_evaluations=False,
    )
    pooled = tuner.run()
    tuner.close()
    assert [r.to_dict() for r in serial.database] == [r.to_dict() for r in pooled.database]
    assert serial.best_config == pooled.best_config


def _failing_evaluator(config):
    if config["algo"] == "c":
        raise RuntimeError("deterministic failure")
    return evaluator(config)


def test_processpool_converts_worker_exceptions_to_failures():
    tuner = BatchAutotuner(
        make_space(), _failing_evaluator, search="random", max_evals=40, seed=7,
        batch_size=8, executor="process", max_workers=2,
    )
    result = tuner.run()
    tuner.close()
    assert result.failed_evaluations > 0
    failed = [r for r in result.database if "error" in r.metrics]
    assert all(r.config["algo"] == "c" for r in failed)
    assert all(not r.feasible for r in failed)
    # The run still finds a best among the successful configurations.
    assert result.best_config is not None and result.best_config["algo"] != "c"


def test_processpool_rejects_unpicklable_evaluator():
    with pytest.raises(TypeError):
        BatchAutotuner(
            make_space(),
            lambda config: {"runtime_s": 1.0},
            search="random",
            max_evals=4,
            executor="process",
        )


def test_cotuner_process_executor_passthrough():
    rt_space = ParameterSpace.from_dict({"cap": [100, 200, 300]}, layer="runtime")
    cotuner = CoTuner(
        {"runtime": rt_space},
        _layered_cap_evaluator,
        objective="runtime",
        search="grid",
        max_evals=3,
        batch_size=3,
        executor="process",
        max_workers=2,
    )
    assert isinstance(cotuner._autotuner, BatchAutotuner)
    result = cotuner.run()
    cotuner.close()
    assert result.best_by_layer["runtime"]["cap"] == 300


def _layered_cap_evaluator(nested):
    cap = nested["runtime"]["cap"]
    return {"runtime_s": 10.0 - cap / 100.0, "power_w": float(cap)}


def test_batch_autotuner_constraint_rejections_do_not_evaluate():
    space = make_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["algo"] == "c",
            description="no c",
            required_keys=("algo",),
        )
    )
    calls = []

    def counting(config):
        calls.append(dict(config))
        return evaluator(config)

    # Random search only proposes allowed configs; force rejections through
    # grid search which walks the raw cartesian grid... it also filters.
    # Instead drive an infeasibility constraint on metrics.
    constraints = ConstraintSet().add(MetricConstraint(metric="runtime_s", upper=2.0))
    result = BatchAutotuner(
        space, counting, search="random", max_evals=40, seed=2,
        batch_size=8, constraints=constraints,
    ).run()
    assert all(c["algo"] != "c" for c in calls)
    assert result.infeasible_evaluations > 0
    assert result.best_metrics["runtime_s"] <= 2.0


def test_make_executor_specs():
    assert isinstance(make_executor("serial"), SerialExecutor)
    assert isinstance(make_executor("thread"), ThreadedExecutor)
    assert isinstance(make_executor("process"), ProcessExecutor)
    custom = SerialExecutor()
    assert make_executor(custom) is custom
    with pytest.raises(ValueError):
        make_executor("gpu")
    with pytest.raises(TypeError):
        make_executor(object())


def test_evaluation_cache_keys_and_stats():
    cache = EvaluationCache()
    key = cache.key({"b": 2, "a": 1})
    assert key == cache.key({"a": 1, "b": 2})  # order-insensitive
    assert cache.get(key) is None
    cache.put(key, ({"runtime_s": 1.0}, False))
    assert cache.get(key) == ({"runtime_s": 1.0}, False)
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)
    assert len(cache) == 1


def test_cotuner_batched_engine_matches_layers():
    app_space = ParameterSpace.from_dict({"solver": ["a", "b"]}, layer="application")
    rt_space = ParameterSpace.from_dict({"cap": [100, 200, 300]}, layer="runtime")

    def layered(nested):
        solver = nested["application"]["solver"]
        cap = nested["runtime"]["cap"]
        runtime = 10.0 - (cap / 100.0 if solver == "a" else (400.0 - cap) / 100.0)
        return {"runtime_s": runtime, "power_w": float(cap)}

    cotuner = CoTuner(
        {"application": app_space, "runtime": rt_space},
        layered,
        objective="runtime",
        search="grid",
        max_evals=10,
        seed=0,
        batch_size=4,
        cache_evaluations=True,
    )
    assert isinstance(cotuner._autotuner, BatchAutotuner)
    result = cotuner.run()
    cotuner.close()
    assert result.best_objective == pytest.approx(7.0)
    best = result.best_by_layer
    assert (best["application"]["solver"], best["runtime"]["cap"]) in {("a", 300), ("b", 100)}


# -- vectorized ParameterSpace -----------------------------------------------------------


def vector_space():
    space = ParameterSpace(name="vec")
    space.add(CategoricalParameter("solver", ["PCG", "GMRES", "BiCGSTAB"]))
    space.add(OrdinalParameter("tile", [4, 8, 16, 32]))
    space.add(IntegerParameter("nodes", 1, 64, log=True))
    space.add(FloatParameter("threshold", 0.1, 0.9))
    return space


def test_encode_many_matches_scalar_encode():
    space = vector_space()
    rng = np.random.default_rng(0)
    configs = [space.sample(rng) for _ in range(32)]
    batch = space.encode_many(configs)
    scalar = np.vstack([space.encode(c) for c in configs])
    assert batch.shape == (32, 4)
    np.testing.assert_allclose(batch, scalar)


def test_decode_many_matches_scalar_decode():
    space = vector_space()
    rng = np.random.default_rng(1)
    matrix = rng.random((32, len(space)))
    batch = space.decode_many(matrix)
    scalar = [space.decode(row) for row in matrix]
    assert batch == scalar


def test_decode_many_validates_shape():
    with pytest.raises(ValueError):
        vector_space().decode_many(np.zeros((3, 2)))
    assert vector_space().decode_many(np.empty((0, 4))) == []


def test_sample_many_respects_constraints_and_count():
    space = vector_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["solver"] == "GMRES" and cfg["nodes"] > 8,
            description="GMRES limited to 8 nodes",
            required_keys=("solver", "nodes"),
        )
    )
    rng = np.random.default_rng(2)
    configs = space.sample_many(rng, 100)
    assert len(configs) == 100
    for config in configs:
        space.validate(config)
        assert not (config["solver"] == "GMRES" and config["nodes"] > 8)
    assert space.sample_many(rng, 0) == []


def test_names_and_parameters_cached_and_invalidated():
    space = vector_space()
    names_a = space.names()
    assert space.names() is names_a  # cached tuple reused
    assert isinstance(names_a, tuple)  # immutable: callers cannot corrupt it
    params_a = space.parameters()
    assert space.parameters() is params_a
    space.add(CategoricalParameter("extra", ["u", "v"]))
    assert space.names() is not names_a
    assert space.names()[-1] == "extra"
    assert [p.name for p in space.parameters()][-1] == "extra"


def test_cardinality_without_materializing_grids():
    space = vector_space()
    expected = 3 * 4 * len(space["nodes"].grid(10)) * 10
    assert space.cardinality() == pytest.approx(expected)
    # grid_size agrees with the materialized grid for every parameter type.
    for param in space.parameters():
        assert param.grid_size(10) == len(param.grid(10))


def test_parameter_batch_roundtrips_match_scalar():
    rng = np.random.default_rng(3)
    params = [
        CategoricalParameter("c", ["a", "b", "c", "d"]),
        OrdinalParameter("o", [1, 2, 4, 8]),
        IntegerParameter("i", 1, 100),
        IntegerParameter("il", 1, 1024, log=True),
        FloatParameter("f", 0.0, 5.0),
        FloatParameter("fl", 0.1, 10.0, log=True),
    ]
    u = rng.random(64)
    for param in params:
        batch_decoded = param.from_unit_array(u)
        assert batch_decoded == [param.from_unit(float(x)) for x in u]
        encoded = param.to_unit_array(batch_decoded)
        np.testing.assert_allclose(
            encoded, [param.to_unit(v) for v in batch_decoded]
        )
        samples = param.sample_array(rng, 16)
        assert len(samples) == 16
        for v in samples:
            param.validate(v)


# -- performance database running best ---------------------------------------------------


def test_database_best_is_maintained_incrementally():
    db = PerformanceDatabase("t")
    rng = np.random.default_rng(4)
    for i in range(200):
        db.add_evaluation(
            config={"i": i},
            metrics={"runtime_s": 1.0},
            objective=float(rng.normal()),
            feasible=bool(rng.random() < 0.7),
        )
    records = db.records()
    feasible = [r for r in records if r.feasible]
    assert db.best(minimize=True) is min(feasible, key=lambda r: r.objective)
    assert db.best(minimize=False) is max(feasible, key=lambda r: r.objective)
    assert db.best(minimize=True, feasible_only=False) is min(
        records, key=lambda r: r.objective
    )


def test_database_best_falls_back_to_infeasible_pool():
    db = PerformanceDatabase("t")
    db.add_evaluation(config={}, metrics={}, objective=3.0, feasible=False)
    db.add_evaluation(config={}, metrics={}, objective=1.0, feasible=False)
    assert db.best(minimize=True).objective == 1.0
    assert db.best(minimize=True, feasible_only=True).objective == 1.0
    assert PerformanceDatabase("empty").best() is None


def test_database_best_ties_keep_first_record():
    db = PerformanceDatabase("t")
    first = db.add_evaluation(config={"k": 1}, metrics={}, objective=1.0)
    db.add_evaluation(config={"k": 2}, metrics={}, objective=1.0)
    assert db.best(minimize=True) is first
    assert db.best(minimize=False) is first


def test_database_roundtrip_preserves_best():
    db = PerformanceDatabase("t")
    db.add_evaluation(config={"k": 1}, metrics={}, objective=2.0)
    db.add_evaluation(config={"k": 2}, metrics={}, objective=1.0)
    clone = PerformanceDatabase.from_json(db.to_json())
    assert clone.best().objective == 1.0


# -- sim engine slots --------------------------------------------------------------------


def test_sim_engine_classes_have_no_dict():
    env = Environment()
    event = Event(env)
    timeout = Timeout(env, 1.0)

    def waiter():
        yield timeout

    process = Process(env, waiter())
    for obj in (env, event, timeout, process):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1


def test_sim_engine_still_runs_with_slots():
    env = Environment()
    log = []

    def actor():
        yield env.timeout(1.0)
        log.append(env.now)
        yield env.timeout(2.0)
        log.append(env.now)
        return "done"

    proc = env.process(actor())
    value = env.run(proc)
    assert value == "done"
    assert log == [1.0, 3.0]
