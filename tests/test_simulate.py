from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gwi import (
    Bernoulli,
    Deterministic,
    Geometric,
    JointTable,
    OverflowGuardError,
    Poisson,
    Trajectory,
    ValidationError,
    build_model,
    decomposition_components,
    martingale_increments,
    mean_vector,
    simulate_ensemble,
    simulate_replicas,
    simulate_trajectory,
    step_ensemble,
    stream_ensemble,
    weighted_sum_identity_1,
    weighted_sum_identity_2,
    weighted_sum_identity_3,
)
from gwi.cli import IDENTITY_GRID_SCALES
from gwi.distributions import _SCALAR_DRAWS, _draw
from gwi.simulate import _prefix_sums
from util import deterministic_model, poisson_case_model, single_type_poisson


def test_no_immigration_stays_zero():
    model = poisson_case_model(4, immigration=(0, 0, 0))
    traj = simulate_trajectory(model, 30, seed=0)
    assert np.all(traj.states == 0)


def test_deterministic_replacement_grows_linearly():
    model = deterministic_model(b=(2, 1, 3))
    traj = simulate_trajectory(model, 10, seed=5)
    for k in range(11):
        assert np.array_equal(traj.states[k], [2 * k, k, 3 * k])


def test_single_type_poisson_mean():
    model = single_type_poisson()
    replicas = 100_000
    states = simulate_ensemble(model, 20, replicas, seed=17, record_at=[20])
    sample = states[:, 0, 0].astype(float)
    # E X_20 = 20, Var X_20 = 20 * 21 / 2 = 210
    se = sample.std(ddof=1) / np.sqrt(replicas)
    assert abs(sample.mean() - 20.0) <= 4.0 * se


def test_trajectory_determinism_and_replica_streams():
    model = poisson_case_model(4)
    a = simulate_trajectory(model, 40, seed=9)
    b = simulate_trajectory(model, 40, seed=9)
    assert np.array_equal(a.states, b.states)
    c = simulate_trajectory(model, 40, seed=9, replica=1)
    assert not np.array_equal(a.states, c.states)
    d = simulate_trajectory(model, 40, seed=10)
    assert not np.array_equal(a.states, d.states)


def test_replicas_are_ordered_per_replica_streams():
    model = poisson_case_model(4)
    replicas = simulate_replicas(model, 25, seed=3, replicas=6)
    assert [traj.replica for traj in replicas] == list(range(6))
    for traj in replicas:
        single = simulate_trajectory(model, 25, seed=3, replica=traj.replica)
        assert np.array_equal(traj.states, single.states)


def test_ensemble_matches_moments():
    model = poisson_case_model(4)
    states = simulate_ensemble(model, 10, 50_000, seed=23, record_at=[10])
    sample = states[:, 0, :].astype(float)
    expected = mean_vector(model, 10)
    se = sample.std(axis=0, ddof=1) / np.sqrt(sample.shape[0])
    assert np.all(np.abs(sample.mean(axis=0) - expected) <= 4.0 * se)


def test_ensemble_reducer_streaming_matches_recorded():
    model = poisson_case_model(2)
    seen = {k: states.copy() for k, states in enumerate(stream_ensemble(model, 5, 11, seed=4))}
    recorded = simulate_ensemble(model, 5, 11, seed=4)
    for k in range(6):
        assert np.array_equal(seen[k], recorded[:, k, :])


def test_trajectory_is_the_per_replica_keyed_stream():
    model = poisson_case_model(4)
    for seed, replica in ((3, 0), (3, 2), (11, 5)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))
        state = np.zeros((1, 3), dtype=np.int64)
        expected = [state[0]]
        for _ in range(25):
            state = step_ensemble(model, state, rng)
            expected.append(state[0])
        traj = simulate_trajectory(model, 25, seed, replica=replica)
        assert np.array_equal(traj.states, np.stack(expected))
        assert not traj.states.flags.writeable


def test_stream_ensemble_checks_arguments_at_the_call():
    model = poisson_case_model(1)
    for steps, replicas, initial in ((-1, 1, None), (3, 0, None), (3, 2, [1, -1, 0])):
        with pytest.raises(ValidationError):
            stream_ensemble(model, steps, replicas, 0, initial=initial)
    states = list(stream_ensemble(model, 3, 2, 0, initial=[1, 2, 3]))
    assert len(states) == 4 and all(s.shape == (2, 3) for s in states)
    assert np.array_equal(states[0], [[1, 2, 3], [1, 2, 3]])


def test_nonzero_initial_state():
    model = deterministic_model(b=(0, 0, 0))
    traj = simulate_trajectory(model, 4, seed=0, initial=[5, 1, 2])
    assert np.array_equal(traj.states[-1], [5, 1, 2])
    with pytest.raises(ValidationError):
        simulate_trajectory(model, 2, seed=0, initial=[-1, 0, 0])


def test_overflow_guard_trips():
    doubling = build_model([Deterministic([2])], Deterministic([1]))
    with pytest.raises(OverflowGuardError):
        simulate_trajectory(doubling, 80, seed=0)


# replica counts whose batches are drawn by scalar calls, then by one array call
BOTH_SIDES_OF_THE_CUTOFF = (1, _SCALAR_DRAWS + 1)


def test_overflow_guard_trips_on_all_poisson_model():
    model = poisson_case_model(4)
    assert model.poisson_mixture[2:] == ((), ())  # all Poisson
    with pytest.raises(OverflowGuardError):
        simulate_trajectory(model, 3, seed=0, initial=[0, 2**53 + 1, 0])
    for replicas in BOTH_SIDES_OF_THE_CUTOFF:
        states = np.tile([1, 2, 3], (replicas, 1))
        states[-1, 0] = 2**53 + 1
        with pytest.raises(OverflowGuardError):
            step_ensemble(model, states, np.random.default_rng(0))


def test_rates_past_numpys_sampler_limit_raise_the_overflow_guard():
    # a state of exactly 2**53 passes the state guard, but its rate does not fit numpy
    model = build_model([Poisson([2000.0])], Poisson([1.0]))
    with pytest.raises(OverflowGuardError, match="lam value too large"):
        simulate_trajectory(model, 3, 0, initial=[2**53])
    geometric = build_model([Geometric([1e-7])], Poisson([1.0]))
    for replicas in BOTH_SIDES_OF_THE_CUTOFF:
        with pytest.raises(OverflowGuardError, match="lam value too large"):
            step_ensemble(model, np.full((replicas, 1), 2**53), np.random.default_rng(0))
        with pytest.raises(OverflowGuardError, match="lam value too large"):
            step_ensemble(geometric, np.full((replicas, 1), 2**40), np.random.default_rng(0))
        # a negative state is bad input on both draw paths, not an overflow
        for law in (model, geometric):
            with pytest.raises(ValidationError, match="nonnegative"):
                step_ensemble(law, np.full((replicas, 1), -3), np.random.default_rng(0))


def test_step_ensemble_guards_allow_an_empty_batch():
    for model in (poisson_case_model(4), deterministic_model()):
        empty = step_ensemble(model, np.zeros((0, 3), dtype=np.int64), np.random.default_rng(0))
        assert empty.shape == (0, 3) and empty.dtype == np.int64


def test_step_ensemble_guard_bounds_are_inclusive_where_they_were():
    # 2**53 passes the state guard and 2**53 + 1 does not; an output of 2**63 - 1 trips the output guard
    model = build_model([Deterministic([1])], Deterministic([0]))
    assert step_ensemble(model, np.array([[2**53]]), np.random.default_rng(0)).tolist() == [[2**53]]
    with pytest.raises(OverflowGuardError, match="exceeded 9007199254740992"):
        step_ensemble(model, np.array([[2**53 + 1]]), np.random.default_rng(0))
    huge = build_model([Deterministic([1])], Deterministic([2**63 - 1 - 2**53]))
    with pytest.raises(OverflowGuardError, match="exceeded 9223372036854775807"):
        step_ensemble(huge, np.array([[2**53]]), np.random.default_rng(0))


def test_geometric_immigration_past_numpys_sampler_limit_raises_the_overflow_guard():
    # Exp(1) * (1-p)/p with p = 1e-30 is far past the largest Poisson rate numpy draws
    model = build_model([Poisson([1.0])], Geometric([1e-30]))
    for replicas in BOTH_SIDES_OF_THE_CUTOFF:
        states = np.arange(replicas)[:, None] * 5
        with pytest.raises(OverflowGuardError, match="numpy's sampler"):
            step_ensemble(model, states, np.random.default_rng(0))


def test_float_steps_and_replicas_are_rejected():
    model = poisson_case_model(2)
    calls = (
        lambda: simulate_trajectory(model, 2.5, 0),
        lambda: simulate_trajectory(model, 3.0, 0),
        lambda: stream_ensemble(model, 3, 2.0, 0),
        lambda: stream_ensemble(model, np.float64(3), 2, 0),
        lambda: simulate_replicas(model, 3, 0, 2.5),
        lambda: simulate_ensemble(model, 2.5, 4, 0),
    )
    for call in calls:
        with pytest.raises(ValidationError):
            call()
    states = list(stream_ensemble(model, np.int64(3), np.int32(2), 0))
    assert len(states) == 4 and states[-1].shape == (2, 3)
    assert len(simulate_replicas(model, np.int16(3), 0, np.uint8(2))) == 2


def test_negative_and_non_integer_seeds_are_rejected():
    model = poisson_case_model(2)
    calls = (
        lambda: simulate_trajectory(model, 3, -3),
        lambda: simulate_trajectory(model, 3, 1.5),
        lambda: simulate_trajectory(model, 3, np.random.SeedSequence(1)),
        lambda: simulate_trajectory(model, 3, 0, replica=1.5),
        lambda: simulate_trajectory(model, 3, 0, replica=-1),
        lambda: simulate_replicas(model, 3, -1, 2),
        lambda: stream_ensemble(model, 3, 2, -1),
        lambda: stream_ensemble(model, 3, 2, 2.0),
        lambda: stream_ensemble(model, 3, 2, "7"),
        lambda: simulate_ensemble(model, 3, 2, np.int64(-4)),
    )
    for call in calls:
        with pytest.raises(ValidationError):
            call()
    reference = simulate_trajectory(model, 5, 3, replica=2).states
    same = simulate_trajectory(model, 5, np.uint16(3), replica=np.int8(2)).states
    assert np.array_equal(reference, same)
    key = np.random.SeedSequence(entropy=3, spawn_key=(2,))
    streamed = np.concatenate(list(stream_ensemble(model, 5, 1, key)))
    assert np.array_equal(reference, streamed)
    assert np.array_equal(
        simulate_ensemble(model, 5, 4, np.int64(9)), simulate_ensemble(model, 5, 4, 9)
    )


def test_record_at_rejects_non_integer_entries():
    model = poisson_case_model(3)
    for record_at in ([2.7], [1, 2.0], ["2"], [np.float64(2)]):
        with pytest.raises(ValidationError):
            simulate_ensemble(model, 5, 4, seed=1, record_at=record_at)
    recorded = simulate_ensemble(model, 5, 4, seed=1, record_at=[np.int64(2), np.uint8(5), 2])
    full = simulate_ensemble(model, 5, 4, seed=1)
    assert np.array_equal(recorded, full[:, [2, 5], :])


def _per_law_step(model, states, rng):
    nxt = np.zeros_like(states)
    for i, spec in enumerate(model.offspring):
        nxt += spec.sample_sum(states[:, i], rng)
    return nxt + model.immigration.sample(states.shape[0], rng)


def test_step_ensemble_draws_the_poisson_transition_law_on_all_poisson_models():
    # Given X_{k-1} = x, X_k of an all-Poisson model is Poisson(A x + b) per
    # coordinate.  One generation from a fixed state over many replicas must
    # have that mean and variance: each of the at most 126 two-sided
    # comparisons below allows 5 standard errors, so a correct sampler fails
    # one with probability below 126 * 5.7e-7 < 1e-4 (normal approximation).
    model_rng = np.random.default_rng(2024)
    replicas = 20_000
    for p in range(1, 7):
        for _ in range(3):
            # structural zeros anywhere; rates reach past numpy's switch at 10
            offspring = model_rng.uniform(0.0, 1.2, size=(p, p)) * (model_rng.random((p, p)) < 0.6)
            immigration = model_rng.uniform(0.0, 15.0, size=p) * (model_rng.random(p) < 0.7)
            model = build_model([Poisson(col) for col in offspring], Poisson(immigration))
            assert model.poisson_mixture[2:] == ((), ())  # all Poisson
            initial = model_rng.integers(0, 20, size=p)
            seed = int(model_rng.integers(2**32))
            drawn = step_ensemble(model, np.tile(initial, (replicas, 1)), np.random.default_rng(seed))
            assert drawn.shape == (replicas, p) and drawn.dtype == np.int64
            rate = offspring.T @ initial + immigration  # the exact A x + b
            zero = rate == 0.0
            assert np.all(drawn[:, zero] == 0)
            mean = drawn.mean(axis=0)[~zero]
            var = drawn.var(axis=0, ddof=1)[~zero]
            lam = rate[~zero]
            # var of a Poisson(lam) sample variance: (mu4 - sigma^4) / R = (lam + 2 lam^2) / R
            assert np.all(np.abs(mean - lam) <= 5.0 * np.sqrt(lam / replicas)), (mean, lam)
            assert np.all(np.abs(var - lam) <= 5.0 * np.sqrt((lam + 2 * lam**2) / replicas)), (var, lam)
            # stream_ensemble advances by step_ensemble from one generator
            rng = np.random.default_rng(seed)
            state = np.tile(initial, (3, 1))
            for _ in range(8):
                state = step_ensemble(model, state, rng)
            stream = list(stream_ensemble(model, 8, 3, seed, initial=initial))
            assert np.array_equal(stream[-1], state)


def test_models_without_poisson_or_geometric_laws_draw_per_law():
    # with no Poisson or Geometric law there is no Poisson draw: each law draws
    # through its own sample_sum/sample, in type order, then the immigration
    models = [
        build_model([Bernoulli([0.5, 0.2]), Bernoulli([0.0, 0.9])], Bernoulli([0.3, 0.7])),
        build_model(
            [JointTable([[0, 0], [2, 1], [1, 3]], [0.5, 0.3, 0.2]), Deterministic([0, 1])],
            JointTable([[1, 0], [0, 2]], [0.4, 0.6]),
        ),
        build_model([Deterministic([1, 1]), Bernoulli([0.4, 0.6])], Deterministic([2, 0])),
        build_model(
            [Bernoulli([0.7, 0.1]), JointTable([[1, 0], [0, 1], [2, 2]], [0.2, 0.5, 0.3])],
            Deterministic([0, 1]),
        ),
    ]
    for model in models:
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        states = np.array([[0, 0], [3, 1], [7, 4]])
        for _ in range(10):
            nxt = step_ensemble(model, states, rng_a)
            assert np.array_equal(nxt, _per_law_step(model, states, rng_b))
            states = nxt
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _sum_cumulants(law, m: int):
    """kappa_1, kappa_2, kappa_4 per coordinate of the sum of m draws of ``law``."""
    if isinstance(law, Poisson):
        return m * law.lam, m * law.lam, m * law.lam
    if isinstance(law, Geometric):
        q = 1.0 - law.p
        return m * q / law.p, m * q / law.p**2, m * q * (1 + 4 * q + q**2) / law.p**4
    if isinstance(law, Bernoulli):
        pq = law.p * (1.0 - law.p)
        return m * law.p, m * pq, m * pq * (1 - 6 * pq)
    if isinstance(law, Deterministic):
        return m * law.c.astype(float), np.zeros(law.dim), np.zeros(law.dim)
    centred = law.support - law.mean()  # JointTable: moments of each coordinate's marginal
    mu2, mu4 = law.probs @ centred**2, law.probs @ centred**4
    return m * law.mean(), m * mu2, m * (mu4 - 3 * mu2**2)


def _random_law(kind: str, p: int, rng: np.random.Generator):
    if kind == "poisson":
        return Poisson(rng.uniform(0.0, 3.0, size=p) * (rng.random(p) < 0.7))
    if kind == "geometric":
        return Geometric(np.where(rng.random(p) < 0.3, 1.0, rng.uniform(0.3, 1.0, size=p)))
    if kind == "bernoulli":
        return Bernoulli(rng.uniform(0.0, 1.0, size=p))
    if kind == "deterministic":
        return Deterministic(rng.integers(0, 3, size=p))
    support = rng.integers(0, 4, size=(3, p))
    return JointTable(support, rng.dirichlet(np.ones(3)))


def test_step_ensemble_draws_the_transition_law_of_mixed_models():
    # Models that mix Poisson or Geometric laws with other laws: one
    # generation from a fixed state must have the exact mean and variance of
    # the sum of the laws' independent contributions, read off their
    # cumulants.  Each of the at most 60 two-sided comparisons allows 5
    # standard errors, so a correct sampler fails one with probability below
    # 60 * 5.7e-7 < 1e-4 (normal approximation).
    model_rng = np.random.default_rng(1616)
    replicas = 20_000
    kinds = ("poisson", "geometric", "bernoulli", "deterministic", "joint_table")
    for p in range(1, 5):
        for _ in range(3):
            picks = [kinds[k] for k in model_rng.integers(0, len(kinds), size=p + 1)]
            picks[int(model_rng.integers(p + 1))] = ("poisson", "geometric")[int(model_rng.integers(2))]
            laws = [_random_law(kind, p, model_rng) for kind in picks]
            model = build_model(laws[:p], laws[p])
            assert model.poisson_mixture[0] is not None and model.poisson_mixture[2:] != ((), ())
            initial = model_rng.integers(0, 20, size=p)
            seed = int(model_rng.integers(2**32))
            drawn = step_ensemble(model, np.tile(initial, (replicas, 1)), np.random.default_rng(seed))
            assert drawn.shape == (replicas, p) and drawn.dtype == np.int64
            parts = [_sum_cumulants(law, m) for law, m in zip(laws, [*initial, 1])]
            k1, k2, k4 = (sum(part[j] for part in parts) for j in (0, 1, 2))
            zero = k2 == 0.0
            assert np.array_equal(drawn[:, zero], np.tile(k1[zero], (replicas, 1)))
            mean = drawn.mean(axis=0)[~zero]
            var = drawn.var(axis=0, ddof=1)[~zero]
            k1, k2, k4 = k1[~zero], k2[~zero], k4[~zero]
            # var of a sample variance: (mu4 - sigma^4) / R = (kappa4 + 2 kappa2^2) / R
            assert np.all(np.abs(mean - k1) <= 5.0 * np.sqrt(k2 / replicas)), (picks, mean, k1)
            assert np.all(np.abs(var - k2) <= 5.0 * np.sqrt((k4 + 2 * k2**2) / replicas)), (picks, var, k2)


def _reference_poisson_rate(law, counts, rng):
    """``Geometric.poisson_rate`` with its Gammas drawn by one array call."""
    rate = np.zeros((counts.size, law.dim))
    live = law.p < 1.0
    odds = (1.0 - law.p[live]) / law.p[live]
    rate[:, live] = rng.standard_gamma(counts[:, None], size=(counts.size, odds.size)) * odds
    return rate


def _reference_step(model, states, rng):
    """``step_ensemble`` with one array call for its Poisson variates and each law's Gammas."""
    rates, immigration_rate, mixed, other = model.poisson_mixture
    replicas = states.shape[0]
    nxt = np.zeros_like(states)
    if rates is not None:
        rate = states @ rates.T + immigration_rate
        for law, i in mixed:
            counts = np.ones(replicas, dtype=np.int64) if i is None else states[:, i]
            rate += _reference_poisson_rate(law, counts, rng)
        nxt = rng.poisson(rate)
    for law, i in other:
        nxt += law.sample(replicas, rng) if i is None else law.sample_sum(states[:, i], rng)
    return nxt


def _oracle_models(p: int, rng: np.random.Generator):
    """An all-Poisson, an all-Geometric and a Poisson/Geometric/Bernoulli model on p types."""
    mixed = ("poisson", "geometric", "bernoulli")
    return [
        build_model(
            [_random_law(kind, p, rng) for kind in kinds[:p]], _random_law(kinds[p], p, rng)
        )
        for kinds in (["poisson"] * (p + 1), ["geometric"] * (p + 1), [mixed[i % 3] for i in range(p + 1)])
    ]


def _same_draws(a: np.ndarray, b: np.ndarray, rng_a, rng_b) -> bool:
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.tobytes() == b.tobytes()
        and rng_a.bit_generator.state == rng_b.bit_generator.state
    )


def test_small_and_large_batches_draw_the_array_call_stream():
    # Small batches draw one scalar variate at a time; the values and the
    # generator state must equal those of one array call, on both sides of
    # the cutoff, for every model kind whose step draws Poisson or Gamma
    # variates.  States include zeros (Gamma shape 0 draws nothing) and reach
    # Poisson rates on both sides of numpy's switch of algorithm at 10.
    model_rng = np.random.default_rng(1818)
    for p in (1, 3, 4):
        for model in _oracle_models(p, model_rng):
            for replicas in range(2 * _SCALAR_DRAWS + 1):
                states = model_rng.integers(0, 12, size=(replicas, p)) * (model_rng.random((replicas, p)) < 0.8)
                seed = int(model_rng.integers(2**32))
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = step_ensemble(model, states, rng_a)
                assert _same_draws(drawn, _reference_step(model, states, rng_b), rng_a, rng_b), (
                    p, replicas, model.to_dict()
                )


def test_draw_matches_the_array_call_for_every_parameter_range():
    model_rng = np.random.default_rng(1819)
    samplers = (
        # Poisson rates 0, below 10 and above 10; Gamma shapes 0, 1 and larger
        ("poisson", np.int64, lambda n: model_rng.choice([0.0, 1.0, 3.5, 9.99, 10.0, 47.3, 1e4], size=n)),
        ("standard_gamma", float, lambda n: model_rng.choice([0, 1, 2, 7, 1000], size=n)),
    )
    for name, dtype, params in samplers:
        for size in range(2 * _SCALAR_DRAWS + 1):
            for shape in ((size,), (size, 1), (1, size), (2, size)):
                values = params(int(np.prod(shape))).reshape(shape)
                seed = int(model_rng.integers(2**32))
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = _draw(getattr(rng_a, name), values, dtype)
                assert _same_draws(drawn, getattr(rng_b, name)(values), rng_a, rng_b), (name, values)


def test_geometric_rates_match_the_array_call():
    model_rng = np.random.default_rng(1820)
    for law in (Geometric([0.5]), Geometric([0.3, 1.0, 0.8]), Geometric([1.0, 1.0]), Geometric([0.2, 0.9, 0.6, 1.0])):
        for size in range(2 * _SCALAR_DRAWS + 1):
            counts = model_rng.integers(0, 6, size=size)
            seed = int(model_rng.integers(2**32))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            rate = law.poisson_rate(counts, rng_a)
            assert _same_draws(rate, _reference_poisson_rate(law, counts, rng_b), rng_a, rng_b)
            drawn = law.sample_sum(counts, rng_a)
            reference = rng_b.poisson(_reference_poisson_rate(law, counts, rng_b))
            assert _same_draws(drawn, reference, rng_a, rng_b)


def test_long_trajectories_draw_the_array_call_stream():
    # critical pattern-4 models (A lower unipotent), so 300 generations stay small
    models = [
        poisson_case_model(4),
        build_model(
            [Geometric([0.5, 2 / 3, 1.0]), Geometric([1.0, 0.5, 2 / 3]), Geometric([1.0, 1.0, 0.5])],
            Geometric([0.5, 0.4, 1.0]),
        ),
        build_model(
            [Poisson([1.0, 0.5, 0.0]), Geometric([1.0, 0.5, 2 / 3]), Bernoulli([0.0, 0.0, 1.0])],
            Geometric([0.5, 0.5, 0.6]),
        ),
    ]
    for model in models:
        for seed, replica in ((5, 0), (5, 3)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))
            state = np.zeros((1, 3), dtype=np.int64)
            expected = [state]
            for _ in range(300):
                state = _reference_step(model, state, rng)
                expected.append(state)
            traj = simulate_trajectory(model, 300, seed, replica=replica)
            assert traj.states.tobytes() == np.concatenate(expected).tobytes()


def test_step_ensemble_rejects_non_integer_float_states():
    model = build_model([Deterministic([1])], Deterministic([0]))
    for bad in ([[1.7]], [[np.nan]], [[np.inf]], [[-2.0]], [["3"]]):
        with pytest.raises(ValidationError, match="nonnegative integers"):
            step_ensemble(model, np.array(bad), np.random.default_rng(0))
    for good in ([[2.0]], np.array([[2]], dtype=np.uint8), [[True]]):
        nxt = step_ensemble(model, np.array(good), np.random.default_rng(0))
        assert nxt.dtype == np.int64 and nxt.tolist() == [[int(np.asarray(good)[0, 0])]]


def _coordinate_pmf(model, x, j: int, support: int) -> np.ndarray:
    """Exact pmf on 0..support-1 of coordinate j of X_k given X_{k-1} = x.

    The convolution of every law's sum: Poisson, negative binomial or
    binomial per offspring type, and the immigration law's coordinate.
    """
    ks = np.arange(support)
    pmf = (ks == 0).astype(float)
    for law, m in zip((*model.offspring, model.immigration), (*x, 1)):
        if isinstance(law, Poisson):
            part = stats.poisson.pmf(ks, m * law.lam[j])
        elif isinstance(law, Geometric):
            part = stats.nbinom.pmf(ks, m, law.p[j]) if m > 0 else (ks == 0).astype(float)
        else:
            part = stats.binom.pmf(ks, m, law.p[j])
        pmf = np.convolve(pmf, part)[:support]
    return pmf


def _binned_chi2_pvalue(sample: np.ndarray, pmf: np.ndarray) -> float:
    """Chi-square p-value of ``sample`` against ``pmf``, bins of >= 20 expected draws.

    Consecutive values are merged until a bin expects 20 draws; the last bin
    takes every value past the previous ones, its tail mass included.
    """
    size = sample.size
    observed = np.bincount(sample, minlength=pmf.size)
    edges, acc = [0], 0.0
    for k, mass in enumerate(pmf):
        acc += mass * size
        if acc >= 20.0:
            edges.append(k + 1)
            acc = 0.0
    edges[-1] = pmf.size  # fold an underfilled last bin into its neighbour
    expected = np.add.reduceat(pmf, edges[:-1]) * size
    expected[-1] += (1.0 - pmf.sum()) * size
    counts = np.add.reduceat(observed[: pmf.size], edges[:-1]).astype(float)
    counts[-1] += observed[pmf.size :].sum()
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    return float(stats.chi2.sf(statistic, len(expected) - 1))


@pytest.mark.parametrize(
    "model, initial, seed",
    [
        (build_model([Geometric([0.4])], Poisson([2.5])), [40], 161),
        (
            build_model([Poisson([1.0, 0.5]), Geometric([1.0, 0.6])], Geometric([0.3, 0.5])),
            [10, 7],
            162,
        ),
        (
            build_model(
                [Geometric([0.5, 0.6, 1.0]), Bernoulli([0.0, 0.5, 0.0]), Geometric([1.0, 0.7, 1.0])],
                Poisson([1.0, 0.5, 0.0]),
            ),
            [12, 9, 6],
            163,
        ),
    ],
    ids=["geometric-offspring", "geometric-immigration", "three-type-mix"],
)
def test_geometric_transition_matches_the_exact_law(model, initial, seed):
    # One generation of 200,000 replicas from a fixed state, seed fixed in
    # advance.  Each coordinate is tested by binned chi-square against its
    # exact pmf, a convolution of negative binomial, Poisson and binomial
    # pmfs, at level 1e-3 per coordinate: a correct sampler fails one of
    # these 5 tests with probability below 5e-3 (asymptotic chi-square).
    replicas = 200_000
    drawn = step_ensemble(model, np.tile(initial, (replicas, 1)), np.random.default_rng(seed))
    mean = model.A @ initial + model.b
    for j in range(model.p):
        if mean[j] == 0.0:  # fed only by p = 1 coordinates and zero rates
            assert np.all(drawn[:, j] == 0)
            continue
        support = int(10 * mean[j]) + 100
        pmf = _coordinate_pmf(model, initial, j, support)
        assert pmf.sum() > 1.0 - 1e-12
        assert _binned_chi2_pvalue(drawn[:, j], pmf) > 1e-3, j


def test_martingale_increments_reconstruction():
    model = poisson_case_model(4)
    traj = simulate_trajectory(model, 60, seed=31)
    increments = martingale_increments(traj)
    states = traj.states.astype(float)
    rebuilt = states[:-1] @ model.A.T + model.b + increments
    assert np.allclose(rebuilt, states[1:], rtol=1e-12, atol=1e-9)


def test_martingale_increments_deterministic_model_zero():
    traj = simulate_trajectory(deterministic_model(), 10, seed=2)
    assert np.allclose(martingale_increments(traj), 0.0)


def test_martingale_increments_hand_example():
    model = single_type_poisson()
    # path (0, 2, 1) with A = 1, b = 1: M = (1, -2)
    states = np.array([[0], [2], [1]], dtype=np.int64)
    traj = Trajectory(states=states, seed=0, replica=0, model=model)
    assert np.allclose(martingale_increments(traj), [[1.0], [-2.0]])


def test_empirical_martingale_property():
    model = poisson_case_model(4)
    replicas = 100_000
    states = simulate_ensemble(model, 10, replicas, seed=37, record_at=[9, 10])
    m = (
        states[:, 1, :].astype(float)
        - states[:, 0, :].astype(float) @ model.A.T
        - model.b
    )
    se = m.std(axis=0, ddof=1) / np.sqrt(replicas)
    assert np.all(np.abs(m.mean(axis=0)) <= 4.0 * se)


def test_decomposition_zero_model():
    model = poisson_case_model(4, immigration=(0, 0, 0))
    traj = simulate_trajectory(model, 15, seed=1)
    comp = decomposition_components(traj)
    for arr in (comp.sum1, comp.lin1, comp.quad1, comp.sum2, comp.lin2, comp.sum3):
        assert np.all(arr == 0.0)


def test_decomposition_identity_pattern_is_plain_sums():
    model = poisson_case_model(1)
    traj = simulate_trajectory(model, 40, seed=8)
    comp = decomposition_components(traj)
    states = traj.states.astype(float)
    assert np.allclose(comp.sum1, states[:, 0])
    assert np.allclose(comp.sum2, states[:, 1])
    assert np.allclose(comp.sum3, states[:, 2])


def test_decomposition_case4_reconstruction():
    model = poisson_case_model(4)
    for seed in range(10):
        traj = simulate_trajectory(model, 50, seed=seed)
        comp = decomposition_components(traj, rtol=1e-9)
        # the linearly weighted type-1 sum serves both roles
        k = traj.steps
        states = traj.states.astype(float)
        a21, a31, a32 = model.A[1, 0], model.A[2, 0], model.A[2, 1]
        assert states[k, 2] == pytest.approx(
            a32 * a21 * comp.quad1[k]
            + a31 * comp.lin1[k]
            + a32 * comp.lin2[k]
            + comp.sum3[k],
            rel=1e-9,
        )


def test_decomposition_direct_weighted_sum_oracle():
    model = poisson_case_model(4)
    traj = simulate_trajectory(model, 25, seed=77)
    comp = decomposition_components(traj)
    innov = martingale_increments(traj) + model.b
    for k in (1, 5, 25):
        direct_lin = sum((k - l) * innov[l - 1, 0] for l in range(1, k + 1))
        direct_quad = sum(comb(k - l, 2) * innov[l - 1, 0] for l in range(1, k + 1))
        assert comp.lin1[k] == pytest.approx(direct_lin, rel=1e-12, abs=1e-9)
        assert comp.quad1[k] == pytest.approx(direct_quad, rel=1e-12, abs=1e-9)


def _cumsum_weighted_sums(innovations):
    """Plain, (k - l)- and binom(k - l, 2)-weighted sums of one column by np.cumsum."""
    plain = np.concatenate([[0.0], np.cumsum(innovations)])
    linear = np.concatenate([[0.0], np.cumsum(plain[:-1])])
    binomial = np.concatenate([[0.0], np.cumsum(linear[:-1])])
    return plain, linear, binomial


@pytest.mark.parametrize(
    "model",
    [poisson_case_model(case) for case in (1, 2, 3, 4)]
    + [poisson_case_model(4, immigration=(0, 0, 0))]
    # rates with no short binary form, so the order of additions shows in the bits
    + [poisson_case_model(4, immigration=(0.3, 0.7, 1.1), subdiagonals=(0.3, 0.2, 0.7))],
)
@pytest.mark.parametrize("steps", [0, 1, 3, 60])
def test_decomposition_fields_match_the_cumsum_oracle_bytewise(model, steps):
    traj = simulate_trajectory(model, steps, seed=steps + 11)
    comp = decomposition_components(traj)
    innov = martingale_increments(traj) + model.b
    sum1, lin1, quad1 = _cumsum_weighted_sums(innov[:, 0])
    sum2, lin2, _ = _cumsum_weighted_sums(innov[:, 1])
    sum3 = _cumsum_weighted_sums(innov[:, 2])[0]
    expected = dict(sum1=sum1, lin1=lin1, quad1=quad1, sum2=sum2, lin2=lin2, sum3=sum3)
    for name, want in expected.items():
        got = getattr(comp, name)
        assert (got.dtype, got.shape) == (np.float64, (steps + 1,)), name
        assert got.tobytes() == want.tobytes(), name


@settings(max_examples=80, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.integers(-10**12, 10**12), max_size=40),
        st.lists(st.fractions(max_denominator=10**6), max_size=40),
        st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=40),
    ),
    depth=st.integers(0, 4),
)
def test_prefix_sums_are_the_binomially_weighted_sums(values, depth):
    sums = _prefix_sums(values, depth)
    assert len(sums) == depth + 1 and sums[0] is values
    for j in range(depth):
        assert len(sums[j + 1]) == len(values) + j + 1
        if values and isinstance(values[0], float):
            # each level is the np.cumsum of the level below behind a leading 0
            oracle = np.cumsum(np.array([0.0] + sums[j], dtype=float))
            assert np.array(sums[j + 1], dtype=float).tobytes() == oracle.tobytes()
            continue
        for k in range(len(values)):
            expected = sum(comb(k - l, j) * values[l] for l in range(k + 1))
            assert sums[j + 1][k + 1] == expected


def test_decomposition_requires_three_types():
    with pytest.raises(ValidationError):
        decomposition_components(simulate_trajectory(single_type_poisson(), 5, seed=0))


@pytest.mark.parametrize(
    "identity, f, k, n, expected",
    [
        (weighted_sum_identity_1, lambda l: 1, 7, 3, 8),
        (weighted_sum_identity_1, lambda l: l, 4, 2, 10),
        (weighted_sum_identity_2, lambda l: 0, 5, 2, 0),
        (weighted_sum_identity_2, lambda l: l, 4, 2, 10),
        (weighted_sum_identity_2, lambda l: 1, 5, 4, 10),
        (weighted_sum_identity_3, lambda l: 0, 4, 3, 0),
        (weighted_sum_identity_3, lambda l: 1, 5, 3, 10),
    ],
)
def test_weighted_sum_identity_examples(identity, f, k, n, expected):
    lhs, rhs = identity(f, k, n)
    assert lhs == expected
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-9, 9), min_size=2, max_size=101),
    n=st.sampled_from([1, 2, 3, 7, 64]),
)
def test_weighted_sum_identities_exact_property(values, n):
    k = len(values) - 1
    f = lambda l: values[l]  # noqa: E731
    for identity in (
        weighted_sum_identity_1,
        weighted_sum_identity_2,
        weighted_sum_identity_3,
    ):
        lhs, rhs = identity(f, k, n)
        assert lhs == rhs
        assert Fraction(rhs).denominator == 1


def _reference_identity_rhs(which, f, k, n):
    """The right sides as sums of Fraction panels, one normalization per panel."""
    width = Fraction(1, n)
    if which == 1:
        return sum(f(m) * width for m in range(k + 1)) * n
    running = [0]
    for l in range(1, k + 1):
        running.append(running[-1] + f(l))
    if which == 2:
        return sum(running[m] * width for m in range(k)) * n
    inner, rhs = Fraction(0), Fraction(0)
    for m in range(k):
        rhs += inner * width
        inner += running[m] * width
    return rhs * n**2


IDENTITIES = (weighted_sum_identity_1, weighted_sum_identity_2, weighted_sum_identity_3)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.integers(-10**12, 10**12), min_size=2, max_size=101),
    n=st.sampled_from(IDENTITY_GRID_SCALES),
)
def test_common_denominator_identities_match_the_panel_sums(values, n):
    k = len(values) - 1
    for which, identity in enumerate(IDENTITIES, start=1):
        lhs, rhs = identity(values.__getitem__, k, n)
        expected = _reference_identity_rhs(which, values.__getitem__, k, n)
        assert type(rhs) is Fraction and lhs == rhs == expected
        assert (rhs.numerator, rhs.denominator) == (expected.numerator, expected.denominator)


def test_identities_with_fraction_or_float_values():
    # a Fraction-valued f stays exact and equal to the panel sums
    values = [Fraction(l, 3) - Fraction(1, 7) for l in range(12)]
    for which, identity in enumerate(IDENTITIES, start=1):
        lhs, rhs = identity(values.__getitem__, 11, 7)
        assert lhs == rhs == _reference_identity_rhs(which, values.__getitem__, 11, 7)
    # a float-valued f cannot form one exact Fraction
    for identity in IDENTITIES:
        with pytest.raises(TypeError):
            identity(lambda l: 0.5 * l, 5, 3)


def test_weighted_sum_identities_validate_inputs():
    with pytest.raises(ValidationError):
        weighted_sum_identity_1(lambda l: 1, 0, 3)
    with pytest.raises(ValidationError):
        weighted_sum_identity_2(lambda l: 1, 2, 0)
    for identity in IDENTITIES:  # numpy integers pass
        assert identity(lambda l: l, np.int64(4), np.int32(2)) == identity(lambda l: l, 4, 2)


@pytest.mark.parametrize("identity", IDENTITIES)
@pytest.mark.parametrize("k, n", [(2.5, 3), (3, 1.5), (3.0, 2), ("3", 2)])
def test_weighted_sum_identities_need_integer_k_and_n(identity, k, n):
    with pytest.raises(ValidationError, match="must be an integer"):
        identity(lambda l: 1, k, n)
