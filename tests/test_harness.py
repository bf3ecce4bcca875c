from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwi import (
    Geometric,
    LimitSystem,
    ScaledStepProcess,
    ValidationError,
    build_model,
    decomposition_components,
    detect_case,
    growth_exponents,
    growth_fit,
    ks_two_sample,
    run_convergence_experiment,
    simulate_ensemble,
    simulate_trajectory,
    step_integral_functional,
    stream_ensemble,
    wasserstein1,
)
from util import deterministic_model, poisson_case_model, single_type_poisson


# scaling exponents of each sub-diagonal sign pattern, as tabulated in the paper
EXPONENT_TABLE = {1: (1, 1, 1), 2: (1, 1, 2), 3: (1, 2, 2), 4: (1, 2, 3)}


@pytest.mark.parametrize("case, expected", list(EXPONENT_TABLE.items()))
def test_exponents_for_case(case, expected):
    assert LimitSystem.from_model(poisson_case_model(case)).exponents == expected


def test_exponents_for_case_rejects_unknown():
    with pytest.raises(ValidationError):
        LimitSystem(case=5, b=(1, 1, 1), v=(1, 1, 1))


def test_exponents_match_growth_exponents_for_random_patterns():
    rng = np.random.default_rng(3)
    for case in (1, 2, 3, 4):
        for _ in range(25):
            model = poisson_case_model(
                case,
                subdiagonals=tuple(
                    v * float(rng.uniform(0.2, 2.0))
                    for v in {1: (0, 0, 0), 2: (0, 1, rng.integers(0, 2)), 3: (1, 1, 0), 4: (1, rng.integers(0, 2), 1)}[case]
                ),
            )
            assert growth_exponents(model.A, model.b).degrees == EXPONENT_TABLE[case]
            assert LimitSystem.from_model(model).exponents == EXPONENT_TABLE[case]


# one sign rule: an entry is present when it is positive, however small or large
SUBDIAGONAL_VALUES = st.sampled_from([0.0, 1e-300, 1e-13, 0.5, 1e300])


@settings(max_examples=125, deadline=None)
@given(st.tuples(SUBDIAGONAL_VALUES, SUBDIAGONAL_VALUES, SUBDIAGONAL_VALUES))
def test_pattern_and_degrees_agree_at_every_scale(subdiagonals):
    model = poisson_case_model(1, subdiagonals=subdiagonals)
    cid = detect_case(model.A)
    expected = EXPONENT_TABLE[cid.value]
    assert growth_exponents(cid.apply_matrix(model.A), cid.apply_vector(model.b)).degrees == expected
    assert LimitSystem.from_model(model).exponents == expected


def test_scaled_step_process_is_piecewise_constant():
    traj = simulate_trajectory(poisson_case_model(4), 20, seed=1)
    proc = ScaledStepProcess(n=10, exponents=(1, 2, 3), states=traj.states)
    v1 = proc(0.51)
    v2 = proc(0.59)
    assert np.array_equal(v1, v2)
    expected = traj.states[5].astype(float) / np.array([10.0, 100.0, 1000.0])
    assert np.allclose(v1, expected)
    with pytest.raises(ValidationError):
        proc(2.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.5, 2.25, 1e308])
def test_scaled_step_process_rejects_times_off_the_trajectory(t):
    # nan, inf and a finite t whose n t overflows are refused before floor(n t)
    proc = ScaledStepProcess(n=4, exponents=(1, 1, 1), states=np.zeros((9, 3), dtype=np.int64))
    with pytest.raises(ValidationError):
        proc(t)
    assert np.array_equal(proc(1.99), proc(2.0)) and proc(2.0).shape == (3,)


@pytest.mark.parametrize(
    "n, exponents",
    [(-2, (1, 1, 1)), (0, (1, 1, 1)), (2.5, (1, 1, 1)), ("2", (1, 1, 1)), (2, (1, 1)), (2, (1, 1, 1, 1))],
)
def test_scaled_step_process_validates_n_and_exponents(n, exponents):
    # n = -2 would read the last generation, n = 0 divide by zero, 2 exponents fail to broadcast
    states = np.arange(30).reshape(10, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            ScaledStepProcess(n=n, exponents=exponents, states=states)(0.5)
    proc = ScaledStepProcess(n=np.int64(2), exponents=(1, 1, 1), states=states)
    assert proc(0.5).tolist() == [1.5, 2.0, 2.5]


def test_step_integral_functional_constant():
    values = np.full(11, 3)
    f_t, single, double = step_integral_functional(values, 4, 2.0)
    k = 8
    assert f_t == 3
    assert single == pytest.approx(3 * k / 4)
    assert double == pytest.approx(3 * k * (k - 1) / (2 * 16))


def test_step_integral_functional_zero():
    assert step_integral_functional(np.zeros(5), 2, 1.0) == (0, 0.0, 0.0)


@pytest.mark.parametrize(
    "n, t",
    [(2.5, 0.5), (2.0, 0.5), (0, 0.5), (2, -0.5), (2, float("nan")), (2, float("inf")), (2, 1e308)],
)
def test_step_integral_functional_rejects_bad_scale_or_time(n, t):
    with pytest.raises(ValidationError):
        step_integral_functional([1, 2, 3], n, t)


def test_step_integral_functional_sums_in_index_order():
    rng = np.random.default_rng(4)
    for k in range(1, 60, 3):
        values = rng.normal(size=k + 1) * 1e3
        _, single, double = step_integral_functional(values, 5, k / 5)
        running = np.cumsum(np.concatenate([[0.0], values[:k]]))
        assert single == running[k] / 5
        assert double == np.cumsum(np.concatenate([[0.0], running[:k]]))[k] / 25


def test_step_integral_functional_matches_decomposition():
    model = poisson_case_model(4)
    traj = simulate_trajectory(model, 60, seed=5)
    w = decomposition_components(traj)
    n = 12
    for k in (1, 7, 30, 60):
        t = k / n
        f_t, single, double = step_integral_functional(w[0, 0], n, t)
        assert f_t == pytest.approx(w[0, 0, k])
        assert single * n == pytest.approx(w[0, 1, k], rel=1e-12, abs=1e-9)
        assert double * n**2 == pytest.approx(w[0, 2, k], rel=1e-12, abs=1e-9)


def test_ks_two_sample_examples():
    stat, _ = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert stat == 0.0
    stat, p = ks_two_sample([0.0, 0.1], [5.0, 6.0])
    assert stat == 1.0
    stat, _ = ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
    assert stat == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValidationError):
        ks_two_sample([], [1.0])


def test_ks_two_sample_pvalue_sane():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=4000)
    ys = rng.normal(size=4000)
    stat, p = ks_two_sample(xs, ys)
    assert p > 0.01
    _, p_shifted = ks_two_sample(xs, ys + 1.0)
    assert p_shifted < 1e-6


def test_wasserstein_examples():
    assert wasserstein1([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert wasserstein1([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert wasserstein1([0.0, 1.0], [0.0, 3.0]) == 1.0
    with pytest.raises(ValidationError):
        wasserstein1([], [])


def test_wasserstein_unequal_sizes_resampled():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=1000)
    assert wasserstein1(xs, xs[:500]) < 0.2


def test_run_convergence_experiment_smoke():
    model = poisson_case_model(4)
    report = run_convergence_experiment(
        model, 4, [20, 40], 1000, [0.5, 1.0], 1000, seed=3, dt=0.01
    )
    assert len(report.entries) == 2 * 2 * 3
    assert report.permutation == (0, 1, 2)
    entry = report.entry(40, 1.0, 0)
    assert entry.replicas == 1000
    assert 0.0 <= entry.ks_stat <= 1.0
    assert entry.gamma_ks_pvalue is not None
    assert report.entry(40, 1.0, 1).gamma_ks_pvalue is None
    assert len(report.trends) == 6
    for e in report.entries:
        assert np.isfinite([e.mean, e.variance, e.ci_low, e.ci_high, e.wasserstein]).all()
        assert e.ci_low <= e.mean <= e.ci_high
    d = report.to_dict()
    assert len(d["entries"]) == 12
    rows = list(report.rows())
    assert len(rows) == 12 and len(rows[0]) == len(report.CSV_FIELDS)


def test_run_convergence_experiment_is_deterministic():
    model = poisson_case_model(2)
    a = run_convergence_experiment(model, 2, [25], 1000, [1.0], 1000, seed=9, dt=0.01)
    b = run_convergence_experiment(model, 2, [25], 1000, [1.0], 1000, seed=9, dt=0.01)
    assert a.to_dict() == b.to_dict()


def test_run_convergence_experiment_case_mismatch():
    model = poisson_case_model(3)
    with pytest.raises(ValidationError):
        run_convergence_experiment(model, 4, [20], 1000, [1.0], 1000, seed=0)


def test_run_convergence_experiment_replica_floor():
    model = poisson_case_model(1)
    with pytest.raises(ValidationError):
        run_convergence_experiment(model, 1, [20], 500, [1.0], 1000, seed=0)


def test_run_convergence_experiment_rejects_bad_ci_level_and_times():
    model = poisson_case_model(1)
    for ci_level in (1.5, -1.0, 0.0, 1.0, float("nan")):
        with pytest.raises(ValidationError, match="ci_level"):
            run_convergence_experiment(model, 1, [20], 1000, [1.0], 10, seed=0, ci_level=ci_level)
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="t_points"):
            run_convergence_experiment(model, 1, [20], 1000, [1.0, t], 10, seed=0)


def test_run_convergence_normalizes_permuted_patterns():
    model = poisson_case_model(2, subdiagonals=(0.5, 0.0, 0.0))
    report = run_convergence_experiment(
        model, 2, [30], 1000, [1.0], 1000, seed=4, dt=0.01
    )
    assert report.permutation == (0, 2, 1)
    # normalized third coordinate is the old second one, scaled by n^{-2}
    entry = report.entry(30, 1.0, 2)
    assert entry.exact_scaled_mean == pytest.approx(
        float(__import__("gwi").mean_vector(model, 30)[1]) / 30**2
    )


def test_growth_fit_degenerate_model():
    result = growth_fit(deterministic_model(), "fourth_moment", [8, 16], 16, seed=0)
    assert result.degenerate == (True, True, True)
    assert result.slopes == (None, None, None)


def test_growth_fit_fourth_moment_single_type():
    model = single_type_poisson()
    result = growth_fit(model, "fourth_moment", [32, 64, 128], 20_000, seed=1)
    assert result.targets == (2.0,)
    assert result.slopes[0] == pytest.approx(2.0, abs=0.4)


def test_growth_fit_sup_sum_single_type():
    model = single_type_poisson()
    result = growth_fit(model, "sup_sum_sq", [32, 64, 128], 20_000, seed=2)
    assert result.targets == (2.0,)
    assert result.slopes[0] == pytest.approx(2.0, abs=0.4)


def test_growth_fit_sup_sums_of_deterministic_model_are_exact():
    # X_k = k b, so S_k = k b and W_k = b k(k-1)/2; the sups sit at k = n
    b = np.array([2.0, 1.0, 3.0])
    sizes = [1, 3, 8, 20]
    n = np.array(sizes, dtype=float)[:, None]
    plain = growth_fit(deterministic_model(), "sup_sum_sq", sizes, 4, seed=0)
    assert np.array_equal(plain.estimates, (n * b) ** 2)
    weighted = growth_fit(deterministic_model(), "weighted_sup_sum_sq", sizes, 4, seed=0)
    assert np.array_equal(weighted.estimates, (b * n * (n - 1) / 2) ** 2)


def _innovations(model, replicas, steps, key):
    """X_k - A X_{k-1} for k = 1..steps of one ensemble stream, as a list."""
    states = [x.astype(float) for x in stream_ensemble(model, steps, replicas, key)]
    return [current - prev @ model.A.T for prev, current in zip(states, states[1:])]


def _sup_sum_reference(model, quantity, sizes, replicas, seed):
    # one stream to max(n) keyed by it; the running sup read at each n
    key = np.random.SeedSequence(entropy=seed, spawn_key=(max(sizes),))
    running = np.zeros((replicas, model.p))
    weighted = np.zeros((replicas, model.p))
    best = np.zeros((replicas, model.p))
    at_size = {}
    for k, innov in enumerate(_innovations(model, replicas, max(sizes), key), start=1):
        if quantity == "weighted_sup_sum_sq":
            weighted += running
            best = np.maximum(best, weighted**2)
            running += innov
        else:
            running += innov
            best = np.maximum(best, running**2)
        at_size[k] = np.mean(best, axis=0)
    return np.stack([at_size[n] for n in sizes])


@pytest.mark.parametrize("quantity", ["sup_sum_sq", "weighted_sup_sum_sq"])
def test_growth_fit_sup_sums_are_one_stream_read_at_each_size(quantity):
    model = poisson_case_model(4, immigration=(1.0, 0.0, 0.0))
    sizes = [3, 8, 8, 21]
    result = growth_fit(model, quantity, [21, 8, 3, 8], 5, seed=31)
    assert result.sizes == tuple(sizes)
    assert np.array_equal(result.estimates, _sup_sum_reference(model, quantity, sizes, 5, 31))


@pytest.mark.parametrize(
    "model",
    [
        poisson_case_model(4, immigration=(1.0, 0.0, 0.0)),
        single_type_poisson(),
        build_model([Geometric([0.5])], Geometric([0.5])),
    ],
)
def test_growth_fit_fourth_moment_is_one_stream_keyed_by_the_largest_size(model):
    sizes = [2, 5, 13]
    key = np.random.SeedSequence(entropy=17, spawn_key=(13,))
    innovations = _innovations(model, 9, 13, key)
    expected = np.stack([np.mean((innovations[k - 1] - model.b) ** 4, axis=0) for k in sizes])
    result = growth_fit(model, "fourth_moment", sizes, 9, seed=17)
    assert np.array_equal(result.estimates, expected)


def test_growth_fit_and_convergence_reject_bad_seeds():
    for seed in (-1, 1.5, np.random.SeedSequence(1)):
        with pytest.raises(ValidationError):
            growth_fit(single_type_poisson(), "sup_sum_sq", [4, 8], 4, seed=seed)
        with pytest.raises(ValidationError):
            run_convergence_experiment(poisson_case_model(1), 1, [20], 1000, [1.0], 1000, seed=seed)
    with pytest.raises(ValidationError):
        growth_fit(single_type_poisson(), "sup_sum_sq", [4, 8], 4.0, seed=0)
    a = growth_fit(single_type_poisson(), "sup_sum_sq", [4, 8], 4, seed=np.uint8(6))
    b = growth_fit(single_type_poisson(), "sup_sum_sq", [4, 8], 4, seed=6)
    assert np.array_equal(a.estimates, b.estimates)


def test_growth_fit_rejects_non_integer_sizes():
    model = single_type_poisson()
    for sizes in ([2.7, 4.9], [4.0, 8], ["4"]):
        with pytest.raises(ValidationError, match="n_list"):
            growth_fit(model, "sup_sum_sq", sizes, 4, seed=0)
    a = growth_fit(model, "sup_sum_sq", [np.int64(4), np.uint16(8)], 4, seed=3)
    assert a.sizes == (4, 8)
    assert np.array_equal(a.estimates, growth_fit(model, "sup_sum_sq", [4, 8], 4, seed=3).estimates)


def test_convergence_experiment_rejects_non_integer_sizes_and_path_counts():
    model = poisson_case_model(1)
    with pytest.raises(ValidationError, match="n_list"):
        run_convergence_experiment(model, 1, [20.9], 1000, [1.0], 1000, seed=0, dt=0.05)
    with pytest.raises(ValidationError, match="n_paths"):
        run_convergence_experiment(model, 1, [20], 1000, [1.0], 10.0, seed=0, dt=0.05)
    report = run_convergence_experiment(model, 1, [np.int64(20)], 1000, [1.0], 10, seed=0, dt=0.05)
    assert report.n_list == (20,)


def test_scaled_step_process_divides_by_the_power_of_n():
    states = np.array([[0, 0, 0], [3, 7, 11], [5, 13, 17]])
    proc = ScaledStepProcess(n=3, exponents=(1, 2, 3), states=states)
    for t, k in ((0.4, 1), (0.7, 2)):
        expected = states[k] / np.array([3.0, 9.0, 27.0])
        assert np.array_equal(proc(t), expected)


def test_growth_fit_rejects_unknown_quantity():
    with pytest.raises(ValidationError):
        growth_fit(single_type_poisson(), "sixth_moment", [8], 100, seed=0)


def test_scaled_deterministic_path_matches_limit_up_to_panel_error():
    model = deterministic_model(b=(2, 1, 3))
    n = 40
    traj = simulate_trajectory(model, n, seed=0)
    proc = ScaledStepProcess(n=n, exponents=(1, 1, 1), states=traj.states)
    for t in np.linspace(0.0, 1.0, 17):
        gap = np.abs(proc(t) - np.array([2.0, 1.0, 3.0]) * t)
        assert np.all(gap <= np.array([2.0, 1.0, 3.0]) / n + 1e-12)


def test_scaled_third_coordinate_vanishes_under_higher_scaling():
    # pattern-3 model read at the pattern-4 exponent on the last coordinate
    model = poisson_case_model(3)
    sups = []
    for n in (50, 400):
        states = simulate_ensemble(model, n, 2000, seed=13, record_at=None)
        scaled_sup = (states[:, :, 2].astype(float) / n**3).max(axis=1)
        sups.append(scaled_sup.mean())
    assert sups[1] < sups[0]
    assert sups[1] < 0.01
