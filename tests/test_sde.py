from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from gwi import (
    DegenerateLawError,
    LimitSystem,
    OverflowGuardError,
    ValidationError,
    detect_case,
    exact_first_coordinate_law,
    growth_exponents,
    kernel_representation_check,
    limit_mean_vector,
    limit_system_marginals,
    make_grid,
    mean_polynomial,
    simulate_limit_system,
)
from gwi import sde
from util import besq_system, poisson_case_model


def test_make_grid():
    grid = make_grid(1.0, 0.25)
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValidationError):
        make_grid(1.0, 0.0)
    with pytest.raises(ValidationError):
        make_grid(-1.0, 0.1)
    for horizon, dt in ((1.0, 1e-300), (1e308, 0.3)):  # 1e300 steps, and a ratio that overflows
        with pytest.raises(ValidationError, match="2\\*\\*53"):
            make_grid(horizon, dt)


def test_pure_drift_is_linear():
    grid = make_grid(2.0, 0.01)
    x = simulate_limit_system(besq_system(3.0, 0.0), grid, seed=1, n_paths=2).values[:, :, 0]
    assert np.allclose(x, 3.0 * grid[None, :])


def test_zero_drift_from_zero_stays_zero():
    grid = make_grid(1.0, 0.01)
    x = simulate_limit_system(besq_system(0.0, 2.0), grid, seed=1, n_paths=5).values[:, :, 0]
    assert np.all(x == 0.0)


def test_paths_stay_nonnegative():
    grid = make_grid(1.0, 1e-2)
    x = simulate_limit_system(besq_system(0.05, 4.0), grid, seed=3, n_paths=200).values[:, :, 0]
    assert np.all(x >= 0.0)


def test_squared_bessel_moments_coarse():
    vals = limit_system_marginals(besq_system(1.0, 1.0), [1.0], 1e-3, 20_000, seed=7)[:, 0, 0]
    assert vals.mean() == pytest.approx(1.0, rel=0.05)
    assert vals.var(ddof=1) == pytest.approx(0.5, rel=0.10)


def test_squared_bessel_determinism():
    grid = make_grid(0.5, 1e-2)
    a = simulate_limit_system(besq_system(1.0, 1.0), grid, seed=11, n_paths=4).values
    b = simulate_limit_system(besq_system(1.0, 1.0), grid, seed=11, n_paths=4).values
    assert np.array_equal(a, b)


def test_limit_system_sign_pattern_validation():
    with pytest.raises(ValidationError):
        LimitSystem(case=1, b=(1, 1, 1), v=(1, 1, 1), a21=0.5)
    with pytest.raises(ValidationError):
        LimitSystem(case=4, b=(1, 1, 1), v=(1, 1, 1), a21=0.5, a32=0.0)
    with pytest.raises(ValidationError):
        LimitSystem(case=2, b=(1, 1, 1), v=(1, 1, 1), a31=-0.1)
    with pytest.raises(ValidationError):
        # only a32 > 0 is pattern 2 after a coordinate swap, not pattern 2 itself
        LimitSystem(case=2, b=(1, 1, 1), v=(1, 1, 1), a32=0.5)
    sys2 = LimitSystem(case=2, b=(1, 1, 1), v=(1, 1, 1), a31=0.5)
    assert sys2.exponents == (1, 1, 2)


def test_limit_system_from_model_applies_permutation():
    model = poisson_case_model(4)
    system = LimitSystem.from_model(model)
    assert system.case == 4
    assert system.a21 == pytest.approx(0.5)

    # only a21 positive: normalizes to pattern 2 with coordinates (1, 3, 2)
    model_b = poisson_case_model(2, subdiagonals=(0.5, 0.0, 0.0), immigration=(1, 2, 3))
    system_b = LimitSystem.from_model(model_b)
    assert system_b.case == 2
    assert system_b.b == (1.0, 3.0, 2.0)
    assert system_b.a31 == pytest.approx(0.5)


def test_case4_deterministic_integrands():
    system = LimitSystem(case=4, b=(1, 0, 0), v=(0, 0, 0), a21=1.0, a32=1.0)
    dt = 1e-3
    grid = make_grid(1.0, dt)
    path = simulate_limit_system(system, grid, seed=0)
    end = path.values[0, -1]
    assert end[0] == pytest.approx(1.0, abs=1e-12)
    assert end[1] == pytest.approx(0.5, abs=5 * dt**2)
    assert end[2] == pytest.approx(1.0 / 6.0, abs=5 * dt**2)


def test_quadrature_bias_shrinks_when_step_halves():
    # deterministic integrands: trapezoid error is second order, so halving
    # the step at least halves the end-point error of each coordinate
    system = LimitSystem(case=4, b=(1, 0, 0), v=(0, 0, 0), a21=1.0, a32=1.0)
    exact = limit_mean_vector(system, 1.0)
    errors = []
    for dt in (0.02, 0.01):
        path = simulate_limit_system(system, make_grid(1.0, dt), seed=0)
        errors.append(np.abs(path.values[0, -1] - exact))
    assert np.all(errors[1][1:] <= 0.5 * errors[0][1:] + 1e-15)


def test_case4_zero_drift_is_identically_zero():
    system = LimitSystem(case=4, b=(0, 0, 0), v=(1, 0, 0), a21=1.0, a32=1.0)
    path = simulate_limit_system(system, make_grid(1.0, 1e-2), seed=5, n_paths=3)
    assert np.all(path.values == 0.0)


def test_integral_coordinates_are_nondecreasing():
    for case in (2, 3, 4):
        model = poisson_case_model(case)
        system = LimitSystem.from_model(model)
        path = simulate_limit_system(system, make_grid(1.0, 1e-2), seed=13, n_paths=50)
        integral_coords = {2: [2], 3: [1, 2], 4: [1, 2]}[case]
        for c in integral_coords:
            assert np.all(np.diff(path.values[:, :, c], axis=1) >= -1e-12)
        assert np.all(path.values >= 0.0)


def test_case1_coordinates_independent():
    system = LimitSystem(case=1, b=(1, 1, 1), v=(1, 1, 1))
    vals = limit_system_marginals(system, [1.0], 1e-2, 20_000, seed=19)[:, 0, :]
    for i in range(3):
        for j in range(i + 1, 3):
            r = np.corrcoef(vals[:, i], vals[:, j])[0, 1]
            assert abs(r) <= 4.0 / np.sqrt(vals.shape[0])


def test_limit_mean_vector_cases():
    assert np.allclose(
        limit_mean_vector(LimitSystem(case=1, b=(1, 2, 3), v=(0, 0, 0)), 2.0), [2, 4, 6]
    )
    assert np.allclose(
        limit_mean_vector(LimitSystem(case=1, b=(1, 2, 3), v=(1, 1, 1)), 0.0), 0.0
    )
    sys4 = LimitSystem(case=4, b=(1, 0, 0), v=(1, 0, 0), a21=1.0, a32=1.0)
    assert np.allclose(limit_mean_vector(sys4, 1.0), [1.0, 0.5, 1.0 / 6.0])
    sys2 = LimitSystem(case=2, b=(1, 2, 0), v=(1, 1, 0), a31=0.5, a32=0.25)
    assert np.allclose(limit_mean_vector(sys2, 2.0), [2.0, 4.0, 2.0])
    sys3 = LimitSystem(case=3, b=(2, 0, 0), v=(1, 0, 0), a21=1.0, a31=0.5)
    assert np.allclose(limit_mean_vector(sys3, 1.0), [2.0, 1.0, 0.5])


# float.hex of limit_mean_vector at each of GOLDEN_TIMES; the first four systems are
# the Poisson flagships with b = (1, 2, 2), the rest have entries that are not dyadic,
# and at t = 1.7 the pattern-4 value depends on the order c_i t^d / d! is formed in
GOLDEN_TIMES = (0.25, 1.0, 2.5, 1.7)
GOLDEN_LIMIT_MEANS = {
    "flagship1": (
        lambda: LimitSystem.from_model(poisson_case_model(1, immigration=(1.0, 2.0, 2.0))),
        [
            ["0x1.0000000000000p-2", "0x1.0000000000000p-1", "0x1.0000000000000p-1"],
            ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+1"],
            ["0x1.4000000000000p+1", "0x1.4000000000000p+2", "0x1.4000000000000p+2"],
            ["0x1.b333333333333p+0", "0x1.b333333333333p+1", "0x1.b333333333333p+1"],
        ],
    ),
    "flagship2": (
        lambda: LimitSystem.from_model(poisson_case_model(2, immigration=(1.0, 2.0, 2.0))),
        [
            ["0x1.0000000000000p-2", "0x1.0000000000000p-1", "0x1.8000000000000p-5"],
            ["0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.8000000000000p-1"],
            ["0x1.4000000000000p+1", "0x1.4000000000000p+2", "0x1.2c00000000000p+2"],
            ["0x1.b333333333333p+0", "0x1.b333333333333p+1", "0x1.1570a3d70a3d6p+1"],
        ],
    ),
    "flagship3": (
        lambda: LimitSystem.from_model(poisson_case_model(3, immigration=(1.0, 2.0, 2.0))),
        [
            ["0x1.0000000000000p-2", "0x1.0000000000000p-6", "0x1.0000000000000p-6"],
            ["0x1.0000000000000p+0", "0x1.0000000000000p-2", "0x1.0000000000000p-2"],
            ["0x1.4000000000000p+1", "0x1.9000000000000p+0", "0x1.9000000000000p+0"],
            ["0x1.b333333333333p+0", "0x1.71eb851eb851ep-1", "0x1.71eb851eb851ep-1"],
        ],
    ),
    "flagship4": (
        lambda: LimitSystem.from_model(poisson_case_model(4, immigration=(1.0, 2.0, 2.0))),
        [
            ["0x1.0000000000000p-2", "0x1.0000000000000p-6", "0x1.5555555555555p-11"],
            ["0x1.0000000000000p+0", "0x1.0000000000000p-2", "0x1.5555555555555p-5"],
            ["0x1.4000000000000p+1", "0x1.9000000000000p+0", "0x1.4d55555555555p-1"],
            ["0x1.b333333333333p+0", "0x1.71eb851eb851ep-1", "0x1.a33e1f6715299p-3"],
        ],
    ),
    "pattern2-two-term": (
        lambda: LimitSystem(case=2, b=(0.1, 0.7, 0.0), v=(1.0, 1.0, 1.0), a31=0.3, a32=1.1),
        [
            ["0x1.999999999999ap-6", "0x1.6666666666666p-3", "0x1.999999999999ap-6"],
            ["0x1.999999999999ap-4", "0x1.6666666666666p-1", "0x1.999999999999ap-2"],
            ["0x1.0000000000000p-2", "0x1.c000000000000p+0", "0x1.4000000000000p+1"],
            ["0x1.5c28f5c28f5c3p-3", "0x1.30a3d70a3d70ap+0", "0x1.27ef9db22d0e5p+0"],
        ],
    ),
    "pattern3": (
        lambda: LimitSystem(case=3, b=(0.7, 0.0, 0.0), v=(1.0, 1.0, 1.0), a21=0.3, a31=1.1),
        [
            ["0x1.6666666666666p-3", "0x1.ae147ae147ae1p-8", "0x1.8a3d70a3d70a4p-6"],
            ["0x1.6666666666666p-1", "0x1.ae147ae147ae1p-4", "0x1.8a3d70a3d70a4p-2"],
            ["0x1.c000000000000p+0", "0x1.5000000000000p-1", "0x1.3400000000000p+1"],
            ["0x1.30a3d70a3d70ap+0", "0x1.36bb98c7e2823p-2", "0x1.1cd6a161e4f76p+0"],
        ],
    ),
    "pattern4": (
        lambda: LimitSystem(case=4, b=(0.7, 0.0, 0.0), v=(1.0, 1.0, 1.0), a21=0.3, a32=1.1),
        [
            ["0x1.6666666666666p-3", "0x1.ae147ae147ae1p-8", "0x1.3b645a1cac083p-11"],
            ["0x1.6666666666666p-1", "0x1.ae147ae147ae1p-4", "0x1.3b645a1cac083p-5"],
            ["0x1.c000000000000p+0", "0x1.5000000000000p-1", "0x1.3400000000000p-1"],
            ["0x1.30a3d70a3d70ap+0", "0x1.36bb98c7e2823p-2", "0x1.8361565c2d278p-3"],
        ],
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_LIMIT_MEANS))
def test_limit_mean_vector_golden_bits(name):
    make, expected = GOLDEN_LIMIT_MEANS[name]
    system = make()
    assert [[x.hex() for x in limit_mean_vector(system, t).tolist()] for t in GOLDEN_TIMES] == expected


def test_limit_mean_is_top_mean_polynomial_term():
    # E X_{floor(n t), i} / n^(d_i) tends to coeffs[d_i - 1] t^(d_i) / d_i!,
    # with the model's coordinates read in the normalized order
    rng = np.random.default_rng(61)
    models = [poisson_case_model(case, immigration=(1.0, 2.0, 2.0)) for case in (1, 2, 3, 4)]
    for _ in range(40):
        subdiagonals = tuple(float(rng.uniform(0.1, 3.0)) * float(rng.random() < 0.6) for _ in range(3))
        immigration = [float(x) for x in rng.uniform(0.1, 2.0, size=3)]
        models.append(poisson_case_model(1, immigration=immigration, subdiagonals=subdiagonals))
    for model in models:
        system = LimitSystem.from_model(model)
        perm = detect_case(model.A).permutation
        for t in (0.5, 1.0, 2.5):
            expected = [
                mean_polynomial(model, perm[i]).coeffs[d - 1] * t**d / math.factorial(d)
                for i, d in enumerate(system.exponents)
            ]
            assert np.allclose(limit_mean_vector(system, t), expected, rtol=1e-12, atol=0.0)


def test_limit_system_monte_carlo_means():
    system = LimitSystem(case=4, b=(1, 0.5, 0.25), v=(1, 1, 1), a21=1.0, a32=1.0)
    vals = limit_system_marginals(system, [1.0], 1e-3, 20_000, seed=23)[:, 0, :]
    expected = limit_mean_vector(system, 1.0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
    assert np.all(np.abs(vals.mean(axis=0) - expected) <= 4.0 * se + 0.01 * expected)


def test_case4_iterated_integral_means_within_two_percent():
    system = LimitSystem(case=4, b=(1, 0, 0), v=(1, 0, 0), a21=0.5, a32=0.5)
    vals = limit_system_marginals(system, [1.0], 1e-3, 100_000, seed=29)[:, 0, :]
    expected = np.array([1.0, 0.5 / 2.0, 0.25 / 6.0])
    rel = np.abs(vals.mean(axis=0) - expected) / expected
    assert np.all(rel <= 0.02), rel


def test_exact_first_coordinate_law():
    law = exact_first_coordinate_law(1.0, 1.0, 1.0)
    assert law.shape == pytest.approx(2.0)
    assert law.scale == pytest.approx(0.5)
    law2 = exact_first_coordinate_law(1.0, 2.0, 1.0)
    assert law2.shape == pytest.approx(1.0)
    assert law2.scale == pytest.approx(1.0)
    # scale grows linearly in t; the shape does not move
    law_t = exact_first_coordinate_law(1.0, 1.0, 3.0)
    assert law_t.shape == law.shape
    assert law_t.scale == pytest.approx(3.0 * law.scale)


@pytest.mark.parametrize(
    "b, v, t",
    [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
     (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)],
)
def test_exact_first_coordinate_law_rejects_bad_parameters(b, v, t):
    with pytest.raises(ValidationError):
        exact_first_coordinate_law(b, v, t)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_limit_mean_vector_rejects_bad_time(t):
    with pytest.raises(ValidationError):
        limit_mean_vector(LimitSystem(case=4, b=(1, 1, 1), v=(1, 1, 1), a21=1, a32=1), t)


def test_exact_first_coordinate_law_degenerate():
    with pytest.raises(DegenerateLawError) as info:
        exact_first_coordinate_law(2.0, 0.0, 1.5)
    assert info.value.point_mass == pytest.approx(3.0)
    with pytest.raises(DegenerateLawError) as info:
        exact_first_coordinate_law(0.0, 1.0, 1.0)
    assert info.value.point_mass == 0.0
    with pytest.raises(ValidationError):
        exact_first_coordinate_law(1.0, 1.0, 0.0)


def test_gamma_reference_matches_em_sample():
    vals = limit_system_marginals(besq_system(1.0, 1.0), [1.0], 1e-3, 20_000, seed=29)[:, 0, 0]
    law = exact_first_coordinate_law(1.0, 1.0, 1.0)
    assert vals.mean() == pytest.approx(law.shape * law.scale, rel=0.05)
    assert vals.var(ddof=1) == pytest.approx(law.shape * law.scale**2, rel=0.10)
    res = stats.kstest(vals, stats.gamma(a=law.shape, scale=law.scale).cdf)
    # coarse dt keeps some bias; the fine-step acceptance run pins p > 0.01
    assert res.statistic < 0.02


def test_kernel_check_zero_path():
    grid = make_grid(1.0, 1e-2)
    res = kernel_representation_check(np.zeros_like(grid), grid, 1.0, 1.0, 1.0)
    assert res.second_coordinate == 0.0
    assert res.iterated_vs_kernel == 0.0
    assert res.path_sup == 0.0


def test_kernel_check_linear_path_within_budget():
    dt = 1e-3
    grid = make_grid(1.0, dt)
    path = 2.0 * grid
    res = kernel_representation_check(path, grid, 1.0, 0.7, 0.3)
    budget = 5.0 * dt * res.path_sup
    assert res.second_coordinate <= budget
    assert res.iterated_vs_kernel <= budget
    assert res.iterated_vs_stieltjes <= budget
    assert res.kernel_vs_stieltjes <= budget


def test_kernel_check_simulated_paths_within_budget():
    dt = 1e-3
    grid = make_grid(1.0, dt)
    paths = simulate_limit_system(besq_system(1.0, 1.0), grid, seed=31, n_paths=20).values[:, :, 0]
    for p in range(paths.shape[0]):
        res = kernel_representation_check(paths[p], grid, 1.0, 1.0, 1.0)
        budget = 5.0 * dt * max(res.path_sup, 1e-12)
        assert res.second_coordinate <= budget
        assert res.iterated_vs_kernel <= budget
        assert res.iterated_vs_stieltjes <= budget
        assert res.kernel_vs_stieltjes <= budget


def test_kernel_check_requires_grid_time():
    grid = make_grid(1.0, 0.1)
    with pytest.raises(ValidationError):
        kernel_representation_check(np.zeros_like(grid), grid, 0.55, 1.0, 1.0)


def test_marginals_require_grid_alignment():
    system = LimitSystem(case=1, b=(1, 0, 0), v=(1, 0, 0))
    with pytest.raises(ValidationError):
        limit_system_marginals(system, [0.1234], 1e-2, 10, seed=0)
    with pytest.raises(ValidationError):
        limit_system_marginals(system, [0.5], float("nan"), 10, seed=0)


def test_marginals_reject_an_infinite_dt():
    # 0 * inf is nan: unchecked, an infinite dt passes the on-grid check and gives zeros
    system = LimitSystem(case=1, b=(1, 1, 1), v=(1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dt in (math.inf, -math.inf):
            with pytest.raises(ValidationError, match="dt"):
                limit_system_marginals(system, [0.5, 1.0], dt, 4, 0)


@pytest.mark.parametrize(
    "t_points, dt, match",
    [
        ([1e300], 1.0, r"2\*\*53"),
        ([0.5, 1.0], 1e-300, r"2\*\*53"),
        ([1e300], 1e-300, r"2\*\*53"),  # t / dt overflows to inf
        ([1.0, math.inf], 0.5, r"2\*\*53"),
        ([1.0, math.nan], 0.5, "nonnegative"),
    ],
)
def test_marginals_reject_times_past_2_53_steps(t_points, dt, match):
    # refused before the cast to int, which warns past 2**53 and on nan
    system = LimitSystem(case=1, b=(1, 1, 1), v=(1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            limit_system_marginals(system, t_points, dt, 2, 0)


def test_limit_system_rejects_negative_and_non_integer_seeds():
    system = besq_system(1.0, 1.0)
    grid = make_grid(0.1, 0.01)
    for seed in (-2, 1.5, np.int32(-1), "3"):
        with pytest.raises(ValidationError):
            limit_system_marginals(system, [0.1], 0.01, 10, seed=seed)
        with pytest.raises(ValidationError):
            simulate_limit_system(system, grid, seed=seed)
    key = np.random.SeedSequence(5)
    assert np.array_equal(
        limit_system_marginals(system, [0.1], 0.01, 10, seed=key),
        limit_system_marginals(system, [0.1], 0.01, 10, seed=np.int64(5)),
    )


def test_float_path_counts_are_rejected():
    system = besq_system(1.0, 1.0)
    grid = make_grid(0.1, 0.01)
    for count in (2.5, 10.0, "3"):
        with pytest.raises(ValidationError, match="n_paths"):
            limit_system_marginals(system, [0.5], 0.1, count, 0)
        with pytest.raises(ValidationError, match="n_paths"):
            simulate_limit_system(system, grid, 0, n_paths=count)
    assert np.array_equal(
        limit_system_marginals(system, [0.5], 0.1, np.int16(3), 0),
        limit_system_marginals(system, [0.5], 0.1, 3, 0),
    )


def test_limit_system_determinism():
    model = poisson_case_model(2)
    system = LimitSystem.from_model(model)
    a = limit_system_marginals(system, [0.5, 1.0], 1e-2, 100, seed=41)
    b = limit_system_marginals(system, [0.5, 1.0], 1e-2, 100, seed=41)
    assert np.array_equal(a, b)


# -- byte identity of the block kernel against the step-by-step one ----------


def _reference_besq_step(x, b, v, dt, normals):
    drift = x + b * dt
    if v == 0.0:
        return np.maximum(drift, 0.0)
    diffusion = np.sqrt(v * np.maximum(x, 0.0) * dt) * normals
    return np.maximum(drift + diffusion, 0.0)


def _reference_flow(sources, xs):
    (j, a), *rest = sources
    total = a * xs[j]
    for j, a in rest:
        total = total + a * xs[j]
    return total


def _reference_integrate(beta, B, v, dts, record_at, n_paths, rng):
    """The step-by-step kernel: one step of every coordinate at a time, in
    coordinate order, each squared Bessel coordinate with v > 0 drawing its
    own n_paths normals.  A row with a nonzero entry of B integrates its
    sources (j, B_ij) (its beta is 0 in every system below); every other row
    is a squared Bessel coordinate with drift beta_i."""
    p = len(beta)
    sources = [[(j, float(a)) for j, a in enumerate(row) if a] for row in B]
    slots = {}
    for pos, m in enumerate(record_at):
        slots.setdefault(m, []).append(pos)
    out = np.zeros((n_paths, len(record_at), p))
    state = [np.zeros(n_paths) for _ in range(p)]
    for m, dt in enumerate(dts, start=1):
        new = []
        for i in range(p):
            if sources[i]:
                trap = _reference_flow(sources[i], state) + _reference_flow(sources[i], new)
                new.append(state[i] + 0.5 * dt * trap)
            else:
                normals = rng.standard_normal(n_paths) if v[i] > 0 else 0.0
                new.append(_reference_besq_step(state[i], beta[i], v[i], dt, normals))
        state = new
        for pos in slots.get(m, ()):
            for i in range(p):
                out[:, pos, i] = state[i]
    return out


def _both_kernels(system, dts, record_at, n_paths, seed):
    args = system.affine
    new = sde._integrate(*args, np.asarray(dts, dtype=float), record_at, n_paths, np.random.default_rng(seed))
    old = _reference_integrate(*args, list(dts), record_at, n_paths, np.random.default_rng(seed))
    return new, old


ORACLE_SYSTEMS = {
    "pattern1": LimitSystem(case=1, b=(1.0, 2.0, 0.5), v=(1.0, 0.7, 2.0)),
    "pattern2": LimitSystem(case=2, b=(1.0, 2.0, 2.0), v=(1.0, 1.5, 1.0), a31=0.5, a32=0.5),
    "pattern3": LimitSystem(case=3, b=(1.0, 2.0, 2.0), v=(1.0, 1.0, 1.0), a21=0.5, a31=0.25),
    "pattern4": LimitSystem(case=4, b=(1.0, 2.0, 2.0), v=(1.0, 1.0, 1.0), a21=0.5, a31=0.3, a32=0.5),
    "pattern1_v0_middle": LimitSystem(case=1, b=(1.0, 2.0, 0.5), v=(1.0, 0.0, 2.0)),
    "pattern1_v0_first": LimitSystem(case=1, b=(1.0, 2.0, 0.5), v=(0.0, 1.0, 2.0)),
    "pattern2_v0": LimitSystem(case=2, b=(1.0, 2.0, 2.0), v=(0.0, 1.5, 1.0), a31=0.5),
    "pattern4_v0": LimitSystem(case=4, b=(1.0, 2.0, 2.0), v=(0.0, 1.0, 1.0), a21=0.5, a32=0.5),
    "besq": besq_system(0.05, 4.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
@pytest.mark.parametrize("n_paths, steps", [(1, 999), (25, 1000), (25, 1001), (2500, 10)])
def test_block_kernel_matches_step_by_step_kernel(name, n_paths, steps):
    # two step counts per size, so at least one is not a multiple of a block
    new, old = _both_kernels(ORACLE_SYSTEMS[name], [1e-3] * steps, range(steps + 1), n_paths, 17)
    assert new.tobytes() == old.tobytes()


def test_block_kernel_matches_on_short_blocks(monkeypatch):
    # 7-step blocks for 25 paths and one drawn coordinate: 14 full blocks and one of 2
    monkeypatch.setattr(sde, "_BLOCK_BYTES", 8 * 25 * 7)
    for system in ORACLE_SYSTEMS.values():
        new, old = _both_kernels(system, [2e-3] * 100, [0, 7, 7, 8, 14, 0, 99, 100, 50], 25, 3)
        assert new.tobytes() == old.tobytes()


def test_block_kernel_matches_on_a_nonuniform_grid_and_through_the_public_api():
    grid = np.concatenate([[0.0], np.cumsum(np.random.default_rng(5).uniform(1e-4, 3e-2, size=337))])
    for system in ORACLE_SYSTEMS.values():
        path = simulate_limit_system(system, grid, 7, n_paths=13)
        old = _reference_integrate(
            *system.affine, np.diff(grid).tolist(), range(grid.size), 13, np.random.default_rng(7)
        )
        assert path.values.tobytes() == old.tobytes()
        assert path.values.flags.c_contiguous


def test_block_kernel_records_step_zero_duplicates_and_unsorted_times():
    t_points = [0.0, 0.5, 0.25, 0.5, 1.0, 0.0]
    indices = [0, 500, 250, 500, 1000, 0]
    for system in ORACLE_SYSTEMS.values():
        new = limit_system_marginals(system, t_points, 1e-3, 40, seed=2)
        old = _reference_integrate(*system.affine, [1e-3] * 1000, indices, 40, np.random.default_rng(2))
        assert new.tobytes() == old.tobytes()
        assert np.all(new[:, 0] == 0.0) and np.array_equal(new[:, 1], new[:, 3])


def test_block_kernel_handles_integral_coordinates_before_squared_bessel_ones():
    # no LimitSystem has this order (see the test below), but the kernel does not need it:
    # coordinate 1 integrates coordinate 0 while coordinates 0 and 2 draw
    triple = (1.0, 0.0, 2.0), ((0, 0, 0), (0.5, 0, 0), (0, 0, 0)), (1.0, 0.0, 0.5)
    for n_paths, steps in ((25, 1000), (2500, 10)):
        new = sde._integrate(*triple, np.full(steps, 1e-3), range(steps + 1), n_paths, np.random.default_rng(4))
        old = _reference_integrate(*triple, [1e-3] * steps, range(steps + 1), n_paths, np.random.default_rng(4))
        assert new.tobytes() == old.tobytes()


def test_every_limit_system_lists_its_squared_bessel_coordinates_first():
    for a21, a31, a32 in itertools.product((0.0, 0.5), repeat=3):
        for case in (1, 2, 3, 4):
            try:
                system = LimitSystem(case=case, b=(1, 1, 1), v=(1, 1, 1), a21=a21, a31=a31, a32=a32)
            except ValidationError:
                continue
            besq = [d == 1 for d in system.exponents]
            assert besq == sorted(besq, reverse=True), (case, a21, a31, a32)


def test_limit_system_triple_follows_the_growth_degrees():
    system = LimitSystem(case=4, b=(1.0, 2.0, 3.0), v=(0.5, 0.7, 0.9), a21=0.5, a31=0.3, a32=0.25)
    beta, B, v = system.affine
    assert beta.tolist() == [1.0, 0.0, 0.0] and v.tolist() == [0.5, 0.0, 0.0]
    # a31 links degrees 1 and 3, so X_3 integrates X_2 only
    assert B.tolist() == [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.25, 0.0]]
    pattern3 = LimitSystem(case=3, b=(1.0, 2.0, 3.0), v=(0.5, 0.7, 0.9), a21=0.5, a31=0.3)
    assert pattern3.affine.B.tolist() == [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.3, 0.0, 0.0]]
    for array in (*system.affine, *pattern3.affine):
        assert not array.flags.writeable


def test_limit_system_stays_comparable_and_hashable():
    first, second, other = (
        LimitSystem(case=2, b=(1, 2, 2), v=(1, 1, 1), a31=0.5, a32=a32) for a32 in (0.5, 0.5, 0.25)
    )
    assert first == second and hash(first) == hash(second) and len({first, second}) == 1
    assert first != other
    with pytest.raises(AttributeError):
        first.affine = other.affine


def test_products_that_underflow_keep_the_iterated_integral():
    # a32 * a21 = 1e-400 underflows to 0, but the chain a21 > 0, a32 > 0 has length 2
    system = LimitSystem(case=4, b=(1, 0, 0), v=(1, 0, 0), a21=1e-200, a32=1e-200)
    assert system.exponents == (1, 2, 3)
    assert system.affine.B[2, 1] > 0
    a = np.array([[1.0, 0.0, 0.0], [1e-200, 1.0, 0.0], [0.0, 1e-200, 1.0]])
    assert growth_exponents(a, np.ones(3)).degrees == (1, 2, 3)


def test_paths_that_overflow_raise_the_overflow_guard():
    # parameters LimitSystem accepts as finite, whose paths leave the finite floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the growth degrees multiply no entries, so nothing warns
        system = LimitSystem(case=4, b=(1, 1, 1), v=(1e308, 1, 1), a21=1e300, a32=1e300)
    with pytest.raises(OverflowGuardError, match="finite floats"):
        limit_system_marginals(system, [1.0], 0.5, 3, 2)
    with pytest.raises(OverflowGuardError, match="finite floats"):
        simulate_limit_system(besq_system(1e307, 1.0), make_grid(30.0, 10.0), seed=0, n_paths=2)
    assert np.geterr()["over"] != "raise"  # the error state is the caller's again
