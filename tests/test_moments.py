from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwi import (
    Poisson,
    ValidationError,
    build_model,
    classify_criticality,
    conditional_covariance,
    growth_exponents,
    leading_asymptotic,
    martingale_second_moment,
    mean_polynomial,
    mean_vector,
    moment_growth_targets,
    moment_stream,
    simulate_ensemble,
    unipotent_power,
    variance_matrix,
)
from gwi.model import _chain_degrees, _nilpotent_orbit
from util import (
    deterministic_model,
    poisson_case_model,
    random_unipotent,
    single_type_poisson,
)


def brute_power(a, k):
    out = np.eye(a.shape[0], dtype=a.dtype if a.dtype == object else float)
    for _ in range(k):
        out = out @ a
    return out


def test_unipotent_power_k1_is_the_matrix():
    a = np.array([[1.0, 0.0], [0.3, 1.0]])
    assert np.allclose(unipotent_power(a, 1), a)


def test_unipotent_power_example():
    a = np.array([[1, 0, 0], [2, 1, 0], [3, 4, 1]])
    expected = [[1, 0, 0], [6, 1, 0], [33, 12, 1]]
    assert np.array_equal(unipotent_power(a, 3), expected)


def test_unipotent_power_matches_brute_force_float():
    rng = np.random.default_rng(42)
    for _ in range(30):
        p = int(rng.integers(2, 7))
        a = random_unipotent(rng, p)
        k = int(rng.integers(1, 51))
        fast = np.asarray(unipotent_power(a, k), dtype=float)
        slow = brute_power(a, k)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)


def test_unipotent_power_exact_in_integer_mode():
    rng = np.random.default_rng(43)
    for _ in range(10):
        p = int(rng.integers(2, 7))
        a = random_unipotent(rng, p, integer=True)
        k = int(rng.integers(1, 51))
        fast = unipotent_power(a, k)
        slow = brute_power(a.astype(object), k)
        assert np.array_equal(fast, slow)


def test_unipotent_power_rejects_bad_input():
    with pytest.raises(ValidationError):
        unipotent_power(np.diag([1.0, 2.0]), 3)
    with pytest.raises(ValidationError):
        unipotent_power([[1, 1], [0, 1.0]], 3)  # upper entry
    with pytest.raises(ValidationError):
        unipotent_power(np.eye(2), 0)


def test_unipotent_power_overflow_reads_inf_without_warning():
    a = np.array([[1.0, 0.0, 0.0], [1e300, 1.0, 0.0], [0.0, 1e300, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2, 3, 50):
            power = unipotent_power(a, k)
            assert power[2, 0] == (math.inf if k >= 2 else 0.0)
            assert not np.isnan(power).any()
        assert np.array_equal(unipotent_power(a, 3)[1:, :2], [[3e300, 1.0], [math.inf, 3e300]])
        # at p = 4 an inf of C^2 meets a zero of C in C^3, where inf * 0 would be nan
        chain = np.eye(4) + np.diag([1e300] * 3, -1)
        assert unipotent_power(chain, 5)[3].tolist() == [math.inf, math.inf, 5e300, 1.0]
        model = build_model([Poisson(chain[:, j]) for j in range(4)], Poisson([1.0] * 4))
        assert mean_polynomial(model, 3).coeffs == (1.0, 1e300, math.inf, math.inf)


def test_nilpotent_power_structure():
    # the orbit of I under C = A - I is C^0, ..., C^(p-1), checked against numpy's matrix power
    rng = np.random.default_rng(44)
    for _ in range(20):
        p = int(rng.integers(2, 7))
        a = random_unipotent(rng, p)
        c = np.tril(a, -1)
        orbit = _nilpotent_orbit(c, np.eye(p))
        assert len(orbit) == p
        for m in range(p):
            cm = np.linalg.matrix_power(c, m)
            assert np.allclose(orbit[m], cm, rtol=1e-14, atol=0.0)
            x = rng.uniform(0.0, 2.0, p)
            assert np.allclose(_nilpotent_orbit(c, x)[m], cm @ x, rtol=1e-14, atol=0.0)
            for i in range(p):
                for j in range(p):
                    if m > i - j:
                        assert orbit[m][i, j] == 0.0
                j = i - m
                if m and j >= 0:
                    assert orbit[m][i, j] == pytest.approx(math.prod(a[r + 1, r] for r in range(j, i)))


def test_growth_degree_inequality_property():
    # a positive entry of (A - I)^m forces degree_i >= degree_j + m
    rng = np.random.default_rng(45)
    for _ in range(30):
        p = int(rng.integers(2, 7))
        a = random_unipotent(rng, p, density=0.5)
        degrees = growth_exponents(a, np.ones(p)).degrees
        for m in range(p):
            cm = np.linalg.matrix_power(np.tril(a, -1), m)
            for i in range(p):
                for j in range(p):
                    if cm[i, j] > 0:
                        assert degrees[i] >= degrees[j] + m


@pytest.mark.parametrize(
    "case, expected",
    [(1, (1, 1, 1)), (2, (1, 1, 2)), (3, (1, 2, 2)), (4, (1, 2, 3))],
)
def test_growth_degree_case_table(case, expected):
    model = poisson_case_model(case)
    assert growth_exponents(model.A, model.b).degrees == expected


def test_mean_vector_identity_matrix():
    model = deterministic_model(b=(1, 2, 3))
    assert np.allclose(mean_vector(model, 5), [5.0, 10.0, 15.0])
    assert np.allclose(mean_vector(model, 0), 0.0)


def test_mean_vector_hockey_stick():
    # unit sub-diagonal chain feeding only the first coordinate
    model = poisson_case_model(4, immigration=(1, 0, 0), subdiagonals=(1.0, 0.0, 1.0))
    assert mean_vector(model, 4)[2] == pytest.approx(math.comb(4, 3))
    ks = np.arange(1, 12)
    for k in ks:
        assert mean_vector(model, int(k))[2] == pytest.approx(math.comb(int(k), 3))


def test_mean_vector_matches_recursion():
    rng = np.random.default_rng(46)
    model = poisson_case_model(4)
    expected = np.zeros(3)
    for k in range(1, 30):
        expected = model.A @ expected + model.b
        assert np.allclose(mean_vector(model, k), expected, rtol=1e-12)


def test_mean_vector_non_unipotent_fallback():
    model = build_model([Poisson([0.5])], Poisson([2.0]))
    # subcritical single type: E X_k = 2 * (1 - 0.5^k) / (1 - 0.5)
    for k in (1, 2, 5, 10):
        expected = 2.0 * (1 - 0.5**k) / 0.5
        assert mean_vector(model, k)[0] == pytest.approx(expected)


def test_mean_polynomial_identity_case():
    model = deterministic_model(b=(1, 2, 3))
    for i in range(3):
        poly = mean_polynomial(model, i)
        assert poly.coeffs[0] == pytest.approx(float(model.b[i]))
        assert all(c == 0.0 for c in poly.coeffs[1:])


def test_mean_polynomial_case4_pure_chain():
    model = poisson_case_model(4, immigration=(1, 0, 0), subdiagonals=(1.0, 0.0, 1.0))
    poly = mean_polynomial(model, 2)
    assert poly.coeffs == pytest.approx((0.0, 0.0, 1.0))
    assert poly.degree == 3


def test_mean_polynomial_evaluates_to_mean_vector():
    model = poisson_case_model(4)
    polys = [mean_polynomial(model, i) for i in range(3)]
    for k in range(1, 51):
        mv = mean_vector(model, k)
        for i in range(3):
            assert polys[i](k) == pytest.approx(mv[i], rel=1e-9)


def test_variance_matrix_deterministic_model_is_zero():
    model = deterministic_model()
    assert np.all(variance_matrix(model, 7) == 0.0)


def test_variance_single_type_poisson():
    model = single_type_poisson()
    # E M_j^2 = 1 + E X_{j-1} = j, so Var X_k = k (k + 1) / 2
    for k in (1, 2, 5, 10, 20):
        assert variance_matrix(model, k)[0, 0] == pytest.approx(k * (k + 1) / 2)
        assert martingale_second_moment(model, k)[0, 0] == pytest.approx(float(k))


def test_variance_single_type_poisson_monte_carlo():
    model = single_type_poisson()
    replicas = 1_000_000
    states = simulate_ensemble(model, 20, replicas, seed=48, record_at=[20])
    sample_var = states[:, 0, 0].astype(float).var(ddof=1)
    exact = variance_matrix(model, 20)[0, 0]
    assert abs(sample_var - exact) / exact <= 0.05


def test_conditional_covariance_matches_one_step_monte_carlo():
    model = poisson_case_model(4)
    state = np.array([7, 4, 2])
    rng = np.random.default_rng(47)
    replicas = 200_000
    states = np.tile(state, (replicas, 1))
    from gwi import step_ensemble

    nxt = step_ensemble(model, states, rng).astype(float)
    sample_cov = np.cov(nxt.T)
    expected = conditional_covariance(model, state)
    # diagonal within 4 standard errors (4th-moment based SE estimate)
    for i in range(3):
        residuals = (nxt[:, i] - nxt[:, i].mean()) ** 2
        se = residuals.std(ddof=1) / math.sqrt(replicas)
        assert abs(sample_cov[i, i] - expected[i, i]) <= 4.0 * se
    # off-diagonals: coarse check
    assert np.allclose(sample_cov, expected, atol=0.05 * max(1.0, expected.max()))


def test_leading_asymptotic_zero_immigration():
    model = poisson_case_model(4, immigration=(0, 0, 0))
    assert leading_asymptotic(model, 2) == (0, 0.0)
    assert np.all(mean_vector(model, 50) == 0.0)


def test_leading_asymptotic_first_coordinate():
    model = poisson_case_model(4, immigration=(1.5, 0, 0))
    degree, coeff = leading_asymptotic(model, 0)
    assert degree == 1 and coeff == pytest.approx(1.5)


def test_leading_asymptotic_case4_ratio_converges():
    model = poisson_case_model(4, immigration=(1, 0, 0), subdiagonals=(1.0, 0.0, 1.0))
    degree, coeff = leading_asymptotic(model, 2)
    assert (degree, coeff) == (3, pytest.approx(1.0))
    k = 500
    ratio = mean_vector(model, k)[2] / (coeff * math.comb(k, degree))
    assert 0.99 <= ratio <= 1.01


def test_leading_asymptotic_skips_zero_prefix():
    model = poisson_case_model(4, immigration=(0, 2, 0))
    degree, coeff = leading_asymptotic(model, 2)
    # first positive immigration coordinate is the middle one
    assert degree == 2
    assert coeff == pytest.approx(2.0 * model.A[2, 1])


def test_leading_asymptotic_degree_survives_underflow():
    # a32 * a21 = 1e-400 underflows; the chain 1 -> 2 -> 3 still sets degree 3
    model = poisson_case_model(4, subdiagonals=(1e-200, 0, 1e-200))
    assert leading_asymptotic(model, 2) == (3, 0.0)
    assert leading_asymptotic(model, 1) == (2, 1e-200)
    assert growth_exponents(model.A, model.b).degrees == (1, 2, 3)


def test_leading_asymptotic_overflow_reads_inf_without_warning():
    model = poisson_case_model(4, subdiagonals=(1e300, 0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert leading_asymptotic(model, 2) == (3, math.inf)
        assert mean_polynomial(model, 2).coeffs == (1.0, 1e300, math.inf)


@pytest.mark.parametrize("entry", [1e-200, 1e300])
def test_mean_polynomial_degree_is_the_chain_degree(entry):
    # a32 * a21 underflows to 0.0 or overflows to inf; the chain 1 -> 2 -> 3 has degree 3 either way
    model = poisson_case_model(4, subdiagonals=(entry, 0, entry))
    chain = _chain_degrees(model.A, model.b > 0).tolist()
    assert chain == [1, 2, 3]
    for i in range(3):
        assert mean_polynomial(model, i).degree == leading_asymptotic(model, i)[0] == chain[i]


def test_binomial_coefficients_past_the_float_range_read_inf():
    k = 10**200
    a = np.eye(3) + np.diag([0.5, 0.5], -1)
    model = build_model([Poisson(a[:, j]) for j in range(3)], Poisson([1.0, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # binom(k, 2) passes the float range; the zero entries of C^2 stay 0.0
        assert unipotent_power(a, k).tolist() == [[1.0, 0.0, 0.0], [5e199, 1.0, 0.0], [math.inf, 5e199, 1.0]]
        # coefficients (1, 0, 0), (0, 0.5, 0) and (0, 0, 0.25): the zero ones add nothing
        assert [mean_polynomial(model, i)(k) for i in range(3)] == [1e200, math.inf, math.inf]
    exact = unipotent_power(np.eye(3, dtype=int) + np.diag([1, 1], -1), k)
    assert exact[2, 0] == math.comb(k, 2) and exact[1, 0] == k


def test_mean_polynomial_with_an_inf_coefficient_agrees_with_the_mean_vector():
    # coeffs (1, 1e300, inf): the inf term has binom(k, 3) = 0 for k < 3 and
    # must be left out there, not read as inf * 0 = nan
    model = poisson_case_model(4, subdiagonals=(1e300, 0, 1e300))
    poly = mean_polynomial(model, 2)
    for k in (1, 2, 3):
        with np.errstate(over="ignore", invalid="ignore"):  # E X_3 overflows to inf
            expected = mean_vector(model, k)[2]
        assert poly(k) == expected, k
    assert poly(0) == 0.0 and poly(3) == math.inf


def test_mean_vector_runs_no_variance_recursion():
    # E X_2 = (2, 1e300, 1e300) is finite although var X_2 overflows
    model = poisson_case_model(4, subdiagonals=(1e300, 0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mean_vector(model, 2).tolist() == [2.0, 1e300, 1e300]
        assert np.isfinite(martingale_second_moment(model, 2)).all()
    # E(M_3 M_3^T) reads E X_2; with a32 = 0 it stays finite, but var X_2 overflows
    model = poisson_case_model(3, subdiagonals=(1e300, 0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mean_vector(model, 2).tolist() == [2.0, 1e300, 2.0]
        assert np.diag(martingale_second_moment(model, 3)).tolist() == [3.0, 3e300, 3.0]


# (subdiagonals, [coeffs of coordinates 0, 1, 2] as float.hex)
GOLDEN_MEAN_COEFFS = [
    (
        (1e300, 0, 1e300),
        [
            ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
            ["0x1.0000000000000p+0", "0x1.7e43c8800759cp+996", "0x0.0p+0"],
            ["0x1.0000000000000p+0", "0x1.7e43c8800759cp+996", "inf"],
        ],
    ),
    (
        (1e-300, 0, 1e-300),
        [
            ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
            ["0x1.0000000000000p+0", "0x1.56e1fc2f8f359p-997", "0x0.0p+0"],
            ["0x1.0000000000000p+0", "0x1.56e1fc2f8f359p-997", "0x0.0p+0"],
        ],
    ),
]


@pytest.mark.parametrize("subdiagonals, expected", GOLDEN_MEAN_COEFFS, ids=["1e300", "1e-300"])
def test_mean_polynomial_coefficients_golden_bits(subdiagonals, expected):
    model = poisson_case_model(4, subdiagonals=subdiagonals)
    got = [[c.hex() for c in mean_polynomial(model, i).coeffs] for i in range(3)]
    assert got == expected


def _pattern4():
    return poisson_case_model(4)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: unipotent_power(np.eye(3), "3"), id="unipotent_power-str"),
        pytest.param(lambda: unipotent_power(np.eye(3), math.nan), id="unipotent_power-nan"),
        pytest.param(lambda: unipotent_power(np.eye(3), 2.0), id="unipotent_power-float"),
        pytest.param(lambda: mean_polynomial(_pattern4(), 1.5), id="mean_polynomial-1.5"),
        pytest.param(lambda: leading_asymptotic(_pattern4(), 1.5), id="leading_asymptotic-1.5"),
        pytest.param(lambda: mean_polynomial(_pattern4(), 2)(2.7), id="poly-2.7"),
        pytest.param(lambda: mean_polynomial(_pattern4(), 2)(-1), id="poly-minus1"),
        pytest.param(lambda: mean_polynomial(_pattern4(), 2)(math.nan), id="poly-nan"),
        pytest.param(lambda: mean_vector(_pattern4(), 2.5), id="mean_vector-2.5"),
        pytest.param(lambda: martingale_second_moment(_pattern4(), 0), id="martingale-0"),
        pytest.param(lambda: variance_matrix(_pattern4(), "2"), id="variance-str"),
    ],
)
def test_moment_api_integer_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_leading_asymptotic_counts_chains_from_positive_immigration_only():
    # the overflowing chain starts at type 1, which has no immigration
    model = poisson_case_model(4, immigration=(0, 1, 1), subdiagonals=(1e300, 0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mean_polynomial(model, 2).coeffs == (1.0, 1e300, 0.0)
        assert leading_asymptotic(model, 2) == (2, 1e300)


def test_leading_asymptotic_pattern2_third_coordinate():
    # X_3 collects a31 b_1 + a32 b_2 = 0.5 * 1 + 0.5 * 2 per binom(k, 2)
    model = poisson_case_model(2, immigration=(1, 2, 2))
    degree, coeff = leading_asymptotic(model, 2)
    assert (degree, coeff) == (2, pytest.approx(1.5))
    k = 500
    ratio = mean_vector(model, k)[2] / (coeff * math.comb(k, degree))
    assert 0.99 <= ratio <= 1.01


def test_moment_growth_targets_case4():
    model = poisson_case_model(4)
    targets = moment_growth_targets(model)
    assert targets["mean"] == [1, 2, 3]
    assert targets["sum_sup"] == [2, 3, 4]
    assert targets["weighted_sum_sup"] == [4, 5, 6]
    assert targets["cross"][0][0] == 1
    assert targets["cross"][2][0] == 1
    assert targets["cross"][2][2] == 3
    # only the first coordinate's row of A is a delta row in this pattern
    assert targets["fourth"] == [2, None, None]


def test_moment_growth_targets_case1_all_delta_rows():
    model = poisson_case_model(1)
    assert moment_growth_targets(model)["fourth"] == [2, 2, 2]


def test_log_log_slope_of_exact_mean_matches_eta():
    for case in (1, 2, 3, 4):
        model = poisson_case_model(case)
        degrees = growth_exponents(model.A, model.b).degrees
        ks = 2 ** np.arange(5, 11)
        means = np.array([mean_vector(model, int(k)) for k in ks])
        for i in range(3):
            slope = np.polyfit(np.log(ks), np.log(means[:, i]), 1)[0]
            assert abs(slope - degrees[i]) <= 0.1


def test_moment_stream_rows_and_validation():
    model = poisson_case_model(4)
    mean, var = moment_stream(model, 5)
    assert mean.shape == (6, 3) and var.shape == (6, 3, 3)
    assert np.all(mean[0] == 0.0) and np.all(var[0] == 0.0)
    assert np.array_equal(mean[5], mean_vector(model, 5))
    assert np.array_equal(var[5], variance_matrix(model, 5))
    assert moment_stream(model, 0)[0].shape == (1, 3)
    for bad in (-1, 2.5, "3", None, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            moment_stream(model, bad)


@st.composite
def unipotent_poisson_models(draw):
    """Lower-unipotent mean matrix with Poisson columns, and Poisson immigration."""
    p = draw(st.integers(2, 6))
    rate = st.one_of(st.just(0.0), st.floats(0.1, 3.0))
    a = np.eye(p)
    for i in range(p):
        for j in range(i):
            a[i, j] = draw(rate)
    b = [draw(rate) for _ in range(p)]
    return build_model([Poisson(a[:, j]) for j in range(p)], Poisson(b))


# every term is a sum of products of nonnegative numbers, so the orders of
# summation differ only by a few float64 round-offs per step
_RTOL = 1e-10


@settings(max_examples=60, deadline=None)
@given(model=unipotent_poisson_models(), k=st.integers(1, 40))
def test_moment_stream_mean_matches_binomial_form_and_matrix_powers(model, k):
    mean = moment_stream(model, k)[0]
    polys = [mean_polynomial(model, i) for i in range(model.p)]
    power_sum = sum(np.linalg.matrix_power(model.A, j) for j in range(k)) @ model.b
    assert np.allclose(mean[k], [poly(k) for poly in polys], rtol=_RTOL, atol=0.0)
    assert np.allclose(mean[k], power_sum, rtol=_RTOL, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(model=unipotent_poisson_models())
def test_leading_degree_is_the_top_nonzero_coefficient_in_range(model):
    c = np.tril(model.A, -1)
    for i in range(model.p):
        poly = mean_polynomial(model, i)
        powers = [np.linalg.matrix_power(c, m)[i] @ model.b for m in range(model.p)]
        assert np.allclose(poly.coeffs, powers, rtol=_RTOL, atol=0.0)
        degree, coeff = leading_asymptotic(model, i)
        assert degree == poly.degree
        assert coeff == (poly.coeffs[degree - 1] if degree else 0.0)


@settings(max_examples=40, deadline=None)
@given(model=unipotent_poisson_models(), k=st.integers(1, 30))
def test_moment_stream_variance_matches_convolution(model, k):
    # var X_k = sum_j A^j E(M_{k-j} M_{k-j}^T) (A^T)^j with E X from the binomial form
    polys = [mean_polynomial(model, i) for i in range(model.p)]
    expected = np.zeros((model.p, model.p))
    for j in range(k):
        a_power = np.asarray(unipotent_power(model.A, j), dtype=float) if j else np.eye(model.p)
        prev_mean = [poly(k - j - 1) for poly in polys]
        expected += a_power @ conditional_covariance(model, prev_mean) @ a_power.T
    assert np.allclose(moment_stream(model, k)[1][k], expected, rtol=_RTOL, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(model=unipotent_poisson_models(), data=st.data())
def test_criticality_survives_type_permutations(model, data):
    perm = data.draw(st.permutations(range(model.p)))
    assert classify_criticality(model.A[np.ix_(perm, perm)]) == "critical"
