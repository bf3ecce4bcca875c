from __future__ import annotations

import numpy as np
import pytest

from gwi import (
    Bernoulli,
    Deterministic,
    Geometric,
    JointTable,
    Poisson,
    ValidationError,
    spec_from_dict,
)

ALL_KINDS = [
    Deterministic([2, 0, 1]),
    Poisson([1.0, 0.5, 0.0]),
    Bernoulli([0.3, 1.0, 0.0]),
    Geometric([0.5, 0.25, 1.0]),
    JointTable(support=[[0, 0, 0], [2, 1, 0], [1, 0, 3]], probs=[0.5, 0.25, 0.25]),
]


def test_deterministic_moments():
    spec = Deterministic([2, 0, 1])
    assert np.array_equal(spec.mean(), [2.0, 0.0, 1.0])
    assert np.all(spec.cov() == 0.0)


def test_poisson_moments():
    spec = Poisson([1.0, 0.5, 0.0])
    assert np.array_equal(spec.mean(), [1.0, 0.5, 0.0])
    assert np.array_equal(spec.cov(), np.diag([1.0, 0.5, 0.0]))


def test_bernoulli_moments():
    spec = Bernoulli([0.3, 1.0])
    assert np.allclose(spec.mean(), [0.3, 1.0])
    assert np.allclose(spec.cov(), np.diag([0.21, 0.0]))


def test_geometric_moments():
    spec = Geometric([0.5, 0.25])
    assert np.allclose(spec.mean(), [1.0, 3.0])
    assert np.allclose(spec.cov(), np.diag([2.0, 12.0]))


def test_joint_table_moments_match_pmf_sum():
    # direct pmf summation oracle
    support = np.array([[0, 0], [2, 1]])
    probs = np.array([0.5, 0.5])
    spec = JointTable(support=support, probs=probs)
    mean = sum(p * v for p, v in zip(probs, support))
    second = sum(p * np.outer(v, v) for p, v in zip(probs, support))
    assert np.allclose(spec.mean(), mean)
    assert np.allclose(spec.mean(), [1.0, 0.5])
    assert np.allclose(spec.cov(), second - np.outer(mean, mean))
    assert np.allclose(spec.cov(), [[1.0, 0.5], [0.5, 0.25]])


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Poisson([-0.1]),
        lambda: Bernoulli([1.2]),
        lambda: Geometric([0.0]),
        lambda: Deterministic([-1]),
        lambda: Deterministic([0.5]),
        lambda: JointTable(support=[[1]], probs=[0.9]),
        lambda: JointTable(support=[[1], [0]], probs=[0.5, 0.6]),
        lambda: JointTable(support=[[1], [0]], probs=[-0.1, 1.1]),
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(ValidationError):
        bad()


def test_joint_table_weight_tolerance():
    JointTable(support=[[1], [0]], probs=[0.5, 0.5 + 1e-13])
    with pytest.raises(ValidationError):
        JointTable(support=[[1], [0]], probs=[0.5, 0.5 + 1e-9])


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_sample_mean_within_four_standard_errors(spec):
    rng = np.random.default_rng(1234)
    draws = spec.sample(1_000_000, rng)
    assert draws.shape == (1_000_000, spec.dim)
    assert draws.dtype == np.int64
    assert np.all(draws >= 0)
    se = np.sqrt(np.diag(spec.cov()) / draws.shape[0])
    delta = np.abs(draws.mean(axis=0) - spec.mean())
    assert np.all(delta <= 4.0 * se + 1e-12)


def sum_of_individual_draws(spec, counts, rng):
    """Reference for ``sample_sum``: row r sums ``counts[r]`` draws of ``spec.sample``."""
    out = np.zeros((len(counts), spec.dim), dtype=np.int64)
    for r, m in enumerate(counts):
        if m > 0:
            out[r] = spec.sample(int(m), rng).sum(axis=0)
    return out


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_sum_draws_match_individual_draws_in_moments(spec):
    rng = np.random.default_rng(99)
    counts = np.full(200_000, 7, dtype=np.int64)
    fast = spec.sample_sum(counts, rng)
    se = np.sqrt(7 * np.diag(spec.cov()) / counts.size)
    assert np.all(np.abs(fast.mean(axis=0) - 7 * spec.mean()) <= 4.0 * se + 1e-12)
    var_fast = fast.var(axis=0)
    assert np.allclose(var_fast, 7 * np.diag(spec.cov()), rtol=0.05, atol=0.01)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_sum_draws_individual_path_agrees(spec):
    rng = np.random.default_rng(5)
    slow = sum_of_individual_draws(spec, np.full(50_000, 5), rng)
    se = np.sqrt(5 * np.diag(spec.cov()) / 50_000)
    assert np.all(np.abs(slow.mean(axis=0) - 5 * spec.mean()) <= 4.0 * se)


def test_sum_draws_zero_counts():
    for spec in ALL_KINDS:
        rng = np.random.default_rng(0)
        out = spec.sample_sum(np.array([0, 0, 3]), rng)
        assert np.all(out[:2] == 0)


def test_geometric_sum_draws_nothing_for_p_one_coordinates_or_zero_counts():
    # a p = 1 coordinate is exactly 0 and takes no Gamma or Poisson draw, so
    # the live coordinate sees the stream of a one-coordinate law
    counts = np.array([0, 3, 1, 40])
    wide = Geometric([0.5, 1.0]).sample_sum(counts, np.random.default_rng(4))
    narrow = Geometric([0.5]).sample_sum(counts, np.random.default_rng(4))
    assert np.all(wide[:, 1] == 0)
    assert np.array_equal(wide[:, :1], narrow)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    out = Geometric([0.3, 0.5, 1.0]).sample_sum(np.zeros(5, dtype=np.int64), rng)
    assert np.all(out == 0) and out.shape == (5, 3)
    assert rng.bit_generator.state == before


def test_deterministic_sum_is_exact():
    spec = Deterministic([2, 1])
    rng = np.random.default_rng(0)
    assert np.array_equal(
        spec.sample_sum(np.array([0, 4]), rng), [[0, 0], [8, 4]]
    )


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_json_round_trip(spec):
    clone = spec_from_dict(spec.to_dict())
    assert clone.kind == spec.kind
    assert np.allclose(clone.mean(), spec.mean())
    assert np.allclose(clone.cov(), spec.cov())


def test_spec_from_dict_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        spec_from_dict({"kind": "cauchy", "params": {}})
    with pytest.raises(ValidationError):
        spec_from_dict({"params": {}})
    with pytest.raises(ValidationError):
        spec_from_dict({"kind": "poisson", "params": {}})
    for params in ([1.0], "abc", 3):
        with pytest.raises(ValidationError, match="must be an object"):
            spec_from_dict({"kind": "poisson", "params": params})


@pytest.mark.parametrize(
    "kind, params, bad",
    [
        ("poisson", {"lam": "abc"}, "lam"),
        ("poisson", {"lam": [1.0, None]}, "lam"),
        ("joint_table", {"support": [[1], [2, 3]], "probs": [0.5, 0.5]}, "support"),
        ("joint_table", {"support": [[1], [2]], "probs": {"a": 1}}, "probs"),
    ],
)
def test_spec_from_dict_names_a_non_numeric_parameter(kind, params, bad):
    with pytest.raises(ValidationError, match=f"'{bad}' of kind '{kind}'"):
        spec_from_dict({"kind": kind, "params": params})


def test_spec_from_dict_rejects_unknown_parameters():
    with pytest.raises(ValidationError, match="unknown parameter 'lamda' for kind 'poisson'"):
        spec_from_dict({"kind": "poisson", "params": {"lam": [1.0], "lamda": [2.0]}})
    with pytest.raises(ValidationError, match="unknown parameter 'weights'"):
        spec_from_dict(
            {"kind": "joint_table", "params": {"support": [[1]], "probs": [1.0], "weights": [1.0]}}
        )


PARAM_NAMES = {
    "deterministic": ["c"],
    "poisson": ["lam"],
    "bernoulli": ["p"],
    "geometric": ["p"],
    "joint_table": ["support", "probs"],
}


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_json_form_lists_each_parameter(spec):
    payload = spec.to_dict()
    assert list(payload) == ["kind", "params"] and payload["kind"] == spec.kind
    assert list(payload["params"]) == PARAM_NAMES[spec.kind]
    for name, value in payload["params"].items():
        assert value == getattr(spec, name).tolist()
