from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwi import (
    Deterministic,
    Geometric,
    JointTable,
    Poisson,
    ValidationError,
    accessible,
    build_model,
    classify_criticality,
    detect_case,
    growth_exponents,
    is_strongly_critical,
    load_model,
    mean_polynomial,
    moment_growth_targets,
    reducible_normal_form,
    save_model,
    spectral_radius,
    unipotent_power,
)
from util import poisson_case_model, random_unipotent


def test_build_model_deterministic_identity():
    specs = [Deterministic(np.eye(3, dtype=int)[i]) for i in range(3)]
    model = build_model(specs, Deterministic([1, 2, 3]))
    assert np.array_equal(model.A, np.eye(3))
    assert np.array_equal(model.b, [1.0, 2.0, 3.0])
    for cov in model.V:
        assert np.all(cov == 0.0)


def test_build_model_poisson_example():
    specs = [Poisson([1, 0.5, 0]), Poisson([0, 1, 0]), Poisson([0, 0, 1])]
    model = build_model(specs, Poisson([1, 1, 1]))
    assert np.array_equal(model.A, [[1, 0, 0], [0.5, 1, 0], [0, 0, 1]])
    assert np.array_equal(model.b, [1, 1, 1])
    assert np.array_equal(model.V[1], np.diag([1.0, 0.5, 0.0]))


def test_build_model_joint_table_example():
    spec = JointTable(support=[[0, 0], [2, 1]], probs=[0.5, 0.5])
    other = JointTable(support=[[0, 0], [0, 1]], probs=[0.5, 0.5])
    model = build_model([spec, other], Deterministic([0, 0]))
    assert np.allclose(model.A[:, 0], [1.0, 0.5])
    assert np.allclose(model.V[1], [[1.0, 0.5], [0.5, 0.25]])


def test_build_model_dimension_mismatch():
    with pytest.raises(ValidationError):
        build_model([Poisson([1.0])], Poisson([1.0, 1.0]))
    with pytest.raises(ValidationError):
        build_model([Poisson([1.0, 0.0])], Poisson([1.0, 1.0]))


def test_build_model_rejects_laws_whose_moments_overflow():
    # the mean (1 - p) / p overflows to inf for p = 5e-324, and so does the variance
    law = Geometric([5e-324])
    with pytest.raises(ValidationError, match="offspring spec 0 .* not finite"):
        build_model([law], Poisson([1.0]))
    with pytest.raises(ValidationError, match="immigration spec .* not finite"):
        build_model([Poisson([1.0])], law)
    with pytest.raises(ValidationError, match="offspring spec 1 .* not finite"):
        build_model([Poisson([1.0, 0.0]), Geometric([1e-200, 0.5])], Poisson([1.0, 1.0]))


def test_load_model_rejects_laws_whose_moments_overflow(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "p": 1,
        "offspring": [{"kind": "geometric", "params": {"p": [5e-324]}}],
        "immigration": {"kind": "poisson", "params": {"lam": [1.0]}},
    }))
    with pytest.raises(ValidationError, match="not finite"):
        load_model(path)


def test_structural_zero_rows_have_zero_covariance():
    model = poisson_case_model(4)
    for j in range(3):
        zero_rows = np.flatnonzero(model.A[:, j] == 0)
        assert np.all(model.V[j + 1][zero_rows, :] == 0.0)
        assert np.all(model.V[j + 1][:, zero_rows] == 0.0)


def test_classify_criticality_examples():
    assert classify_criticality(np.eye(3)) == "critical"
    assert classify_criticality(np.diag([0.5, 0.9])) == "subcritical"
    assert classify_criticality([[0, 2], [0.5, 0]]) == "critical"
    assert classify_criticality(np.diag([1.5, 0.2])) == "supercritical"


def test_classify_rejects_bad_input():
    with pytest.raises(ValidationError):
        classify_criticality([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError):
        classify_criticality([[-1.0]])


def test_spectral_radius_matches_eig():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = int(rng.integers(2, 6))
        a = rng.uniform(0, 1, size=(p, p))
        a[0, -1] += 0.5  # keep it non-triangular
        expected = np.max(np.abs(np.linalg.eigvals(a)))
        assert spectral_radius(a) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_flagship_patterns_are_critical_in_every_type_order(case):
    a = poisson_case_model(case, immigration=(1.0, 2.0, 2.0)).A
    for order in itertools.permutations(range(3)):
        permuted = a[np.ix_(order, order)]
        assert classify_criticality(permuted) == "critical", order
        assert is_strongly_critical(permuted), order


def test_classify_triangular_is_exact_diagonal_readoff():
    rng = np.random.default_rng(15)
    for _ in range(50):
        p = int(rng.integers(1, 7))
        a = np.tril(rng.uniform(0, 2, size=(p, p)))
        if rng.random() < 0.5:
            a = a.T
        rho = float(np.max(np.diag(a)))
        assert spectral_radius(a) == rho
        expected = "critical" if rho == 1.0 else ("subcritical" if rho < 1 else "supercritical")
        assert classify_criticality(a) == expected


def test_normal_form_irreducible_is_identity():
    form = reducible_normal_form([[0, 1], [1, 0]])
    assert form.n_blocks == 1
    assert form.permutation == (0, 1)
    assert form.block_sizes == (2,)


def test_normal_form_lower_triangular_stays_put():
    a = np.array([[1, 0, 0], [2, 1, 0], [3, 4, 1]], dtype=float)
    form = reducible_normal_form(a)
    assert form.n_blocks == 3
    assert form.permutation == (0, 1, 2)
    assert np.array_equal(form.matrix, a)


def test_normal_form_upper_triangular_swaps():
    form = reducible_normal_form([[1, 5], [0, 1]])
    assert form.permutation == (1, 0)
    assert np.array_equal(form.matrix, [[1, 0], [5, 1]])


def test_normal_form_random_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        a = (rng.random((p, p)) < 0.4) * rng.uniform(0.1, 2.0, size=(p, p))
        form = reducible_normal_form(a)
        assert sum(form.block_sizes) == p
        # entries strictly above the block diagonal vanish
        start = 0
        for size in form.block_sizes:
            assert np.all(form.matrix[:start, start : start + size] == 0.0)
            start += size
        # each diagonal block is strongly connected
        start = 0
        for size in form.block_sizes:
            block = form.matrix[start : start + size, start : start + size]
            for i in range(size):
                for j in range(size):
                    assert accessible(block, i, j) or size == 1
            start += size


def test_normal_form_places_the_unreached_class_with_the_smallest_member_first():
    # types 2 and 3 produce each other, type 2 produces type 0; self-loops on 0 and 1
    a = np.zeros((4, 4))
    a[3, 2] = a[2, 3] = a[0, 2] = a[0, 0] = a[1, 1] = 1.0
    form = reducible_normal_form(a)
    assert form.permutation == (1, 2, 3, 0)
    assert form.block_sizes == (1, 2, 1)


def test_normal_form_breaks_ties_among_ready_classes_by_smallest_index():
    # chain 1 -> 4 -> 3 -> 0, type 2 isolated
    a = np.zeros((5, 5))
    a[4, 1] = a[3, 4] = a[0, 3] = 1.0
    assert reducible_normal_form(a).permutation == (1, 2, 4, 3, 0)


@st.composite
def permuted_unipotent(draw):
    """Lower-unipotent A, and a permutation sigma of its types."""
    p = draw(st.integers(2, 6))
    rate = st.one_of(st.just(0.0), st.floats(0.1, 3.0))
    a = np.eye(p)
    for i in range(p):
        for j in range(i):
            a[i, j] = draw(rate)
    return a, np.asarray(draw(st.permutations(range(p))))


@settings(max_examples=100, deadline=None)
@given(case=permuted_unipotent())
def test_growth_degrees_are_invariant_under_type_permutations(case):
    a, sigma = case
    b = np.ones(a.shape[0])
    form = reducible_normal_form(a[np.ix_(sigma, sigma)])
    assert set(form.block_sizes) == {1}
    degrees = growth_exponents(form.matrix, b).degrees
    original = growth_exponents(a, b).degrees
    # position `new` holds type `perm[new]` of the permuted chain: type sigma[perm[new]] of A
    for new, old in enumerate(form.permutation):
        assert degrees[new] == original[sigma[old]]


def test_is_strongly_critical():
    assert is_strongly_critical(np.eye(3))
    assert not is_strongly_critical([[1, 0], [1, 0.5]])
    assert is_strongly_critical([[1, 0, 0], [2, 1, 0], [3, 4, 1]])


def test_detect_case_identity_patterns():
    assert detect_case(np.eye(3)).value == 1
    assert detect_case(np.eye(3)).is_identity

    a = np.eye(3)
    a[1, 0], a[2, 1] = 0.7, 0.3
    cid = detect_case(a)
    assert cid.value == 4 and cid.is_identity

    a = np.eye(3)
    a[2, 0] = 0.4
    assert detect_case(a).value == 2

    a = np.eye(3)
    a[1, 0], a[2, 0] = 0.4, 0.2
    assert detect_case(a).value == 3


def test_detect_case_normalizing_permutations():
    only_a32 = np.eye(3)
    only_a32[2, 1] = 0.5
    cid = detect_case(only_a32)
    assert cid.value == 2
    assert cid.permutation == (1, 0, 2)

    only_a21 = np.eye(3)
    only_a21[1, 0] = 0.5
    cid_b = detect_case(only_a21)
    assert cid_b.value == 2
    assert cid_b.permutation == (0, 2, 1)


def _matches_pattern(a, case) -> bool:
    a21, a31, a32 = a[1, 0], a[2, 0], a[2, 1]
    return {
        1: a21 == 0 and a31 == 0 and a32 == 0,
        2: a21 == 0 and a31 > 0,
        3: a21 > 0 and a31 > 0 and a32 == 0,
        4: a21 > 0 and a32 > 0,
    }[case]


def test_detect_case_permutation_lands_in_table():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a = np.eye(3)
        mask = rng.random(3) < 0.5
        vals = rng.uniform(0.1, 2.0, size=3) * mask
        a[1, 0], a[2, 0], a[2, 1] = vals
        cid = detect_case(a)
        permuted = cid.apply_matrix(a)
        matches = [c for c in (1, 2, 3, 4) if _matches_pattern(permuted, c)]
        assert matches == [cid.value]


def test_detect_case_rejects_non_unipotent():
    with pytest.raises(ValidationError):
        detect_case(np.diag([1.0, 1.0, 0.5]))
    with pytest.raises(ValidationError):
        detect_case([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError):
        detect_case(np.eye(2))


def _pattern4_with(row: int, col: int, value: float) -> np.ndarray:
    a = np.eye(3)
    a[1, 0], a[2, 1] = 0.5, 0.5
    a[row, col] = value
    return a


# ZERO_TOL = 1e-12 bounds both |diag - 1| and |upper entry|
UNIPOTENT_EDGE = [
    pytest.param(_pattern4_with(1, 1, 1 + 5e-13), True, id="diag+5e-13"),
    pytest.param(_pattern4_with(1, 1, 1 - 5e-13), True, id="diag-5e-13"),
    pytest.param(_pattern4_with(1, 1, 1 + 2e-12), False, id="diag+2e-12"),
    pytest.param(_pattern4_with(1, 1, 1 - 2e-12), False, id="diag-2e-12"),
    pytest.param(_pattern4_with(0, 2, 5e-13), True, id="upper5e-13"),
    pytest.param(_pattern4_with(0, 2, 2e-12), False, id="upper2e-12"),
    pytest.param(np.eye(3)[:2], False, id="non-square"),
]


@pytest.mark.parametrize("a, accepted", UNIPOTENT_EDGE)
def test_lower_unipotent_rule_at_its_tolerance_edge(a, accepted):
    checks = [
        lambda: unipotent_power(a, 3),
        lambda: growth_exponents(a, np.ones(a.shape[0])),
        lambda: detect_case(a),
    ]
    if a.shape[0] == a.shape[1]:
        # column i of A is the Poisson rate vector of type-i offspring
        model = build_model([Poisson(a[:, i]) for i in range(3)], Poisson([1.0, 1.0, 1.0]))
        assert model.is_lower_unipotent() is accepted
        checks += [lambda: mean_polynomial(model, 0), lambda: moment_growth_targets(model)]
    for check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(ValidationError):
                check()


def test_accessible_examples():
    assert not accessible(np.eye(3), 0, 1)
    case4 = np.eye(3)
    case4[1, 0], case4[2, 1] = 0.5, 0.5
    assert accessible(case4, 0, 2)  # through the middle type
    assert not accessible(case4, 2, 0)
    for i in range(3):
        assert accessible(case4, i, i)
    with pytest.raises(ValidationError):
        accessible(np.eye(3), 0, 3)


def test_accessible_matches_matrix_powers():
    rng = np.random.default_rng(5)
    matrices = [np.zeros((2, 2)), np.zeros((1, 1)), np.eye(1), [[0, 1], [1, 0]]]
    for _ in range(60):
        p = int(rng.integers(1, 7))
        a = (rng.random((p, p)) < rng.uniform(0.1, 0.5)) * rng.uniform(0.1, 2.0, size=(p, p))
        matrices.append(a)
    assert not accessible(np.zeros((2, 2)), 0, 0)
    for a in matrices:
        a = np.asarray(a, dtype=float)
        p = a.shape[0]
        powers = [np.linalg.matrix_power(a, l) for l in range(1, p + 1)]
        for i in range(p):
            for j in range(p):
                expected = any(power[j, i] > 0 for power in powers)
                assert accessible(a, i, j) is expected, (a, i, j)


def test_model_json_round_trip(tmp_path):
    model = poisson_case_model(4)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert np.allclose(clone.A, model.A)
    assert np.allclose(clone.b, model.b)
    for u, v in zip(clone.V, model.V):
        assert np.allclose(u, v)


def test_load_model_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_model(path)
    path.write_text('{"offspring": []}')
    with pytest.raises(ValidationError):
        load_model(path)


def test_random_unipotent_models_are_lower_unipotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_unipotent(rng, 4)
        assert classify_criticality(a) == "critical"
        assert is_strongly_critical(a)
