"""Shared model builders for the test suite."""

from __future__ import annotations

import numpy as np

from gwi import Deterministic, LimitSystem, Poisson, build_model, wasserstein1

CASE_SUBDIAGONALS = {1: (0.0, 0.0, 0.0), 2: (0.0, 0.5, 0.5), 3: (0.5, 0.5, 0.0), 4: (0.5, 0.0, 0.5)}


def poisson_case_model(case: int, immigration=(1.0, 1.0, 1.0), subdiagonals=None):
    """3-type Poisson model whose mean matrix matches the given pattern.

    Offspring of type i is Poisson with rates equal to column i of the mean
    matrix, so every V^(i) is diagonal with the same entries.
    """
    a21, a31, a32 = subdiagonals if subdiagonals is not None else CASE_SUBDIAGONALS[case]
    specs = [
        Poisson([1.0, a21, a31]),
        Poisson([0.0, 1.0, a32]),
        Poisson([0.0, 0.0, 1.0]),
    ]
    return build_model(specs, Poisson(list(immigration)))


def besq_system(b: float, v: float) -> LimitSystem:
    """Limit system whose coordinate 0 is the squared Bessel process (b, v).

    The other coordinates have b = v = 0: they stay at zero and draw nothing,
    so coordinate 0 sees the same random stream as a lone squared Bessel path.
    """
    return LimitSystem(case=1, b=(b, 0.0, 0.0), v=(v, 0.0, 0.0))


def deterministic_model(b=(2, 1, 3)):
    """Unit self-replacement with deterministic immigration: X_k = k * b."""
    specs = [Deterministic(np.eye(3, dtype=int)[i]) for i in range(3)]
    return build_model(specs, Deterministic(list(b)))


def single_type_poisson(lam=1.0, b=1.0):
    """Critical single-type model: Poisson(lam) offspring, Poisson(b) immigration."""
    return build_model([Poisson([lam])], Poisson([b]))


def random_unipotent(rng: np.random.Generator, p: int, *, integer=False, density=0.7):
    """Random lower-unipotent nonnegative matrix of size p."""
    a = np.eye(p) if not integer else np.eye(p, dtype=np.int64)
    for i in range(p):
        for j in range(i):
            if rng.random() < density:
                a[i, j] = rng.integers(1, 5) if integer else rng.uniform(0.1, 3.0)
    return a


W1_PERMUTATIONS = 999


def w1_permutation_pvalue(xs, ys) -> float:
    """Two-sample permutation p-value of the Wasserstein-1 distance.

    (1 + #{permuted W1 >= observed W1}) / (1 + W1_PERMUTATIONS), each permutation
    a random split of the pooled sample into the two sizes, drawn from a
    generator with a fixed seed.  When both samples come from one law the
    p-value is at most alpha with probability at most alpha; with 999
    permutations its smallest value is 0.001, reached when no permuted W1
    reaches the observed one.
    """
    xs = np.asarray(xs, dtype=float)
    pooled = np.concatenate([xs, np.asarray(ys, dtype=float)])
    observed = wasserstein1(xs, pooled[xs.size :])
    rng = np.random.default_rng(0)
    reached = 0
    for _ in range(W1_PERMUTATIONS):
        shuffled = rng.permutation(pooled)
        reached += wasserstein1(shuffled[: xs.size], shuffled[xs.size :]) >= observed
    return (1 + reached) / (1 + W1_PERMUTATIONS)
