"""Exact moment engine.

Every mean and variance comes from one exact one-step recursion (Quine 1970,
J. Appl. Probab.) for the process started at X_0 = 0:

    E X_k   = A E X_{k-1} + b,
    var X_k = A var X_{k-1} A^T + V^(0) + sum_i E X_{k-1, i} V^(i),

which holds for every mean matrix A.  :func:`moment_stream` runs it once up to
a horizon K; :func:`mean_vector` and :func:`variance_matrix` read one row.

For a lower triangular A with unit diagonal the nilpotent part C = A - I
satisfies C^p = 0, so every power of A is the finite binomial sum
``A^k = sum_m binom(k, m) C^m``.  This closed form gives the mean polynomial
in the binomial basis, coefficients (C^m b)_i, and the leading asymptotic
term.  Binomial coefficients are exact Python integers; integer-valued
matrices are computed in exact integer arithmetic, float matrices in float64.
The growth degrees and the leading degree take no power of C: they are
chains of strictly positive entries, the sign rule of ``detect_case``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from numbers import Real

import numpy as np

from .errors import ValidationError
from .model import GwiModel, _lower_unipotent

__all__ = [
    "UnipotentMatrix",
    "unipotent_power",
    "moment_stream",
    "mean_vector",
    "MeanPolynomial",
    "mean_polynomial",
    "conditional_covariance",
    "martingale_second_moment",
    "variance_matrix",
    "GrowthExponents",
    "growth_exponents",
    "leading_asymptotic",
    "moment_growth_targets",
]


class UnipotentMatrix:
    """A lower triangular matrix with unit diagonal, with cached nilpotent powers.

    ``c_powers[m]`` is (A - I)^m for m = 0..p-1; (A - I)^p = 0.  Integer input
    stays exact (object dtype holding Python ints); float input uses float64.
    """

    def __init__(self, a):
        arr = np.asarray(a)
        if not _lower_unipotent(arr):
            raise ValidationError("matrix must be square, lower triangular, with unit diagonal")

        exact = arr.dtype == object or np.issubdtype(arr.dtype, np.integer)
        if exact:
            work = np.array([[int(x) for x in row] for row in arr], dtype=object)
            eye = np.eye(arr.shape[0], dtype=np.int64).astype(object)  # Python ints
        else:
            work = np.tril(arr.astype(float))  # zero out round-off above the diagonal
            np.fill_diagonal(work, 1.0)
            eye = np.eye(arr.shape[0])
        self.a = work
        self.p = arr.shape[0]
        nilpotent = work - eye
        powers = [eye]
        for _ in range(1, self.p):
            powers.append(powers[-1] @ nilpotent)
        self.c_powers = powers

    def power(self, k: int) -> np.ndarray:
        """A^k = sum_{m=0}^{p-1} binom(k, m) (A - I)^m, for integer k >= 0."""
        if k < 0 or k != int(k):
            raise ValidationError("exponent must be a nonnegative integer")
        k = int(k)
        total = self.c_powers[0].copy()
        for m in range(1, self.p):
            total = total + comb(k, m) * self.c_powers[m]
        return total


def unipotent_power(a, k: int) -> np.ndarray:
    """k-th power of a lower-unipotent matrix via the binomial expansion."""
    if k < 1:
        raise ValidationError("k must be a positive integer")
    return UnipotentMatrix(a).power(k)


def moment_stream(model: GwiModel, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(E X_k, var X_k) for k = 0..K, shapes (K+1, p) and (K+1, p, p), X_0 = 0."""
    if not isinstance(K, Real) or K < 0 or K % 1 != 0:
        raise ValidationError(f"K must be a nonnegative integer, not {K!r}")
    K = int(K)
    mean = np.zeros((K + 1, model.p))
    var = np.zeros((K + 1, model.p, model.p))
    for k in range(1, K + 1):
        mean[k] = model.A @ mean[k - 1] + model.b
        var[k] = model.A @ var[k - 1] @ model.A.T + conditional_covariance(model, mean[k - 1])
    return mean, var


def mean_vector(model: GwiModel, k: int) -> np.ndarray:
    """E X_k = sum_{j=0}^{k-1} A^j b for the process started at zero."""
    return moment_stream(model, k)[0][k]


@dataclass(frozen=True)
class MeanPolynomial:
    """E X_{k, i} = sum_{m=1}^{p} coeffs[m-1] * binom(k, m) for one coordinate."""

    coordinate: int
    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        for m in range(len(self.coeffs), 0, -1):
            if self.coeffs[m - 1] != 0.0:
                return m
        return 0

    def __call__(self, k: int) -> float:
        # skip the terms with binom(k, m) = 0: an inf coefficient times 0 is nan
        k = int(k)
        return float(sum(c * comb(k, m) for m, c in enumerate(self.coeffs, 1) if m <= k))


def mean_polynomial(model: GwiModel, i: int) -> MeanPolynomial:
    """Binomial-basis coefficients of E X_{k, i} (0-based coordinate ``i``).

    coeffs[m] = (C^m b)_i with C = A - I, formed as C (C^(m-1) b).  Each is a
    sum of products of nonnegative entries, taken with 0 * inf = 0: it reads
    0.0 where the product underflows and inf where it overflows, never nan,
    and no warning is raised.
    """
    if not _lower_unipotent(model.A):
        raise ValidationError("matrix must be square, lower triangular, with unit diagonal")
    if not (0 <= i < model.p):
        raise ValidationError(f"coordinate must be in 0..{model.p - 1}")
    c = np.tril(model.A, -1)
    terms = [model.b]
    with np.errstate(all="ignore"):
        for _ in range(1, model.p):
            terms.append(np.where(c > 0, c * terms[-1], 0.0).sum(axis=1))
    return MeanPolynomial(coordinate=i, coeffs=tuple(float(term[i]) for term in terms))


def conditional_covariance(model: GwiModel, state) -> np.ndarray:
    """var(X_k | X_{k-1} = state) = V^(0) + sum_i state_i V^(i)."""
    state = np.asarray(state, dtype=float)
    if state.shape != (model.p,):
        raise ValidationError(f"state must be a {model.p}-vector")
    out = model.V[0].copy()
    for i in range(model.p):
        out += state[i] * model.V[i + 1]
    return out


def martingale_second_moment(model: GwiModel, k: int) -> np.ndarray:
    """E(M_k M_k^T) = V^(0) + sum_i E(X_{k-1, i}) V^(i), k >= 1."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return conditional_covariance(model, mean_vector(model, k - 1))


def variance_matrix(model: GwiModel, k: int) -> np.ndarray:
    """var(X_k) = sum_{j=0}^{k-1} A^j E(M_{k-j} M_{k-j}^T) (A^T)^j, k >= 1."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return moment_stream(model, k)[1][k]


@dataclass(frozen=True)
class GrowthExponents:
    """Polynomial growth scales of the mean.

    ``degrees[i]`` is one plus the length m of the longest chain
    j_0 -> j_1 -> ... -> j_m = i with every a_{j_(k+1) j_k} > 0;
    E X_{k, i} = O(k^degrees[i]).
    """

    degrees: tuple[int, ...]


def _chain_degrees(a, start) -> np.ndarray:
    """One plus the longest chain of positive entries from a ``start`` type to i.

    0 where no chain reaches i.  Read off boolean products, so no product of
    entries can overflow or underflow into another degree.
    """
    edge = np.tril(np.asarray(a) > 0, -1)
    reach = np.asarray(start, dtype=bool)
    degrees = np.zeros(reach.shape, dtype=int)
    for m in range(1, reach.size + 1):
        degrees[reach] = m
        reach = edge @ reach
    return degrees


def growth_exponents(a, b) -> GrowthExponents:
    """Read the growth degrees off chains of positive entries, from every type."""
    a = np.asarray(a)
    if not _lower_unipotent(a):
        raise ValidationError("matrix must be square, lower triangular, with unit diagonal")
    p = a.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (p,):
        raise ValidationError(f"b must be a {p}-vector")
    if np.any(b < 0):
        raise ValidationError("b must be nonnegative")
    return GrowthExponents(degrees=tuple(_chain_degrees(a, np.ones(p, dtype=bool)).tolist()))


def leading_asymptotic(model: GwiModel, i: int) -> tuple[int, float]:
    """Dominant binomial term of E X_{k, i}: (degree, coefficient).

    E X_{k, i} = coefficient * binom(k, degree) + O(k^(degree - 1)).  The
    degree is one plus the longest chain of positive entries that ends at i
    and starts at a type j with b_j > 0, (0, 0.0) if there is none.  The
    coefficient is the :func:`mean_polynomial` one at that degree, 0.0 if it
    underflows and inf if it overflows.
    """
    poly = mean_polynomial(model, i)
    degree = int(_chain_degrees(model.A, model.b > 0)[i])
    return (degree, poly.coeffs[degree - 1] if degree else 0.0)


def moment_growth_targets(model: GwiModel) -> dict:
    """Target growth exponents for the Monte Carlo growth-fit battery.

    Per coordinate i with mean degree d_i: the cross moment
    |E(M_{k,i} M_{k,j})| grows like k^min(d_i, d_j), the running-sum sup
    square like n^(d_i + 1) and the linearly weighted one like n^(d_i + 3).
    E(M_{k,i}^4) = O(k^2) holds for coordinates whose row of A is a Kronecker
    delta row (they receive offspring from their own type only); other rows
    get no fourth-moment target.
    """
    exps = growth_exponents(model.A, model.b)
    degrees = exps.degrees
    p = model.p
    delta_row = [
        bool(np.all(model.A[i] == np.eye(p)[i])) for i in range(p)
    ]
    return {
        "mean": list(degrees),
        "cross": [[min(degrees[i], degrees[j]) for j in range(p)] for i in range(p)],
        "fourth": [2 if delta_row[i] else None for i in range(p)],
        "sum_sup": [d + 1 for d in degrees],
        "weighted_sum_sup": [d + 3 for d in degrees],
    }
