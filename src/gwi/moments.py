"""Exact moment engine.

Every mean and variance comes from one exact one-step recursion (Quine 1970,
J. Appl. Probab.) for the process started at X_0 = 0:

    E X_k   = A E X_{k-1} + b,
    var X_k = A var X_{k-1} A^T + V^(0) + sum_i E X_{k-1, i} V^(i),

which holds for every mean matrix A.  :func:`moment_stream` runs it once up to
a horizon K, the mean loop first; :func:`mean_vector` runs the mean loop
alone, and :func:`variance_matrix` reads one row.

For a lower triangular A with unit diagonal the nilpotent part C = A - I
satisfies C^p = 0, so every power of A is the finite binomial sum
``A^k = sum_m binom(k, m) C^m``.  One helper, the nilpotent orbit
x, C x, ..., C^(p-1) x of a vector or a matrix x, gives every form in this
binomial basis: the powers of A (x = I), the mean polynomial's coefficients
(C^m b)_i (x = b), and the growth degrees (the orbit of the 0/1 pattern of
positive entries counts chains, the sign rule of ``detect_case``);
``gwi.sde`` reads the limit mean off the orbit of its drift.  Each product
adds only the terms with a nonzero entry of C, so with nonnegative entries
a term that underflows reads 0.0 and one that overflows reads inf, never
nan.  Binomial coefficients are exact Python integers; integer-valued
matrices are computed in exact integer arithmetic, float matrices in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ValidationError
from .model import GwiModel, _lower_unipotent
from .simulate import _integer

__all__ = [
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


def _nilpotent_orbit(n, x) -> list[np.ndarray]:
    """[x, N x, ..., N^(p-1) x] for a strictly lower triangular p x p ``n``.

    ``x`` is a p-vector or a p x q matrix.  Each product adds only the terms
    N_ij x_j with N_ij != 0, under ``np.errstate(all="ignore")``: with
    nonnegative entries a term that underflows reads 0.0 and one that
    overflows reads inf, never nan, and nothing warns.  Object arrays of
    Python ints stay exact.
    """
    n = np.asarray(n)
    n = n.reshape(n.shape + (1,) * (np.ndim(x) - 1))  # N_ij against row j of a matrix x
    orbit = [x]
    with np.errstate(all="ignore"):
        for _ in range(1, n.shape[0]):
            orbit.append(np.where(n != 0, n * orbit[-1], 0).sum(axis=1))
    return orbit


def unipotent_power(a, k: int) -> np.ndarray:
    """A^k = sum_{m=0}^{p-1} binom(k, m) (A - I)^m of a lower-unipotent A, k >= 1.

    Integer input stays exact (object dtype holding Python ints); float input
    uses float64, where an entry that overflows reads inf.
    """
    k = _integer(k, "k", 1)
    arr = np.asarray(a)
    if not _lower_unipotent(arr):
        raise ValidationError("matrix must be square, lower triangular, with unit diagonal")
    exact = arr.dtype == object or np.issubdtype(arr.dtype, np.integer)
    arr = np.frompyfunc(int, 1, 1)(arr) if exact else arr.astype(float)  # Python ints or float64
    powers = _nilpotent_orbit(np.tril(arr, -1), np.eye(len(arr), dtype=arr.dtype))
    # binom(k, m) = 0 for m > k: those terms are left out, as an inf times 0 is nan
    with np.errstate(over="ignore"):
        return sum(comb(k, m) * power for m, power in enumerate(powers[: k + 1]))


def _mean_rows(model: GwiModel, K: int) -> np.ndarray:
    """E X_k for k = 0..K, shape (K+1, p), X_0 = 0."""
    K = _integer(K, "K", 0)
    mean = np.zeros((K + 1, model.p))
    for k in range(1, K + 1):
        mean[k] = model.A @ mean[k - 1] + model.b
    return mean


def moment_stream(model: GwiModel, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(E X_k, var X_k) for k = 0..K, shapes (K+1, p) and (K+1, p, p), X_0 = 0."""
    mean = _mean_rows(model, K)
    var = np.zeros(mean.shape + (model.p,))
    for k in range(1, len(mean)):
        var[k] = model.A @ var[k - 1] @ model.A.T + conditional_covariance(model, mean[k - 1])
    return mean, var


def mean_vector(model: GwiModel, k: int) -> np.ndarray:
    """E X_k = sum_{j=0}^{k-1} A^j b for the process started at zero."""
    return _mean_rows(model, k)[k]


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
        k = _integer(k, "k", 0)
        return float(sum(c * comb(k, m) for m, c in enumerate(self.coeffs, 1) if m <= k))


def mean_polynomial(model: GwiModel, i: int) -> MeanPolynomial:
    """Binomial-basis coefficients of E X_{k, i} (0-based coordinate ``i``).

    coeffs[m] = (C^m b)_i with C = A - I, the nilpotent orbit of b: it reads
    0.0 where a product underflows and inf where it overflows, never nan,
    and no warning is raised.
    """
    if not _lower_unipotent(model.A):
        raise ValidationError("matrix must be square, lower triangular, with unit diagonal")
    i = _integer(i, "coordinate")
    if not 0 <= i < model.p:
        raise ValidationError(f"coordinate must be in 0..{model.p - 1}")
    terms = _nilpotent_orbit(np.tril(model.A, -1), model.b)
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
    return conditional_covariance(model, mean_vector(model, _integer(k, "k", 1) - 1))


def variance_matrix(model: GwiModel, k: int) -> np.ndarray:
    """var(X_k) = sum_{j=0}^{k-1} A^j E(M_{k-j} M_{k-j}^T) (A^T)^j, k >= 1."""
    k = _integer(k, "k", 1)
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

    0 where no chain reaches i.  Read off the nilpotent orbit of the 0/1
    pattern of positive entries, whose entries count chains, so no product of
    entries can overflow or underflow into another degree.
    """
    edge = np.tril(np.asarray(a) > 0, -1).astype(float)
    degrees = np.zeros(len(start), dtype=int)
    for m, chains in enumerate(_nilpotent_orbit(edge, np.asarray(start, dtype=float)), 1):
        degrees[chains > 0] = m
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
