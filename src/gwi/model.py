"""Branching-with-immigration models and their structural classification.

A :class:`GwiModel` bundles the per-type offspring laws and the immigration
law of a p-type branching process with immigration, together with the derived
exact first/second-moment parameters: the offspring mean matrix ``A`` (column
i is the mean offspring vector of a type-i individual), the immigration mean
vector ``b``, and the covariance matrices ``V[0] = var(immigration)``,
``V[i] = var(offspring of type i)``.

The module also computes one reachability closure of the type digraph and
reads from it both accessibility and the reducible normal form (block lower
triangular with irreducible diagonal blocks).  It classifies criticality by
the spectral radii of those blocks, and detects which of the four
sub-diagonal sign patterns a 3-type lower-unipotent mean matrix falls into.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .distributions import DistributionSpec, Geometric, Poisson, spec_from_dict
from .errors import ValidationError

__all__ = [
    "GwiModel",
    "CaseId",
    "NormalForm",
    "build_model",
    "classify_criticality",
    "spectral_radius",
    "reducible_normal_form",
    "is_strongly_critical",
    "detect_case",
    "accessible",
    "load_model",
    "save_model",
]

ZERO_TOL = 1e-12
_CRIT_TOL = 1e-8


def _check_square_nonneg(a, name: str = "A") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"{name} must be a nonempty square matrix")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be entrywise nonnegative")
    return arr


def _lower_unipotent(a) -> bool:
    """True iff ``a`` is square with |diag - 1| <= ZERO_TOL and |upper| <= ZERO_TOL."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if np.any(np.abs(np.diag(a) - 1.0) > ZERO_TOL):
        return False
    return not np.any(np.abs(np.triu(a, 1)) > ZERO_TOL)


@dataclass(frozen=True, eq=False)
class GwiModel:
    """Immutable model: offspring specs per type, immigration spec, derived moments."""

    offspring: tuple[DistributionSpec, ...]
    immigration: DistributionSpec
    A: np.ndarray
    b: np.ndarray
    V: tuple[np.ndarray, ...]

    @property
    def p(self) -> int:
        return self.b.size

    @cached_property
    def poisson_mixture(self):
        """How one generation splits into its Poisson variates and per-law draws.

        Returns ``(R, c, mixed, other)``.  Column i of R is the rate vector of
        type i if its offspring law is Poisson and zero otherwise, and c is
        the immigration rate vector if that law is Poisson and zero
        otherwise, so R = A and c = b for an all-Poisson model.  ``mixed``
        lists the Geometric laws and ``other`` the remaining ones, each as
        ``(law, i)`` in type order, with i = None for the immigration law
        last.  R and c are None when no law is Poisson or Geometric.
        """
        laws = (*((law, i) for i, law in enumerate(self.offspring)), (self.immigration, None))
        mixed = tuple(entry for entry in laws if isinstance(entry[0], Geometric))
        other = tuple(entry for entry in laws if not isinstance(entry[0], (Poisson, Geometric)))
        if len(other) == len(laws):
            return None, None, mixed, other

        def rate(law):
            return law.lam if isinstance(law, Poisson) else np.zeros(self.p)

        return np.column_stack([rate(law) for law in self.offspring]), rate(self.immigration), mixed, other

    def is_lower_unipotent(self) -> bool:
        return _lower_unipotent(self.A)

    def to_dict(self):
        return {
            "p": self.p,
            "offspring": [s.to_dict() for s in self.offspring],
            "immigration": self.immigration.to_dict(),
        }


def build_model(offspring_specs, immigration_spec: DistributionSpec) -> GwiModel:
    """Derive A, b and V^(0..p) in closed form from the distribution specs.

    Column i of A is the mean of offspring spec i; b is the immigration mean.
    Verifies dimensional consistency, that every mean and covariance is
    finite (a law such as Geometric(5e-324) overflows them), and the
    structural-zero invariant: a zero mean entry of a nonnegative integer law
    forces the coordinate to be a.s. zero, hence the matching row/column of
    its covariance must vanish.
    """
    offspring = tuple(offspring_specs)
    if not offspring:
        raise ValidationError("need at least one offspring spec")
    p = len(offspring)
    for i, spec in enumerate(offspring):
        if spec.dim != p:
            raise ValidationError(
                f"offspring spec {i} emits {spec.dim}-dim vectors, expected {p}"
            )
    if immigration_spec.dim != p:
        raise ValidationError(
            f"immigration spec emits {immigration_spec.dim}-dim vectors, expected {p}"
        )

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        A = np.column_stack([spec.mean() for spec in offspring])
        b = immigration_spec.mean().copy()
        V = [immigration_spec.cov()] + [spec.cov() for spec in offspring]
    for name, mean, cov in [("immigration spec", b, V[0])] + [
        (f"offspring spec {j}", A[:, j], V[j + 1]) for j in range(p)
    ]:
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError(f"{name} has a mean or covariance that is not finite")

    for j, spec in enumerate(offspring):
        zero_rows = np.flatnonzero(A[:, j] == 0.0)
        cov = V[j + 1]
        if np.any(np.abs(cov[zero_rows, :]) > ZERO_TOL) or np.any(
            np.abs(cov[:, zero_rows]) > ZERO_TOL
        ):
            raise ValidationError(
                f"offspring spec {j} puts mass on a coordinate whose mean entry is zero"
            )
    for cov in V:
        if np.min(np.linalg.eigvalsh((cov + cov.T) / 2.0)) < -1e-9:
            raise ValidationError("covariance matrix is not positive semidefinite")

    A.setflags(write=False)
    b.setflags(write=False)
    for cov in V:
        cov.setflags(write=False)
    return GwiModel(offspring=offspring, immigration=immigration_spec, A=A, b=b, V=tuple(V))


def _block_radii(a) -> list[float]:
    """Perron root of each irreducible diagonal block of the normal form, in order."""
    return [
        float(np.max(np.abs(np.linalg.eigvals(block))))
        for block in reducible_normal_form(a).blocks()
    ]


def spectral_radius(a) -> float:
    """Spectral radius of a nonnegative square matrix.

    The largest Perron root over the irreducible diagonal blocks of the
    reducible normal form, each taken from ``np.linalg.eigvals``; a
    triangular matrix has 1x1 blocks, so its radius is read off the diagonal
    exactly.
    """
    return max(_block_radii(a))


def classify_criticality(a) -> str:
    """Return 'subcritical', 'critical' or 'supercritical' by spectral radius vs 1."""
    rho = spectral_radius(a)
    if abs(rho - 1.0) <= _CRIT_TOL:
        return "critical"
    return "subcritical" if rho < 1.0 else "supercritical"


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Permutation to block lower triangular form with irreducible diagonal blocks.

    ``permutation[new] = old``: applying it as ``A[perm][:, perm]`` gives
    ``matrix``.  ``block_sizes`` lists the irreducible diagonal block sizes in
    order; ``n_blocks == 1`` with the identity permutation iff A is irreducible.
    """

    permutation: tuple[int, ...]
    block_sizes: tuple[int, ...]
    matrix: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    def blocks(self):
        """Diagonal blocks of the permuted matrix, in order."""
        out = []
        start = 0
        for size in self.block_sizes:
            out.append(self.matrix[start : start + size, start : start + size])
            start += size
        return out


def _reach(a: np.ndarray) -> np.ndarray:
    """Boolean matrix: ``reach[i, j]`` iff type j is reachable from type i.

    Reachability means (A^l)[j, i] > 0 for some l in 1..p; paths of length at
    most p suffice, so p - 1 boolean products of the edge matrix give it.
    """
    edge = (a > 0).T
    reach = edge.copy()
    for _ in range(a.shape[0] - 1):
        reach |= reach @ edge
    return reach


def reducible_normal_form(a) -> NormalForm:
    """Normal form of a nonnegative matrix by its communicating classes.

    Types i, j communicate iff each is reachable from the other (see
    :func:`accessible`).  The classes are placed one at a time: next comes
    the class with the smallest original index among those that no unplaced
    class reaches, so producers precede their descendants' classes and the
    permuted matrix is block lower triangular.
    """
    a = _check_square_nonneg(a)
    p = a.shape[0]
    reach = _reach(a)
    same = reach & reach.T | np.eye(p, dtype=bool)
    reached = reach & ~same
    placed = np.zeros(p, dtype=bool)
    classes: list[np.ndarray] = []
    while not placed.all():
        free = ~placed & ~reached[~placed].any(axis=0)
        members = np.flatnonzero(same[np.argmax(free)])
        classes.append(members)
        placed[members] = True

    permutation = tuple(int(idx) for members in classes for idx in members)
    block_sizes = tuple(len(members) for members in classes)
    perm = np.asarray(permutation)
    matrix = a[np.ix_(perm, perm)]
    matrix.setflags(write=False)
    return NormalForm(permutation=permutation, block_sizes=block_sizes, matrix=matrix)


def is_strongly_critical(a) -> bool:
    """True iff every irreducible diagonal block of the normal form has radius 1."""
    return all(abs(rho - 1.0) <= _CRIT_TOL for rho in _block_radii(a))


@dataclass(frozen=True)
class CaseId:
    """One of the four sub-diagonal sign patterns, with a normalizing permutation.

    ``permutation[new] = old`` (0-based): the process with coordinates
    reordered by it has a mean matrix matching pattern ``value`` exactly.
    The permutation is the identity except for the two patterns that
    normalize to pattern 2 (only a32 > 0: swap types 1 and 2; only
    a21 > 0: swap types 2 and 3).
    """

    value: int
    permutation: tuple[int, int, int] = (0, 1, 2)

    def __post_init__(self):
        if self.value not in (1, 2, 3, 4):
            raise ValidationError(f"case must be 1..4, got {self.value}")
        if sorted(self.permutation) != [0, 1, 2]:
            raise ValidationError("permutation must be a bijection of {0, 1, 2}")

    @property
    def is_identity(self) -> bool:
        return self.permutation == (0, 1, 2)

    def apply_matrix(self, a) -> np.ndarray:
        """P A P^T for the stored permutation."""
        a = np.asarray(a, dtype=float)
        perm = np.asarray(self.permutation)
        return a[np.ix_(perm, perm)]

    def apply_vector(self, v) -> np.ndarray:
        return np.asarray(v)[np.asarray(self.permutation)]


def detect_case(a) -> CaseId:
    """Classify a 3x3 lower-unipotent mean matrix into patterns 1-4.

    An entry is present when it is strictly positive, as in the growth
    degrees; ``ZERO_TOL`` bounds only the diagonal and the upper entries.
    The two sign patterns not in the table (only a32 positive, only a21
    positive) are normalized to pattern 2 by the returned coordinate swap.
    """
    a = _check_square_nonneg(a)
    if a.shape != (3, 3):
        raise ValidationError("detect_case needs a 3x3 matrix")
    if not _lower_unipotent(a):
        raise ValidationError("matrix must be lower triangular with unit diagonal")

    a21, a31, a32 = a[1, 0] > 0, a[2, 0] > 0, a[2, 1] > 0
    if not a21 and not a31 and not a32:
        return CaseId(1)
    if not a21 and a31:
        return CaseId(2)
    if a21 and a31 and not a32:
        return CaseId(3)
    if a21 and a32:
        return CaseId(4)
    if not a21 and not a31 and a32:
        return CaseId(2, permutation=(1, 0, 2))
    # a21 only
    return CaseId(2, permutation=(0, 2, 1))


def accessible(a, i: int, j: int) -> bool:
    """True iff type ``j`` (0-based) is reachable from type ``i``.

    Reachability means (A^l)[j, i] > 0 for some l in 1..p.
    """
    a = _check_square_nonneg(a)
    p = a.shape[0]
    if not (0 <= i < p and 0 <= j < p):
        raise ValidationError(f"type indices must be in 0..{p - 1}")
    return bool(_reach(a)[i, j])


def load_model(path) -> GwiModel:
    """Read a model from its JSON file form (see README for the schema)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(payload)


def model_from_dict(payload: dict) -> GwiModel:
    try:
        offspring = [spec_from_dict(s) for s in payload["offspring"]]
        immigration = spec_from_dict(payload["immigration"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from exc
    model = build_model(offspring, immigration)
    declared = payload.get("p")
    if declared is not None and declared != model.p:
        raise ValidationError(f"declared p={declared} but specs are {model.p}-dimensional")
    return model


def save_model(model: GwiModel, path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2) + "\n")
