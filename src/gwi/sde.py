"""Limit diffusion systems of 3-type lower-unipotent processes, and their means.

Every limit system is one affine diffusion from zero (Duffie, Filipovic &
Schachermayer 2003), dX = (beta + B X) dt + diag(sqrt(v_i X_i)) dW with
independent W_i.  With d = ``growth_exponents(A, b).degrees`` the growth
degrees of the normalized mean matrix A, beta_i = b_i and v_i are kept where
d_i = 1 and 0 elsewhere, and B_ij = a_ij where d_j = d_i - 1, else 0.  So X_i
is a squared Bessel process if d_i = 1, and otherwise
X_i = int_0^t sum_j B_ij X_j(s) ds.  Applied twice, this gives the 2-fold
iterated integral of pattern 4, which also has the kernel forms (t - s) and
(t - s)^2 / 2 (see :func:`kernel_representation_check`).  The limit mean is
E X_i(t) = c_i t^(d_i) / d_i! with c = beta + B c (B is nilpotent).

One streaming kernel integrates every triple on a time grid.  Rows with
v_i > 0 take Euler-Maruyama squared Bessel steps (the positive part sits
inside the square root exactly as in the SDE, and each step is clamped at
zero so paths stay nonnegative); every other row, constant or integral, takes
the trapezoid of beta_i + sum_j B_ij X_j.  A lone squared Bessel process is
coordinate 0 of ``LimitSystem(case=1, b=(b, 0, 0), v=(v, 0, 0))``: a zero
``v`` draws nothing.

The kernel runs in blocks of steps.  Each block draws the normals of its k
squared Bessel coordinates with v > 0 in one
``rng.standard_normal((steps, k, n_paths))`` call.  Its C order (step, then
coordinate, then path) is the order in which step-by-step draws would come,
so a seed gives the same paths whatever the block length.  A block holds at
most 64 KiB of normals (at least one step) and p / k times that of states,
so memory does not grow with the number of steps beyond the recorded output.

The squared Bessel marginal at time t started from zero is
Gamma(shape 2 b / v, scale v t / 2), which serves as the exact reference law
for distributional tests on the first coordinate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLawError, OverflowGuardError, ValidationError
from .model import GwiModel, detect_case
from .moments import growth_exponents
from .simulate import _integer, _prefix_sums, check_seed

__all__ = [
    "AffineTriple",
    "LimitSystem",
    "SdePath",
    "GammaLaw",
    "KernelResiduals",
    "make_grid",
    "simulate_limit_system",
    "limit_system_marginals",
    "limit_mean_vector",
    "exact_first_coordinate_law",
    "kernel_representation_check",
]


class AffineTriple(NamedTuple):
    """dX = (beta + B X) dt + diag(sqrt(v_i X_i)) dW, as read-only float arrays."""

    beta: np.ndarray
    B: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class LimitSystem:
    """Drift/diffusion parameters of one limit system.

    ``b[i]`` is the immigration mean of coordinate i+1, ``v[i]`` the offspring
    variance of type i+1 in its own coordinate; a21/a31/a32 are the
    sub-diagonal mean-matrix entries, whose sign pattern must be pattern
    ``case`` without a coordinate swap (an entry counts when it is strictly
    positive).  Derived at construction: ``exponents`` holds the growth
    degrees d of the mean matrix (the scaling exponents of the pattern), and
    ``affine`` the triple (beta, B, v) of the module docstring, which ``==``
    and ``hash`` leave out.
    """

    case: int
    b: tuple[float, float, float]
    v: tuple[float, float, float]
    a21: float = 0.0
    a31: float = 0.0
    a32: float = 0.0
    exponents: tuple[int, int, int] = field(init=False)
    affine: AffineTriple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        params = (*self.b, *self.v, self.a21, self.a31, self.a32)
        if not all(math.isfinite(x) and x >= 0 for x in params):
            raise ValidationError("all limit-system parameters must be finite and nonnegative")
        a = np.eye(3)
        a[1, 0], a[2, 0], a[2, 1] = self.a21, self.a31, self.a32
        cid = detect_case(a)
        if cid.value != self.case or not cid.is_identity:
            raise ValidationError(
                f"(a21, a31, a32) = ({self.a21}, {self.a31}, {self.a32}) "
                f"does not match pattern {self.case}"
            )
        degrees = growth_exponents(a, self.b).degrees
        besq = np.array(degrees) == 1
        chain = np.subtract.outer(degrees, degrees) == 1  # d_i = d_j + 1
        kept = ((besq, self.b), (chain, a), (besq, self.v))
        affine = AffineTriple(*(np.where(mask, np.asarray(x, dtype=float), 0.0) for mask, x in kept))
        for array in affine:
            array.setflags(write=False)
        object.__setattr__(self, "exponents", degrees)
        object.__setattr__(self, "affine", affine)

    @classmethod
    def from_model(cls, model: GwiModel) -> "LimitSystem":
        """Derive the limit system of a 3-type lower-unipotent model.

        Applies the normalizing coordinate permutation first when the model's
        sign pattern needs one, so the returned system always refers to the
        normalized coordinate order.
        """
        if model.p != 3:
            raise ValidationError("limit systems are defined for 3-type models")
        cid = detect_case(model.A)
        a = cid.apply_matrix(model.A).tolist()
        b = tuple(cid.apply_vector(model.b).tolist())
        v = tuple(float(model.V[i + 1][i, i]) for i in cid.permutation)
        return cls(case=cid.value, b=b, v=v, a21=a[1][0], a31=a[2][0], a32=a[2][1])


@dataclass(frozen=True, eq=False)
class SdePath:
    """Simulated paths on a grid: ``values[path, time, coordinate]``."""

    grid: np.ndarray
    values: np.ndarray
    seed: int


class GammaLaw(NamedTuple):
    shape: float
    scale: float


def make_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ..., covering [0, horizon] in fewer than 2**53 steps."""
    if not (math.isfinite(horizon) and dt > 0 and horizon > 0):
        raise ValidationError("horizon and dt must be positive and finite")
    if not horizon / dt < 2**53:
        raise ValidationError(f"horizon / dt = {horizon / dt:.6g} steps, more than 2**53")
    steps = int(round(horizon / dt))
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        steps = int(np.ceil(horizon / dt))
    return np.linspace(0.0, steps * dt, steps + 1)


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid needs at least two points")
    if grid[0] != 0.0:
        raise ValidationError("grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid steps must be positive")
    return grid


# A block of steps holds at most this many bytes of normals (and at least one
# step); its states take p / k times as much for k squared Bessel coordinates.
_BLOCK_BYTES = 64 * 1024


def _flow(terms, x: np.ndarray) -> np.ndarray:
    """sum_j B_ij X_j over one row's nonzero terms (j, B_ij), added in order of j.

    ``x`` holds states as (step, coordinate, path); the result is (step, path),
    or a (step, 1) column of zeros for a row with no terms.
    """
    if not terms:
        return np.zeros((x.shape[0], 1))
    (j, a), *rest = terms
    total = a * x[:, j]
    for j, a in rest:
        total = total + a * x[:, j]
    return total


def _running_sum(path: np.ndarray) -> None:
    """Add each row of a (steps + 1, paths) block to the next, in step order.

    One ``np.add.accumulate`` call runs along each path, so it pays per path;
    one add per step pays per step.  The cheaper loop is taken; both make the
    same additions in the same order.
    """
    steps = path.shape[0] - 1
    if 32 * steps >= path.shape[1]:
        np.add.accumulate(path, axis=0, out=path)
    else:
        for s in range(steps):
            np.add(path[s], path[s + 1], out=path[s + 1])


def _per_row(values: list) -> np.ndarray:
    """One value per squared Bessel row as a ufunc operand: a 0-d array when the
    values agree (the cheapest operand to broadcast), a column otherwise."""
    return np.array(values[0] if len(set(values)) == 1 else [[x] for x in values], dtype=float)


def _integrate(beta, B, v, dts: np.ndarray, record_at, n_paths: int, rng) -> np.ndarray:
    """Stream the affine system (beta, B, v) from X(0) = 0 over the time steps ``dts``.

    Returns the states after the steps listed in ``record_at`` (0 is the
    start), shape (n_paths, len(record_at), p).  The rows with v_i > 0 take
    squared Bessel steps with drift beta_i, together and in place, drawing
    n_paths normals each per step in coordinate order; their row of B must be
    zero, as in every :class:`LimitSystem`.  Every other row adds the
    trapezoid of beta_i + sum_j B_ij X_j per step.

    Steps run in blocks of at most ``_BLOCK_BYTES`` of normals.  A block
    draws them with one ``standard_normal((steps, k, n_paths))`` call, the
    same stream as k draws per step, and every other row forms its
    increments once per block and adds them as a running sum.  Only one
    block of states is held.

    The steps run with numpy's floating-point overflow and invalid-operation
    errors raised, so a path that leaves the finite floats raises
    :class:`OverflowGuardError` instead of being returned; this adds no
    reduction per step.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _kernel(beta, B, v, dts, record_at, n_paths, rng)
    except FloatingPointError as exc:
        raise OverflowGuardError(f"limit-system path left the finite floats: {exc}") from exc


def _kernel(beta, B, v, dts: np.ndarray, record_at, n_paths: int, rng) -> np.ndarray:
    """The body of :func:`_integrate`, run under its error state."""
    n_paths = _integer(n_paths, "n_paths", 1)
    beta, B, v = (np.asarray(c, dtype=float).tolist() for c in (beta, B, v))
    p = len(beta)
    drawn = [i for i in range(p) if v[i] > 0]
    # each other row's drift: beta_i and the nonzero terms (j, B_ij), built once per call
    drifts = [(i, beta[i], [(j, a) for j, a in enumerate(B[i]) if a]) for i in range(p) if i not in drawn]
    k = len(drawn)
    # any subset of three rows is evenly spaced, so one slice selects them
    stride = drawn[1] - drawn[0] if k > 1 else 1
    rows = slice(drawn[0], drawn[-1] + 1, stride) if drawn else slice(0)
    v_rows, b_rows = (_per_row([c[i] for i in drawn]) for c in (v, beta))
    zero = np.zeros(())
    steps = dts.size
    block = max(1, min(steps, _BLOCK_BYTES // (8 * n_paths * max(k, 1))))
    states = np.zeros((block + 1, p, n_paths))
    normals = np.empty((block, k, n_paths))
    scaled = np.empty((k, n_paths))
    besq = states[:, rows]
    recorded = sorted((m, pos) for pos, m in enumerate(record_at) if m > 0)
    record_steps = [m for m, _ in recorded]
    out = np.zeros((n_paths, len(record_at), p))
    done = first = 0
    while done < steps:
        size = min(block, steps - done)
        h = dts[done : done + size]
        x = states[: size + 1]
        if drawn:
            rng.standard_normal(out=normals[:size])
            drift = np.multiply.outer(h, b_rows)
            for now, nxt, dt, z, b_dt in zip(besq, besq[1:], h.tolist(), normals, drift):
                # states are clamped at +0, so X is max(X, 0) under the root
                np.multiply(now, v_rows, out=scaled)
                scaled *= dt
                np.sqrt(scaled, out=scaled)
                scaled *= z
                np.add(now, b_dt, out=nxt)
                nxt += scaled
                np.maximum(nxt, zero, out=nxt)
        half = (0.5 * h)[:, None]
        for i, beta_i, terms in drifts:
            # the trapezoid of beta_i + sum_j B_ij X_j is that of the sum plus beta_i h;
            # beta_i is added only where it is nonzero, so integral rows pay no pass for it
            path = x[:, i]
            flow = _flow(terms, x)
            np.multiply(half, flow[:-1] + flow[1:], out=path[1:])
            if beta_i:
                path[1:] += (beta_i * h)[:, None]
            _running_sum(path)
        last = bisect.bisect_right(record_steps, done + size, first)
        while first < last:  # copy each run of consecutive steps to consecutive slots
            m, pos = recorded[first]
            run = 1
            while first + run < last and recorded[first + run] == (m + run, pos + run):
                run += 1
            for i in range(p):
                out[:, pos : pos + run, i] = x[m - done : m - done + run, i].T
            first += run
        done += size
        states[0] = states[size]
    return out


def simulate_limit_system(
    system: LimitSystem, grid, seed: int | np.random.SeedSequence, *, n_paths: int = 1
) -> SdePath:
    """Simulate the 3-coordinate limit system on a grid, all paths stored."""
    grid = _check_grid(grid)
    seed = check_seed(seed)
    values = _integrate(
        *system.affine, np.diff(grid), range(grid.size), n_paths, np.random.default_rng(seed)
    )
    return SdePath(grid=grid, values=values, seed=seed)


def _grid_indices(t_points, dt: float) -> np.ndarray:
    t_points = np.asarray(t_points, dtype=float)
    if t_points.ndim != 1 or t_points.size == 0 or np.any(t_points < 0):
        raise ValidationError("t_points must be nonnegative and nonempty")
    if not (dt > 0 and math.isfinite(dt)):  # inf would pass the check below: 0 * inf is nan
        raise ValidationError("dt must be positive and finite")
    indices = np.round(t_points / dt).astype(int)
    if np.any(np.abs(indices * dt - t_points) > 1e-9):
        raise ValidationError("every t point must lie on the dt grid")
    return indices


def limit_system_marginals(
    system: LimitSystem, t_points, dt: float, n_paths: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Marginals of the limit system at ``t_points``, shape (n_paths, nt, 3).

    Streaming uniform-grid simulation; every requested time must sit on the
    grid (within 1e-9).
    """
    indices = _grid_indices(t_points, dt).tolist()
    seed = check_seed(seed)
    return _integrate(
        *system.affine, np.full(max(indices), dt, dtype=float), indices, n_paths, np.random.default_rng(seed)
    )


def limit_mean_vector(system: LimitSystem, t: float) -> np.ndarray:
    """Closed-form E[X_t] = c_i t^(d_i) / d_i! of the limit system.

    c solves c = beta + B c by forward substitution over the lower triangular
    B, adding the nonzero terms B_ij c_j to beta_i in order of j.
    """
    if not 0 <= t < math.inf:
        raise ValidationError(f"t must be finite and nonnegative, not {t!r}")
    c: list[float] = []
    for beta_i, row in zip(system.affine.beta.tolist(), system.affine.B.tolist()):
        for b_ij, c_j in zip(row, c):
            if b_ij:
                beta_i = beta_i + b_ij * c_j
        c.append(beta_i)
    return np.array([ci * t**d / math.factorial(d) for ci, d in zip(c, system.exponents)])


def exact_first_coordinate_law(b: float, v: float, t: float) -> GammaLaw:
    """Gamma(shape 2b/v, scale vt/2): the zero-start squared Bessel marginal.

    b and v must be finite and nonnegative, t finite and positive; v = 0 or
    b = 0 raises :class:`DegenerateLawError` carrying the point mass the law
    collapses to.
    """
    if not 0 < t < math.inf:
        raise ValidationError(f"t must be finite and positive, not {t!r}")
    if not (0 <= b < math.inf and 0 <= v < math.inf):
        raise ValidationError(f"b and v must be finite and nonnegative, not b = {b!r}, v = {v!r}")
    if v == 0:
        raise DegenerateLawError(
            f"v = {v}: the path is deterministic, X(t) = b*t", point_mass=b * t
        )
    if b == 0:
        raise DegenerateLawError(
            "b = 0: started from zero the process is absorbed at zero", point_mass=0.0
        )
    return GammaLaw(shape=2.0 * b / v, scale=v * t / 2.0)


@dataclass(frozen=True)
class KernelResiduals:
    """Pairwise gaps between equivalent discretizations of the integral coordinates.

    ``second_coordinate``: |a21 int_0^t X ds  -  a21 int_0^t (t-s) dX|.
    The three third-coordinate values compare the iterated integral, the
    (t - s)-kernel integral and the (t - s)^2/2 Stieltjes integral, all scaled
    by a32*a21.  ``path_sup`` is sup |X| on [0, t], for tolerance budgets of
    the form C * dt * path_sup.
    """

    second_coordinate: float
    iterated_vs_kernel: float
    iterated_vs_stieltjes: float
    kernel_vs_stieltjes: float
    path_sup: float


def kernel_representation_check(
    path: np.ndarray, grid, t: float, a21: float, a32: float
) -> KernelResiduals:
    """Cross-check the three representations of the iterated-integral coordinate.

    ``path`` holds first-coordinate values on ``grid``; ``t`` must be a grid
    point.  Time integrals use the trapezoidal rule; integrals against dX use
    the left-point (non-anticipating) Stieltjes sum.
    """
    grid = _check_grid(grid)
    path = np.asarray(path, dtype=float)
    if path.shape != grid.shape:
        raise ValidationError("path and grid must have equal length")
    hits = np.flatnonzero(np.abs(grid - t) <= 1e-12)
    if hits.size == 0:
        raise ValidationError(f"t = {t} is not a grid point")
    idx = int(hits[0])
    s = grid[: idx + 1]
    x = path[: idx + 1]
    dx = np.diff(x)

    single_trap = np.trapezoid(x, s)
    single_stieltjes = np.sum((t - s[:-1]) * dx)

    running = _prefix_sums((0.5 * np.diff(s) * (x[:-1] + x[1:])).tolist(), 1)[1]
    iterated = np.trapezoid(running, s)
    kernel = np.trapezoid((t - s) * x, s)
    stieltjes2 = 0.5 * np.sum((t - s[:-1]) ** 2 * dx)

    c2 = a32 * a21
    return KernelResiduals(
        second_coordinate=abs(a21 * (single_trap - single_stieltjes)),
        iterated_vs_kernel=abs(c2 * (iterated - kernel)),
        iterated_vs_stieltjes=abs(c2 * (iterated - stieltjes2)),
        kernel_vs_stieltjes=abs(c2 * (kernel - stieltjes2)),
        path_sup=float(np.max(np.abs(x))),
    )
