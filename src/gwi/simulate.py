"""Trajectory simulation, martingale increments, and exact sum identities.

The branching recursion draws, for each generation, the summed offspring of
every individual of each type plus one immigration vector:

    X_k = sum_i sum_{j <= X_{k-1, i}} xi_{k, j, i} + eps_k.

One kernel runs it: :func:`step_ensemble` advances a batch of replicas one
generation in lock-step, and one loop calls it once per generation.  The
kernel has two seeding schemes.  One generator for the batch:
:func:`stream_ensemble` yields X_0, ..., X_steps of a batch drawn from a
single generator with vectorized draws, and :func:`simulate_ensemble`
records chosen generations of it, the fast path for large Monte Carlo
estimates.  One generator per row: :func:`simulate_replicas` steps replicas
0..R-1 together, but row r draws only from the generator seeded by
``SeedSequence(entropy=seed, spawn_key=(r,))``, so each replica depends only
on its seeds and not on which other replicas run; :func:`simulate_trajectory`
is its one-replica case.  Both are deterministic given their seeds.

The path decomposition's array ``w[i, m]`` (W_m of type i), the sum identities
and the step integrals of ``gwi.harness`` all read one m-fold exclusive prefix
sum, :func:`_prefix_sums`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from .distributions import _draw, _sampler
from .errors import ConsistencyError, OverflowGuardError, ValidationError
from .model import GwiModel

__all__ = [
    "Trajectory",
    "simulate_trajectory",
    "simulate_replicas",
    "step_ensemble",
    "stream_ensemble",
    "simulate_ensemble",
    "martingale_increments",
    "decomposition_components",
    "weighted_sum_identity_1",
    "weighted_sum_identity_2",
    "weighted_sum_identity_3",
]

_OVERFLOW_LIMIT = 2**63 - 1
# draws of summed offspring stay exact (and numpy-representable) well below this
_SAFE_LIMIT = 2**53


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Generation-indexed path of nonnegative integer state vectors.

    ``states[k]`` is X_k for k = 0..K; ``seed``/``replica`` identify the RNG
    stream that produced it.
    """

    states: np.ndarray
    seed: int
    replica: int
    model: GwiModel

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` if given.

    Python and numpy integers pass, floats do not.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, not {value}")
    return value


def check_seed(seed, name: str = "seed", *, sequence: bool = True):
    """``seed`` as a nonnegative int, or unchanged if it is a ``SeedSequence``.

    numpy integer scalars pass.  With ``sequence=False`` the value must be an
    integer, for callers that use it as ``SeedSequence`` entropy or spawn key.
    """
    if sequence and isinstance(seed, np.random.SeedSequence):
        return seed
    return _integer(seed, name, 0)


def _nonnegative_integers(arr: np.ndarray, message: str) -> np.ndarray:
    """``arr`` as int64 if every entry is a nonnegative integer below 2**63.

    nan and inf fail the test, as do strings and other non-numbers.
    """
    if arr.dtype.kind not in "biuf" or not np.all(
        (arr >= 0) & (arr == np.floor(arr)) & (arr < 2.0**63)
    ):
        raise ValidationError(message)
    return arr.astype(np.int64)


def _check_initial(model: GwiModel, initial) -> np.ndarray:
    if initial is None:
        return np.zeros(model.p, dtype=np.int64)
    arr = np.asarray(initial)
    message = f"initial state must be a nonnegative integer {model.p}-vector"
    if arr.shape != (model.p,):
        raise ValidationError(message)
    return _nonnegative_integers(arr, message)


def simulate_trajectory(
    model: GwiModel,
    steps: int,
    seed: int,
    *,
    replica: int = 0,
    initial=None,
) -> Trajectory:
    """Simulate X_0..X_steps; deterministic given (model, steps, seed, replica).

    The trajectory is one row drawn from the generator seeded by
    ``SeedSequence(entropy=seed, spawn_key=(replica,))``, the one-replica
    case of :func:`simulate_replicas`.  Raises :class:`OverflowGuardError`
    once a coordinate exceeds 2**53, the largest population whose offspring
    sums are still drawn exactly, or once numpy's samplers cannot draw the
    next generation.
    """
    seed = check_seed(seed, sequence=False)
    replica = check_seed(replica, "replica", sequence=False)
    states = _keyed_paths(model, steps, seed, [replica], initial)[0]
    return Trajectory(states=states, seed=seed, replica=replica, model=model)


def simulate_replicas(
    model: GwiModel,
    steps: int,
    seed: int,
    replicas: int,
    *,
    initial=None,
) -> list[Trajectory]:
    """Independent trajectories for replica indices 0..replicas-1, in order.

    The replicas advance in lock-step, one :func:`step_ensemble` call per
    generation, but row r draws only from its own generator, seeded by
    ``SeedSequence(entropy=seed, spawn_key=(r,))``: replica r equals
    ``simulate_trajectory(..., replica=r)`` and depends only on ``(seed, r)``.
    """
    replicas = _integer(replicas, "replicas", 1)
    seed = check_seed(seed, sequence=False)
    paths = _keyed_paths(model, steps, seed, range(replicas), initial)
    return [
        Trajectory(states=path, seed=seed, replica=r, model=model) for r, path in enumerate(paths)
    ]


def _keyed_paths(model: GwiModel, steps: int, seed: int, replicas, initial) -> np.ndarray:
    """Read-only states, shape (len(replicas), steps + 1, p), of lock-step rows.

    Row r draws only from the generator keyed ``(seed, replicas[r])``.
    """
    steps = _integer(steps, "steps", 0)
    keys = (np.random.SeedSequence(entropy=seed, spawn_key=(r,)) for r in replicas)
    rngs = [np.random.default_rng(key) for key in keys]
    state = np.tile(_check_initial(model, initial), (len(rngs), 1))
    paths = np.empty((len(rngs), steps + 1, model.p), dtype=np.int64)
    for k, state in enumerate(_generations(model, steps, state, rngs)):
        paths[:, k] = state
    paths.setflags(write=False)
    return paths


def step_ensemble(
    model: GwiModel,
    states: np.ndarray,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """One generation for a batch of replicas, shape (replicas, p) -> same.

    ``rng`` is one ``np.random.Generator`` for the whole batch, or a sequence
    of one Generator per row.  In the second scheme row r draws only from
    ``rng[r]``, exactly the draws a one-row batch makes from it, so each row
    depends only on its own generator.

    Given X_{k-1} = x, every law's sum is independent of the others.  Poisson
    and Geometric sums are Poisson given a rate: x_i times the rates of a
    Poisson law, Gamma(x_i) (1-p)/p for a Geometric law (a Gamma-mixed
    Poisson; count 1, an Exp(1), for immigration).  Superposition makes their
    total one Poisson at the summed rate: one Poisson variate per replica and
    coordinate, drawn in C order over the (replicas, p) rates.  Its Poisson
    part is ``x @ R.T + c`` from ``model.poisson_mixture``, which is A x + b
    for an all-Poisson model; with one generator per row it is the stacked
    product ``(x[:, None, :] @ R.T)[:, 0, :]``, whose rows carry the bits of
    one-row products (a batched ``@`` may differ in the last bit).  The draw
    order is fixed: the Gammas of the Geometric types in type order (C order
    over replicas and the coordinates with p < 1), the Geometric
    immigration's, the Poisson variates, then ``sample_sum`` of every other
    offspring law in type order and ``sample`` of any other immigration law;
    with one generator per row, each phase runs over the rows in order.  One
    generator draws the Poisson variates and each law's Gammas with one array
    call; a row with its own generator draws them one scalar call at a time,
    the values a one-row array call on that generator would give.

    ``states`` must hold nonnegative integers; a float state such as 1.7 or
    nan raises :class:`ValidationError`.  A state past 2**53, or one whose
    rates or counts numpy's samplers reject, raises
    :class:`OverflowGuardError`.  The guards run once per call, over every row.
    """
    states = np.asarray(states)
    if states.dtype.kind not in "iu":  # integer states are checked by the guards below
        states = _nonnegative_integers(states, "states must be nonnegative integers")
    states = states.astype(np.int64, copy=False)
    if states.ndim != 2 or states.shape[1] != model.p:
        raise ValidationError(f"states must have shape (replicas, {model.p})")
    replicas = states.shape[0]
    per_row = not isinstance(rng, np.random.Generator)
    if per_row and len(rng) != replicas:
        raise ValidationError(f"rng must be one Generator or {replicas}, one per row")
    if states.size and states.max() > _SAFE_LIMIT:
        raise OverflowGuardError(f"population coordinate exceeded {_SAFE_LIMIT}")
    rates, immigration_rate, mixed, other = model.poisson_mixture
    try:
        if rates is None:
            nxt = np.zeros_like(states)
        else:
            rate = (states[:, None, :] @ rates.T)[:, 0, :] if per_row else states @ rates.T
            rate += immigration_rate
            for law, i in mixed:
                counts = np.ones(replicas, dtype=np.int64) if i is None else states[:, i]
                rate += law.poisson_rate(counts, rng)
            nxt = _draw(_sampler(rng, "poisson"), rate, np.int64)
        for law, i in other:
            if per_row:
                rows = [_law_draws(law, i, states[r : r + 1], g) for r, g in enumerate(rng)]
                nxt += np.array(rows, dtype=np.int64).reshape(states.shape)
            else:
                nxt += _law_draws(law, i, states, rng)
    except ValidationError:
        raise
    except ValueError as exc:
        if (states < 0).any():
            raise ValidationError("states must be nonnegative") from exc
        # numpy rejects a rate or count past what its sampler can draw
        raise OverflowGuardError(f"population too large for numpy's sampler: {exc}") from exc
    if nxt.size and (nxt.min() < 0 or nxt.max() >= _OVERFLOW_LIMIT):
        raise OverflowGuardError(f"population coordinate exceeded {_OVERFLOW_LIMIT}")
    return nxt


def _law_draws(law, i: int | None, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The immigration vectors (i None) or the type-i offspring sums of one law."""
    return law.sample(states.shape[0], rng) if i is None else law.sample_sum(states[:, i], rng)


def stream_ensemble(
    model: GwiModel,
    steps: int,
    replicas: int,
    seed: int | np.random.SeedSequence,
    *,
    initial=None,
) -> Iterator[np.ndarray]:
    """Yield X_0, ..., X_steps of ``replicas`` lock-step replicas, each (replicas, p).

    All draws come from one ``np.random.default_rng(seed)``; every replica
    starts at ``initial`` (default zero).  Arguments are checked when this is
    called, before the first generation is drawn.  Each yielded array is new,
    and the next generation is drawn from it, so read it but do not modify it.
    """
    _integer(steps, "steps", 0)
    _integer(replicas, "replicas", 1)
    state = np.tile(_check_initial(model, initial), (replicas, 1))
    return _generations(model, steps, state, np.random.default_rng(check_seed(seed)))


def _generations(model: GwiModel, steps: int, state: np.ndarray, rng) -> Iterator[np.ndarray]:
    """``state``, then one :func:`step_ensemble` call per generation under ``rng``'s scheme."""
    yield state
    for _ in range(steps):
        state = step_ensemble(model, state, rng)
        yield state


def simulate_ensemble(
    model: GwiModel,
    steps: int,
    replicas: int,
    seed: int | np.random.SeedSequence,
    *,
    record_at: Sequence[int] | None = None,
    initial=None,
) -> np.ndarray:
    """Vectorized lock-step simulation of many replicas from one generator.

    Returns states of shape (replicas, len(record_at), p) recorded at the
    requested generation indices (default: all of 0..steps), copied out of
    :func:`stream_ensemble`.  To reduce every generation without storing it,
    iterate :func:`stream_ensemble` directly.
    """
    stream = stream_ensemble(model, steps, replicas, seed, initial=initial)
    indices = record_at if record_at is not None else range(steps + 1)
    record = sorted({_integer(k, "each record_at entry") for k in indices})
    if record and (record[0] < 0 or record[-1] > steps):
        raise ValidationError("record_at indices must lie in 0..steps")
    out = np.zeros((replicas, len(record), model.p), dtype=np.int64)
    positions = {k: idx for idx, k in enumerate(record)}
    for k, state in enumerate(stream):
        if k in positions:
            out[:, positions[k], :] = state
    return out


def martingale_increments(trajectory: Trajectory) -> np.ndarray:
    """M_k = X_k - A X_{k-1} - b for k = 1..K, shape (K, p).

    The reconstruction X_k = A X_{k-1} + b + M_k then holds to round-off.
    """
    states = trajectory.states
    a, b = trajectory.model.A, trajectory.model.b
    return states[1:].astype(float) - states[:-1].astype(float) @ a.T - b


def _prefix_sums(values, depth: int) -> list:
    """[S_0, ..., S_depth]: S_0 = values and S_{j+1}[m] = sum_{h<m} S_j[h].

    Each level is one entry longer than the one before, and
    S_{j+1}[k + 1] = sum_{l <= k} binom(k - l, j) values[l], the (j+1)-fold
    step integral.  The additions run in index order with the entries' own
    ``+``: ints and Fractions stay exact, and floats give ``np.cumsum``'s bits.
    """
    sums = [values]
    for _ in range(depth):
        sums.append(list(accumulate(sums[-1], initial=0)))
    return sums


def decomposition_components(trajectory: Trajectory, *, rtol: float = 1e-9) -> np.ndarray:
    """Weighted innovation sums ``w[i, m, k]``, shape (3, 3, K+1), that rebuild the path.

    With innovations g_i(l) = M_{l,i} + b_i, ``w[i, m]`` is W_m of type i,
    W_m[k] = sum_{l <= k} binom(k - l, m) g_i(l): S_{m+1} of :func:`_prefix_sums`
    over the innovation column, in float64.  A^j = sum_m binom(j, m) C^m with
    C = A - I (C^3 = 0) gives the reconstruction, exact up to round-off:

        X_k = W_0[k] + C W_1[k] + C^2 W_2[k].

    In coordinates, X_{k,3} = a32 a21 w[0, 2] + a31 w[0, 1] + a32 w[1, 1] + w[2, 0].
    Raises :class:`ConsistencyError` if any reconstruction residual exceeds
    ``rtol`` relative to the state magnitude.
    """
    model = trajectory.model
    if model.p != 3 or not model.is_lower_unipotent():
        raise ValidationError("decomposition needs a 3-type lower-unipotent model")
    if np.any(trajectory.states[0] != 0):
        raise ValidationError("decomposition assumes the trajectory starts at zero")
    states = trajectory.states.astype(float)
    innov = martingale_increments(trajectory) + model.b  # M_l + b, shape (K, 3)
    levels = [_prefix_sums(column, 3)[1:] for column in innov.T.tolist()]
    w = np.array([[level[: len(states)] for level in column] for column in levels], dtype=float)
    c = np.tril(model.A, -1)
    recon = w[:, 2]
    for m in (1, 0):  # Horner: W_0 + C (W_1 + C W_2)
        recon = w[:, m] + c @ recon
    scale = np.maximum(1.0, np.abs(states))
    residual = np.max(np.abs(recon.T - states) / scale)
    if residual > rtol:
        raise ConsistencyError(
            f"decomposition reconstruction residual {residual:.3e} exceeds {rtol:.1e}"
        )
    return w


def _binomial_identity(f: Callable[[int], int], k: int, n: int, m: int, first: int):
    """(sum_{l=first..k} binom(k - l, m) f(l), Fraction(S_{m+1}[k + 1 - first])).

    S_{m+1} is the (m+1)-fold sum of :func:`_prefix_sums` over f(first..k);
    the left side is the direct binomial sum it is checked against.
    """
    k = _integer(k, "k", 1)
    _integer(n, "n", 1)  # checked only: the panel widths 1/n cancel
    values = [f(l) for l in range(first, k + 1)]
    lhs = sum(comb(k - l, m) * value for l, value in enumerate(values, first))
    return lhs, Fraction(_prefix_sums(values, m + 1)[m + 1][k + 1 - first], 1)


def weighted_sum_identity_1(f: Callable[[int], int], k: int, n: int):
    """Plain sum vs step-function integral: both sides of

        sum_{l=0}^{k} f(l)  ==  n * integral_0^{(k+1)/n} f(floor(n s)) ds.

    The integral is the panel sum of f(m) / n over the panels [m/n, (m+1)/n);
    the panel width 1/n cancels against the factor n, leaving S_1[k+1] of
    :func:`_prefix_sums` over f(0..k), returned as one exact ``Fraction``.
    Integer- and Fraction-valued f give exact equality; a float-valued f
    raises ``TypeError``.  Returns (lhs, rhs).
    """
    return _binomial_identity(f, k, n, 0, 0)


def weighted_sum_identity_2(f: Callable[[int], int], k: int, n: int):
    """Linearly weighted sum vs integral of the running sum:

        sum_{l=1}^{k} (k - l) f(l)  ==  n * integral_0^{k/n} F(floor(n s)) ds

    with F(m) = sum_{l=1}^{m} f(l).  The integral is the panel sum of
    F(m) / n; the width 1/n cancels, leaving S_2[k] of :func:`_prefix_sums`
    over f(1..k) as one ``Fraction``.  Returns (lhs, rhs), exact for integer
    or Fraction f; a float-valued f raises ``TypeError``.
    """
    return _binomial_identity(f, k, n, 1, 1)


def weighted_sum_identity_3(f: Callable[[int], int], k: int, n: int):
    """Binomially weighted sum vs the twice-iterated step integral:

        sum_{l=1}^{k} binom(k - l, 2) f(l)
            ==  n^2 * integral_0^{k/n} integral_0^{floor(n r)/n} F(floor(n s)) ds dr.

    Each of the two integrals is a panel sum with width 1/n, and both widths
    cancel against n^2, leaving S_3[k] of :func:`_prefix_sums` over f(1..k)
    as one ``Fraction``.  Returns (lhs, rhs), exact for integer or Fraction
    f; a float-valued f raises ``TypeError``.
    """
    return _binomial_identity(f, k, n, 2, 1)
