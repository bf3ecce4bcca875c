"""Trajectory simulation, martingale increments, and exact sum identities.

The branching recursion draws, for each generation, the summed offspring of
every individual of each type plus one immigration vector:

    X_k = sum_i sum_{j <= X_{k-1, i}} xi_{k, j, i} + eps_k.

One kernel runs it: :func:`stream_ensemble` advances a batch of replicas in
lock-step from one generator and yields X_0, ..., X_steps.  Everything else
reads that stream under one of two seeding schemes.  Per-replica keys:
:func:`simulate_trajectory` streams one replica from the seed sequence
``(seed, spawn_key=(replica,))``, so each replica depends only on its seeds
and not on which other replicas run.  One ensemble stream:
:func:`simulate_ensemble` records chosen generations of many replicas drawn
from a single generator with vectorized draws, the fast path for large Monte
Carlo estimates.  Both are deterministic given their seeds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from .distributions import _draw
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
    "DecompositionComponents",
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


def _integer(value, name: str) -> int:
    """``value`` as an int; Python and numpy integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None


def check_seed(seed, name: str = "seed", *, sequence: bool = True):
    """``seed`` as a nonnegative int, or unchanged if it is a ``SeedSequence``.

    numpy integer scalars pass.  With ``sequence=False`` the value must be an
    integer, for callers that use it as ``SeedSequence`` entropy or spawn key.
    """
    if sequence and isinstance(seed, np.random.SeedSequence):
        return seed
    value = _integer(seed, name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, not {value}")
    return value


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

    The trajectory is the one-replica :func:`stream_ensemble` seeded by
    ``SeedSequence(entropy=seed, spawn_key=(replica,))``.  Raises
    :class:`OverflowGuardError` once a coordinate exceeds 2**53, the largest
    population whose offspring sums are still drawn exactly, or once numpy's
    samplers cannot draw the next generation.
    """
    seed = check_seed(seed, sequence=False)
    replica = check_seed(replica, "replica", sequence=False)
    key = np.random.SeedSequence(entropy=seed, spawn_key=(replica,))
    states = np.concatenate(list(stream_ensemble(model, steps, 1, key, initial=initial)))
    states.setflags(write=False)
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

    Replica r is ``simulate_trajectory(..., replica=r)``: each owns its
    generator, so every replica depends only on ``(seed, r)``.
    """
    if _integer(replicas, "replicas") < 1:
        raise ValidationError("replicas must be >= 1")
    return [
        simulate_trajectory(model, steps, seed, replica=r, initial=initial)
        for r in range(replicas)
    ]


def step_ensemble(model: GwiModel, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One generation for a batch of replicas, shape (replicas, p) -> same.

    Given X_{k-1} = x, every law's sum is independent of the others.  Poisson
    and Geometric sums are Poisson given a rate: x_i times the rates of a
    Poisson law, Gamma(x_i) (1-p)/p for a Geometric law (a Gamma-mixed
    Poisson; count 1, an Exp(1), for immigration).  Superposition makes their
    total one Poisson at the summed rate: one Poisson variate per replica and
    coordinate, drawn in C order over the (replicas, p) rates.  Its Poisson
    part is ``x @ R.T + c`` from ``model.poisson_mixture``, which is A x + b
    for an all-Poisson model.  The draw order is fixed: the Gammas of the
    Geometric types in type order (C order over replicas and the coordinates
    with p < 1), the Geometric immigration's, the Poisson variates, then
    ``sample_sum`` of every other offspring law in type order and ``sample``
    of any other immigration law.  A large batch draws the Poisson variates
    and each law's Gammas with one array call; a small one draws them one
    scalar call at a time from the same stream, so the values do not depend
    on the batch size.

    ``states`` must hold nonnegative integers; a float state such as 1.7 or
    nan raises :class:`ValidationError`.  A state past 2**53, or one whose
    rates or counts numpy's samplers reject, raises
    :class:`OverflowGuardError`.
    """
    states = np.asarray(states)
    if states.dtype.kind not in "iu":  # integer states are checked by the guards below
        states = _nonnegative_integers(states, "states must be nonnegative integers")
    states = states.astype(np.int64, copy=False)
    if states.ndim != 2 or states.shape[1] != model.p:
        raise ValidationError(f"states must have shape (replicas, {model.p})")
    if states.size and states.max() > _SAFE_LIMIT:
        raise OverflowGuardError(f"population coordinate exceeded {_SAFE_LIMIT}")
    rates, immigration_rate, mixed, other = model.poisson_mixture
    replicas = states.shape[0]
    try:
        if rates is None:
            nxt = np.zeros_like(states)
        else:
            rate = states @ rates.T + immigration_rate
            for law, i in mixed:
                counts = np.ones(replicas, dtype=np.int64) if i is None else states[:, i]
                rate += law.poisson_rate(counts, rng)
            nxt = _draw(rng.poisson, rate, np.int64)
        for law, i in other:
            nxt += law.sample(replicas, rng) if i is None else law.sample_sum(states[:, i], rng)
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
    if _integer(steps, "steps") < 0:
        raise ValidationError("steps must be >= 0")
    if _integer(replicas, "replicas") < 1:
        raise ValidationError("replicas must be >= 1")
    state = np.tile(_check_initial(model, initial), (replicas, 1))
    return _generations(model, steps, state, np.random.default_rng(check_seed(seed)))


def _generations(
    model: GwiModel, steps: int, state: np.ndarray, rng: np.random.Generator
) -> Iterator[np.ndarray]:
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
    if states.shape[0] < 2:
        return np.zeros((0, trajectory.model.p))
    a, b = trajectory.model.A, trajectory.model.b
    return states[1:].astype(float) - states[:-1].astype(float) @ a.T - b


def _weighted_cumulatives(innovations: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running sums of one innovation column with weights 1, (k-l), binom(k-l, 2).

    Index k of each returned array is the weighted sum over l = 1..k, so
    entry 0 is 0 and the arrays have length K+1.
    """
    plain = np.concatenate([[0.0], np.cumsum(innovations)])
    linear = np.concatenate([[0.0], np.cumsum(plain[:-1])])
    binomial = np.concatenate([[0.0], np.cumsum(linear[:-1])])
    return plain, linear, binomial


@dataclass(frozen=True, eq=False)
class DecompositionComponents:
    """Weighted innovation sums that rebuild a 3-type lower-unipotent path.

    With innovations g_i(l) = M_{l,i} + b_i, entry k of each array is:

    * ``sum1``, ``sum2``, ``sum3``: plain sums over l <= k of g_1, g_2, g_3;
    * ``lin1``, ``lin2``: sums of (k - l) g_1(l) and (k - l) g_2(l);
    * ``quad1``: sum of binom(k - l, 2) g_1(l).

    Reconstruction, exact up to round-off:

        X_{k,1} = sum1[k]
        X_{k,2} = a21 * lin1[k] + sum2[k]
        X_{k,3} = a32 * a21 * quad1[k] + a31 * lin1[k] + a32 * lin2[k] + sum3[k]

    (The linearly weighted type-1 sum plays both second-coordinate and
    third-coordinate roles, so it appears once.)
    """

    sum1: np.ndarray
    lin1: np.ndarray
    quad1: np.ndarray
    sum2: np.ndarray
    lin2: np.ndarray
    sum3: np.ndarray


def decomposition_components(
    trajectory: Trajectory, *, rtol: float = 1e-9
) -> DecompositionComponents:
    """Compute the weighted sums and verify they rebuild the trajectory.

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
    sum1, lin1, quad1 = _weighted_cumulatives(innov[:, 0])
    sum2, lin2, _ = _weighted_cumulatives(innov[:, 1])
    sum3 = np.concatenate([[0.0], np.cumsum(innov[:, 2])])
    a21, a31, a32 = model.A[1, 0], model.A[2, 0], model.A[2, 1]

    recon = np.column_stack(
        [
            sum1,
            a21 * lin1 + sum2,
            a32 * a21 * quad1 + a31 * lin1 + a32 * lin2 + sum3,
        ]
    )
    scale = np.maximum(1.0, np.abs(states))
    residual = np.max(np.abs(recon - states) / scale)
    if residual > rtol:
        raise ConsistencyError(
            f"decomposition reconstruction residual {residual:.3e} exceeds {rtol:.1e}"
        )
    return DecompositionComponents(
        sum1=sum1, lin1=lin1, quad1=quad1, sum2=sum2, lin2=lin2, sum3=sum3
    )


def weighted_sum_identity_1(f: Callable[[int], int], k: int, n: int):
    """Plain sum vs step-function integral: both sides of

        sum_{l=0}^{k} f(l)  ==  n * integral_0^{(k+1)/n} f(floor(n s)) ds.

    The integral is the panel sum of f(m) / n over the panels [m/n, (m+1)/n),
    added as integer numerators over the common denominator n and returned
    as one exact ``Fraction``, so integer-valued f gives exact equality.  A
    Fraction-valued f is also exact; a float-valued f raises ``TypeError``.
    Returns (lhs, rhs).
    """
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    lhs = sum(f(l) for l in range(k + 1))
    rhs = Fraction(sum(f(m) for m in range(k + 1)) * n, n)
    return lhs, rhs


def weighted_sum_identity_2(f: Callable[[int], int], k: int, n: int):
    """Linearly weighted sum vs integral of the running sum:

        sum_{l=1}^{k} (k - l) f(l)  ==  n * integral_0^{k/n} F(floor(n s)) ds

    with F(m) = sum_{l=1}^{m} f(l).  The integral is the panel sum of
    F(m) / n, formed over the common denominator n as one ``Fraction``.
    Returns (lhs, rhs), exact for integer or Fraction f; a float-valued f
    raises ``TypeError``.
    """
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    lhs = sum((k - l) * f(l) for l in range(1, k + 1))
    running = _running_sums(f, k)
    rhs = Fraction(sum(running[:k]) * n, n)
    return lhs, rhs


def weighted_sum_identity_3(f: Callable[[int], int], k: int, n: int):
    """Binomially weighted sum vs the twice-iterated step integral:

        sum_{l=1}^{k} binom(k - l, 2) f(l)
            ==  n^2 * integral_0^{k/n} integral_0^{floor(n r)/n} F(floor(n s)) ds dr.

    The inner integral up to m/n has numerator sum_{m' < m} F(m') over n,
    and the outer one adds those numerators over n^2; the result is one
    ``Fraction``.  Returns (lhs, rhs), exact for integer or Fraction f; a
    float-valued f raises ``TypeError``.
    """
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    lhs = sum(comb(k - l, 2) * f(l) for l in range(1, k + 1))
    running = _running_sums(f, k)
    inner = outer = 0  # numerators of the inner (over n) and outer (over n^2) integrals
    for m in range(k):
        outer += inner
        inner += running[m]
    return lhs, Fraction(outer * n**2, n**2)


def _running_sums(f: Callable[[int], int], k: int) -> list:
    """F(m) = sum_{l=1}^m f(l) for m = 0..k."""
    running = [0]
    for l in range(1, k + 1):
        running.append(running[-1] + f(l))
    return running
