"""Parametric laws over nonnegative-integer vectors.

A :class:`DistributionSpec` describes either the offspring vector of one
individual of a given type or the per-generation immigration vector.  Every
built-in kind has a closed-form mean vector and covariance matrix, finite
moments of all orders, and two sampling routines:

* ``sample(count, rng)`` draws ``count`` i.i.d. vectors;
* ``sample_sum(counts, rng)`` draws, for each entry ``m`` of ``counts``, the
  sum of ``m`` i.i.d. vectors.  By default this uses the exact closed-form sum
  distribution (sums of Poissons are Poisson, Bernoulli sums are Binomial,
  categorical counts are multinomial, and geometric sums are negative
  binomial, drawn as a Gamma-mixed Poisson), distributionally identical to
  summing individual draws, just vectorized.

Poisson and geometric sums are both Poisson given a rate: m times ``lam``
for :class:`Poisson`, and the Gamma-distributed
``Geometric.poisson_rate(counts, rng)``.  Conditionally independent Poissons
superpose, so the branching step adds these rates over laws and draws one
Poisson variate per replica and coordinate.  Those Poisson variates and the
Gammas are drawn through :func:`_draw`: one array call for a large batch, one
scalar call per variate, from the same stream, for a small one, and scalar
calls of row r's own generator when each row has one.

Parametric kinds have independent coordinates; correlated coordinates require
:class:`JointTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .errors import ValidationError

__all__ = [
    "DistributionSpec",
    "Deterministic",
    "Poisson",
    "Bernoulli",
    "Geometric",
    "JointTable",
    "spec_from_dict",
]

_WEIGHT_TOL = 1e-12

# Batches of at most this many variates are drawn one scalar call at a time.
# The crossover measured on a 2-vCPU x86 host with numpy 2.4 is about 14
# variates for ``poisson`` and 8 for ``standard_gamma``; the Poisson call is
# the one every generation makes.  Either side gives the same stream.
_SCALAR_DRAWS = 12


def _as_1d_float(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


def _sampler(rng, name: str):
    """Sampler ``name`` of ``rng``, or the list of them for one generator per row.

    ``rng`` is one ``np.random.Generator`` or a sequence of them.
    """
    if isinstance(rng, np.random.Generator):
        return getattr(rng, name)
    return [getattr(generator, name) for generator in rng]


def _draw(sampler, params: np.ndarray, dtype) -> np.ndarray:
    """``sampler(params)``: one variate per entry of ``params``, in C order.

    numpy's array and scalar calls of a sampler such as ``rng.poisson`` or
    ``rng.standard_gamma`` run the same routine once per variate in C order,
    so they return the same values and leave the generator in the same state.
    An array call pays several microseconds of argument checks, a scalar call
    about one, so a batch of at most ``_SCALAR_DRAWS`` variates makes one
    scalar call per variate.  ``sampler`` may also be a list of samplers
    from :func:`_sampler`, one per row of a 2-d ``params``: row r is then
    drawn by scalar calls of ``sampler[r]``, the values a one-row batch
    drawn from its generator would get.  Both raise numpy's ``ValueError``
    for a parameter the sampler rejects; the scalar calls before it have
    drawn.
    """
    if isinstance(sampler, list):
        values = [draw(x) for draw, row in zip(sampler, params.tolist()) for x in row]
    elif params.size > _SCALAR_DRAWS:
        return sampler(params)
    else:
        values = list(map(sampler, params.ravel().tolist()))
    return np.array(values, dtype=dtype).reshape(params.shape)


class DistributionSpec:
    """Base class; concrete kinds implement moments and sampling."""

    kind: str = ""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def mean(self) -> np.ndarray:
        """Closed-form mean vector."""
        raise NotImplementedError

    def cov(self) -> np.ndarray:
        """Closed-form covariance matrix."""
        raise NotImplementedError

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` i.i.d. vectors, shape ``(count, dim)``, int64."""
        raise NotImplementedError

    def sample_sum(self, counts, rng: np.random.Generator) -> np.ndarray:
        """Row r is the sum of ``counts[r]`` i.i.d. vectors, shape ``(len(counts), dim)``."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValidationError("counts must be 1-d")
        if np.any(counts < 0):
            raise ValidationError("counts must be nonnegative")
        return self._sum_closed_form(counts, rng)

    def _sum_closed_form(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        """JSON form ``{"kind": ..., "params": {...}}``, one param per init field."""
        params = {f.name: getattr(self, f.name).tolist() for f in fields(self) if f.init}
        return {"kind": self.kind, "params": params}


@dataclass(frozen=True, eq=False)
class Deterministic(DistributionSpec):
    """Point mass at a fixed nonnegative integer vector."""

    c: np.ndarray
    kind: str = field(default="deterministic", init=False)

    def __post_init__(self):
        arr = np.asarray(self.c)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("c must be a nonempty 1-d sequence")
        if np.any(arr < 0) or not np.all(arr == np.floor(arr)):
            raise ValidationError("c must have nonnegative integer entries")
        object.__setattr__(self, "c", np.asarray(arr, dtype=np.int64))
        self.c.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.c.size

    def mean(self) -> np.ndarray:
        return self.c.astype(float)

    def cov(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    def sample(self, count, rng):
        return np.tile(self.c, (count, 1))

    def _sum_closed_form(self, counts, rng):
        return counts[:, None] * self.c[None, :]


@dataclass(frozen=True, eq=False)
class Poisson(DistributionSpec):
    """Independent Poisson coordinates with rates ``lam`` (zero rate = a.s. zero)."""

    lam: np.ndarray
    kind: str = field(default="poisson", init=False)

    def __post_init__(self):
        arr = _as_1d_float(self.lam, "lam")
        if np.any(arr < 0):
            raise ValidationError("lam must be nonnegative")
        object.__setattr__(self, "lam", arr)
        self.lam.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lam.size

    def mean(self) -> np.ndarray:
        return self.lam.copy()

    def cov(self) -> np.ndarray:
        return np.diag(self.lam)

    def sample(self, count, rng):
        return rng.poisson(self.lam, size=(count, self.dim)).astype(np.int64, copy=False)

    def _sum_closed_form(self, counts, rng):
        return rng.poisson(counts[:, None] * self.lam[None, :]).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Bernoulli(DistributionSpec):
    """Independent Bernoulli coordinates with success probabilities ``p``."""

    p: np.ndarray
    kind: str = field(default="bernoulli", init=False)

    def __post_init__(self):
        arr = _as_1d_float(self.p, "p")
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValidationError("p must lie in [0, 1]")
        object.__setattr__(self, "p", arr)
        self.p.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.p.size

    def mean(self) -> np.ndarray:
        return self.p.copy()

    def cov(self) -> np.ndarray:
        return np.diag(self.p * (1.0 - self.p))

    def sample(self, count, rng):
        return rng.binomial(1, self.p, size=(count, self.dim)).astype(np.int64, copy=False)

    def _sum_closed_form(self, counts, rng):
        return rng.binomial(counts[:, None], self.p[None, :]).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Geometric(DistributionSpec):
    """Independent geometric coordinates on {0, 1, 2, ...}.

    Coordinate i counts failures before the first success of probability
    ``p[i]``, so the mean is (1-p)/p and the variance (1-p)/p^2.  A sum of m
    of them is negative binomial, which is exactly a Gamma-mixed Poisson,
    Poisson(G (1-p)/p) with G ~ Gamma(m, 1) (Devroye 1986, *Non-Uniform Random
    Variate Generation*, X.4); numpy's ``negative_binomial`` draws it the same
    way.  ``sample_sum`` draws it so: one Gamma and one Poisson variate per
    row and coordinate with p < 1.
    """

    p: np.ndarray
    kind: str = field(default="geometric", init=False)

    def __post_init__(self):
        arr = _as_1d_float(self.p, "p")
        if np.any(arr <= 0) or np.any(arr > 1):
            raise ValidationError("p must lie in (0, 1]")
        object.__setattr__(self, "p", arr)
        self.p.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.p.size

    def mean(self) -> np.ndarray:
        return (1.0 - self.p) / self.p

    def cov(self) -> np.ndarray:
        return np.diag((1.0 - self.p) / self.p**2)

    def sample(self, count, rng):
        # numpy's geometric lives on {1, 2, ...}; shift to count failures
        return (rng.geometric(self.p, size=(count, self.dim)) - 1).astype(np.int64, copy=False)

    def poisson_rate(self, counts, rng):
        """Row r is Gamma(counts[r]) * (1-p)/p, one Gamma per coordinate with p < 1.

        The Gammas are drawn in C order over rows and coordinates, by one
        ``standard_gamma`` array call for a large batch and one scalar call
        per Gamma for a small one (the same stream).  ``rng`` may also be a
        sequence of one generator per row, which draws row r's Gammas.  A
        coordinate with p = 1, or a row with count 0, has shape 0: numpy
        returns 0 for it and takes nothing from the stream, so its rate is 0.
        """
        shapes = counts[:, None] * (self.p < 1.0)
        return _draw(_sampler(rng, "standard_gamma"), shapes, float) * self.mean()

    def _sum_closed_form(self, counts, rng):
        return rng.poisson(self.poisson_rate(counts, rng)).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class JointTable(DistributionSpec):
    """Finite law given by support vectors and simplex weights.

    The only kind with correlated coordinates.  Weights must sum to 1 within
    1e-12.
    """

    support: np.ndarray
    probs: np.ndarray
    kind: str = field(default="joint_table", init=False)

    def __post_init__(self):
        sup = np.asarray(self.support)
        if sup.ndim != 2 or sup.size == 0:
            raise ValidationError("support must be a nonempty list of vectors")
        if np.any(sup < 0) or not np.all(sup == np.floor(sup)):
            raise ValidationError("support must have nonnegative integer entries")
        probs = _as_1d_float(self.probs, "probs")
        if probs.size != sup.shape[0]:
            raise ValidationError("probs length must match support size")
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValidationError("probs must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > _WEIGHT_TOL:
            raise ValidationError(
                f"probs must sum to 1 within {_WEIGHT_TOL}, got {probs.sum()!r}"
            )
        object.__setattr__(self, "support", np.asarray(sup, dtype=np.int64))
        object.__setattr__(self, "probs", probs)
        self.support.setflags(write=False)
        self.probs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def mean(self) -> np.ndarray:
        return self.probs @ self.support

    def cov(self) -> np.ndarray:
        mu = self.mean()
        second = (self.probs[:, None, None] * (
            self.support[:, :, None] * self.support[:, None, :]
        )).sum(axis=0)
        return second - np.outer(mu, mu)

    def sample(self, count, rng):
        idx = rng.choice(self.support.shape[0], size=count, p=self.probs)
        return self.support[idx]

    def _sum_closed_form(self, counts, rng):
        # multinomial category counts of m categorical draws, then weight by support
        table_counts = rng.multinomial(counts, self.probs)
        return table_counts @ self.support


_KINDS = {cls.kind: cls for cls in (Deterministic, Poisson, Bernoulli, Geometric, JointTable)}


def spec_from_dict(payload: dict[str, Any]) -> DistributionSpec:
    """Build a spec from its JSON form ``{"kind": ..., "params": {...}}``."""
    try:
        kind = payload["kind"]
        params = payload["params"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed distribution spec: {payload!r}") from exc
    if kind not in _KINDS:
        raise ValidationError(f"unknown distribution kind {kind!r}")
    cls = _KINDS[kind]
    try:
        kwargs = {f.name: params[f.name] for f in fields(cls) if f.init}
    except KeyError as exc:
        raise ValidationError(f"missing parameter for kind {kind!r}: {exc}") from exc
    except TypeError as exc:  # params is not an object
        raise ValidationError(f"params of kind {kind!r} must be an object, not {params!r}") from exc
    unknown = ", ".join(sorted(repr(str(key)) for key in set(params) - set(kwargs)))
    if unknown:
        raise ValidationError(f"unknown parameter {unknown} for kind {kind!r}")
    for name, value in kwargs.items():
        try:
            numeric = np.asarray(value).dtype.kind in "biuf"
        except ValueError:  # ragged nesting
            numeric = False
        if not numeric:
            raise ValidationError(
                f"parameter {name!r} of kind {kind!r} must be a rectangular array of numbers"
            )
    return cls(**kwargs)
