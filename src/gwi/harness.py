"""Monte Carlo verification harness.

Builds the scaled random step processes t -> n^{-e_i} X_{floor(n t), i},
compares their marginals against simulated limit systems (moments,
two-sample Kolmogorov-Smirnov, Wasserstein-1, and the exact Gamma reference
for the first coordinate), and fits the polynomial growth exponents of the
martingale moment bounds on dyadic ranges.

scipy's statistics are imported inside ``ks_two_sample`` and
``run_convergence_experiment``, the only functions that need a p-value, a
quantile or a Gamma CDF, so that importing gwi loads numpy but not
``scipy.stats`` (about 1 s of a fresh interpreter's start).
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import DegenerateLawError, ValidationError
from .model import GwiModel, detect_case
from .moments import moment_growth_targets, moment_stream
from .sde import (
    LimitSystem,
    exact_first_coordinate_law,
    limit_mean_vector,
    limit_system_marginals,
)
from .simulate import _integer, _prefix_sums, check_seed, simulate_ensemble, stream_ensemble

__all__ = [
    "ScaledStepProcess",
    "step_integral_functional",
    "ks_two_sample",
    "wasserstein1",
    "MarginalStats",
    "ConvergenceReport",
    "run_convergence_experiment",
    "GrowthFitResult",
    "growth_fit",
]


def _scale(values, n: int, exponents) -> np.ndarray:
    """n^{-e_i} times coordinate i of ``values``."""
    return values / np.power(float(n), exponents)


@dataclass(frozen=True, eq=False)
class ScaledStepProcess:
    """Piecewise-constant evaluator t -> n^{-e_i} X_{floor(n t), i}.

    Right-continuous in t; the trajectory must reach generation floor(n t).
    """

    n: int
    exponents: tuple[int, ...]
    states: np.ndarray

    def __call__(self, t: float) -> np.ndarray:
        if not 0 <= t < math.inf:
            raise ValidationError(f"t must be finite and >= 0, not {t!r}")
        # floor(n t) >= size exactly when n t >= size, also where n t overflows to inf
        size = self.states.shape[0]
        if self.n * t >= size:
            raise ValidationError(f"t = {t} reads a generation past the trajectory's last, {size - 1}")
        k = math.floor(self.n * t)
        return _scale(self.states[k].astype(float), self.n, self.exponents)


def step_integral_functional(step_values, n: int, t: float):
    """Value, integral and iterated integral of a step function at scale n.

    ``step_values[k]`` is f(k / n).  Returns the triple

        ( f(t),
          integral_0^{floor(nt)/n} f(floor(n s)) ds,
          integral_0^{floor(nt)/n} integral_0^{floor(nr)/n} f(floor(n s)) ds dr )

    with k = floor(nt).  The integrals are S_1[k] / n and S_2[k] / n^2 of
    ``simulate._prefix_sums`` over f_0..f_{k-1}, exact for integers until the
    final division; ``n`` must be an integer >= 1 and ``t`` finite, >= 0.
    """
    values = np.asarray(step_values)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("step_values must be a nonempty 1-d sequence")
    n = _integer(n, "n", 1)
    if not 0 <= t < math.inf:
        raise ValidationError(f"t must be finite and >= 0, not {t!r}")
    if n * t >= values.size:  # as floor(n t) >= size, also where n t overflows to inf
        raise ValidationError(f"t = {t} reads a value index past the last, {values.size - 1}")
    k = math.floor(n * t)
    _, single, double = _prefix_sums(values[:k].tolist(), 2)
    return values[k], single[k] / n, double[k] / n**2


def ks_two_sample(xs, ys) -> tuple[float, float]:
    """Classical two-sample KS statistic sup |F - G| with asymptotic p-value."""
    from scipy.special import kolmogorov

    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValidationError("samples must be nonempty")
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_y = np.searchsorted(ys, pooled, side="right") / ys.size
    statistic = float(np.max(np.abs(cdf_x - cdf_y)))
    en = math.sqrt(xs.size * ys.size / (xs.size + ys.size))
    p_value = float(kolmogorov(en * statistic))
    return statistic, p_value


def wasserstein1(xs, ys) -> float:
    """Mean absolute difference of order statistics (equal sizes).

    Unequal sizes are resampled deterministically onto the common quantile
    grid (i + 1/2) / m with m the larger size.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValidationError("samples must be nonempty")
    if xs.size != ys.size:
        m = max(xs.size, ys.size)
        q = (np.arange(m) + 0.5) / m
        xs = np.quantile(xs, q)
        ys = np.quantile(ys, q)
    return float(np.mean(np.abs(xs - ys)))


@dataclass(frozen=True)
class MarginalStats:
    """Scaled-marginal statistics for one (n, t, coordinate) cell."""

    n: int
    t: float
    coordinate: int
    replicas: int
    mean: float
    variance: float
    ci_low: float
    ci_high: float
    exact_scaled_mean: float
    limit_mean: float
    sde_mean: float
    ks_stat: float
    ks_pvalue: float
    wasserstein: float
    gamma_ks_stat: float | None = None
    gamma_ks_pvalue: float | None = None


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """All per-(n, t, coordinate) statistics of one experiment plus trends."""

    case: int
    permutation: tuple[int, int, int]
    n_list: tuple[int, ...]
    t_points: tuple[float, ...]
    replicas: int
    sde_paths: int
    dt: float
    seed: int
    ci_level: float
    entries: tuple[MarginalStats, ...]
    trends: tuple[dict, ...] = field(default_factory=tuple)

    def entry(self, n: int, t: float, coordinate: int) -> MarginalStats:
        for e in self.entries:
            if e.n == n and e.t == t and e.coordinate == coordinate:
                return e
        raise KeyError((n, t, coordinate))

    def to_dict(self) -> dict:
        return asdict(self)

    CSV_FIELDS = tuple(f.name for f in fields(MarginalStats))

    def rows(self):
        """Flat per-(n, t, coordinate) rows matching CSV_FIELDS."""
        for e in self.entries:
            yield list(astuple(e))


DEFAULT_N_LIST = (125, 250, 500, 1000, 2000)
DEFAULT_T_POINTS = (0.25, 0.5, 1.0)


def run_convergence_experiment(
    model: GwiModel,
    case: int,
    n_list: Sequence[int] = DEFAULT_N_LIST,
    replicas: int = 2000,
    t_points: Sequence[float] = DEFAULT_T_POINTS,
    sde_paths: int = 2000,
    seed: int = 0,
    *,
    dt: float = 1e-3,
    ci_level: float = 0.95,
) -> ConvergenceReport:
    """Scaled-marginal comparison of a model against its limit system.

    One ensemble of ``replicas`` trajectories runs to generation
    ceil(max(n) * max(t)) and is read at every (n, t) marginal, so the scaled
    samples across n are coupled (common random numbers); each marginal test
    stays valid on its own while distance-trend comparisons across n lose the
    independent resampling noise.  Marginals are compared to a simulated
    limit-system ensemble: moments with CIs, two-sample KS, Wasserstein-1,
    and the exact Gamma reference for the first coordinate.
    """
    from scipy import stats

    if model.p != 3:
        raise ValidationError("convergence experiments need a 3-type model")
    cid = detect_case(model.A)
    if cid.value != case:
        raise ValidationError(f"model matches pattern {cid.value}, experiment asked for {case}")
    if replicas < 1000:
        raise ValidationError("need at least 1000 replicas for the stated CI levels")
    if sde_paths < 2:
        raise ValidationError("need at least 2 limit-system paths")
    n_list = [_integer(n, "n_list entry") for n in n_list]
    t_points = [float(t) for t in t_points]
    if not n_list or any(n < 1 for n in n_list):
        raise ValidationError("n_list must be nonempty positive integers")
    if not t_points or not all(0 < t < math.inf for t in t_points):
        raise ValidationError("t_points must be nonempty, finite and positive")
    if not 0 < ci_level < 1:
        raise ValidationError(f"ci_level must lie strictly between 0 and 1, not {ci_level}")
    seed = check_seed(seed, sequence=False)

    z = stats.norm.ppf(0.5 + ci_level / 2.0)  # normal quantile of the CI half-width
    system = LimitSystem.from_model(model)
    exps = np.asarray(system.exponents, dtype=float)
    perm = np.asarray(cid.permutation)

    root = np.random.SeedSequence(entropy=seed)
    gwi_seed, sde_seed = root.spawn(2)
    sde_samples = limit_system_marginals(system, t_points, dt, sde_paths, sde_seed)

    # per t, independent of n: the limit means and coordinate 0's exact Gamma law
    limit_means = [limit_mean_vector(system, t) for t in t_points]
    try:
        gamma_laws = [exact_first_coordinate_law(system.b[0], system.v[0], t) for t in t_points]
    except DegenerateLawError:  # v = 0 or b = 0 at every t alike
        gamma_laws = [None] * len(t_points)

    horizon = math.ceil(max(n_list) * max(t_points))
    record = sorted({math.floor(n * t) for n in n_list for t in t_points})
    recorded = simulate_ensemble(model, horizon, replicas, gwi_seed, record_at=record)
    position = {k: i for i, k in enumerate(record)}
    exact_means = moment_stream(model, record[-1])[0]

    entries: list[MarginalStats] = []
    for n in n_list:
        for ti, t in enumerate(t_points):
            k = math.floor(n * t)
            raw = recorded[:, position[k], :].astype(float)[:, perm]
            scaled = _scale(raw, n, exps)
            exact_scaled = _scale(cid.apply_vector(exact_means[k]), n, exps)
            limit_mu, law = limit_means[ti], gamma_laws[ti]
            for c in range(3):
                xs = scaled[:, c]
                ys = sde_samples[:, ti, c]
                mean = float(np.mean(xs))
                variance = float(np.var(xs, ddof=1))
                half = float(z * math.sqrt(max(variance, 0.0) / replicas))
                ks_stat, ks_p = ks_two_sample(xs, ys)
                gamma_stat = gamma_p = None
                if c == 0 and law is not None:
                    # the unfrozen cdf: freezing formats scipy's docstrings on every call
                    res = stats.kstest(xs, "gamma", args=(law.shape, 0.0, law.scale))
                    gamma_stat, gamma_p = float(res.statistic), float(res.pvalue)
                entries.append(
                    MarginalStats(
                        n=n,
                        t=t,
                        coordinate=c,
                        replicas=replicas,
                        mean=mean,
                        variance=variance,
                        ci_low=mean - half,
                        ci_high=mean + half,
                        exact_scaled_mean=float(exact_scaled[c]),
                        limit_mean=float(limit_mu[c]),
                        sde_mean=float(np.mean(ys)),
                        ks_stat=ks_stat,
                        ks_pvalue=ks_p,
                        wasserstein=wasserstein1(xs, ys),
                        gamma_ks_stat=gamma_stat,
                        gamma_ks_pvalue=gamma_p,
                    )
                )

    trends = []
    n_small, n_large = min(n_list), max(n_list)
    for t in t_points:
        for c in range(3):
            w_by_n = {e.n: e.wasserstein for e in entries if e.t == t and e.coordinate == c}
            trends.append(
                {
                    "t": t,
                    "coordinate": c,
                    "n_small": n_small,
                    "n_large": n_large,
                    "w_small": w_by_n[n_small],
                    "w_large": w_by_n[n_large],
                    "improved": w_by_n[n_large] < w_by_n[n_small],
                }
            )

    return ConvergenceReport(
        case=case,
        permutation=cid.permutation,
        n_list=tuple(n_list),
        t_points=tuple(t_points),
        replicas=replicas,
        sde_paths=sde_paths,
        dt=dt,
        seed=seed,
        ci_level=ci_level,
        entries=tuple(entries),
        trends=tuple(trends),
    )


_QUANTITIES = ("sup_sum_sq", "weighted_sup_sum_sq", "fourth_moment")


@dataclass(frozen=True, eq=False)
class GrowthFitResult:
    """Log-log growth fit of one Monte Carlo quantity across sizes.

    ``estimates[s, i]`` is the estimate at ``sizes[s]`` for coordinate i;
    ``slopes[i]`` is the fitted log-log slope (None when the coordinate is
    degenerate, i.e. some estimate is zero); ``targets[i]`` is the predicted
    exponent (None where no prediction applies).
    """

    quantity: str
    sizes: tuple[int, ...]
    estimates: np.ndarray
    slopes: tuple[float | None, ...]
    targets: tuple[float | None, ...]

    @property
    def degenerate(self) -> tuple[bool, ...]:
        return tuple(s is None for s in self.slopes)


def growth_fit(
    model: GwiModel,
    quantity: str,
    n_list: Sequence[int],
    replicas: int,
    seed: int,
) -> GrowthFitResult:
    """Monte Carlo growth-exponent fit for martingale moment quantities.

    * ``sup_sum_sq``: E sup_{k <= n} (sum_{l<=k} (M_{l,i} + b_i))^2, fitted
      across n in ``n_list``; predicted slope is the mean growth degree + 1.
    * ``weighted_sup_sum_sq``: same with weights (k - l); predicted degree + 3.
    * ``fourth_moment``: E M_{k,i}^4 across k in ``n_list``; predicted slope 2
      for coordinates fed by their own type only.

    Every quantity comes from one ensemble stream to max(n), keyed
    ``SeedSequence(entropy=seed, spawn_key=(max(n),))`` and read at each n:
    the running sup as it stands at generation n, or M_n^4.
    """
    if quantity not in _QUANTITIES:
        raise ValidationError(f"quantity must be one of {_QUANTITIES}")
    if not model.is_lower_unipotent():
        raise ValidationError("growth fits require a lower-unipotent mean matrix")
    n_list = sorted(_integer(n, "n_list entry") for n in n_list)
    if not n_list or n_list[0] < 1:
        raise ValidationError("n_list must be positive integers")
    _integer(replicas, "replicas", 2)
    key = np.random.SeedSequence(
        entropy=check_seed(seed, sequence=False), spawn_key=(n_list[-1],)
    )
    innovations = _innovations(model, n_list[-1], replicas, key)

    targets_all = moment_growth_targets(model)
    if quantity == "fourth_moment":
        targets = tuple(float(e) if e is not None else None for e in targets_all["fourth"])
        estimates = _fourth_moment_estimates(model, innovations, n_list)
    else:
        weighted = quantity == "weighted_sup_sum_sq"
        targets = tuple(
            float(e) for e in targets_all["weighted_sum_sup" if weighted else "sum_sup"]
        )
        estimates = _sup_sum_estimates(model, innovations, n_list, replicas, weighted=weighted)

    slopes: list[float | None] = []
    log_sizes = np.log(np.asarray(n_list, dtype=float))
    for i in range(model.p):
        column = estimates[:, i]
        if np.any(column <= 0) or len(n_list) < 2:
            slopes.append(None)
        else:
            slope = np.polyfit(log_sizes, np.log(column), 1)[0]
            slopes.append(float(slope))
    return GrowthFitResult(
        quantity=quantity,
        sizes=tuple(n_list),
        estimates=estimates,
        slopes=tuple(slopes),
        targets=targets,
    )


def _innovations(model: GwiModel, steps: int, replicas: int, key):
    """X_k - A X_{k-1} (= M_k + b) for k = 1..steps of one ensemble stream."""
    a_t = model.A.T
    stream = stream_ensemble(model, steps, replicas, key)
    prev = next(stream).astype(float)
    for states in stream:
        current = states.astype(float)
        yield current - prev @ a_t
        prev = current


def _sup_sum_estimates(
    model: GwiModel, innovations, n_list: list[int], replicas: int, *, weighted: bool
) -> np.ndarray:
    """Mean over replicas of sup_{k<=n} S_k^2 (or W_k^2) at each n in n_list."""
    running = np.zeros((replicas, model.p))
    weighted_sum = np.zeros((replicas, model.p))
    best = np.zeros((replicas, model.p))
    results: dict[int, np.ndarray] = {}
    for k, innov in enumerate(innovations, start=1):
        if weighted:
            weighted_sum += running
            best = np.maximum(best, weighted_sum**2)
            running += innov
        else:
            running += innov
            best = np.maximum(best, running**2)
        if k in n_list:
            results[k] = np.mean(best, axis=0)
    return np.stack([results[n] for n in n_list])


def _fourth_moment_estimates(model: GwiModel, innovations, n_list: list[int]) -> np.ndarray:
    """E M_k^4 per coordinate at each k in n_list."""
    results = {
        k: np.mean((innov - model.b) ** 4, axis=0)
        for k, innov in enumerate(innovations, start=1)
        if k in n_list
    }
    return np.stack([results[k] for k in n_list])
