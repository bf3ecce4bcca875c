"""Acceptance battery for the toolkit's numbered release criteria.

Each test pins one criterion: its Monte Carlo sizes, tolerances, seeds and
runtime budget are fixed here and must not be relaxed.  Every test prints one
PASS line with its measured runtime (visible with ``pytest -s`` or ``-rA``).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gwi import (
    LimitSystem,
    decomposition_components,
    detect_case,
    exact_first_coordinate_law,
    growth_exponents,
    growth_fit,
    kernel_representation_check,
    leading_asymptotic,
    limit_system_marginals,
    make_grid,
    mean_vector,
    run_convergence_experiment,
    simulate_ensemble,
    simulate_limit_system,
    simulate_trajectory,
    unipotent_power,
    variance_matrix,
    wasserstein1,
    weighted_sum_identity_1,
    weighted_sum_identity_2,
    weighted_sum_identity_3,
)
from gwi.cli import main as cli_main
from gwi import save_model
from util import (
    besq_system,
    poisson_case_model,
    random_unipotent,
    single_type_poisson,
    w1_permutation_pvalue,
)

FLAGSHIP_IMMIGRATION = (1.0, 2.0, 2.0)
# one seed for every flagship pattern, fixed before any run
FLAGSHIP_SEED = 0
# level of the per-coordinate W1 permutation tests of criterion 6
W1_ALPHA = 0.001


def _report(criterion: str, started: float, budget_s: float, detail: str = "") -> None:
    elapsed = time.time() - started
    assert elapsed < budget_s, f"{criterion} exceeded its runtime budget ({elapsed:.0f}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s){' -- ' + detail if detail else ''}")


def test_criterion_1_exact_identity_suite():
    started = time.time()
    rng = np.random.default_rng(1001)

    identity_checks = 0
    for _ in range(500):
        k = int(rng.integers(1, 101))
        n = int(rng.choice([1, 2, 3, 7, 64]))
        table = rng.integers(-9, 10, size=k + 1)
        f = lambda l: int(table[l])  # noqa: E731
        for identity in (
            weighted_sum_identity_1,
            weighted_sum_identity_2,
            weighted_sum_identity_3,
        ):
            lhs, rhs = identity(f, k, n)
            assert lhs == rhs
            identity_checks += 1

    for trial in range(200):
        p = int(rng.integers(2, 7))
        k = int(rng.integers(1, 51))
        if trial % 2 == 0:
            a = random_unipotent(rng, p)
            fast = np.asarray(unipotent_power(a, k), dtype=float)
            slow = np.eye(p)
            for _ in range(k):
                slow = slow @ a
            assert np.allclose(fast, slow, rtol=1e-9, atol=1e-9)
        else:
            a = random_unipotent(rng, p, integer=True)
            fast = unipotent_power(a, k)
            slow = np.eye(p, dtype=object)
            for _ in range(k):
                slow = slow @ a.astype(object)
            assert np.array_equal(fast, slow)

    model = poisson_case_model(4, immigration=FLAGSHIP_IMMIGRATION)
    for replica in range(100):
        traj = simulate_trajectory(model, 200, seed=77, replica=replica)
        decomposition_components(traj, rtol=1e-9)  # raises beyond 1e-9

    _report(
        "criterion 1 (exact identities)",
        started,
        60.0,
        f"{identity_checks} identity instances, 200 matrix powers, 100 decompositions",
    )


def test_criterion_2_growth_degree_table():
    started = time.time()
    rng = np.random.default_rng(1002)
    expected = {1: (1, 1, 1), 2: (1, 1, 2), 3: (1, 2, 2), 4: (1, 2, 3)}
    for case, degrees in expected.items():
        for _ in range(50):
            scale = rng.uniform(0.1, 3.0, size=3)
            optional = float(rng.integers(0, 2))
            a21, a31, a32 = {
                1: (0.0, 0.0, 0.0),
                2: (0.0, scale[1], optional * scale[2]),
                3: (scale[0], scale[1], 0.0),
                4: (scale[0], optional * scale[1], scale[2]),
            }[case]
            a = np.eye(3)
            a[1, 0], a[2, 0], a[2, 1] = a21, a31, a32
            b = rng.uniform(0.0, 2.0, size=3)
            assert growth_exponents(a, b).degrees == degrees
    _report("criterion 2 (growth-degree table)", started, 1.0, "4 patterns x 50 matrices")


def test_criterion_3_moment_engine_vs_monte_carlo():
    started = time.time()
    replicas = 100_000
    ks = [5, 10, 20]
    worst = 0.0
    for case in (1, 2, 3, 4):
        model = poisson_case_model(case, immigration=FLAGSHIP_IMMIGRATION)
        states = simulate_ensemble(model, max(ks), replicas, seed=3000 + case, record_at=ks)
        for pos, k in enumerate(ks):
            sample = states[:, pos, :].astype(float)
            exact_mean = mean_vector(model, k)
            exact_var = np.diag(variance_matrix(model, k))
            mean_se = sample.std(axis=0, ddof=1) / math.sqrt(replicas)
            gap = np.abs(sample.mean(axis=0) - exact_mean)
            assert np.all(gap <= 4.0 * mean_se), (case, k, gap / mean_se)
            worst = max(worst, float(np.max(gap / mean_se)))

            centered = sample - sample.mean(axis=0)
            sample_var = centered.var(axis=0, ddof=1)
            fourth = np.mean(centered**4, axis=0)
            var_se = np.sqrt(np.maximum(fourth - sample_var**2, 0.0) / replicas)
            var_gap = np.abs(sample_var - exact_var)
            assert np.all(var_gap <= 4.0 * var_se), (case, k, var_gap / var_se)
            worst = max(worst, float(np.max(var_gap / var_se)))
    _report(
        "criterion 3 (moments vs Monte Carlo)",
        started,
        300.0,
        f"worst deviation {worst:.2f} standard errors",
    )


def test_criterion_4_leading_asymptotics():
    started = time.time()
    model = poisson_case_model(
        4, immigration=(1.0, 0.0, 0.0), subdiagonals=(0.5, 0.25, 0.5)
    )
    degree, coeff = leading_asymptotic(model, 2)
    assert degree == 3
    assert coeff == pytest.approx(0.25)
    k = 500
    ratio = mean_vector(model, k)[2] / (coeff * math.comb(k, degree))
    assert 0.99 <= ratio <= 1.01, ratio
    _report("criterion 4 (leading asymptotics)", started, 1.0, f"ratio {ratio:.5f}")


def test_criterion_5_squared_bessel_moments_and_law():
    started = time.time()
    b = v = 1.0
    vals = limit_system_marginals(besq_system(b, v), [1.0, 2.0], 1e-3, 100_000, seed=5001)[:, :, 0]
    for idx, t in enumerate((1.0, 2.0)):
        sample = vals[:, idx]
        mean_err = abs(sample.mean() - b * t) / (b * t)
        var_target = v * b * t**2 / 2.0
        var_err = abs(sample.var(ddof=1) - var_target) / var_target
        assert mean_err <= 0.02, (t, mean_err)
        assert var_err <= 0.05, (t, var_err)

    fine = limit_system_marginals(besq_system(b, v), [1.0], 1e-4, 10_000, seed=5002)[:, 0, 0]
    law = exact_first_coordinate_law(b, v, 1.0)
    res = stats.kstest(fine, stats.gamma(a=law.shape, scale=law.scale).cdf)
    assert res.pvalue > 0.01, res
    _report(
        "criterion 5 (squared Bessel moments + law)",
        started,
        300.0,
        f"KS p-value {res.pvalue:.3f}",
    )


def _scaled_samples(model, report, sizes):
    """The scaled GWI and limit samples behind ``report``'s t = 1 cells.

    Rebuilt from the report's seed the way ``run_convergence_experiment``
    draws them: its root ``SeedSequence`` spawns the GWI key, then the limit
    key.  Returns ({n: (replicas, 3) GWI sample}, (sde_paths, 3) limit sample).
    """
    system = LimitSystem.from_model(model)
    gwi_key, sde_key = np.random.SeedSequence(report.seed).spawn(2)
    limit = limit_system_marginals(system, report.t_points, report.dt, report.sde_paths, sde_key)
    states = simulate_ensemble(model, max(sizes), report.replicas, gwi_key, record_at=sizes)
    perm = list(detect_case(model.A).permutation)
    exponents = np.asarray(system.exponents, dtype=float)
    gwi = {n: states[:, i, perm] / np.power(float(n), exponents) for i, n in enumerate(sizes)}
    return gwi, limit[:, report.t_points.index(1.0), :]


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_criterion_6_flagship_convergence(case):
    started = time.time()
    model = poisson_case_model(case, immigration=FLAGSHIP_IMMIGRATION)
    report = run_convergence_experiment(
        model,
        case,
        n_list=[125, 500, 2000],
        replicas=2000,
        t_points=[1.0],
        sde_paths=2000,
        seed=FLAGSHIP_SEED,
        dt=1e-3,
    )
    for coordinate in range(3):
        entry = report.entry(500, 1.0, coordinate)
        se = math.sqrt(entry.variance / entry.replicas)
        bias = abs(entry.limit_mean - entry.exact_scaled_mean)
        assert abs(entry.mean - entry.limit_mean) <= 3.0 * se + bias, entry
        assert entry.ks_pvalue > 0.01 / 3.0, entry
    # Wasserstein gate, per coordinate at t = 1.  At n = 2000 the GWI marginal
    # must not be told apart from the limit sample by a W1 permutation test at
    # level W1_ALPHA (false-failure rate W1_ALPHA per coordinate if the two
    # laws agree).  Where n = 125 is told apart at that level (no permuted W1
    # reaches the observed one), the distance must also fall from n = 125 to
    # n = 2000; where it is not, its W1 sits in two-sample noise and the
    # trend would test nothing.
    samples, limit = _scaled_samples(model, report, [125, 2000])
    for trend in report.trends:
        c = trend["coordinate"]
        pvalues = {}
        for n, sample in samples.items():
            assert wasserstein1(sample[:, c], limit[:, c]) == report.entry(n, 1.0, c).wasserstein
            pvalues[n] = w1_permutation_pvalue(sample[:, c], limit[:, c])
        assert pvalues[2000] > W1_ALPHA, (trend, pvalues)
        if pvalues[125] <= W1_ALPHA:
            assert trend["w_large"] < trend["w_small"], (trend, pvalues)
    _report(
        f"criterion 6 (flagship convergence, pattern {case})",
        started,
        300.0,
        "means, KS, Wasserstein permutation gate and trend",
    )


def test_criterion_7_growth_exponent_fits():
    started = time.time()
    sizes = [32, 64, 128, 256, 512]

    single = single_type_poisson()
    fourth = growth_fit(single, "fourth_moment", sizes, 100_000, seed=7001)
    assert fourth.targets == (2.0,)
    assert abs(fourth.slopes[0] - 2.0) <= 0.3, fourth.slopes

    chain = poisson_case_model(4, immigration=(1.0, 0.0, 0.0))
    sup = growth_fit(chain, "sup_sum_sq", sizes, 100_000, seed=7002)
    assert sup.targets == (2.0, 3.0, 4.0)
    for slope, target in zip(sup.slopes, sup.targets):
        assert abs(slope - target) <= 0.3, sup.slopes
    _report(
        "criterion 7 (growth-exponent fits)",
        started,
        600.0,
        f"fourth {fourth.slopes[0]:.2f}; sup-sum {tuple(round(s, 2) for s in sup.slopes)}",
    )


def test_criterion_8_kernel_representations():
    started = time.time()
    dt = 1e-3
    grid = make_grid(1.0, dt)
    paths = simulate_limit_system(besq_system(1.0, 1.0), grid, seed=8001, n_paths=100).values[:, :, 0]
    worst = 0.0
    for p in range(paths.shape[0]):
        res = kernel_representation_check(paths[p], grid, 1.0, 1.0, 1.0)
        budget = 5.0 * dt * max(res.path_sup, 1e-12)
        for residual in (
            res.second_coordinate,
            res.iterated_vs_kernel,
            res.iterated_vs_stieltjes,
            res.kernel_vs_stieltjes,
        ):
            assert residual <= budget, (p, residual, budget)
            worst = max(worst, residual / budget)
    _report(
        "criterion 8 (kernel representations)",
        started,
        60.0,
        f"worst residual at {100 * worst:.0f}% of budget",
    )


def _strip_timestamp(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.get("provenance", {}).pop("timestamp", None)
    return payload


def test_criterion_9_determinism(tmp_path):
    started = time.time()
    model_path = tmp_path / "model.json"
    save_model(poisson_case_model(4, immigration=FLAGSHIP_IMMIGRATION), model_path)

    def rerun_identical(args, out_name, json_mode=False, threads=None):
        outs = []
        for i, t in enumerate(threads or [1, 1]):
            out = tmp_path / f"{out_name}_{i}"
            argv = args + ["--out", str(out), "--threads", str(t)]
            assert cli_main(argv) == 0
            outs.append(out)
        if json_mode:
            assert _strip_timestamp(outs[0]) == _strip_timestamp(outs[1])
        else:
            assert outs[0].read_bytes() == outs[1].read_bytes()

    rerun_identical(
        ["classify", "--model", str(model_path), "--seed", "3", "--format", "json"],
        "classify",
        json_mode=True,
    )
    rerun_identical(
        ["simulate", "--model", str(model_path), "--steps", "40", "--replicas", "8", "--seed", "3"],
        "simulate",
        threads=[1, 8],
    )
    rerun_identical(
        ["moments", "--model", str(model_path), "--max-k", "12", "--seed", "3"], "moments"
    )
    rerun_identical(
        [
            "sde", "--case", "4", "--b1", "1", "--v1", "1", "--a21", "0.5", "--a32", "0.5",
            "--dt", "0.01", "--horizon", "1.0", "--paths", "4", "--seed", "3",
        ],
        "sde",
    )
    rerun_identical(
        ["identities", "--max-k", "40", "--trials", "60", "--seed", "3", "--format", "json"],
        "identities",
        json_mode=True,
    )

    config = {
        "model": str(model_path),
        "case": 4,
        "n_list": [20, 40],
        "t_points": [1.0],
        "replicas": 1000,
        "sde_paths": 1000,
        "dt": 0.01,
        "seed": 3,
    }
    reports = []
    for i, threads in enumerate((1, 8)):
        out_dir = tmp_path / f"conv_{i}"
        cfg = tmp_path / f"conv_{i}.json"
        cfg.write_text(json.dumps({**config, "out_dir": str(out_dir)}))
        assert cli_main(["converge", "--config", str(cfg), "--threads", str(threads)]) == 0
        reports.append(
            (
                _strip_timestamp(out_dir / "report.json"),
                (out_dir / "report.csv").read_bytes(),
            )
        )
    assert reports[0] == reports[1]
    _report("criterion 9 (determinism)", started, 300.0, "all subcommands, threads {1, 8}")
