"""The benchmark's workloads: generated inputs, operations, warm-ups and checks.

Every operation goes through a public entry point of the package, either
``gwi.cli.main([...])`` in-process or a public library function looked up on
the ``gwi`` package at call time (so the tracer's wrappers see the call).
Each operation comes with a check of its output against an exact reference;
a failed check is recorded, never raised.

Models, sizes and configs are fixed.  The RNG seeds of pass ``p`` are derived
from (workload seed, p), so a run's median pass averages over several random
streams while the same workload seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gwi
import gwi.cli

# Sub-diagonals (a21, a31, a32) of the flagship 3-type Poisson models, one per
# sign pattern of the paper's classification.
FLAGSHIP_SUBDIAGONALS = {
    1: (0.0, 0.0, 0.0),
    2: (0.0, 0.5, 0.5),
    3: (0.5, 0.5, 0.0),
    4: (0.5, 0.0, 0.5),
}
FLAGSHIP_IMMIGRATION = (1.0, 2.0, 2.0)

# Sizes keep each timed call (a "unit") under about 0.6 s, and most under
# 0.2 s, on a 2-CPU machine, so that a 60-s run holds 20-50 passes.  The benchmark reports each unit's
# fastest time in the run: on a shared host whose speed swings by 1.5x for
# seconds at a time, the fastest of many short calls repeats from run to run
# and the median of a few long ones does not.  The README-default sizes (2000
# replicas up to n = 2000, 500 identity trials) take 10-20 s per operation.
CONVERGE_CONFIG = {
    "n_list": [125, 250],
    "t_points": [0.25, 0.5, 1.0],
    "replicas": 1000,
    "sde_paths": 1000,
    "dt": 1e-3,
}
GROWTH_SIZES = [32, 64, 128, 256, 512]
GROWTH_SUP_REPLICAS = 1_500
GROWTH_FOURTH_REPLICAS = 5_000
MOMENTS_MAX_K = 70
IDENTITIES_MAX_K = 50
IDENTITIES_TRIALS = 40
PERMUTED_ORDER = [2, 0, 1]
SIMULATE_STEPS = 250
SIMULATE_REPLICAS = 8
SDE_PATHS = 25
SDE_DT = 1e-3
LIMIT_T_POINTS = [0.25, 0.5, 1.0]
LIMIT_PATHS = 2_500

SE_LIMIT = 5.0
SLOPE_TOL = 0.3
MOMENT_RTOL = 1e-9

KNOWN_DEFECTS = {
    "classify.permuted_criticality": (
        "classify_criticality reads the pattern-4 mean matrix with types in order "
        "(2, 0, 1) as supercritical; ROADMAP item 4"
    ),
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    @property
    def known_defect(self) -> bool:
        return self.name in KNOWN_DEFECTS


@dataclass
class Operation:
    """One timed call sequence of a workload.

    ``run(pass_index)`` returns the result that ``check`` inspects;
    ``outputs`` are the files it writes, hashed for the determinism check
    and counted as CLI output.
    """

    name: str
    run: Callable[[int], Any]
    check: Callable[[Any], list[Check]]
    warmup: Callable[[], Any]
    outputs: tuple[Path, ...] = ()


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed from the workload seed and a fixed tag."""
    state = np.random.SeedSequence([seed, zlib.crc32(tag.encode())]).generate_state(1)
    return int(state[0])


def cli(argv: list) -> tuple[int, str]:
    """Run ``gwi.cli.main`` in-process; returns (exit code, captured stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = gwi.cli.main([str(a) for a in argv])
    return code, buffer.getvalue()


def flagship_document(case: int) -> dict:
    """Model file content: type-i offspring ~ Poisson(column i of A)."""
    a21, a31, a32 = FLAGSHIP_SUBDIAGONALS[case]
    columns = [[1.0, a21, a31], [0.0, 1.0, a32], [0.0, 0.0, 1.0]]
    return {
        "p": 3,
        "offspring": [{"kind": "poisson", "params": {"lam": col}} for col in columns],
        "immigration": {"kind": "poisson", "params": {"lam": list(FLAGSHIP_IMMIGRATION)}},
    }


def exact_moments(document: dict, max_k: int) -> np.ndarray:
    """Rows k = 0..max_k of (E X_k, diag var X_k) for an all-Poisson model document.

    Plain one-step recursions from the rates alone, independent of gwi:
    E X_k = A E X_{k-1} + b and
    var X_k = A var X_{k-1} A^T + V^0 + sum_i E X_{k-1,i} V^i.
    """
    lam = np.array([spec["params"]["lam"] for spec in document["offspring"]])
    a, b = lam.T, np.array(document["immigration"]["params"]["lam"])
    p = b.size
    mean, var, rows = np.zeros(p), np.zeros((p, p)), []
    for _ in range(max_k + 1):
        rows.append(np.concatenate([mean, np.diag(var)]))
        var = a @ var @ a.T + np.diag(b) + sum(mean[i] * np.diag(lam[i]) for i in range(p))
        mean = a @ mean + b
    return np.array(rows)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _csv_table(path: Path) -> np.ndarray:
    """Data rows of a CLI CSV file: leading '#' provenance lines and the header are skipped."""
    with open(path) as handle:
        skip = 1 + sum(1 for _ in itertools.takewhile(lambda line: line.startswith("#"), handle))
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _exit_ok(code: int, label: str) -> Check:
    return Check(f"{label}.exit_code", code == 0, f"exit code {code}")


def _cell(gap: float, se: float, where: str) -> tuple[bool, float, str]:
    """(within SE_LIMIT standard errors, gap in standard errors, location)."""
    if se == 0.0:
        return gap == 0.0, 0.0 if gap == 0.0 else math.inf, where
    return gap <= SE_LIMIT * se, gap / se, where


def _mean_cell(samples: np.ndarray, reference: float, where: str) -> tuple[bool, float, str]:
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return _cell(abs(float(np.mean(samples)) - reference), se, where)


def _worst(label: str, cells: list[tuple[bool, float, str]]) -> Check:
    bad = sum(1 for ok, _, _ in cells if not ok)
    _, worst, where = max(cells, key=lambda cell: cell[1])
    detail = f"{bad}/{len(cells)} cells outside {SE_LIMIT} se; largest {worst:.2f} se at {where}"
    return Check(label, bad == 0, detail)


class Workload:
    """Inputs and operations of one workload in its own work directory."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.unit_times: dict[str, float] = {}
        self.dir.mkdir(parents=True, exist_ok=True)
        self.documents = {case: flagship_document(case) for case in FLAGSHIP_SUBDIAGONALS}
        self.model_paths = {
            case: _write_json(self.dir / f"model_pattern{case}.json", doc)
            for case, doc in self.documents.items()
        }
        self.operations = [op for group in WORKLOADS[name] for op in getattr(self, f"_{group}")()]

    def _seed(self, tag: str, pass_index: int) -> int:
        return derive_seed(self.seed, f"{tag}/{pass_index}")

    @contextlib.contextmanager
    def unit(self, name: str):
        """Time one call of an operation into ``unit_times[name]``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.unit_times[name] = time.perf_counter() - started

    # -- converge ------------------------------------------------------------

    def _converge(self) -> list[Operation]:
        configs = {
            case: _write_json(
                self.dir / f"converge{case}.json",
                {"model": str(path), "case": case, **CONVERGE_CONFIG, "out_dir": str(self.dir / f"converge{case}")},
            )
            for case, path in self.model_paths.items()
        }
        warm_config = _write_json(
            self.dir / "warm_converge.json",
            {
                "model": str(self.model_paths[4]), "case": 4, "n_list": [8], "t_points": [1.0],
                "replicas": 1000, "sde_paths": 2, "dt": 0.125, "out_dir": str(self.dir / "warm_converge"),
            },
        )
        outputs = tuple(
            self.dir / f"converge{case}" / name for case in configs for name in ("report.json", "report.csv")
        )

        def run(pass_index):
            # the configs carry no seed, so --seed decides it
            results = []
            for case, cfg in configs.items():
                with self.unit(f"pattern{case}"):
                    results.append(cli(["converge", "--config", cfg, "--seed", self._seed(f"converge{case}", pass_index)]))
            return results

        def check(results):
            checks = []
            expected = len(CONVERGE_CONFIG["n_list"]) * len(CONVERGE_CONFIG["t_points"]) * 3
            for case, (code, _) in zip(configs, results):
                checks.append(_exit_ok(code, f"converge.pattern{case}"))
                report = json.loads((self.dir / f"converge{case}" / "report.json").read_text())
                cells = [
                    _cell(
                        abs(e["mean"] - e["exact_scaled_mean"]),
                        math.sqrt(e["variance"] / e["replicas"]),
                        f"n={e['n']} t={e['t']} coord={e['coordinate']}",
                    )
                    for e in report["entries"]
                ]
                checks.append(Check(f"converge.pattern{case}.cells", len(cells) == expected, f"{len(cells)} cells"))
                checks.append(_worst(f"converge.pattern{case}.exact_mean", cells))
            return checks

        return [Operation("converge", run, check, lambda: cli(["converge", "--config", warm_config]), outputs)]

    # -- growth --------------------------------------------------------------

    def _growth(self) -> list[Operation]:
        chain = gwi.build_model(
            [gwi.Poisson([1.0, 0.5, 0.0]), gwi.Poisson([0.0, 1.0, 0.5]), gwi.Poisson([0.0, 0.0, 1.0])],
            gwi.Poisson([1.0, 0.0, 0.0]),
        )
        single = gwi.build_model([gwi.Geometric([0.5])], gwi.Poisson([1.0]))

        def fit_op(name, model, quantity, replicas, targets):
            def run(pass_index):
                with self.unit(name):
                    return gwi.growth_fit(model, quantity, GROWTH_SIZES, replicas, self._seed(name, pass_index))

            def check(fit):
                checks = [Check(f"{name}.targets", fit.targets == targets, f"targets {fit.targets}")]
                for i, (slope, target) in enumerate(zip(fit.slopes, fit.targets)):
                    ok = slope is not None and abs(slope - target) <= SLOPE_TOL
                    checks.append(Check(f"{name}.slope{i + 1}", ok, f"slope {slope} target {target}"))
                return checks

            return Operation(name, run, check, lambda: gwi.growth_fit(model, quantity, [2, 4], 10, 0))

        return [
            fit_op("growth_sup", chain, "sup_sum_sq", GROWTH_SUP_REPLICAS, (2.0, 3.0, 4.0)),
            fit_op("growth_fourth", single, "fourth_moment", GROWTH_FOURTH_REPLICAS, (2.0,)),
        ]

    # -- exact ---------------------------------------------------------------

    def _exact(self) -> list[Operation]:
        model_path = self.model_paths[4]
        moments_csv = self.dir / "moments.csv"
        identities_json = self.dir / "identities.json"
        classify_json = self.dir / "classify.json"

        def moments_check(result):
            code, _ = result
            table = _csv_table(moments_csv)
            ref = exact_moments(self.documents[4], MOMENTS_MAX_K)
            shape_ok = table.shape == ref.shape[:1] + (7,) and np.array_equal(table[:, 0], np.arange(len(ref)))
            if not shape_ok:
                return [_exit_ok(code, "moments"), Check("moments.recursion", False, f"table shape {table.shape}")]
            gap = float(np.max(np.abs(table[:, 1:] - ref) / np.maximum(np.abs(ref), 1e-300)))
            close = np.allclose(table[:, 1:], ref, rtol=MOMENT_RTOL, atol=0.0)
            return [
                _exit_ok(code, "moments"),
                Check("moments.recursion", bool(close), f"largest relative gap {gap:.2e}"),
            ]

        def moments_run(pass_index):
            with self.unit("moments"):
                return cli(["moments", "--model", model_path, "--max-k", MOMENTS_MAX_K, "--out", moments_csv])

        def identities_run(pass_index):
            with self.unit("identities"):
                return cli([
                    "identities", "--max-k", IDENTITIES_MAX_K, "--trials", IDENTITIES_TRIALS,
                    "--seed", self._seed("identities", pass_index), "--out", identities_json,
                ])

        def identities_check(result):
            code, _ = result
            report = json.loads(identities_json.read_text())
            ok = report["failures"] == 0 and report["trials"] == IDENTITIES_TRIALS
            return [
                _exit_ok(code, "identities"),
                Check("identities.failures", ok, f"{report['failures']} failures in {report['trials']} trials"),
            ]

        def classify_run(pass_index):
            with self.unit("cli"):
                result = cli(["classify", "--model", model_path, "--format", "json", "--out", classify_json])
            with self.unit("permuted"):
                permuted = gwi.load_model(model_path).A[np.ix_(PERMUTED_ORDER, PERMUTED_ORDER)]
                return result, gwi.classify_criticality(permuted), gwi.is_strongly_critical(permuted)

        def classify_check(result):
            (code, _), permuted_class, permuted_strong = result
            record = json.loads(classify_json.read_text())
            return [
                _exit_ok(code, "classify"),
                Check("classify.case", record["case"] == 4, f"case {record['case']}"),
                Check("classify.criticality", record["criticality"] == "critical", record["criticality"]),
                Check("classify.strongly_critical", record["strongly_critical"] is True, str(record["strongly_critical"])),
                Check("classify.permuted_criticality", permuted_class == "critical", permuted_class),
                Check("classify.permuted_strongly_critical", permuted_strong is True, str(permuted_strong)),
            ]

        def classify_warmup():
            cli(["classify", "--model", model_path])
            gwi.classify_criticality([[0.5, 0.5], [0.5, 0.5]])

        return [
            Operation(
                "moments",
                moments_run,
                moments_check,
                lambda: cli(["moments", "--model", model_path, "--max-k", 3, "--out", moments_csv]),
                (moments_csv,),
            ),
            Operation(
                "identities",
                identities_run,
                identities_check,
                lambda: cli(["identities", "--max-k", 5, "--trials", 3, "--out", identities_json]),
                (identities_json,),
            ),
            Operation("classify", classify_run, classify_check, classify_warmup, (classify_json,)),
        ]

    # -- paths ---------------------------------------------------------------

    def _paths(self) -> list[Operation]:
        model_path = self.model_paths[4]
        sim_csv = self.dir / "simulate.csv"
        sde_csv = self.dir / "sde.csv"
        sde_args = ["sde", "--case", 4, "--b1", 1, "--v1", 1, "--a21", 0.5, "--a32", 0.5, "--dt", SDE_DT]
        model = gwi.load_model(model_path)

        def simulate_run(pass_index):
            with self.unit("simulate"):
                return cli([
                    "simulate", "--model", model_path, "--steps", SIMULATE_STEPS, "--replicas", SIMULATE_REPLICAS,
                    "--threads", 2, "--seed", self._seed("simulate", pass_index), "--out", sim_csv,
                ])

        def simulate_check(result):
            code, _ = result
            table = _csv_table(sim_csv)
            steps, replicas = SIMULATE_STEPS, SIMULATE_REPLICAS
            rows_ok = table.shape == (replicas * (steps + 1), 5)
            checks = [_exit_ok(code, "simulate"), Check("simulate.rows", rows_ok, f"shape {table.shape}")]
            if not rows_ok:
                return checks
            states = table[:, 2:].reshape(replicas, steps + 1, 3)
            index_ok = np.array_equal(table[:, 1].reshape(replicas, steps + 1), np.tile(np.arange(steps + 1), (replicas, 1)))
            # the standard error comes from the exact variance: with 8 skewed
            # samples the sample standard deviation is too noisy for a 5 se test
            reference = gwi.mean_vector(model, steps)
            se = np.sqrt(exact_moments(self.documents[4], steps)[steps, 3:] / replicas)
            means = states[:, steps, :].mean(axis=0)
            return checks + [
                Check("simulate.index", bool(index_ok), "k runs 0..steps for every replica"),
                Check("simulate.start_zero", not np.any(states[:, 0, :]), "X_0 = 0"),
                _worst("simulate.mean", [_cell(abs(means[c] - reference[c]), se[c], f"coord={c}") for c in range(3)]),
            ]

        def sde_run(pass_index):
            with self.unit("sde"):
                return cli([*sde_args, "--horizon", 1, "--paths", SDE_PATHS, "--seed", self._seed("sde", pass_index), "--out", sde_csv])

        def sde_check(result):
            code, _ = result
            table = _csv_table(sde_csv)
            rows_ok = table.shape == (SDE_PATHS * (round(1.0 / SDE_DT) + 1), 5)
            return [
                _exit_ok(code, "sde"),
                Check("sde.rows", rows_ok, f"shape {table.shape}"),
                Check("sde.nonnegative", bool(rows_ok and np.all(table[:, 2:] >= 0)), "all values >= 0"),
            ]

        return [
            Operation(
                "simulate",
                simulate_run,
                simulate_check,
                lambda: cli(["simulate", "--model", model_path, "--steps", 3, "--replicas", 2, "--threads", 2, "--out", sim_csv]),
                (sim_csv,),
            ),
            Operation(
                "sde", sde_run, sde_check, lambda: cli([*sde_args, "--horizon", 0.01, "--paths", 2, "--out", sde_csv]), (sde_csv,)
            ),
        ]

    # -- limit marginals -----------------------------------------------------

    def _limit(self) -> list[Operation]:
        models = {case: gwi.load_model(path) for case, path in self.model_paths.items()}

        def limit_run(pass_index):
            samples = {}
            for case, model in models.items():
                with self.unit(f"pattern{case}"):
                    samples[case] = gwi.limit_system_marginals(
                        gwi.LimitSystem.from_model(model), LIMIT_T_POINTS, SDE_DT, LIMIT_PATHS,
                        self._seed(f"limit{case}", pass_index),
                    )
            return samples

        def limit_check(samples):
            cells = []
            for case, values in samples.items():
                system = gwi.LimitSystem.from_model(models[case])
                for ti, t in enumerate(LIMIT_T_POINTS):
                    reference = gwi.limit_mean_vector(system, t)
                    cells += [
                        _mean_cell(values[:, ti, c], reference[c], f"pattern {case} t={t} coord={c}") for c in range(3)
                    ]
            return [_worst("limit_marginals.mean", cells)]

        def limit_warmup():
            for model in models.values():
                gwi.limit_system_marginals(gwi.LimitSystem.from_model(model), [0.01], SDE_DT, 10, 0)

        return [Operation("limit_marginals", limit_run, limit_check, limit_warmup)]


# Operation groups of each workload, in pass order.
WORKLOADS = {
    "ensembles": ("converge", "growth", "limit"),
    "exact_paths": ("exact", "paths"),
}
