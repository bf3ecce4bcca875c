"""gwi benchmark: time every CLI subcommand and the heavy library entry points.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ensembles --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 60
    python3 bench/run.py --compare bench/out/before bench/out/after

``--trace 0`` sets up the workload several times, then runs passes over its
operations with tracing off until ``--seconds`` is used up, checking every
output, and reports the end-to-end metrics.  Each operation is made of timed
calls ("units"); ``wall_s`` is one pass at the host's best speed, the sum of
each unit's fastest time in the run.  The results file also holds the median
and quartiles of whole passes and of each operation.  ``--trace 1`` runs a
traced pass between two untraced ones and reports the per-layer metrics of
BENCHMARK.json; ``--workload all`` runs every workload both ways.
A results file with the environment record goes to ``--out-dir``; the last
line of standard output is a JSON summary.  ``--compare A B`` compares two
directories of results files (see compare.py).
"""

from __future__ import annotations

import os

# one BLAS thread: the matrices here are 3x3 and extra threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from compare import compare, quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBE = "import gwi, gwi.cli"


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _summary(values: list[float], unit: str) -> dict:
    median, q1, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _best_summary(best: float, times: list[float]) -> dict:
    """A sum of fastest unit times, with the median and quartiles of the whole calls beside it."""
    median, q1, q3 = quartiles(times)
    return {"value": best, "unit": "s", "median": median, "q1": q1, "q3": q3, "n": len(times)}


# -- environment ---------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "platform": platform.platform(),
        "workload_seed": seed,
        "loadavg_before": os.getloadavg(),
    }


# -- passes ----------------------------------------------------------------------


@dataclass
class PassRecord:
    index: int
    times: dict[str, float] = field(default_factory=dict)
    units: dict[str, dict[str, float]] = field(default_factory=dict)
    digests: dict[str, str | None] = field(default_factory=dict)
    checks: dict[str, list] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def _fingerprint(obj, h) -> None:
    """Feed a canonical form of an operation result into hash ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            if key != "timestamp":
                h.update(repr(key).encode())
                _fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _fingerprint(item, h)
    elif hasattr(obj, "__dict__"):
        _fingerprint(vars(obj), h)
    else:
        h.update(repr(obj).encode())


def _output_digest(result, outputs) -> str:
    """Hash of the result and the files written; JSON ``timestamp`` fields are ignored."""
    h = hashlib.sha256()
    _fingerprint(result, h)
    for path in outputs:
        if path.suffix == ".json":
            _fingerprint(json.loads(path.read_text()), h)
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def _cli_output_counts(outputs) -> tuple[int, int]:
    """(CSV data rows, bytes) of the files an operation wrote."""
    rows = size = 0
    for path in outputs:
        size += path.stat().st_size
        if path.suffix == ".csv":
            with open(path) as handle:
                lines = sum(1 for line in handle if not line.startswith("#"))
            rows += max(lines - 1, 0)
    return rows, size


def run_pass(workload, pass_index, workloads_mod, tracer=None) -> PassRecord:
    record = PassRecord(pass_index)
    for op_id, op in enumerate(workload.operations, start=1):
        if tracer is not None:
            tracer.begin_op(op_id, op.name)
        workload.unit_times.clear()
        started = time.perf_counter()
        try:
            result, error = op.run(pass_index), None
        except Exception:  # an operation that raises is a failed operation
            result, error = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
        record.times[op.name] = time.perf_counter() - started
        record.units[op.name] = dict(workload.unit_times)
        if tracer is not None:
            tracer.end_op()
        if error is not None:
            record.checks[op.name] = [workloads_mod.Check(f"{op.name}.raised", False, error)]
            record.digests[op.name] = None
            continue
        try:
            record.checks[op.name] = op.check(result)
            record.digests[op.name] = _output_digest(result, op.outputs)
        except Exception:
            detail = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            record.checks[op.name] = [workloads_mod.Check(f"{op.name}.check_raised", False, detail)]
            record.digests[op.name] = None
        if tracer is not None and op.outputs:
            rows, size = _cli_output_counts(op.outputs)
            tracer.counts["cli.rows_written"] += rows
            tracer.counts["cli.bytes_written"] += size
    return record


def _compare_digests(passes, workloads_mod) -> None:
    """Passes with the same seeds (same index) must write exactly the same outputs."""
    first = {}
    for record in passes:
        reference = first.setdefault(record.index, record)
        for name, digest in record.digests.items():
            if reference is not record and digest is not None and digest != reference.digests[name]:
                record.checks[name].append(
                    workloads_mod.Check(f"{name}.deterministic", False, "output differs from the first pass with the same seeds")
                )


def best_unit_times(passes) -> dict[str, dict[str, float]]:
    """operation -> unit -> the unit's fastest time over the passes."""
    best: dict[str, dict[str, float]] = {}
    for record in passes:
        for op_name, units in record.units.items():
            op_best = best.setdefault(op_name, {})
            for unit, seconds in units.items():
                op_best[unit] = min(op_best.get(unit, seconds), seconds)
    return best


def _tally(passes):
    """attempted, failed, unexpected-failure flag and the failed checks."""
    attempted = failed = 0
    unexpected = False
    failures = []
    for index, record in enumerate(passes, start=1):
        for name, checks in record.checks.items():
            attempted += 1
            bad = [c for c in checks if not c.ok]
            failed += bool(bad)
            unexpected |= any(not c.known_defect for c in bad)
            failures += [
                {"pass": index, "op": name, "check": c.name, "detail": c.detail, "known_defect": c.known_defect}
                for c in bad
            ]
    return attempted, failed, unexpected, failures


# -- one workload ------------------------------------------------------------------


def run_workload(args) -> int:
    import workloads as wl
    from tracer import Tracer, layer_metrics

    spec = _load_spec()
    env = environment(args.seed)
    out_dir = Path(args.out_dir)
    work_root = out_dir / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            started = time.perf_counter()
            # a fresh interpreter pays the import a user pays
            subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=120
            )
            workload = wl.Workload(args.workload, args.seed, work_root / f"setup{rep}")
            for op in workload.operations:
                op.warmup()
            setup_times.append(time.perf_counter() - started)

        passes = []
        if args.trace:
            # untraced, traced, untraced, all with the seeds of pass 0: the
            # traced pass is compared with the mean of its neighbours
            passes.append(run_pass(workload, 0, wl))
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(workload, 0, wl, tracer))
            finally:
                tracer.uninstall()
            passes.append(run_pass(workload, 0, wl))
        else:
            started = time.perf_counter()
            while True:
                passes.append(run_pass(workload, len(passes), wl))
                if len(passes) == 1:
                    # high-water mark of set-up and one pass, whatever the pass count
                    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
        _compare_digests(passes, wl)
        attempted, failed, unexpected, failures = _tally(passes)

        if args.trace:
            metric_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = layer_metrics(tracer, passes[1].wall, (passes[0].wall + passes[2].wall) / 2)
            metrics = {name: {"value": values[name], "unit": metric_units[name]} for name in metric_units}
            detail = {"spans": tracer.aggregate(), "counts": dict(tracer.counts)}
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            detail["spans_file"] = spans_path.name
        else:
            metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            best = best_unit_times(passes)
            metrics = {
                "setup_s": _summary(setup_times, metric_units["setup_s"]),
                "wall_s": _best_summary(sum(t for op in best.values() for t in op.values()), [p.wall for p in passes]),
                "peak_rss_mb": {"value": rss_mb, "unit": metric_units["peak_rss_mb"], "n": 1},
            }
            detail = {
                "operations": {
                    f"{op.name}_s": _best_summary(sum(best[op.name].values()), [p.times[op.name] for p in passes])
                    for op in workload.operations
                },
                "failed_ops": {"value": failed / attempted, "unit": "ratio", "n": attempted},
                "best_unit_s": best,
                "pass_wall_s": [p.wall for p in passes],
                "pass_unit_s": [p.units for p in passes],
            }
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    env["loadavg_after"] = os.getloadavg()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "known_defects": wl.KNOWN_DEFECTS,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "environment": env,
        "metrics": metrics,
        **detail,
    }
    results_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(result, indent=2, default=float) + "\n")

    _print_table(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def _print_table(result: dict) -> None:
    print(
        f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"passes {result['passes']}  ops {result['attempted']}  failed {result['failed']}"
    )
    rows = dict(result["metrics"])
    rows.update(result.get("operations", {}))
    if "failed_ops" in result:
        rows["failed_ops"] = result["failed_ops"]
    for name, m in rows.items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}" if "q1" in m else ""
        if "median" in m:
            spread = f"  median {m['median']:.6g}" + spread
        print(f"#   {name:<44} {m['value']:>14.6g} {m['unit']:<6}{spread}")
    seen: dict[tuple, int] = {}
    for f in result["failures"]:
        key = ("known defect" if f["known_defect"] else "FAILED", f["check"], f["detail"])
        seen[key] = seen.get(key, 0) + 1
    for (tag, check, detail), passes in seen.items():
        print(f"#   {tag}: {check}: {detail} ({passes} of {result['passes']} passes)")


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh interpreter (peak RSS is per process)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in [w["name"] for w in _load_spec()["workloads"]]:
            argv = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out-dir", args.out_dir,
            ]
            child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for metric, value in last["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*(w["name"] for w in _load_spec()["workloads"]), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(BENCH_DIR / "out"))
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, _load_spec())
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "gwi" / "__init__.py").is_file():
        print(f"error: no gwi sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
