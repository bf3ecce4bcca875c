"""Command-line entry point.

Subcommands and the formats they write to ``--out`` (the first is the default):
``classify`` and ``moments`` csv or json, ``simulate`` and ``sde`` csv,
``identities`` json.  ``converge`` writes report.json and report.csv to its
config's ``out_dir`` and rejects ``--out`` and ``--format``.  One writer
writes every output file: a provenance header (package version, seed, hash of
the resolved configuration, hash of the model's content for subcommands that
read one, and the bit generator and numpy and scipy versions on which seeded
streams depend), then the body.  Reruns with the same seed are byte-identical
except for the ``timestamp`` field of JSON reports, which is excluded from the
determinism contract.

Exit codes: 0 success, 2 validation/configuration error (single-line message
on stderr), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import GwiError, ValidationError
from .harness import run_convergence_experiment
from .model import classify_criticality, detect_case, is_strongly_critical, load_model
from .moments import growth_exponents, moment_growth_targets, moment_stream
from .sde import LimitSystem, make_grid, simulate_limit_system
from .simulate import (
    check_seed,
    simulate_replicas,
    weighted_sum_identity_1,
    weighted_sum_identity_2,
    weighted_sum_identity_3,
)

IDENTITY_GRID_SCALES = (1, 2, 3, 7, 64)


def _sha256(document) -> str:
    canonical = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_NON_SEMANTIC_KEYS = {"func", "out", "config", "threads"}

# the formats each subcommand writes, the default first; converge writes
# report.json and report.csv to its config's out_dir instead
_FORMATS = {
    "classify": ("csv", "json"),
    "moments": ("csv", "json"),
    "simulate": ("csv",),
    "sde": ("csv",),
    "identities": ("json",),
    "converge": (),
}


def _provenance(args: argparse.Namespace, model=None, *, timestamp: bool = False) -> dict:
    """The provenance record: ``config_sha256`` hashes the flags other than the
    non-semantic ones and None, ``model_sha256`` the canonical ``model.to_dict()``."""
    options = {k: v for k, v in vars(args).items() if k not in _NON_SEMANTIC_KEYS and v is not None}
    out = {"version": __version__, "seed": args.seed, "config_sha256": _sha256(options)}
    if model is not None:
        out["model_sha256"] = _sha256(model.to_dict())
    out |= {
        # seeded streams depend on the bit generator and on numpy's samplers
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def _write(dest, fmt, args, model=None, *, payload=None, fields=(), body=(), notes=None) -> None:
    """Write one output file, or stdout for ``dest`` None or "-": provenance, then the body.

    JSON is ``{"provenance": ..., **payload}``, its provenance with a timestamp.
    CSV is the provenance and ``notes`` as ``# key=value`` lines, the header row
    ``fields``, then ``body``: blocks of rendered CSV lines.
    """
    provenance = _provenance(args, model, timestamp=fmt == "json")
    handle = sys.stdout if dest in (None, "-") else open(dest, "w", newline="")
    try:
        if fmt == "json":
            json.dump({"provenance": provenance, **payload}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        else:
            handle.writelines(f"# {k}={v}\n" for k, v in {**provenance, **(notes or {})}.items())
            handle.writelines(_csv_rows([fields]))
            handle.writelines(body)
    finally:
        if handle is not sys.stdout:
            handle.close()


def _csv_rows(rows) -> list[str]:
    """Mixed-type rows rendered by ``csv.writer`` as one block, None as an empty cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return [buffer.getvalue()]


def _numeric_rows(lead: str, keys: list[str], values: np.ndarray, cell: str) -> str:
    """One line per row of ``values``: ``lead``, its key, its numbers as ``cell``.

    ``lead`` and the keys are rendered numbers, so they hold no ``%``; the
    values go through a single %-format over the row template repeated once
    per row.  ``%d`` of an int and ``%.12g``
    of a float print what ``csv.writer`` prints for the int and for the
    string ``f"{x:.12g}"``.
    """
    row = f",{cell}" * values.shape[1]
    template = lead + f"{row}\n{lead}".join(keys) + f"{row}\n"
    return template % tuple(values.ravel().tolist())


def _threads(value: str) -> int:
    if value == "auto":
        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("threads must be an integer or 'auto'")
    if n < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return n


def cmd_classify(args) -> int:
    model = load_model(args.model)
    record = {
        "case": None,
        "permutation": None,
        "growth_degrees": None,
        "criticality": classify_criticality(model.A),
        "strongly_critical": is_strongly_critical(model.A),
    }
    # the sign patterns and growth degrees are defined for 3x3 lower-unipotent A only
    if model.p == 3 and model.is_lower_unipotent():
        cid = detect_case(model.A)
        record["case"] = cid.value
        record["permutation"] = [p + 1 for p in cid.permutation]
        record["growth_degrees"] = list(growth_exponents(model.A, model.b).degrees)
        perm_note = "" if cid.is_identity else f", normalizing permutation {record['permutation']}"
        summary = f"case {cid.value}{perm_note}, exponents {tuple(record['growth_degrees'])}"
    else:
        summary = "no sign pattern (mean matrix is not 3x3 lower unipotent)"
    print(f"{summary}, {record['criticality']}")
    if args.out:
        row = [" ".join(map(str, v)) if isinstance(v, list) else v for v in record.values()]
        body = _csv_rows([row])
        _write(args.out, args.format, args, model, payload=record, fields=list(record), body=body)
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    trajectories = simulate_replicas(model, args.steps, args.seed, args.replicas)
    header = [f"X_{i + 1}" for i in range(model.p)]
    generations = [str(k) for k in range(args.steps + 1)]
    if args.split_files:
        if not args.out:
            raise ValidationError("--split-files requires --out")
        base = Path(args.out)
        base.mkdir(parents=True, exist_ok=True)
        for traj in trajectories:
            body = [_numeric_rows("", generations, traj.states, "%d")]
            _write(
                base / f"replica_{traj.replica:05d}.csv", args.format, args, model,
                fields=["k", *header], body=body, notes={"replica": traj.replica},
            )
        print(f"wrote {len(trajectories)} trajectory files to {base}")
        return 0
    body = (
        _numeric_rows(f"{traj.replica},", generations, traj.states, "%d") for traj in trajectories
    )
    _write(args.out, args.format, args, model, fields=["replica", "k", *header], body=body)
    return 0


def cmd_moments(args) -> int:
    model = load_model(args.model)
    means, variances = moment_stream(model, args.max_k)
    rows = [
        [k, *(f"{x:.12g}" for x in mean), *(f"{x:.12g}" for x in np.diag(var))]
        for k, (mean, var) in enumerate(zip(means, variances))
    ]
    exponents = moment_growth_targets(model) if model.is_lower_unipotent() else None
    fields = (
        ["k"]
        + [f"EX_{i + 1}" for i in range(model.p)]
        + [f"VarX_{i + 1}{i + 1}" for i in range(model.p)]
    )
    payload = {"fields": fields, "table": rows, "exponents": exponents}
    notes = None if exponents is None else {"exponents": json.dumps(exponents, sort_keys=True)}
    _write(
        args.out, args.format, args, model,
        payload=payload, fields=fields, body=_csv_rows(rows), notes=notes,
    )
    return 0


def cmd_sde(args) -> int:
    system = LimitSystem(
        case=args.case, b=(args.b1, args.b2, args.b3), v=(args.v1, args.v2, args.v3),
        a21=args.a21, a31=args.a31, a32=args.a32,
    )
    grid = make_grid(args.horizon, args.dt)
    path = simulate_limit_system(system, grid, args.seed, n_paths=args.paths)
    times = [f"{t:.12g}" for t in grid.tolist()]
    body = (_numeric_rows(f"{p},", times, values, "%.12g") for p, values in enumerate(path.values))
    _write(args.out, args.format, args, fields=["path", "t", "X1", "X2", "X3"], body=body)
    return 0


def cmd_identities(args) -> int:
    if args.max_k < 1 or args.trials < 1:
        raise ValidationError("identities needs --max-k >= 1 and --trials >= 1")
    rng = np.random.default_rng(args.seed)
    failures = 0
    for _ in range(args.trials):
        k = int(rng.integers(1, args.max_k + 1))
        n = int(rng.choice(IDENTITY_GRID_SCALES))
        table = rng.integers(-9, 10, size=k + 2).tolist()
        for identity in (weighted_sum_identity_1, weighted_sum_identity_2, weighted_sum_identity_3):
            lhs, rhs = identity(table.__getitem__, k, n)
            if lhs != rhs:
                failures += 1
    print(f"identities: {args.trials} trials x 3 identities, {failures} failures")
    if args.out:
        scales = list(IDENTITY_GRID_SCALES)
        payload = dict(trials=args.trials, max_k=args.max_k, scales=scales, failures=failures)
        _write(args.out, args.format, args, payload=payload)
    return 0 if failures == 0 else 1


# converge takes its settings from the config file only; [t] is a list of t
_CONVERGE_TYPES = dict(
    model=str, case=int, out_dir=str, n_list=[int], t_points=[float],
    replicas=int, sde_paths=int, seed=int, dt=float, ci_level=float,
)


def cmd_converge(args) -> int:
    if not args.config:
        raise ValidationError("converge requires --config")
    cfg = _load_config(args.config)
    unknown = set(cfg) - set(_CONVERGE_TYPES)
    if unknown:
        raise ValidationError(f"config has unknown keys: {sorted(unknown)}")
    missing = {"model", "case", "out_dir"} - set(cfg)
    if missing:
        raise ValidationError(f"config missing keys: {sorted(missing)}")
    cfg = {key: _typed(key, value, _CONVERGE_TYPES[key]) for key, value in cfg.items()}
    cfg.setdefault("seed", args.seed)
    out_dir = Path(cfg.pop("out_dir"))
    model_path = cfg.pop("model")
    model = load_model(model_path)
    report = run_convergence_experiment(model, **cfg)
    # the settings as run, defaults included, are hashed; out_dir and the config's path are not
    for key in _CONVERGE_TYPES.keys() - {"model", "out_dir"}:
        setattr(args, key, getattr(report, key))
    args.model = model_path
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "report.json", "json", args, model, payload=report.to_dict())
    body = _csv_rows(report.rows())
    _write(out_dir / "report.csv", "csv", args, model, fields=report.CSV_FIELDS, body=body)
    improved = sum(1 for tr in report.trends if tr["improved"])
    print(
        f"case {report.case}: {len(report.entries)} cells, "
        f"{improved}/{len(report.trends)} distance trends improved; reports in {out_dir}"
    )
    return 0


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return cfg


def _typed(key: str, value, convert, choices=None):
    """A config value converted as if typed after its flag; [convert] maps a list."""
    if isinstance(convert, list):
        if not isinstance(value, list):
            raise ValidationError(f"config key {key!r} must be a list, not {value!r}")
        return [_typed(key, item, convert[0]) for item in value]
    try:
        typed = convert(str(value)) if isinstance(value, (str, int, float)) else None
    except (ValueError, argparse.ArgumentTypeError):
        typed = None
    if typed is None or (choices is not None and typed not in choices):
        raise ValidationError(f"config key {key!r} has invalid value {value!r}")
    return typed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwi",
        description="Simulate and verify critical multi-type branching processes with immigration.",
    )
    parser.add_argument("--config", help="JSON file whose keys override matching flags")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="JSON file whose keys override matching flags"
    )
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    common.add_argument(
        "--threads",
        type=_threads,
        default=1,
        help="worker count or 'auto'; accepted for compatibility, has no effect",
    )
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument(
        "--format", choices=("csv", "json"), help="default: the first format the subcommand writes"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="pattern, exponents, criticality")
    p.add_argument("--model", required=True, help="model JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", parents=[common], help="simulate trajectories to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument(
        "--split-files", action="store_true", help="one CSV per replica under --out directory"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("moments", parents=[common], help="exact mean/variance tables")
    p.add_argument("--model", required=True)
    p.add_argument("--max-k", type=int, default=20)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("sde", parents=[common], help="simulate a limit system")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    for name in ("b1", "b2", "b3", "v1", "v2", "v3", "a21", "a31", "a32"):
        p.add_argument(f"--{name}", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=1)
    p.set_defaults(func=cmd_sde)

    p = sub.add_parser("identities", parents=[common], help="randomized exact-identity battery")
    p.add_argument("--max-k", type=int, default=100)
    p.add_argument("--trials", type=int, default=500)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("converge", parents=[common], help="convergence experiment from config")
    p.set_defaults(func=cmd_converge)

    return parser


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if not args.config or args.command == "converge":
        return
    # argparse keeps a parser's flags only in its private _actions list
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in commands.choices[args.command]._actions if a.option_strings}
    for key, value in _load_config(args.config).items():
        action = flags.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise ValidationError(f"config key {key!r} is not a flag of {args.command}")
        if action.nargs != 0:
            value = _typed(key, value, action.type or str, action.choices)
        elif not isinstance(value, bool):  # a switch such as --split-files
            raise ValidationError(f"config key {key!r} must be true or false, not {value!r}")
        setattr(args, action.dest, value)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(parser, args)
    check_seed(args.seed)
    formats = _FORMATS[args.command]
    writes = " or ".join(formats) or "to its config's out_dir"
    if args.out and not formats:
        raise ValidationError(f"{args.command} writes {writes}, not to --out")
    if args.format not in (None, *formats):
        raise ValidationError(f"{args.command} writes {writes}, not --format {args.format}")
    args.format = args.format or next(iter(formats), None)
    return args.func(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GwiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
