from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import gwi
from gwi import (
    LimitSystem,
    Poisson,
    build_model,
    load_model,
    make_grid,
    mean_vector,
    save_model,
    simulate_limit_system,
    simulate_replicas,
)
from gwi.cli import main
from util import poisson_case_model


@pytest.fixture
def identity_model_path(tmp_path) -> str:
    save_model(poisson_case_model(1), tmp_path / "model.json")
    return str(tmp_path / "model.json")


@pytest.fixture
def case4_model_path(tmp_path) -> str:
    save_model(poisson_case_model(4), tmp_path / "case4.json")
    return str(tmp_path / "case4.json")


@pytest.fixture
def silent_model_path(tmp_path) -> str:
    save_model(
        poisson_case_model(1, immigration=(0, 0, 0)), tmp_path / "silent.json"
    )
    return str(tmp_path / "silent.json")


def read_without_comments(path) -> str:
    return "".join(
        line for line in Path(path).read_text().splitlines(keepends=True)
        if not line.startswith("#")
    )


def strip_timestamp(path) -> dict:
    payload = json.loads(Path(path).read_text())
    payload.get("provenance", {}).pop("timestamp", None)
    return payload


def test_classify_identity_pattern(capsys, identity_model_path):
    assert main(["classify", "--model", identity_model_path]) == 0
    out = capsys.readouterr().out
    assert "case 1" in out
    assert "(1, 1, 1)" in out
    assert "critical" in out


def test_classify_writes_json(tmp_path, case4_model_path):
    out = tmp_path / "case.json"
    assert main(
        ["classify", "--model", case4_model_path, "--out", str(out), "--format", "json"]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["case"] == 4
    assert payload["growth_degrees"] == [1, 2, 3]


def test_classify_reports_criticality_of_any_model(tmp_path, capsys):
    # subcritical and not unipotent: A = diag(0.5) + 0.2 e21
    specs = [Poisson([0.5, 0.2, 0.0]), Poisson([0.0, 0.5, 0.0]), Poisson([0.0, 0.0, 0.5])]
    path = tmp_path / "sub.json"
    save_model(build_model(specs, Poisson([1.0, 1.0, 1.0])), path)
    out = tmp_path / "sub_out.json"
    assert main(["classify", "--model", str(path), "--out", str(out), "--format", "json"]) == 0
    assert "subcritical" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["criticality"] == "subcritical" and payload["strongly_critical"] is False
    assert payload["case"] is None and payload["permutation"] is None
    assert payload["growth_degrees"] is None
    rows = list(csv.reader(io.StringIO(read_without_comments(_classify_csv(tmp_path, path)))))
    assert rows == [
        ["case", "permutation", "growth_degrees", "criticality", "strongly_critical"],
        ["", "", "", "subcritical", "False"],
    ]
    # lower unipotent but with two types: critical, with no sign pattern
    two_types = tmp_path / "two.json"
    save_model(build_model([Poisson([1.0, 0.5]), Poisson([0.0, 1.0])], Poisson([1.0, 1.0])), two_types)
    rows = list(csv.reader(io.StringIO(read_without_comments(_classify_csv(tmp_path, two_types)))))
    assert rows[1] == ["", "", "", "critical", "True"]


def _classify_csv(tmp_path, model_path) -> Path:
    out = tmp_path / "classify.csv"
    assert main(["classify", "--model", str(model_path), "--out", str(out)]) == 0
    return out


def test_provenance_names_the_bit_generator_and_library_versions(tmp_path, case4_model_path):
    expected = {"bit_generator": "PCG64", "numpy": np.__version__, "scipy": scipy.__version__}
    out = tmp_path / "case.json"
    assert main(["classify", "--model", case4_model_path, "--out", str(out), "--format", "json"]) == 0
    provenance = json.loads(out.read_text())["provenance"]
    assert {key: provenance[key] for key in expected} == expected
    comments = [
        line for line in _classify_csv(tmp_path, case4_model_path).read_text().splitlines()
        if line.startswith("#")
    ]
    assert comments[3].startswith("# model_sha256=")
    assert comments[4:] == [f"# {key}={value}" for key, value in expected.items()]


def test_classify_rejects_a_model_whose_moments_overflow(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "p": 1,
        "offspring": [{"kind": "geometric", "params": {"p": [5e-324]}}],
        "immigration": {"kind": "poisson", "params": {"lam": [1.0]}},
    }))
    assert main(["classify", "--model", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not finite" in err[0]


def test_classify_missing_model_exits_2(tmp_path):
    assert main(["classify", "--model", str(tmp_path / "nope.json")]) == 2


def test_simulate_no_immigration_is_all_zero(tmp_path, silent_model_path):
    out = tmp_path / "traj.csv"
    assert main(
        [
            "simulate",
            "--model",
            silent_model_path,
            "--steps",
            "10",
            "--replicas",
            "2",
            "--out",
            str(out),
        ]
    ) == 0
    rows = [
        line.split(",") for line in read_without_comments(out).splitlines()[1:]
    ]
    assert len(rows) == 2 * 11
    assert all(row[2] == "0" and row[3] == "0" and row[4] == "0" for row in rows)


def test_simulate_reruns_are_byte_identical(tmp_path, case4_model_path):
    args = [
        "simulate",
        "--model",
        case4_model_path,
        "--steps",
        "25",
        "--replicas",
        "3",
        "--seed",
        "42",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_thread_count_does_not_change_output(tmp_path, case4_model_path):
    base = [
        "simulate",
        "--model",
        case4_model_path,
        "--steps",
        "20",
        "--replicas",
        "8",
        "--seed",
        "7",
    ]
    out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_simulate_split_files(tmp_path, case4_model_path):
    out_dir = tmp_path / "replicas"
    assert main(
        [
            "simulate",
            "--model",
            case4_model_path,
            "--steps",
            "5",
            "--replicas",
            "3",
            "--out",
            str(out_dir),
            "--split-files",
        ]
    ) == 0
    files = sorted(out_dir.glob("replica_*.csv"))
    assert len(files) == 3


def csv_reference(header, rows) -> str:
    """The table as csv.writer renders it: the reference for the bulk CSV writers."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def test_simulate_csv_bytes_match_csv_writer(tmp_path):
    # structural zeros, a type that stays at zero, and seven-digit counts
    model = build_model(
        [Poisson([1.0, 0.0, 0.0]), Poisson([0.0, 1.0, 0.0]), Poisson([0.0, 0.3, 0.5])],
        Poisson([0.0, 3e5, 0.0]),
    )
    save_model(model, tmp_path / "model.json")
    base = ["simulate", "--model", str(tmp_path / "model.json"), "--steps", "30", "--seed", "6"]
    trajectories = simulate_replicas(model, 30, 6, 3)
    header = ["X_1", "X_2", "X_3"]

    assert main(base + ["--replicas", "3", "--out", str(tmp_path / "all.csv")]) == 0
    rows = [[t.replica, k, *t.states[k]] for t in trajectories for k in range(31)]
    expected = csv_reference(["replica", "k", *header], rows)
    assert read_without_comments(tmp_path / "all.csv") == expected

    assert main(base + ["--replicas", "3", "--out", str(tmp_path / "split"), "--split-files"]) == 0
    for t in trajectories:
        path = tmp_path / "split" / f"replica_{t.replica:05d}.csv"
        rows = [[k, *t.states[k]] for k in range(31)]
        assert read_without_comments(path) == csv_reference(["k", *header], rows)
        assert Path(path).read_text().splitlines()[7] == f"# replica={t.replica}"


def test_sde_csv_bytes_match_csv_writer(tmp_path):
    # values below 1e-4 and above 1e12 print in exponent form, zeros as "0",
    # and the times t = m dt need all 12 significant digits
    dt = 1 / 30000
    flags = dict(b1=3e-7, v1=1e-6, a21=2e13, a32=3e16, dt=dt, horizon=5e-4, paths=3, seed=1)
    out = tmp_path / "sde.csv"
    argv = ["sde", "--case", "4", "--out", str(out)]
    assert main(argv + [f"--{k}={v}" for k, v in flags.items()]) == 0
    system = LimitSystem(case=4, b=(3e-7, 0, 0), v=(1e-6, 0, 0), a21=2e13, a32=3e16)
    grid = make_grid(5e-4, dt)
    path = simulate_limit_system(system, grid, 1, n_paths=3)
    rows = [
        [p, f"{grid[m]:.12g}", *(f"{x:.12g}" for x in path.values[p, m])]
        for p in range(3)
        for m in range(grid.size)
    ]
    text = read_without_comments(out)
    assert text == csv_reference(["path", "t", "X1", "X2", "X3"], rows)
    cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")[2:]]
    assert "0" in cells
    assert any("e-" in cell for cell in cells) and any("e+" in cell for cell in cells)


def test_moments_table_matches_engine(tmp_path, case4_model_path):
    out = tmp_path / "moments.csv"
    assert main(
        ["moments", "--model", case4_model_path, "--max-k", "6", "--out", str(out)]
    ) == 0
    text = Path(out).read_text()
    assert any(line.startswith("# exponents=") for line in text.splitlines())
    rows = read_without_comments(out).splitlines()
    header, data = rows[0].split(","), rows[1:]
    assert header[0] == "k" and len(data) == 7
    model = load_model(case4_model_path)
    last = data[-1].split(",")
    assert np.allclose(
        [float(x) for x in last[1:4]], mean_vector(model, 6), rtol=1e-9
    )


def test_moments_json_format(tmp_path, case4_model_path):
    out = tmp_path / "moments.json"
    assert main(
        [
            "moments",
            "--model",
            case4_model_path,
            "--max-k",
            "3",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    ) == 0
    payload = strip_timestamp(out)
    assert payload["exponents"]["mean"] == [1, 2, 3]
    assert len(payload["table"]) == 4


def test_sde_subcommand_writes_paths(tmp_path):
    out = tmp_path / "sde.csv"
    assert main(
        [
            "sde",
            "--case",
            "4",
            "--b1",
            "1.0",
            "--v1",
            "1.0",
            "--a21",
            "1.0",
            "--a32",
            "1.0",
            "--dt",
            "0.01",
            "--horizon",
            "0.5",
            "--paths",
            "2",
            "--out",
            str(out),
        ]
    ) == 0
    rows = read_without_comments(out).splitlines()
    assert rows[0] == "path,t,X1,X2,X3"
    assert len(rows) == 1 + 2 * 51


def test_sde_rejects_bad_pattern(tmp_path):
    # a21 > 0 contradicts pattern 1
    assert main(
        ["sde", "--case", "1", "--b1", "1.0", "--a21", "0.5", "--out", str(tmp_path / "x.csv")]
    ) == 2


def test_sde_rejects_nonpositive_paths_and_nonfinite_values(tmp_path, capsys):
    for flag, value in (("--paths", "0"), ("--paths", "-3"), ("--dt", "nan"), ("--b1", "nan"), ("--v1", "inf")):
        argv = ["sde", "--case", "1", "--b1", "1.0", flag, value, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2, (flag, value)
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_sde_and_simulate_reject_json_format(tmp_path, case4_model_path, capsys):
    for argv in (
        ["sde", "--case", "1", "--b1", "1.0"],
        ["simulate", "--model", case4_model_path, "--steps", "3"],
    ):
        out = tmp_path / "out.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


def test_identities_subcommand(capsys):
    assert main(["identities", "--max-k", "30", "--trials", "40", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_identities_rejects_nonpositive_counts(tmp_path, capsys):
    out = tmp_path / "identities.json"
    for flags in (["--max-k", "0", "--trials", "2"], ["--trials", "-1"], ["--trials", "0"]):
        assert main(["identities", *flags, "--out", str(out)]) == 2, flags
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()


def test_converge_subcommand(tmp_path, case4_model_path):
    cfg = {
        "model": case4_model_path,
        "case": 4,
        "n_list": [20, 40],
        "t_points": [1.0],
        "replicas": 1000,
        "sde_paths": 1000,
        "dt": 0.01,
        "seed": 12,
        "out_dir": str(tmp_path / "exp"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(cfg_path)]) == 0
    report = strip_timestamp(tmp_path / "exp" / "report.json")
    assert report["case"] == 4
    assert len(report["entries"]) == 6
    csv_text = (tmp_path / "exp" / "report.csv").read_text()
    assert csv_text.splitlines()[7].startswith("n,t,coordinate")

    # rerun is identical modulo the timestamp
    assert main(["converge", "--config", str(cfg_path)]) == 0
    assert strip_timestamp(tmp_path / "exp" / "report.json") == report


def _csv_provenance(path) -> dict:
    lines = Path(path).read_text().splitlines()
    return dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))


def _converge_provenance(tmp_path, name, **cfg) -> dict:
    """Run converge from a config file called ``name`` and return its JSON provenance."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / name), **cfg}))
    assert main(["converge", "--config", str(cfg_path)]) == 0
    provenance = strip_timestamp(tmp_path / name / "report.json")["provenance"]
    assert _csv_provenance(tmp_path / name / "report.csv") == {
        key: str(value) for key, value in provenance.items()
    }
    return provenance


def test_converge_config_sha256_hashes_the_run_settings(tmp_path, case4_model_path):
    base = {"model": case4_model_path, "case": 4, "replicas": 1000, "sde_paths": 1000, "dt": 0.01}
    a = _converge_provenance(tmp_path, "a", n_list=[50, 100], t_points=[0.5, 1.0], seed=1, **base)
    b = _converge_provenance(tmp_path, "b", n_list=[40], t_points=[1.0], seed=1, **base)
    assert a["config_sha256"] != b["config_sha256"]
    # a default spelled out, another out_dir and another config path: the same
    # experiment, so the same provenance (criterion 9's reruns rely on this)
    a_spelled = _converge_provenance(
        tmp_path, "a_spelled", n_list=[50, 100], t_points=[0.5, 1.0], seed=1, ci_level=0.95, **base
    )
    assert a_spelled == a


def _canonical_sha256(model) -> str:
    canonical = json.dumps(model.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def test_model_sha256_follows_the_model_file_not_its_path(tmp_path):
    path = tmp_path / "model.json"
    cfg_path = tmp_path / "converge.json"
    cfg_path.write_text(json.dumps({
        "model": str(path), "case": 4, "n_list": [20], "t_points": [1.0], "replicas": 1000,
        "sde_paths": 1000, "dt": 0.01, "out_dir": str(tmp_path / "exp"),
    }))
    runs = {
        "classify": (["classify", "--model", str(path), "--format", "json"], "classify.json"),
        "moments": (["moments", "--model", str(path), "--format", "json"], "moments.json"),
        "simulate": (["simulate", "--model", str(path), "--steps", "3"], "simulate.csv"),
    }

    def provenances() -> dict:
        found = {}
        for name, (argv, out) in runs.items():
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
            if out.endswith(".json"):
                found[name] = strip_timestamp(tmp_path / out)["provenance"]
            else:
                found[name] = _csv_provenance(tmp_path / out)
        assert main(["converge", "--config", str(cfg_path)]) == 0
        found["converge"] = strip_timestamp(tmp_path / "exp" / "report.json")["provenance"]
        return found

    models = [poisson_case_model(4), poisson_case_model(4, immigration=(2.0, 1.0, 1.0))]
    seen = []
    for model in models:
        save_model(model, path)  # the second model overwrites the first at the same path
        seen.append(provenances())
        assert {p["model_sha256"] for p in seen[-1].values()} == {_canonical_sha256(model)}
    assert _canonical_sha256(models[0]) != _canonical_sha256(models[1])
    for name in seen[0]:
        assert seen[0][name]["config_sha256"] == seen[1][name]["config_sha256"], name


# runs in a fresh interpreter: gwi.cli's subcommands, then one converge
_SCIPY_PROBE = """
import contextlib, io, json, sys
import gwi, gwi.cli

model, config = sys.argv[1:]
statistics = ("scipy.special", "scipy.stats")


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gwi.cli.main(list(argv)) == 0, argv


run("classify", "--model", model)
run("moments", "--model", model, "--max-k", "3")
run("simulate", "--model", model, "--steps", "3", "--replicas", "2")
run("sde", "--case", "1", "--b1", "1", "--v1", "1", "--dt", "0.1", "--paths", "2")
run("identities", "--max-k", "5", "--trials", "3")
before = [name for name in statistics if name in sys.modules]
run("converge", "--config", config)
after = [name for name in statistics if name in sys.modules]
print(json.dumps([before, after]))
"""


def test_only_statistics_import_scipy_stats(tmp_path, case4_model_path):
    config = tmp_path / "converge.json"
    config.write_text(json.dumps({
        "model": case4_model_path, "case": 4, "n_list": [20], "t_points": [1.0],
        "replicas": 1000, "sde_paths": 1000, "dt": 0.01, "out_dir": str(tmp_path / "exp"),
    }))
    src = str(Path(gwi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, case4_model_path, str(config)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert child.returncode == 0, child.stderr
    before, after = json.loads(child.stdout)
    assert before == []
    assert after == ["scipy.special", "scipy.stats"]


def test_negative_seed_exits_2(tmp_path, case4_model_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps({"model": case4_model_path, "case": 4, "out_dir": str(tmp_path / "exp")})
    )
    for argv in (
        ["simulate", "--model", case4_model_path, "--steps", "3"],
        ["sde", "--case", "1", "--b1", "1.0", "--v1", "1.0"],
        ["converge", "--config", str(cfg_path)],
        ["identities", "--max-k", "3", "--trials", "2"],
    ):
        out = tmp_path / "out.csv"
        assert main(argv + ["--seed", "-3", "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "seed" in err[0], (argv, err)
        assert not out.exists()
    assert not (tmp_path / "exp").exists()


# small runs of each subcommand; {model} and {config} are filled in by the test
_SMALL_RUNS = {
    "classify": ["--model", "{model}"],
    "moments": ["--model", "{model}", "--max-k", "3"],
    "simulate": ["--model", "{model}", "--steps", "3"],
    "sde": ["--case", "1", "--b1", "1", "--v1", "1", "--dt", "0.1"],
    "identities": ["--max-k", "5", "--trials", "3"],
    "converge": ["--config", "{config}"],
}
_WRITES = {
    ("classify", "csv"), ("classify", "json"), ("moments", "csv"), ("moments", "json"),
    ("simulate", "csv"), ("sde", "csv"), ("identities", "json"),
}


def _small_run(tmp_path, model_path, command) -> list[str]:
    config = tmp_path / "converge.json"
    config.write_text(json.dumps({"model": model_path, "case": 4, "out_dir": str(tmp_path / "exp")}))
    return [command, *(a.format(model=model_path, config=config) for a in _SMALL_RUNS[command])]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_each_subcommand_writes_its_formats_and_rejects_the_rest(
    tmp_path, case4_model_path, capsys, command, fmt
):
    out = tmp_path / f"out.{fmt}"
    code = main([*_small_run(tmp_path, case4_model_path, command), "--format", fmt, "--out", str(out)])
    if (command, fmt) in _WRITES:
        assert code == 0
        if fmt == "csv":
            assert out.read_text().splitlines()[0].startswith("# version=")
        else:
            assert "provenance" in json.loads(out.read_text())
    else:
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists() and not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("identities", ["--format", "csv", "--out", "{out}"]),
        ("converge", ["--out", "{out}"]),
        ("converge", ["--format", "json"]),
    ],
    ids=["identities-csv", "converge-out", "converge-format"],
)
def test_output_flags_a_subcommand_does_not_honour_exit_2(
    tmp_path, case4_model_path, capsys, command, flags
):
    out = tmp_path / "f"
    argv = _small_run(tmp_path, case4_model_path, command) + [f.format(out=out) for f in flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1 and captured.out == ""
    assert not out.exists() and not (tmp_path / "exp").exists()


def test_converge_rejects_an_infinite_dt(tmp_path, case4_model_path, capsys):
    cfg_path = tmp_path / "converge.json"
    cfg = {"model": case4_model_path, "case": 4, "n_list": [20], "t_points": [0.5, 1.0],
           "replicas": 1000, "sde_paths": 1000, "dt": math.inf, "out_dir": str(tmp_path / "exp")}
    cfg_path.write_text(json.dumps(cfg))  # json writes inf as Infinity, and reads it back
    assert main(["converge", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "dt" in err[0], err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "law, named",
    [
        ({"kind": "poisson", "params": {"lam": "abc"}}, ("poisson", "lam")),
        (
            {"kind": "joint_table", "params": {"support": [[1], [2, 3]], "probs": [0.5, 0.5]}},
            ("joint_table", "support"),
        ),
    ],
    ids=["non-numeric", "ragged"],
)
def test_classify_rejects_a_non_numeric_law_parameter(tmp_path, capsys, law, named):
    document = poisson_case_model(1).to_dict()
    document["offspring"][0] = law
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    assert main(["classify", "--model", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and all(word in err[0] for word in named), err
    assert "missing parameter" not in err[0]


def test_classify_rejects_an_unknown_law_parameter(tmp_path, capsys):
    document = poisson_case_model(1).to_dict()
    document["offspring"][0] = {"kind": "poisson", "params": {"lam": [1.0], "lamda": [2.0]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    assert main(["classify", "--model", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'lamda'" in err[0] and "'poisson'" in err[0], err


def test_converge_missing_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"model": "x"}))
    assert main(["converge", "--config", str(cfg_path)]) == 2


def test_config_overrides_flags(tmp_path, identity_model_path, capsys):
    cfg_path = tmp_path / "cli.json"
    cfg_path.write_text(json.dumps({"model": identity_model_path}))
    assert main(["--config", str(cfg_path), "classify", "--model", "ignored.json"]) == 0
    assert "case 1" in capsys.readouterr().out


def test_unknown_config_key_rejected(tmp_path, identity_model_path):
    cfg_path = tmp_path / "cli.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert main(["--config", str(cfg_path), "classify", "--model", identity_model_path]) == 2


def test_moments_rejects_negative_max_k(tmp_path, case4_model_path, capsys):
    out = tmp_path / "moments.csv"
    assert main(["moments", "--model", case4_model_path, "--max-k", "-3", "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


def test_config_values_convert_like_typed_flags(tmp_path, case4_model_path):
    cfg_path = tmp_path / "cli.json"
    for command, flag, value in (("simulate", "steps", "5"), ("moments", "max_k", "4")):
        extra = ["--steps", "1"] if command == "simulate" else []
        typed, configured = tmp_path / f"{command}_typed.csv", tmp_path / f"{command}_cfg.csv"
        base = [command, "--model", case4_model_path]
        assert main(base + [f"--{flag.replace('_', '-')}", value, "--out", str(typed)]) == 0
        cfg_path.write_text(json.dumps({flag: value}))
        assert main(["--config", str(cfg_path), *base, *extra, "--out", str(configured)]) == 0
        assert configured.read_bytes() == typed.read_bytes()


def test_config_values_of_the_wrong_type_exit_2(tmp_path, case4_model_path, capsys):
    cfg_path = tmp_path / "cli.json"
    for cfg in (
        {"steps": "five"},
        {"steps": [5]},
        {"steps": 5.5},
        {"steps": None},
        {"steps": 5, "format": "xml"},
        {"steps": 5, "split_files": "yes"},
        {"steps": 5, "threads": 0},
    ):
        cfg_path.write_text(json.dumps(cfg))
        argv = ["--config", str(cfg_path), "simulate", "--model", case4_model_path, "--steps", "1"]
        assert main(argv) == 2, cfg
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, cfg


def test_converge_config_rejects_unknown_keys_and_wrong_types(tmp_path, case4_model_path, capsys):
    cfg_path = tmp_path / "converge.json"
    base = {"model": case4_model_path, "case": 4, "out_dir": str(tmp_path / "exp")}
    for extra in (
        {"replica": 1000},
        {"n_list": 5},
        {"n_list": ["many"]},
        {"t_points": "1.0"},
        {"replicas": "many"},
        {"case": [4]},
    ):
        cfg_path.write_text(json.dumps({**base, **extra}))
        assert main(["converge", "--config", str(cfg_path)]) == 2, extra
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, extra
    assert not (tmp_path / "exp").exists()


def test_converge_config_rejects_bad_ci_level_and_times(tmp_path, case4_model_path, capsys):
    cfg_path = tmp_path / "converge.json"
    base = {"model": case4_model_path, "case": 4, "out_dir": str(tmp_path / "exp")}
    for extra in ({"ci_level": 1.5}, {"ci_level": -1}, {"t_points": ["nan"]}, {"t_points": ["inf"]}):
        cfg_path.write_text(json.dumps({**base, **extra}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", str(cfg_path)]) == 2, extra
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, extra
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "offspring",
    [
        [{"kind": "poisson", "params": {"lam": [1e7]}}],
        [{"kind": "geometric", "params": {"p": [1e-7]}}],
        [
            {"kind": "poisson", "params": {"lam": [1e7, 0.0]}},
            {"kind": "geometric", "params": {"p": [0.5, 0.5]}},
        ],
    ],
    ids=["poisson", "geometric", "mixed"],
)
def test_simulate_past_numpys_sampler_limit_exits_1(tmp_path, capsys, offspring):
    p = len(offspring)
    doc = {"p": p, "offspring": offspring, "immigration": {"kind": "poisson", "params": {"lam": [1.0] * p}}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--model", str(path), "--steps", "10"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "numpy's sampler" in err[0], err


def test_sde_paths_past_the_largest_float_exit_1(tmp_path, capsys):
    out = tmp_path / "sde.csv"
    args = ["sde", "--case", "1", "--b1", "1e307", "--v1", "1", "--dt", "10", "--horizon", "30", "--paths", "2"]
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "finite floats" in err[0], err
    assert not out.exists()


def _run_cli(*args) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so warnings reach stderr as a user sees them."""
    src = str(Path(gwi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    program = "import sys; from gwi.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


def test_sde_with_huge_subdiagonals_writes_one_stderr_line():
    # the growth degrees multiply no entries, so building the system warns about nothing
    child = _run_cli(
        "sde", "--case", "4", "--b1", "1", "--v1", "1", "--a21", "1e300", "--a32", "1e300",
        "--dt", "0.5", "--horizon", "1", "--paths", "2",
    )
    assert child.returncode == 1
    err = child.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "grid", [["--dt", "1e-300"], ["--dt", "0.3", "--horizon", "1e308"]], ids=["tiny-dt", "huge-horizon"]
)
def test_sde_grid_past_2_53_steps_exits_2(tmp_path, capsys, grid):
    assert main(["sde", "--case", "1", "--b1", "1", "--v1", "1", *grid, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "2**53" in err[0], err


@pytest.fixture
def tiny_a21_model_path(tmp_path) -> str:
    # a21 = 1e-13 is positive, so the pattern is "only a21": pattern 2 after swapping types 2 and 3
    save_model(poisson_case_model(1, subdiagonals=(1e-13, 0.0, 0.0)), tmp_path / "tiny.json")
    return str(tmp_path / "tiny.json")


def test_classify_counts_a_tiny_positive_entry(tmp_path, capsys, tiny_a21_model_path):
    out = tmp_path / "classify.json"
    assert main(["classify", "--model", tiny_a21_model_path, "--out", str(out), "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("case 2, normalizing permutation [1, 3, 2], exponents (1, 2, 1)")
    record = json.loads(out.read_text())
    assert record["case"] == 2 and record["permutation"] == [1, 3, 2]


def test_converge_runs_a_model_with_a_tiny_positive_entry(tmp_path, capsys, tiny_a21_model_path):
    cfg = {
        "model": tiny_a21_model_path, "n_list": [8], "t_points": [1.0], "replicas": 1000,
        "sde_paths": 2, "dt": 0.125, "out_dir": str(tmp_path / "exp"),
    }
    for case, code in ((2, 0), (1, 2)):
        cfg_path = tmp_path / f"case{case}.json"
        cfg_path.write_text(json.dumps({**cfg, "case": case}))
        assert main(["converge", "--config", str(cfg_path)]) == code
    assert "model matches pattern 2" in capsys.readouterr().err
    assert strip_timestamp(tmp_path / "exp" / "report.json")["permutation"] == [0, 2, 1]
