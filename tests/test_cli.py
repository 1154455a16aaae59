"""Config handling, seeding, and command line artifact contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frogmodel
from frogmodel.cli import main
from frogmodel.runio import (
    ConfigError,
    config_digest,
    config_from_dict,
    load_config,
    read_jsonl,
    replica_rng,
)


def run(*argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def only_run_dir(out_dir):
    entries = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(entries) == 1
    return entries[0]


# ---------------------------------------------------------------------------
# configuration


def test_default_config():
    cfg = config_from_dict({})
    assert cfg.etas == (0.05,)
    assert cfg.dx == 0.01 and cfg.dt == 1e-3
    assert cfg.seed == 0 and cfg.replicas == 1
    assert cfg.scheme == "backward-euler"


def test_flag_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"sampling": {"seed": 5, "replicas": 3}}))
    cfg = load_config(str(path), {"sampling.seed": 9})
    assert cfg.seed == 9        # flag wins
    assert cfg.replicas == 3    # file value survives


def test_config_error_is_line_anchored(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "model": {\n    "eta": 0.025\n  }\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))  # dx=0.01 does not divide eta=0.025
    msg = str(err.value)
    assert "bad.json:3" in msg
    assert "model.eta" in msg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="model.typo"):
        config_from_dict({"model": {"typo": 1}})
    with pytest.raises(ConfigError, match="extras"):
        config_from_dict({"extras": {}})


def test_eta_must_be_positive_and_commensurate():
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"eta": -0.1}})
    cfg = config_from_dict({"model": {"eta": [0.1, 0.05]},
                            "solver": {"dx": 0.01}})
    assert cfg.etas == (0.1, 0.05)


def test_digest_ignores_output_section():
    a = config_from_dict({"output": {"out_dir": "left"}})
    b = config_from_dict({"output": {"out_dir": "right"}})
    assert config_digest(a.effective) == config_digest(b.effective)
    c = config_from_dict({"sampling": {"seed": 1}})
    assert config_digest(c.effective) != config_digest(a.effective)


def test_replica_rng_streams_are_stable_and_disjoint():
    a = replica_rng(7, 3).random(4)
    b = replica_rng(7, 3).random(4)
    c = replica_rng(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# exit codes


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"solver": {"scheme": "leapfrog"}}')
    code = run("simulate", "--config", path, "--out-dir", tmp_path / "out")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_eta_lists(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"model": {"eta": [0.1, 0.05]}}')
    code = run("simulate", "--config", path, "--out-dir", tmp_path / "out",
               "--horizon", 0.2)
    assert code == 2
    assert "sweep" in capsys.readouterr().err


def test_verify_rejects_unknown_suite_and_criteria(tmp_path, capsys):
    assert run("verify", "--suite", "nope", "--out-dir", tmp_path / "a") == 2
    assert run("verify", "--only", "99", "--out-dir", tmp_path / "b") == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate


@pytest.fixture()
def sim_run(tmp_path):
    out = tmp_path / "out"
    code = run("simulate", "--eta", 0.1, "--seed", 11, "--replicas", 2,
               "--horizon", 0.3, "--snapshots", 3, "--out-dir", out)
    assert code == 0
    return only_run_dir(out)


def test_simulate_artifacts(sim_run):
    manifest = json.loads((sim_run / "manifest.json").read_text())
    assert set(manifest) == {"run_id", "subcommand", "config",
                             "config_sha256", "seed", "versions"}
    assert manifest["subcommand"] == "simulate"
    assert manifest["run_id"].startswith("simulate-")
    assert set(manifest["versions"]) == {"frogmodel", "python", "numpy", "scipy"}

    events = read_jsonl(sim_run / "events.jsonl")
    assert events
    for row in events:
        assert set(row) == {"replica", "t", "site", "jump", "v", "index"}
        assert row["replica"] in (0, 1)

    header, rows = read_csv_rows(sim_run / "snapshots.csv")
    assert header == ["replica", "time", "ell", "y", "x1_mass",
                      "pile_mass", "total_mass"]
    assert rows

    header, rows = read_csv_rows(sim_run / "summary.csv")
    assert header == ["replica", "eta", "n_events", "woke_all", "ustar",
                      "final_time", "total_mass"]
    assert len(rows) == 2

    header, rows = read_csv_rows(sim_run / "profiles.csv")
    assert header == ["time", "x", "density"]
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_simulate_bytes_identical_across_threads_and_reruns(tmp_path):
    flags = ["simulate", "--eta", 0.1, "--seed", 3, "--replicas", 4,
             "--horizon", 0.3, "--snapshots", 2]
    blobs = []
    for i, threads in enumerate((1, 2, 1)):
        out = tmp_path / f"o{i}"
        assert run(*flags, "--out-dir", out, "--threads", threads) == 0
        d = only_run_dir(out)
        blobs.append({p.name: p.read_bytes() for p in d.iterdir()
                      if p.is_file() and p.name != "manifest.json"})
    assert blobs[0] == blobs[1] == blobs[2]
    assert "events.jsonl" in blobs[0]


def test_simulate_reports_ustar_of_stalled_replicas(tmp_path):
    # little awake mass: every replica stalls at a pile before the horizon
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"x1": {
        "kind": "uniform", "left": -0.5, "right": 0.0, "mass": 0.2}}}))
    out = tmp_path / "out"
    assert run("simulate", "--config", path, "--eta", 0.1, "--seed", 2,
               "--replicas", 4, "--horizon", 0.3, "--snapshots", 2,
               "--out-dir", out) == 0
    header, rows = read_csv_rows(only_run_dir(out) / "summary.csv")
    col = {name: j for j, name in enumerate(header)}
    assert len(rows) == 4
    for row in rows:
        assert row[col["woke_all"]] == "False"
        # the stall is at the first pile that did not wake (piles at 0.1, 0.2, ...)
        n_events = int(row[col["n_events"]])
        assert float(row[col["ustar"]]) == pytest.approx(0.1 * (n_events + 1))
    assert {r[col["n_events"]] for r in rows} == {"0", "1"}


def test_cli_import_does_not_load_scipy_stats():
    src = str(Path(frogmodel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, frogmodel.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_layout(tmp_path):
    out = tmp_path / "out"
    code = run("sweep", "--etas", "0.1,0.05", "--seed", 1, "--replicas", 2,
               "--horizon", 0.3, "--snapshots", 0, "--out-dir", out)
    assert code == 0
    run_dirs = sorted(p for p in out.iterdir() if p.is_dir())
    agg = [p for p in run_dirs if (p / "aggregate.csv").exists()]
    units = [p for p in run_dirs if (p / "events.jsonl").exists()]
    assert len(agg) == 1 and len(units) == 4
    for unit in units:
        manifest = json.loads((unit / "manifest.json").read_text())
        assert set(manifest["unit"]) == {"eta", "replica"}
        assert not (unit / "snapshots.csv").exists()

    header, rows = read_csv_rows(agg[0] / "aggregate.csv")
    assert header == ["eta", "replica", "run_id", "n_events", "woke_all",
                      "ustar", "final_time"]
    assert len(rows) == 4
    assert sorted({r[0] for r in rows}) == ["0.05", "0.1"]
    assert {unit.name for unit in units} == {r[2] for r in rows}


# ---------------------------------------------------------------------------
# mp0 / mps


def test_mp0_trajectory_conserves_mass(tmp_path):
    out = tmp_path / "out"
    assert run("mp0", "--seed", 2, "--horizon", 3.0, "--snapshots", 16,
               "--out-dir", out) == 0
    header, rows = read_csv_rows(only_run_dir(out) / "colony.csv")
    assert header == ["time", "x1", "x2"]
    assert len(rows) == 17
    # immigration feeds x1 at unit rate; the wake moves mass, never makes it
    for t, x1, x2 in ((float(a), float(b), float(c)) for a, b, c in rows):
        assert abs((x1 + x2) - (1.0 + t)) < 1e-9


def test_mp0_requires_single_replica(tmp_path, capsys):
    assert run("mp0", "--replicas", 3, "--out-dir", tmp_path / "out") == 2
    assert "replicas" in capsys.readouterr().err


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "sites": [0, 1, 2],
        "q": [[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]],
        "x1": [1.0, 0.0, 0.0],
        "x2": [0.0, 0.5, 0.25],
    }))
    return path


def test_mps_event_log(tmp_path, chain_file):
    out = tmp_path / "out"
    assert run("mps", "--q", chain_file, "--seed", 4, "--replicas", 3,
               "--horizon", 2.0, "--out-dir", out) == 0
    d = only_run_dir(out)
    events = read_jsonl(d / "events.jsonl")
    assert all(set(row) == {"replica", "t", "site", "pile"} for row in events)
    assert all(row["site"] in (1, 2) for row in events)

    header, rows = read_csv_rows(d / "summary.csv")
    assert header == ["replica", "n_events", "final_time", "x1_total", "x2_total"]
    assert len(rows) == 3


def test_mps_rejects_bad_generator(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sites": [0, 1], "q": [[0.0, 0.0]],
                                "x1": [1.0, 0.0]}))
    assert run("mps", "--q", path, "--out-dir", tmp_path / "out") == 2
    assert "x2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ppp


def test_ppp_patterns_and_blocks(tmp_path):
    out = tmp_path / "out"
    assert run("ppp", "--rmin", 0.05, "--seed", 6, "--replicas", 2,
               "--eta-list", "0.1,0.05", "--out-dir", out) == 0
    d = only_run_dir(out)
    pats = sorted(p.name for p in d.iterdir() if p.name.startswith("patterns"))
    assert pats == ["patterns-0000.jsonl", "patterns-0001.jsonl"]
    pts = read_jsonl(d / "patterns-0000.jsonl")
    assert all(len(row) == 2 and row[1] >= 0.05 for row in pts)

    header, rows = read_csv_rows(d / "blocks.csv")
    assert header == ["replica", "eta", "index", "position", "w", "censored"]
    assert {r[1] for r in rows} == {"0.1", "0.05"}

    header, rows = read_csv_rows(d / "summary.csv")
    assert header == ["replica", "n_points", "max_mark"]
    assert [int(r[1]) for r in rows] == [len(pts), len(read_jsonl(
        d / "patterns-0001.jsonl"))]


def test_ppp_coupling_reports(tmp_path):
    out = tmp_path / "out"
    assert run("ppp", "--rmin", 0.05, "--seed", 6, "--eta-list", "0.02,0.01",
               "--rect", "0.2,0.6,0.15", "--out-dir", out) == 0
    d = only_run_dir(out)
    report = json.loads((d / "reports" / "coupling-0000.json").read_text())
    assert report["etas"] == [0.02, 0.01]
    assert len(report["rows"]) == 1
    assert isinstance(report["admissible_agree"], bool)
    assert (d / "patterns.jsonl").exists()


def test_ppp_rect_needs_eta_list(tmp_path, capsys):
    assert run("ppp", "--rect", "0.2,0.6,0.15",
               "--out-dir", tmp_path / "out") == 2
    assert "eta-list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_criterion_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("verify", "--only", "9", "--out-dir", out) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] 09" in stdout
    d = only_run_dir(out)
    report = json.loads((d / "reports" / "criterion-09.json").read_text())
    assert report["number"] == 9
    assert report["passed"] is True
    assert report["reports"][0]["kind"] == "exact"
