"""Command-line interface: reports, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys

import pytest

from coulomb4 import cli, ecg_solver
from coulomb4.ecg_solver import load_basis

M_P = "1836.152672"


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("COULOMB4_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "coulomb4.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=480,
    )


@pytest.fixture
def hhbar_file(tmp_path):
    path = tmp_path / "hhbar.json"
    path.write_text(json.dumps({
        "masses": [M_P, "1", "1", M_P],
        "labels": ["p", "e-", "e+", "p-"],
        "unit": "electron_mass",
    }))
    return str(path)


@pytest.fixture
def ps2_file(tmp_path):
    path = tmp_path / "ps2.json"
    path.write_text(json.dumps({"masses": ["1", "1", "1", "1"]}))
    return str(path)


def test_criterion_proven_unstable(hhbar_file):
    proc = run_cli("criterion", "--system", hhbar_file)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc) == {
        "command", "version", "config", "system", "mu_x", "mu_y", "mu_R",
        "a", "b", "ratio", "critical", "verdict", "margin",
    }
    assert doc["command"] == "criterion"
    assert doc["verdict"] == "ProvenUnstable"
    assert doc["mu_x"] == 918.076336
    assert doc["mu_R"] == 1.99891135884868
    assert doc["ratio"] == 0.0021772823026436
    assert doc["critical"] == 0.0670216385250582
    assert math.isclose(doc["margin"], doc["critical"] - doc["ratio"], rel_tol=1e-10)
    assert doc["system"]["labels"] == ["p", "e-", "e+", "p-"]


def test_criterion_indeterminate_exit(ps2_file):
    proc = run_cli("criterion", "--system", ps2_file)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "Indeterminate"
    assert doc["ratio"] == 2.0


def test_criterion_rejects_malformed_system(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"masses": ["1", "2", "3"]}))
    proc = run_cli("criterion", "--system", str(bad))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["exit_code"] == 2
    assert "error" in doc and doc["error"]["type"]


def test_criterion_missing_file():
    proc = run_cli("criterion", "--system", "/nonexistent/nope.json")
    assert proc.returncode == 2


def test_criterion_rejects_csv_format(hhbar_file):
    proc = run_cli("criterion", "--system", hhbar_file, "--format", "csv")
    assert proc.returncode == 2


def test_chain_interior_mass():
    proc = run_cli("chain", "--mu-r", "0.1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_passed"] is True
    assert len(doc["records"]) >= 8
    assert all(r["passed"] for r in doc["records"])
    assert doc["state"]["coefficient"] > 1.0


def test_chain_out_of_domain():
    proc = run_cli("chain", "--mu-r", "0.4")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["exit_code"] == 2


def test_chain_from_system(hhbar_file):
    proc = run_cli("chain", "--system", hhbar_file)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert math.isclose(doc["input"]["mu_r"], 2.0 * 1.99891135884868 / 918.076336, rel_tol=1e-12)


def test_chain_needs_exactly_one_input(hhbar_file):
    assert run_cli("chain").returncode == 2
    assert run_cli("chain", "--mu-r", "0.1", "--system", hhbar_file).returncode == 2


def test_veff_sampling_report(hhbar_file):
    proc = run_cli("veff", "--system", hhbar_file, "--samples", "3", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if not l.startswith("#")]
    assert any("seed=0" in c for c in comments)
    assert data[0] == "y,R,value,error"
    assert len(data) == 1 + 3
    for row in data[1:]:
        y, big_r, value, error = (float(tok) for tok in row.split(","))
        assert y > 0 and big_r > 0
        assert value >= 0.0
        assert error < 1e-2


def test_veff_zero_samples_header_only(ps2_file):
    proc = run_cli("veff", "--system", ps2_file, "--samples", "0")
    assert proc.returncode == 0
    data = [l for l in proc.stdout.strip().splitlines() if not l.startswith("#")]
    assert data == ["y,R,value,error"]


def test_veff_deterministic_bytes(ps2_file):
    a = run_cli("veff", "--system", ps2_file, "--samples", "2", "--seed", "7")
    b = run_cli("veff", "--system", ps2_file, "--samples", "2", "--seed", "7")
    assert a.stdout == b.stdout
    c = run_cli("veff", "--system", ps2_file, "--samples", "2", "--seed", "8")
    assert c.stdout != a.stdout


def test_twocenter_default_grid():
    proc = run_cli("twocenter", "--coupling", "1.0", "--mu-r", "0.375")
    assert proc.returncode == 0, proc.stderr
    data = [l for l in proc.stdout.strip().splitlines() if not l.startswith("#")]
    assert data[0] == "d,energy,basis_size,condition"
    rows = [[float(t) for t in line.split(",")] for line in data[1:]]
    assert len(rows) == 6
    energies = [r[1] for r in rows]
    assert abs(energies[0] + 0.75) <= 1e-4 * 0.75
    assert all(b >= a - 1e-4 * 0.375 for a, b in zip(energies, energies[1:]))


def test_twocenter_explicit_grid():
    proc = run_cli("twocenter", "--grid", "0,2.5", "--mu-r", "0.1")
    assert proc.returncode == 0
    data = [l for l in proc.stdout.strip().splitlines() if not l.startswith("#")]
    assert len(data) == 3


def test_twocenter_condition_blowup_exit():
    # near-coincident ladders breach the condition cap: numerical failure
    proc = run_cli("twocenter", "--grid", "1e-12", "--mu-r", "0.375")
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["exit_code"] == 3


def test_solve_reproducible_bytes(ps2_file):
    argv = ("solve", "--system", ps2_file, "--budget", "40", "--seed", "0")
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["threshold"] == -0.5
    assert doc["basis_size"] == 40
    assert doc["e0"] < -0.4
    assert doc["verdict"] == "Indeterminate"
    assert isinstance(doc["certified_bound"], bool)


def test_solve_saves_loadable_basis(ps2_file, tmp_path):
    out = tmp_path / "basis.json"
    proc = run_cli(
        "solve", "--system", ps2_file, "--budget", "15", "--seed", "3",
        "--save-basis", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    system, elements, result = load_basis(str(out))
    assert len(elements) == 15
    assert result.e0 == pytest.approx(doc["e0"], rel=1e-12)


def test_solve_proven_unstable_system(hhbar_file):
    proc = run_cli("solve", "--system", hhbar_file, "--budget", "25", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "ProvenUnstable"
    assert doc["certified_bound"] is False
    assert doc["e0"] >= doc["threshold"] - doc["epsilon"]


def test_map_closed_form_ratio_column():
    proc = run_cli("map", "--m-grid", "1,5,1836.152672", "--budget", "20", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    data = [l for l in proc.stdout.strip().splitlines() if not l.startswith("#")]
    assert data[0] == "m,ratio,classification,e0,threshold,margin,certified_bound,error"
    rows = [line.split(",") for line in data[1:]]
    assert len(rows) == 3
    for row in rows:
        m = float(row[0])
        assert math.isclose(float(row[1]), 4.0 / (m + 1.0), rel_tol=1e-12)
        assert row[7] == ""
    assert rows[0][2] == "Indeterminate"
    assert rows[2][2] == "ProvenUnstable"


def test_env_config_is_honored(tmp_path, ps2_file):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 7, "tol": 0.01}))
    proc = run_cli(
        "veff", "--system", ps2_file, "--samples", "1",
        env_extra={"COULOMB4_CONFIG": str(conf)},
    )
    assert proc.returncode == 0, proc.stderr
    assert any("seed=7" in l for l in proc.stdout.splitlines() if l.startswith("#"))
    # explicit flags still take precedence over the config file
    over = run_cli(
        "veff", "--system", ps2_file, "--samples", "1", "--seed", "2",
        env_extra={"COULOMB4_CONFIG": str(conf)},
    )
    assert any("seed=2" in l for l in over.stdout.splitlines() if l.startswith("#"))


def test_env_config_overrides_command_defaults(tmp_path, ps2_file):
    # solve defaults to seed 42 and map to budget 120; the config file wins
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 7, "budget": 30}))
    env = {"COULOMB4_CONFIG": str(conf)}
    proc = run_cli("solve", "--system", ps2_file, env_extra=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["seed"] == 7
    assert doc["config"]["budget"] == 30
    assert doc["basis_size"] == 30
    proc = run_cli("map", "--m-grid", "1", env_extra=env)
    assert proc.returncode == 0, proc.stderr
    assert "# seed=7 budget=30 pool=48" in proc.stdout.splitlines()


def test_solve_save_basis_grows_once(ps2_file, tmp_path, monkeypatch, capsys):
    calls = []
    grow = ecg_solver.svm_grow

    def counting(*args, **kwargs):
        calls.append(args)
        return grow(*args, **kwargs)

    monkeypatch.setattr(ecg_solver, "svm_grow", counting)
    monkeypatch.setattr(cli, "svm_grow", counting)
    monkeypatch.delenv("COULOMB4_CONFIG", raising=False)
    argv = ["solve", "--system", ps2_file, "--budget", "15", "--seed", "3"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    calls.clear()
    assert cli.main(argv + ["--save-basis", str(tmp_path / "basis.json")]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == plain


def test_env_config_missing_file(ps2_file):
    proc = run_cli(
        "veff", "--system", ps2_file, "--samples", "1",
        env_extra={"COULOMB4_CONFIG": "/no/such/conf.json"},
    )
    assert proc.returncode == 2


def test_reports_embed_version(ps2_file):
    from coulomb4 import __version__

    proc = run_cli("chain", "--mu-r", "0.05")
    doc = json.loads(proc.stdout)
    assert doc["version"] == __version__
    csv_proc = run_cli("veff", "--system", ps2_file, "--samples", "0")
    assert any(__version__ in l for l in csv_proc.stdout.splitlines() if l.startswith("#"))
