"""Command-line surface: every subcommand, JSON outputs, exit codes."""

import json

import pytest

from betheforge.cli import main


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"model": "sp4", "length": 2,
                                "inhomogeneities": ["0", "1/2"]}))
    return str(path)


@pytest.fixture()
def gl3_file(tmp_path):
    path = tmp_path / "gl3.json"
    path.write_text(json.dumps({"model": "gl3", "length": 2,
                                "inhomogeneities": ["0", "1/2"]}))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def test_ybe_command(capsys):
    code, out = _run(capsys, ["ybe", "--kind", "sp4", "--x", "9", "--y", "4",
                              "--z", "1", "--backend", "exact"])
    doc = json.loads(out)
    assert code == 0 and doc["pass"] and doc["residual"] == 0.0


def test_ybe_unitarity_mode(capsys):
    code, out = _run(capsys, ["ybe", "--kind", "gl2", "--x", "7", "--y", "2"])
    assert code == 0 and json.loads(out)["check"] == "unitarity"


def test_ybe_pole_is_clean_error(capsys):
    code, out = _run(capsys, ["ybe", "--kind", "sp4", "--x", "4", "--y", "4",
                              "--z", "1"])
    assert code == 2 and "pole" in json.loads(out)["error"]


def test_chain_check(capsys, chain_file):
    code, out = _run(capsys, ["chain-check", "--spec", chain_file,
                              "--x", "4", "--y", "15/2"])
    doc = json.loads(out)
    assert code == 0 and doc["rtt_residual"] == 0.0
    assert doc["commuting_residual"] == 0.0


def test_sp4_command_verify(capsys, chain_file):
    code, out = _run(capsys, ["sp4", "--spec", chain_file, "--u", "",
                              "--v", "-0.25", "--w", "", "--verify",
                              "--samples", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "ok"
    assert max(doc["residuals"]["v"]) < 1e-12
    assert doc["eigen_residual"] < 1e-9
    assert doc["matched_eigenvalue_gap"] < 1e-7


def test_gl3_command(capsys, gl3_file):
    code, out = _run(capsys, ["gl3", "--spec", gl3_file, "--u", "-0.25",
                              "--v", "", "--check"])
    doc = json.loads(out)
    assert code == 0 and doc["eigen_residual"] < 1e-9
    assert doc["verdict"] == "ok" and doc["matched_eigenvalue_gap"] < 1e-7


def test_solve_command(capsys, chain_file):
    code, out = _run(capsys, ["solve", "--spec", chain_file, "--model", "sp4",
                              "--N", "0", "--P", "1", "--Q", "0",
                              "--starts", "20", "--seed", "7",
                              "--tol", "1e-11"])
    doc = json.loads(out)
    assert code == 0 and doc[0]["converged"]
    assert abs(doc[0]["roots"]["v"][0][0] + 0.25) < 1e-9


def test_verify_command(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = _run(capsys, ["verify", "--filter", "unitarity.*",
                              "--seed", "7", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == 1 and doc["failed"] == 0
    assert "passed" in out


def test_verify_unknown_filter(capsys):
    code, _ = _run(capsys, ["verify", "--filter", "nothing.here"])
    assert code == 2
