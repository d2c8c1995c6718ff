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


def _solve(capsys, tmp_path, spec, flags):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec))
    code, out = _run(capsys, ["solve", "--spec", str(path)] + flags)
    return code, json.loads(out)


def test_solve_command_gl2(capsys, tmp_path):
    code, doc = _solve(capsys, tmp_path, {"model": "gl2", "length": 2,
                                          "inhomogeneities": ["0", "1/2"]},
                       ["--model", "gl2", "--N", "1", "--starts", "10"])
    assert code == 0 and doc
    for res in doc:
        assert res["converged"] and list(res["roots"]) == ["u"]
        assert len(res["roots"]["u"]) == 1


def test_solve_command_gl3_counts_outer_roots_with_p(capsys, tmp_path):
    # the three-site singlet: --P gives the M = 1 outer root v, --N the
    # two inner roots u
    code, doc = _solve(capsys, tmp_path,
                       {"model": "gl3", "length": 3,
                        "inhomogeneities": ["0", "0.4", "0.7"]},
                       ["--model", "gl3", "--P", "1", "--N", "2",
                        "--starts", "6", "--seed", "0"])
    assert code == 0 and doc
    for res in doc:
        assert res["converged"]
        assert {f: len(r) for f, r in res["roots"].items()} == {"v": 1, "u": 2}


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "sp4", "--P", "1"],
    ["sp4", "--v", "-0.25"],
    ["gl3", "--u", "-0.25", "--check"]])
def test_model_other_than_the_chains_is_refused(capsys, tmp_path, argv):
    # on a gl2 chain, sp4's v condition "converged" at -0.25 and the sp4
    # command failed inside the weights; each now names both models
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"model": "gl2", "length": 2,
                                "inhomogeneities": ["0", "1/2"]}))
    code, out = _run(capsys, argv[:1] + ["--spec", str(path)] + argv[1:])
    model = "sp4" if argv[0] == "solve" else argv[0]
    error = json.loads(out)["error"]
    assert code == 2 and f"'{model}'" in error and "'gl2'" in error


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
