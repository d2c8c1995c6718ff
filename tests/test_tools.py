"""The evidence scripts under tools/: the verify-report comparison."""

import copy
import importlib.util
import json
import os

import pytest

from betheforge.harness import report, run_suite

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "report_diff.py")
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


@pytest.fixture(scope="module")
def doc():
    return report(run_suite("unitarity.*", seed=7))


def _compare(tmp_path, old, new):
    paths = []
    for name, d in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(d, fh, indent=1)
    return report_diff.main(paths)


def test_reports_differing_only_in_runtime_agree(tmp_path, capsys, doc):
    other = copy.deepcopy(doc)
    for case in other["cases"]:
        case["runtime"] += 1.0
    other["cases"].reverse()
    assert _compare(tmp_path, doc, other) == 0
    assert "0 differences" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["residual", "status", "dropped", "count"])
def test_any_other_difference_fails(tmp_path, capsys, doc, change):
    other = copy.deepcopy(doc)
    case = other["cases"][0]
    if change == "residual":
        case["residual"] = case["residual"] + 2.0 ** -60
    elif change == "status":
        case["status"] = "fail"
    elif change == "dropped":
        other["cases"].pop(0)
    else:
        other["passed"] -= 1
    assert _compare(tmp_path, doc, other) == 1
    out = capsys.readouterr().out
    assert "1 differences" in out
    if change != "count":
        assert case["id"] in out
