"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from betheforge import bethe_solver, chain, harness, linalg, rmatrix  # noqa: E402
from perfbench import stats, tracer  # noqa: E402
from perfbench.run import GATED, end_to_end, Outcome  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


# -- tail percentile -----------------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(list(range(10))) is None
    value, pct, n = stats.tail(list(range(11)))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(np.random.default_rng(0).permutation(100) + 1)
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in xs) == 10
    value, pct, _ = stats.tail(range(1, 41))
    assert (value, pct) == (30, 75.0)


def test_quartiles_match_statistics_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.quartiles(xs) == (1.5, 3.0, 4.5)
    assert stats.spread(xs) == pytest.approx(1.0)


# -- self time -------------------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    #   0 task [0, 10]
    #   +-- 1 [1, 4]
    #   +-- 2 [5, 9]
    #       +-- 3 [6, 7]
    #       +-- 4 [7.5, 8]
    #   5 another root [11, 12]
    parent = [-1, 0, 0, 2, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 7.5, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 8.0, 12.0]
    own = tracer.self_times(parent, start, end)
    assert own.tolist() == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5, 1.0])
    assert own.sum() == pytest.approx(11.0)   # roots' total time


# -- wrapping ------------------------------------------------------------------------


def _solve_gl2():
    ch = chain.Chain(chain.ChainSpec("gl2", 2, (0j, 0.5 + 0j), "float"))
    prob = bethe_solver.SolveProblem(ch, "gl2", (1,), starts=6, seed=3)
    res = bethe_solver.solve(prob)
    rep = bethe_solver.verify_solution(prob, res[0], [1.3 + 0.4j])
    return [r.to_dict() for r in res], rep["samples"]


def _exact_case():
    case = harness.run_case("rtt.gl3.L2", 5, "exact")
    return case.status, case.residual


def _namespaces_snapshot():
    snap = {}
    for mod in tracer._package_modules():
        for name, value in vars(mod).items():
            if callable(value) or isinstance(value, dict):
                snap[(mod.__name__, name)] = (value, dict(value) if
                                              isinstance(value, dict) else None)
    for cls in (linalg.Mat, chain.Chain):
        for name, value in vars(cls).items():
            snap[(cls.__name__, name)] = (value, None)
    return snap


def test_wrappers_are_installed_everywhere_and_restored():
    plain = (_solve_gl2(), _exact_case())
    before = _namespaces_snapshot()
    tr = tracer.Tracer()
    with tr:
        # the direct imports and the lookup table were swapped too
        assert chain.build_sp4_r is not before[("betheforge.chain",
                                                "build_sp4_r")][0]
        assert rmatrix._BUILDERS["sp4"][0].__wrapped__ is rmatrix.build_sp4_r.__wrapped__
        assert linalg.Mat.__matmul__.__wrapped__ is before[("Mat", "__matmul__")][0]
        traced = tr.run_task(0, lambda: (_solve_gl2(), _exact_case()))
    assert traced == plain
    assert tr.counters["bethe_solver.residual_vector.calls"] > 0
    assert tr.counters["rmatrix.build_gl_r.calls"] > 0
    assert tr.counters["linalg.matmul.exact_int64"] > 0
    assert tr.counters["chain.monodromy.misses"] > 0
    after = _namespaces_snapshot()
    assert after.keys() == before.keys()
    for key, (value, table) in before.items():
        assert after[key][0] is value, key
        if table is not None:
            assert after[key][1] == table, key


def test_counting_pass_matches_traced_pass():
    counts = []
    for spans in (False, True):
        tr = tracer.Tracer(record_spans=spans,
                           only=None if spans else tracer.COMPARED_SPANS)
        with tr:
            tr.run_task(0, _solve_gl2)
        counts.append({k: tr.counters.get(k, 0) for k in tracer.COMPARED_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["bethe_solver.residual_vector.calls"] > 0


# -- definitions agree -----------------------------------------------------------------


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_run_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    out = Outcome()
    for i in range(12):
        out.add(None, 0.1 + i, "")
    out.wall = 100.0
    e2e = end_to_end(out, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: e2e[k][1] for k in GATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.per_layer_units()


def test_rounds_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        assert workload.round(4, 0) == workload.round(4, 0)
        assert workload.round(4, 0) != workload.round(5, 0)
        assert workload.round(4, 0) != workload.round(4, 1)
