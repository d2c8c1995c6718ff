"""Check-suite orchestration: determinism, report schema, exit codes."""

import json
import math

import numpy as np

from betheforge.harness import (_sampled, exit_code, format_table, registry,
                                report, run_case, run_suite)
from betheforge.linalg import FLOAT


def test_registry_names_are_unique_and_claimed():
    checks = registry()
    assert len(checks) > 50
    for ident, spec in checks.items():
        assert spec.claim
        assert " " not in ident


# every registered (id, backend) pair; a check dropped or renamed while
# refactoring the registry shows up here
_REGISTERED = """
commuting.gl2.L1 exact float
commuting.gl2.L2 exact float
commuting.gl3.L1 exact float
commuting.gl3.L2 exact float
commuting.sp4.L1 exact float
commuting.sp4.L2 exact float
dual.compose exact float
dual_reorder exact float
e2e.gl2 float
e2e.gl3.nested float
e2e.gl3.null float
e2e.sp4.minus float
e2e.sp4.null float
e2e.sp4.plus float
e2e.sp4.singlet float
e2e.sp4.stretch float
gl2.creation_exchange.N1 exact float
gl2.creation_exchange.N2 exact float
gl2.root_symmetry exact float
gl3.dressed_rtt exact float
gl3.reduced_vacuum exact float
mixed_ybe exact float
negcontrol.gl2 float
negcontrol.sp4 float
rtt.gl2.L1 exact float
rtt.gl2.L2 exact float
rtt.gl3.L1 exact float
rtt.gl3.L2 exact float
rtt.sp4.L1 exact float
rtt.sp4.L2 exact float
scalar.algebra exact float
sp4.b_exchange.N1 exact float
sp4.b_exchange.N2 exact float
sp4.b_reorder exact float
sp4.block_commutativity exact float
sp4.block_rtt exact float
sp4.dressed_rtt.N1 exact float
sp4.dressed_rtt.N2 exact float
sp4.offblock.L1 exact float
sp4.offblock.L2 exact float
sp4.reduced_vacuum.N1 exact float
sp4.reduced_vacuum.N2 exact float
sp4.reduced_vacuum.N3 exact float
sp4.second_level_action.P1Q1 exact float
sp4.second_level_action.P1Q2 exact float
sp4.second_level_action.P2Q1 exact float
sp4.second_level_action.P2Q2 exact float
sp4.second_level_exchange.P1Q1 exact float
sp4.second_level_exchange.P1Q2 exact float
sp4.second_level_exchange.P2Q1 exact float
sp4.second_level_exchange.P2Q2 exact float
sp4.second_level_onshell exact float
sp4.sector_rtt exact float
sum_identity.n0 exact float
sum_identity.n1 exact float
sum_identity.n2 exact float
sum_identity.n3 exact float
sum_identity.n4 exact float
sum_identity.n5 exact float
sum_identity.n6 exact float
tilde.sectors exact float
unitarity.gl2 exact float
unitarity.gl3 exact float
unitarity.sp4 exact float
unitarity.sp4tilde exact float
vacuum.gl2 exact float
vacuum.gl3 exact float
vacuum.sp4 exact float
ybe.gl2 exact float
ybe.gl3 exact float
ybe.sp4 exact float
ybe.sp4tilde exact float
"""


def test_registry_pins_every_id_and_backend():
    expected = sorted((ident, backend)
                      for line in _REGISTERED.split("\n") if line
                      for ident, *backends in [line.split()]
                      for backend in backends)
    got = sorted((ident, backend) for ident, spec in registry().items()
                 for backend in spec.backends)
    assert len(expected) == 134
    assert got == expected


def test_filtered_run_and_report():
    cases = run_suite("sum_identity.*", seed=7)
    assert len(cases) == 14  # seven sizes, two backends
    doc = report(cases)
    assert doc["schema"] == 1
    assert doc["failed"] == 0
    assert doc["passed"] == 14
    assert exit_code(doc) == 0
    table = format_table(doc)
    assert "sum_identity.n6" in table
    json.dumps(doc)  # serializable


def test_unknown_filter_yields_empty():
    assert run_suite("no.such.check", seed=7) == []


def test_suite_determinism_modulo_runtime():
    a = report(run_suite("ybe.gl2", seed=7), include_runtime=False)
    b = report(run_suite("ybe.gl2", seed=7), include_runtime=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = report(run_suite("ybe.gl2", seed=8), include_runtime=False)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_exact_cases_demand_exact_zero():
    case = run_case("unitarity.sp4", 7, "exact")
    assert case.status == "pass"
    assert case.residual == 0.0
    assert case.bound == 0.0


def test_skip_carries_reason():
    case = run_case("e2e.sp4.stretch", 7, "float")
    assert case.status == "skip"
    assert "weight-degenerate" in case.note


def test_failed_cases_sort_first():
    good = run_case("scalar.algebra", 7, "exact")
    bad = run_case("scalar.algebra", 7, "exact")
    bad.status = "fail"
    bad.identifier = "zzz.fake"
    doc = report([good, bad])
    assert doc["cases"][0]["id"] == "zzz.fake"
    assert exit_code(doc) == 1


def test_parallel_pool_matches_serial():
    serial = report(run_suite("unitarity.*", seed=7), include_runtime=False)
    pooled = report(run_suite("unitarity.*", seed=7, jobs=2),
                    include_runtime=False)
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled,
                                                            sort_keys=True)


def test_sampled_check_keeps_a_nan_residual():
    # a NaN among the residuals must not be masked by a later finite one
    check = _sampled(lambda x: [float("nan"), 1.0], 1, trials=2)
    assert math.isnan(check(np.random.default_rng(0), FLOAT))
