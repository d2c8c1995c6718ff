"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client: the next task starts when
the previous one has finished.  A run executes whole *rounds*; a round is a
fixed, interleaved list of task kinds whose inputs (solver seeds, sample
points, start offsets, case seeds) are drawn from the workload seed and the
round index, so the same seed always gives the same tasks.  Whole rounds
keep the mix of kinds the same in every run, which keeps the medians
steady.

Tasks call the package through module attributes (`solver.solve`,
`harness.run_case`), so a tracer that swaps those attributes sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from betheforge import bethe_solver as solver
from betheforge import chain as chain_mod
from betheforge import harness

# eigen-residual and spectrum-gap bound of the harness end-to-end checks
VERIFY_BOUND = 1e-8
# converged configurations scanned for one whose state verifies (as harness)
MAX_VERIFIED = 6


@dataclass(frozen=True)
class Task:
    kind: str
    inputs: tuple


@dataclass(frozen=True)
class SolveCase:
    """A float chain, the excitation counts and the solver's start count."""

    model: str
    length: int
    counts: tuple
    starts: int
    zs: tuple = None

    def chain(self):
        """A fresh chain with its vacuum detected (and empty caches)."""
        zs = self.zs
        if zs is None:
            zs = tuple(complex(z) for z in
                       chain_mod.default_inhomogeneities(self.length))
        ch = chain_mod.Chain(chain_mod.ChainSpec(self.model, self.length, zs,
                                                 "float"))
        ch.vacuum()
        return ch


def sample_points(rng, n=3):
    """Evaluation points for the dense check, off the real axis."""
    return tuple(complex(rng.uniform(-1.5, 2.5), rng.uniform(0.2, 1.0))
                 for _ in range(n))


def verify_failure(report):
    """Why a verify_solution report fails the harness bounds ("" = passes)."""
    if report["verdict"] != "ok":
        return f"verdict {report['verdict']}"
    checked = [s for s in report["samples"] if "skipped" not in s]
    if not checked:
        return "every sample point hit a pole"
    worst = max(max(s["eigen_residual"], s["spectrum_gap"]) for s in checked)
    if worst > VERIFY_BOUND:
        return f"eigen-residual/spectrum gap {worst:.2e} > {VERIFY_BOUND:g}"
    return ""


def solve_and_verify(case, solver_seed, samples, guesses=()):
    """Build the chain, solve, then check the best roots against dense
    diagonalization.

    The chain is built per task, as the CLI does per invocation, so a
    task's monodromy cache and memory are its own.  Returns "" when some
    converged configuration (best first, at most MAX_VERIFIED) verifies,
    else the reason it did not.
    """
    problem = solver.SolveProblem(case.chain(), case.model, case.counts,
                                  starts=case.starts, seed=solver_seed,
                                  guesses=[list(g) for g in guesses])
    results = solver.solve(problem)
    if not results:
        return "no converged start"
    why = ""
    for res in results[:MAX_VERIFIED]:
        why = verify_failure(solver.verify_solution(problem, res, samples))
        if not why:
            return ""
    return why


class Workload:
    """A named task mix.  Subclasses define `kinds`, `make_task` and `run`."""

    name = ""
    why = ""
    kinds = ()          # (kind, weight) pairs: the mix of one round
    warmup_kinds = ()   # kinds run once, untimed, at the end of set-up

    def prepare(self):
        """Set-up work done once per process, before the warm-up tasks."""

    def make_task(self, kind, rng):
        raise NotImplementedError

    def run(self, task):
        """Run one task; return "" if its output is correct, else why not."""
        raise NotImplementedError

    def round(self, seed, index):
        """Round `index`: each kind `weight` times, spread evenly through
        the round, so that a slow spell of the machine does not fall on
        the tasks of one kind."""
        rng = np.random.default_rng([seed, index])
        slots = sorted(((j + 0.5) / weight, k, kind)
                       for k, (kind, weight) in enumerate(self.kinds)
                       for j in range(weight))
        return [self.make_task(kind, rng) for _, _, kind in slots]

    def warmup(self, seed):
        rng = np.random.default_rng([seed, 1 << 20])
        return [self.make_task(kind, rng) for kind in self.warmup_kinds]


class SolveSmall(Workload):
    name = "solve-small"
    why = ("time to a verified root on short float chains, where per-call "
           "R-matrix and monodromy construction dominates")
    cases = {
        "gl2.L2.N1": SolveCase("gl2", 2, (1,), 20),
        "sp4.L2.plus": SolveCase("sp4", 2, (0, 1, 0), 24),
        "sp4.L2.minus": SolveCase("sp4", 2, (0, 0, 1), 40),
        "gl3.L3.M0N1": SolveCase("gl3", 3, (0, 1), 20),
        "gl2.L4.N2": SolveCase("gl2", 4, (2,), 20),
        "sp4.L3.plus": SolveCase("sp4", 3, (0, 1, 0), 24),
    }
    # A round is 77 tasks.  The weights put the median among the sixty
    # gl2.L2 tasks (at their 63rd percentile) and the tail (the 67th task)
    # among the twelve similar sp4.L2.minus / gl3 tasks, away from the
    # edges between kinds of very different cost, so that neither jumps
    # from kind to kind between runs.
    kinds = (("gl2.L2.N1", 60), ("sp4.L2.plus", 3), ("sp4.L2.minus", 6),
             ("gl3.L3.M0N1", 6), ("gl2.L4.N2", 1), ("sp4.L3.plus", 1))
    warmup_kinds = ("gl2.L2.N1", "sp4.L2.plus")

    def make_task(self, kind, rng):
        return Task(kind, (int(rng.integers(0, 2 ** 31)), sample_points(rng)))

    def run(self, task):
        solver_seed, samples = task.inputs
        return solve_and_verify(self.cases[task.kind], solver_seed, samples)


class ExactIdentities(Workload):
    name = "exact-identities"
    why = ("exact-lane identity checks that must come out as a literal zero: "
           "rational matmul, exact lift/kron, hatted apply and pairing")
    # A round is 35 tasks: every case once, except three 0.25-0.3 s cases
    # whose cost barely depends on the sample points.  Their weights put
    # the median among the rtt.gl3.L2 / b_exchange tasks and the tail (the
    # 25th task) among the slightly slower unitarity.sp4 tasks.
    kinds = (
        ("ybe.gl3", 1), ("ybe.sp4", 1), ("ybe.sp4tilde", 1),
        ("unitarity.sp4", 8), ("rtt.gl3.L2", 6), ("rtt.sp4.L2", 1),
        ("commuting.sp4.L2", 1), ("vacuum.sp4", 1), ("gl3.dressed_rtt", 1),
        ("sp4.b_exchange.N2", 6), ("sp4.b_reorder", 1),
        ("sp4.dressed_rtt.N2", 1), ("sp4.reduced_vacuum.N1", 1),
        ("sp4.reduced_vacuum.N2", 1), ("sp4.reduced_vacuum.N3", 1),
        ("sp4.second_level_exchange.P2Q2", 1),
        ("sp4.second_level_action.P2Q2", 1), ("sum_identity.n6", 1))
    warmup_kinds = ("ybe.gl3", "sp4.b_reorder")

    def prepare(self):
        harness.registry()

    def make_task(self, kind, rng):
        return Task(kind, (int(rng.integers(0, 2 ** 31)),))

    def run(self, task):
        case = harness.run_case(task.kind, task.inputs[0], "exact")
        if case.status == "pass" and case.residual == 0:
            return ""
        return f"status {case.status}, residual {case.residual!r} {case.note}"


class Capacity(Workload):
    name = "capacity"
    why = ("refine and verify a known root at the dense-oracle limit D=256, "
           "where 512-1024-dim lift+matmul and the 256-dim eig dominate")
    cases = {
        "gl2.L8.N1": SolveCase("gl2", 8, (1,), 1),
        "gl3.L5.M0N1": SolveCase("gl3", 5, (0, 1), 1),
        "sp4.L4.plus": SolveCase("sp4", 4, (0, 1, 0), 1),
    }
    # verified roots of each chain (default inhomogeneities), one unknown each
    roots = {
        "gl2.L8.N1": (-0.0625, -0.0625 + 0.410268990028j,
                      -0.0625 - 0.410268990028j, -0.0625 + 0.131147123401j),
        "gl3.L5.M0N1": (-0.1 + 0.101105685132j, -0.1 - 0.101105685132j,
                        -0.1 - 0.608093447123j),
        "sp4.L4.plus": (-0.125 + 0.414578098794j, -0.125,
                        -0.125 - 0.414578098794j),
    }
    # four tasks a round, so three rounds reach the eleven-task minimum;
    # the median falls among the gl3 tasks
    kinds = (("gl2.L8.N1", 1), ("gl3.L5.M0N1", 2), ("sp4.L4.plus", 1))
    warmup_kinds = ("gl2.L8.N1",)

    def make_task(self, kind, rng):
        # a start 2e-5 to 4e-5 from a known root: Newton takes exactly two
        # steps from every such start, so the work per task is fixed
        roots = self.roots[kind]
        root = roots[int(rng.integers(0, len(roots)))]
        offset = rng.uniform(2e-5, 4e-5) * np.exp(2j * np.pi * rng.uniform())
        return Task(kind, (root + offset, sample_points(rng)))

    def run(self, task):
        start, samples = task.inputs
        return solve_and_verify(self.cases[task.kind], 0, samples,
                                guesses=[(start,)])


WORKLOADS = {w.name: w for w in (SolveSmall(), ExactIdentities(), Capacity())}
