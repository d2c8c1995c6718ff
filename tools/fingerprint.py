"""Fingerprint the float path of the solver over the benchmark's task lists.

    python3 tools/fingerprint.py

Run from a checkout's root; the package is imported from its ``src/``.
For every task of solve-small (seeds 1-10, rounds 0-1) and capacity
(seeds 1-10, rounds 0-2), taken from ``perfbench.workloads``, the task
is run as the benchmark runs it, and the problem it solves is recorded:
`solve()`'s roots, residuals, iterations, convergence flags and
conditions, and the `verify_solution` report of each of its first six
results at the task's sample points.  Every float enters as `float.hex`,
so two trees print the same sha256 only if these are bit-identical.
Prints one line per workload: its name, task count and digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from betheforge import bethe_solver as solver  # noqa: E402
from perfbench.workloads import MAX_VERIFIED, WORKLOADS  # noqa: E402

PLAN = (("solve-small", range(1, 11), range(2)),
        ("capacity", range(1, 11), range(3)))


def exact(value):
    """`value` with every float (and complex part) as its float.hex."""
    if isinstance(value, dict):
        return {str(k): exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "item"):          # numpy scalars
        return exact(value.item())
    return value


def task_record(workload, task):
    """What the solver computed for one task, floats as hex."""
    solved = []
    plain = solver.solve

    def recording(problem):
        results = plain(problem)
        solved.append((problem, results))
        return results

    solver.solve = recording
    try:
        workload.run(task)
    finally:
        solver.solve = plain
    (problem, results), = solved
    samples = task.inputs[-1]
    return {
        "kind": task.kind,
        "results": [exact([r.roots, r.residual, r.iterations, r.converged,
                           r.condition]) for r in results],
        "reports": [exact(solver.verify_solution(problem, r, samples))
                    for r in results[:MAX_VERIFIED]],
    }


def main():
    for name, seeds, rounds in PLAN:
        workload = WORKLOADS[name]
        digest = hashlib.sha256()
        n = 0
        for seed in seeds:
            for index in rounds:
                for task in workload.round(seed, index):
                    record = task_record(workload, task)
                    digest.update(json.dumps(record, sort_keys=True).encode())
                    n += 1
        print(f"{name}: {n} tasks, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
