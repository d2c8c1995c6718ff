"""Run one betheforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads: solve-small, exact-identities, capacity (see workloads.py and
BENCHMARK.json for why each exists).

--trace 0  set the workload up in three fresh processes (the median is
           setup_s), then set it up here and run whole rounds of tasks for
           --seconds and print the end-to-end metrics.
--trace 1  run the same loop untraced, then replay exactly the same tasks
           twice: counting a few calls only, and with every layer traced.
           Print the per-layer metrics and the tracing overhead (traced
           wall time minus untraced), and fail unless the passes agree on
           every verdict and the last two on the compared counts.
           Spans are written to perfbench/out/.

Every task's output is checked (a verified root, or a literal zero); the
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics.  The exit code is 0 only when every task passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120   # one cold set-up; the slowest (capacity) takes ~2 s
MIN_TASKS = 11          # the tail percentile needs more than 10 samples
# the end-to-end metrics BENCHMARK.json gates.  task_s_tail is printed, not
# gated: with 12 to 77 tasks a run, the highest percentile with ten tasks
# beyond it is p17 to p86 and moves between kinds of task.  failed_ratio
# reads 0 on a correct run; a failure fails the run itself.
GATED = ("setup_s", "task_s_p50", "tasks_per_s", "peak_rss_mb")


def import_package(src):
    """Import betheforge and its CLI (whose import cost is set-up) from `src`."""
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "betheforge", "__init__.py")):
        sys.exit(f"betheforge sources not found under {src}")
    sys.path.insert(0, src)
    import betheforge.cli
    if not os.path.abspath(betheforge.cli.__file__).startswith(src + os.sep):
        sys.exit(f"betheforge was not imported from {src}")
    sys.path.insert(0, ROOT)


def machine_info():
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads(np)
    info["l3_cache"] = _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size")
    info["mem_total_mb"] = round(os.sysconf("SC_PAGE_SIZE")
                                 * os.sysconf("SC_PHYS_PAGES") / 2 ** 20)
    return info


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _read_first(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


# -- the loop ------------------------------------------------------------------


class Outcome:
    """Per-task kinds, latencies and failure reasons of one pass."""

    def __init__(self):
        self.tasks, self.seconds, self.errors = [], [], []
        self.wall = 0.0

    def add(self, task, seconds, error):
        self.tasks.append(task)
        self.seconds.append(seconds)
        self.errors.append(error)

    @property
    def failed(self):
        return sum(bool(e) for e in self.errors)


def run_task(workload, task):
    try:
        return workload.run(task)
    except Exception as exc:  # a crashing task is a failed task, not a crash
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"


def run_loop(workload, tasks, tracer=None):
    """Run the given tasks in order, timing each one.

    Garbage is collected between tasks and that time is left out of the
    loop's wall time: chains hold a reference cycle, so without it the
    peak resident set would depend on when the collector happens to run.
    """
    out = Outcome()
    collecting = 0.0
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        if tracer is None:
            error = run_task(workload, task)
        else:
            error = tracer.run_task(i, lambda: run_task(workload, task))
        t1 = time.perf_counter()
        out.add(task, t1 - t0, error)
        gc.collect()
        collecting += time.perf_counter() - t1
    out.wall = time.perf_counter() - start - collecting
    return out


def run_rounds(workload, seed, seconds, tracer=None):
    """Run whole rounds until another round would pass `seconds` and at
    least MIN_TASKS tasks are done (never beyond three times `seconds`)."""
    out = Outcome()
    rounds = 0
    while True:
        part = run_loop(workload, workload.round(seed, rounds), tracer)
        for args in zip(part.tasks, part.seconds, part.errors):
            out.add(*args)
        out.wall += part.wall
        rounds += 1
        projected = out.wall + out.wall / rounds
        if projected > seconds and (len(out.tasks) >= MIN_TASKS
                                    or projected > 3 * seconds):
            break
    return out, rounds


def cold_set_up(src, workload_name, seed):
    """Import the package and set the workload up; meant for a fresh
    process, so that it measures what a new process pays."""
    start = time.perf_counter()
    import_package(src)
    from perfbench.workloads import WORKLOADS
    set_up(WORKLOADS[workload_name], seed)
    return time.perf_counter() - start


def cold_set_ups(src, workload, seed):
    """Seconds taken by SETUP_REPEATS cold set-ups, one new process each.

    Each child is this script with --cold-setup; subprocess.run waits for
    it to end (and kills it first on a timeout), so none outlives the run.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--cold-setup",
           "--workload", workload.name, "--seed", str(seed), "--seconds", "0",
           "--src", src]
    seconds = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
    return seconds


def set_up(workload, seed):
    """Prepare the workload and run its warm-up tasks; return the seconds."""
    gc.collect()
    start = time.perf_counter()
    workload.prepare()
    for task in workload.warmup(seed):
        error = run_task(workload, task)
        if error:
            raise RuntimeError(f"warm-up task {task.kind} failed: {error}")
    return time.perf_counter() - start


# -- reporting --------------------------------------------------------------------


def end_to_end(outcome, setup_s):
    """Every end-to-end metric, as name -> (value, unit)."""
    from perfbench import stats
    tail = stats.tail(outcome.seconds)
    return {
        "setup_s": (setup_s, "s"),
        "task_s_p50": (statistics.median(outcome.seconds), "s"),
        "task_s_tail": (tail[0] if tail else max(outcome.seconds), "s"),
        "tasks_per_s": (len(outcome.tasks) / outcome.wall, "1/s"),
        "failed_ratio": (outcome.failed / len(outcome.tasks), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def print_tasks(outcome):
    kinds = {}
    for task, sec, err in zip(outcome.tasks, outcome.seconds, outcome.errors):
        kinds.setdefault(task.kind, []).append((sec, err))
    print(f"{'kind':34s} {'tasks':>5s} {'failed':>6s} {'median_s':>9s} {'max_s':>8s}")
    for kind, rows in kinds.items():
        secs = [s for s, _ in rows]
        print(f"{kind:34s} {len(rows):5d} {sum(bool(e) for _, e in rows):6d} "
              f"{statistics.median(secs):9.4f} {max(secs):8.4f}")
    for i, (task, err) in enumerate(zip(outcome.tasks, outcome.errors)):
        if err:
            print(f"FAILED task {i} {task.kind} {task.inputs}: {err}")


def result_line(correct, outcome, metrics):
    return json.dumps({
        "correct": bool(correct), "attempted": len(outcome.tasks),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def untraced_run(workload, args):
    setups = cold_set_ups(args.src, workload, args.seed)
    setup_s = statistics.median(setups)
    set_up(workload, args.seed)
    outcome, rounds = run_rounds(workload, args.seed, args.seconds)
    metrics = end_to_end(outcome, setup_s)

    print_tasks(outcome)
    print(f"rounds {rounds}, tasks {len(outcome.tasks)}, loop wall "
          f"{outcome.wall:.3f} s; cold set-ups (import, prepare, warm-up) "
          f"{[round(s, 4) for s in setups]} s")
    from perfbench import stats
    tail = stats.tail(outcome.seconds)
    notes = {
        "task_s_tail": (f"p{tail[1]:.1f} of {tail[2]} tasks" if tail else
                        f"max: only {len(outcome.tasks)} tasks"),
        "failed_ratio": f"{outcome.failed} of {len(outcome.tasks)} tasks",
    }
    for name, (value, unit) in metrics.items():
        gate = "" if name in GATED else "  (not in BENCHMARK.json)"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:14s} {value:14.6f} {unit}{note}{gate}")
    return outcome, {k: metrics[k] for k in GATED}


def traced_run(workload, args, tracer_mod):
    # pass 1: untraced, with no wrapper installed; it fixes the task list
    # and the wall time the overhead is measured against
    set_up(workload, args.seed)
    plain, rounds = run_rounds(workload, args.seed, args.seconds)
    # pass 2: the same tasks, counting only the compared calls
    set_up(workload, args.seed)
    counter = tracer_mod.Tracer(record_spans=False,
                                only=tracer_mod.COMPARED_SPANS)
    with counter:
        counted = run_loop(workload, plain.tasks, tracer=counter)
    # pass 3: the same tasks, traced, after the same set-up
    set_up(workload, args.seed)
    tracer = tracer_mod.Tracer()
    with tracer:
        traced = run_loop(workload, plain.tasks, tracer=tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"trace-{workload.name}.npz"))

    values = tracer_mod.per_layer_metrics(tracer, len(traced.tasks))
    values["trace.untraced_s"] = plain.wall
    values["trace.traced_s"] = traced.wall
    values["trace.overhead_s"] = traced.wall - plain.wall
    values["trace.overhead_ratio"] = (traced.wall - plain.wall) / plain.wall
    units = tracer_mod.per_layer_units()
    metrics = {k: (values[k], u) for k, u in units.items()}

    mismatches = []
    for i, verdicts in enumerate(zip(plain.errors, counted.errors,
                                     traced.errors)):
        if len({bool(v) for v in verdicts}) > 1:
            said = ", ".join(f"{'fail' if v else 'pass'} {name}" for v, name
                             in zip(verdicts, ("untraced", "counting", "traced")))
            mismatches.append(f"task {i} {plain.tasks[i].kind}: verdict {said}")
    for key in tracer_mod.COMPARED_COUNTS:
        a, b = counter.counters.get(key, 0), tracer.counters.get(key, 0)
        print(f"compared {key:40s} counting {a:10d} traced {b:10d}")
        if a != b:
            mismatches.append(f"{key}: {a} counting, {b} traced")

    print_tasks(traced)
    print(f"rounds {rounds}, tasks {len(traced.tasks)}; untraced "
          f"{plain.wall:.3f} s, traced {traced.wall:.3f} s, overhead "
          f"{values['trace.overhead_s']:.3f} s "
          f"({100 * values['trace.overhead_ratio']:.1f}%), "
          f"{values['trace.spans']} spans")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    for line in mismatches:
        print("MISMATCH " + line)
    return traced, metrics, not mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=SRC,
                        help="package sources to benchmark (default: src/ "
                             "of this checkout; compare.py points it at a "
                             "parent tree)")
    parser.add_argument("--cold-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a SIGTERM ends the run through SystemExit, so subprocess.run kills and
    # waits for a cold set-up child that is still running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.cold_setup:
        # a child of cold_set_ups: time one set-up, print only the seconds
        print(cold_set_up(args.src, args.workload, args.seed))
        return 0

    import_package(args.src)
    from perfbench import tracer as tracer_mod
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    info = machine_info()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    if args.trace:
        outcome, metrics, agree = traced_run(workload, args, tracer_mod)
    else:
        outcome, metrics = untraced_run(workload, args)
        agree = True
    correct = agree and outcome.failed == 0
    print(result_line(correct, outcome, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
