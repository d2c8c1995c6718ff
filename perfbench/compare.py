"""Repeat benchmark runs and summarise them; optionally compare two trees.

    python3 perfbench/compare.py --workloads all --seeds 1-10
    python3 perfbench/compare.py --workloads capacity --seeds 1-10 \\
        --parent ../parent-checkout --holdout 1001-1003

Each run is one `perfbench/run.py` process, always of the run_seconds
that BENCHMARK.json fixes.  For every workload and end-to-end metric this
prints the median and quartiles over the runs and their spread
(interquartile distance over the median) next to the bound BENCHMARK.json
fixes, and flags a spread wider than the bound.  Seeds given with
--holdout are run and reported apart, so a claim can be checked on seeds
not used while writing it.

With --parent, each seed runs on both trees with this benchmark code
(`run.py --src`), alternating which side goes first.  A gain is reported
only when the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's own interquartile distance; a
metric whose parent spread is wider than its bound is "unresolved" unless
every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.stats import quartiles, spread  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark process on `tree` (a checkout root); its
    result dict."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--src", os.path.join(tree, "src")]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results]


def print_summary(title, results, spec):
    print(f"\n{title}: {len(results)} runs")
    print(f"{'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        xs = values(results, m["name"])
        q1, med, q3 = quartiles(xs)
        wide = spread(xs) > m["bound"]
        print(f"{m['name']:14s} {m['unit']:6s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread(xs):7.3f} {m['bound']:6.2f}"
              f"{'  WIDER THAN BOUND' if wide else ''}")


def compare(parent, change, spec):
    """Per-metric verdict of the change against the parent (paired by seed)."""
    print(f"\n{'metric':14s} {'parent med':>12s} {'change med':>12s} "
          f"{'wins':>7s}  verdict")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p, c = values(parent, name), values(change, name)
        pq1, pmed, pq3 = quartiles(p)
        _, cmed, _ = quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
        beats_all = (max(c) < min(p)) if lower else (min(c) > max(p))
        if wins >= 0.9 * len(p) and abs(cmed - pmed) > pq3 - pq1:
            verdict = "gain"
        elif spread(p) > m["bound"] and not beats_all:
            verdict = "unresolved (parent spread wider than bound)"
        elif worse > m["bound"]:
            verdict = f"REGRESSION ({100 * worse:.1f}% worse, bound {m['bound']})"
        else:
            verdict = "no change beyond bound"
        print(f"{name:14s} {pmed:12.6g} {cmed:12.6g} {wins:3d}/{len(p):<3d}  {verdict}")


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help=f"comma list of {', '.join(names)}, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--holdout", default="",
                        help="seeds reported apart, e.g. 1001-1003")
    parser.add_argument("--parent", help="checkout root of the parent tree")
    args = parser.parse_args(argv)

    workloads = names if args.workloads == "all" else args.workloads.split(",")
    groups = [("seeds " + args.seeds, parse_seeds(args.seeds))]
    if args.holdout:
        groups.append(("holdout seeds " + args.holdout,
                       parse_seeds(args.holdout)))
    for workload in workloads:
        for title, seeds in groups:
            change, parent = [], []
            for i, seed in enumerate(seeds):
                order = ["change", "parent"] if args.parent else ["change"]
                if args.parent and i % 2:
                    order.reverse()
                for side in order:
                    tree = ROOT if side == "change" else os.path.abspath(args.parent)
                    res = run_once(tree, workload, seed, spec["run_seconds"])
                    (change if side == "change" else parent).append(res)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                        flush=True)
            print_summary(f"{workload}, {title}, change", change, spec)
            if args.parent:
                print_summary(f"{workload}, {title}, parent", parent, spec)
                compare(parent, change, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
