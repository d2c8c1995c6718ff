"""Command-line interface.

Subcommands:
  ybe          Yang-Baxter residual for one R-matrix family at a point.
  chain-check  RTT and transfer-commutation residuals for a chain file.
  gl3          build/check a gl3 nested configuration.
  sp4          build/check an sp4 configuration, with verification report.
  solve        multi-start Newton solve of the Bethe conditions.
  verify       run the property-check suite and write the report.

Chain files are JSON: {"model": "sp4", "length": 2,
"inhomogeneities": ["0", "1/2"]}.  Rationals are "p/q" strings; complex
numbers accept "a+bi" or [re, im].
"""

from __future__ import annotations

import argparse
import json
import sys

from .chain import (CapacityError, Chain, chain_spec_from_dict,
                    check_commuting, check_rtt)
from .harness import exit_code, format_table, report, run_suite
from .linalg import EXACT, FLOAT, ZeroVectorError
from .nested_gl import gl3_residuals
from .nested_sp4 import Sp4BetheConfig, sp4_residuals
from . import bethe_solver as solver
from .rmatrix import check_unitarity, check_ybe
from .scalars import PoleError, parse_scalar


def _load_chain(path, backend):
    with open(path) as fh:
        data = json.load(fh)
    return Chain(chain_spec_from_dict(data, backend=backend))


def _parse_roots(text, backend=FLOAT):
    text = (text or "").strip()
    if not text:
        return ()
    return tuple(parse_scalar(t, backend) for t in text.split(","))


def _cmd_ybe(args):
    x = parse_scalar(args.x, args.backend)
    y = parse_scalar(args.y, args.backend)
    if args.z is not None:
        z = parse_scalar(args.z, args.backend)
        res = check_ybe(args.kind, x, y, z)
        label = "yang-baxter"
    else:
        res = check_unitarity(args.kind, x, y)
        label = "unitarity"
    ok = (res == 0) if args.backend == EXACT else float(abs(res)) < 1e-12
    print(json.dumps({"check": label, "kind": args.kind,
                      "residual": float(res), "backend": args.backend,
                      "pass": bool(ok)}))
    return 0 if ok else 1


def _cmd_chain_check(args):
    ch = _load_chain(args.spec, args.backend)
    x = parse_scalar(args.x, args.backend)
    y = parse_scalar(args.y, args.backend)
    rtt = check_rtt(ch, x, y)
    comm = check_commuting(ch, x, y)
    ok = (rtt == 0 and comm == 0) if args.backend == EXACT else \
        float(abs(rtt)) < 1e-12 and float(abs(comm)) < 1e-12
    print(json.dumps({"rtt_residual": float(rtt),
                      "commuting_residual": float(comm),
                      "backend": args.backend, "pass": bool(ok)}))
    return 0 if ok else 1


def _dense_check(out, ch, model, counts, roots, res, n_samples):
    """Add the dense-oracle verdict for `roots` at `n_samples` points to
    `out`."""
    samples = [complex(3.1 + 0.7j) + k for k in range(n_samples)]
    prob = solver.SolveProblem(ch, model, counts)
    result = solver.SolveResult(
        roots, max([0.0] + [abs(r) for vals in res.values() for _, r in vals]),
        0, True, 1.0)
    rep = solver.verify_solution(prob, result, samples)
    out["verdict"] = rep["verdict"]
    gaps = [s["spectrum_gap"] for s in rep["samples"] if "spectrum_gap" in s]
    out["matched_eigenvalue_gap"] = max(gaps) if gaps else None
    first = next((s for s in rep["samples"] if "eigenvalue" in s), None)
    out["matched_eigenvalue"] = first["eigenvalue"] if first else None
    eres = [s["eigen_residual"] for s in rep["samples"]
            if "eigen_residual" in s]
    out["eigen_residual"] = max(eres) if eres else None


def _cmd_gl3(args):
    ch = _load_chain(args.spec, FLOAT)
    u = _parse_roots(args.u)
    v = _parse_roots(args.v)
    out = {"u": [[z.real, z.imag] for z in u],
           "v": [[z.real, z.imag] for z in v]}
    res = gl3_residuals(ch, u, v)
    out["residuals"] = {fam: [abs(r) for _, r in vals]
                        for fam, vals in res.items()}
    if args.check:
        _dense_check(out, ch, "gl3", (len(v), len(u)), {"u": u, "v": v},
                     res, 1)
    print(json.dumps(out))
    return 0


def _cmd_sp4(args):
    ch = _load_chain(args.spec, FLOAT)
    cfg = Sp4BetheConfig(_parse_roots(args.u), _parse_roots(args.v),
                         _parse_roots(args.w))
    res = sp4_residuals(ch, cfg)
    out = {
        "config": {k: [[z.real, z.imag] for z in getattr(cfg, a)]
                   for k, a in (("u", "uvec"), ("v", "vbar"), ("w", "wbar"))},
        "residuals": {fam: [abs(r) for _, r in vals]
                      for fam, vals in res.items()},
        "backend": "float",
    }
    if args.verify:
        _dense_check(out, ch, "sp4", cfg.counts,
                     {"u": cfg.uvec, "v": cfg.vbar, "w": cfg.wbar}, res,
                     args.samples)
    print(json.dumps(out))
    return 0


def _cmd_solve(args):
    ch = _load_chain(args.spec, FLOAT)
    if args.model == "gl2":
        counts = (args.N,)
    elif args.model == "gl3":
        counts = (args.P, args.N)   # (M outer roots, inner roots)
    else:
        counts = (args.N, args.P, args.Q)
    prob = solver.SolveProblem(ch, args.model, counts, starts=args.starts,
                               seed=args.seed, tol=args.tol)
    results = solver.solve(prob)
    print(json.dumps([r.to_dict() for r in results]))
    return 0 if results else 1


def _cmd_verify(args):
    cases = run_suite(args.filter, seed=args.seed, jobs=args.jobs)
    if not cases:
        print(f"no checks match {args.filter!r}", file=sys.stderr)
        return 2
    doc = report(cases)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    print(format_table(doc))
    return exit_code(doc)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="betheforge", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ybe", help="Yang-Baxter / unitarity residual")
    p.add_argument("--kind", required=True,
                   choices=["gl2", "gl3", "sp4", "sp4tilde"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default=None, help="omit to check unitarity")
    p.add_argument("--backend", default=EXACT, choices=[EXACT, FLOAT])
    p.set_defaults(fn=_cmd_ybe)

    p = sub.add_parser("chain-check", help="RTT and [H(x),H(y)] residuals")
    p.add_argument("--spec", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--backend", default=EXACT, choices=[EXACT, FLOAT])
    p.set_defaults(fn=_cmd_chain_check)

    p = sub.add_parser("gl3", help="gl3 nested configuration check")
    p.add_argument("--spec", required=True)
    p.add_argument("--u", default="", help="comma-separated inner roots")
    p.add_argument("--v", default="", help="comma-separated outer roots")
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=_cmd_gl3)

    p = sub.add_parser("sp4", help="sp4 configuration check")
    p.add_argument("--spec", required=True)
    p.add_argument("--u", default="")
    p.add_argument("--v", default="")
    p.add_argument("--w", default="")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--samples", type=int, default=3)
    p.set_defaults(fn=_cmd_sp4)

    p = sub.add_parser("solve", help="solve the Bethe conditions")
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True, choices=["gl2", "gl3", "sp4"])
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--P", type=int, default=0)
    p.add_argument("--Q", type=int, default=0)
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="run the property-check suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--filter", default="*")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PoleError as exc:
        print(json.dumps({"error": f"pole: {exc}"}))
        return 2
    except (ValueError, ZeroVectorError, CapacityError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
