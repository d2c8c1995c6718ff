"""Outside-in tracing of the betheforge layers.

The tracer wraps the public functions of every layer module (plus the few
methods that carry layer work: `Mat.__matmul__`, `Mat.kron` and the
`Chain` monodromy/weight/transfer/vacuum methods) from outside the
package.  Modules import names directly (`from .rmatrix import
build_sp4_r`), so each wrapper is installed in every namespace that holds
the original object -- module globals and module-level lookup tables --
and the original is put back by `restore()`.

Spans live in memory as parallel columns (name, tag, parent, task, start,
end) and are written out once, at the end of a run.  A layer's self time
is the duration of its spans minus the time their child spans cover.

With ``record_spans=False`` the wrappers only count; the benchmark uses
that mode, restricted to a few functions, for the counting pass whose
counts the traced pass must reproduce exactly.
"""

from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

LAYERS = ("scalars", "linalg", "rmatrix", "chain", "nested_gl", "nested_sp4",
          "bethe_solver", "harness")

# methods traced on classes, by layer; everything else is module functions
METHODS = {
    "linalg": ("Mat", ("__matmul__", "kron")),
    "chain": ("Chain", ("monodromy", "lam", "transfer", "vacuum", "site_r")),
}

# R-matrix builder -> family, for the family/backend split
RMATRIX_FAMILY = {
    "build_gl_r": "gl", "build_sp4_r": "sp4",
    "build_block_r": "block", "coincident_block_r": "block",
    "build_tilde_r": "tilde",
    "build_dual_pp": "dual", "coincident_dual_pp": "dual",
    "build_hatted_r": "hatted", "coincident_hatted_r": "hatted",
}

# the counts a counting pass collects and the traced pass must reproduce
COMPARED_SPANS = ("bethe_solver.residual_vector", "chain.Chain.monodromy",
                  "chain.Chain.site_r", "linalg.Mat.__matmul__")
COMPARED_COUNTS = ("bethe_solver.residual_vector.calls",
                   "chain.monodromy.misses",
                   "linalg.matmul.exact_int64", "linalg.matmul.exact_bigint")

NO_PARENT = -1


def _module(layer):
    return importlib.import_module(f"betheforge.{layer}")


def traced_targets():
    """(span name, owner, attribute, original) for everything the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = _module(layer)
        for name, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", mod, name, obj))
        if layer in METHODS:
            cls_name, methods = METHODS[layer]
            cls = getattr(mod, cls_name)
            for meth in methods:
                out.append((f"{layer}.{cls_name}.{meth}", cls, meth,
                            cls.__dict__[meth]))
    return out


def _package_modules():
    return [importlib.import_module("betheforge")] + [
        _module(m) for m in LAYERS + ("cli",)]


class Tracer:
    """Counters and (optionally) spans for one pass over a task list."""

    def __init__(self, record_spans=True, only=None):
        self.record_spans = record_spans
        self.only = set(only) if only is not None else None
        self.names = ["task"]
        self._name_id = {"task": 0}
        self.tags = [""]
        self._tag_id = {"": 0}
        self.s_name, self.s_tag, self.s_parent = [], [], []
        self.s_task, self.s_start, self.s_end = [], [], []
        self.counters = {}
        self.stack = [NO_PARENT]
        self.task_id = -1
        self._patches = []
        self._last_pole = None

    # -- counters and tags ----------------------------------------------

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _intern(self, table, index, value):
        got = index.get(value)
        if got is None:
            got = index[value] = len(table)
            table.append(value)
        return got

    def tag(self, span, value):
        """Label span `span` (an index; -1 when spans are off) with `value`."""
        if span >= 0:
            self.s_tag[span] = self._intern(self.tags, self._tag_id, value)

    # -- spans -----------------------------------------------------------

    def open(self, name_id):
        idx = len(self.s_start)
        self.s_name.append(name_id)
        self.s_tag.append(0)
        self.s_parent.append(self.stack[-1])
        self.s_task.append(self.task_id)
        self.s_end.append(0.0)
        self.stack.append(idx)
        self.s_start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.s_end[idx] = time.perf_counter()
        self.stack.pop()

    def run_task(self, task_id, fn):
        """Run fn() as task `task_id` under a root span named "task"."""
        self.task_id = task_id
        if not self.record_spans:
            return fn()
        idx = self.open(0)
        try:
            return fn()
        finally:
            self.close(idx)

    def span_arrays(self):
        return {
            "name": np.asarray(self.s_name, dtype=np.int32),
            "tag": np.asarray(self.s_tag, dtype=np.int32),
            "parent": np.asarray(self.s_parent, dtype=np.int64),
            "task": np.asarray(self.s_task, dtype=np.int32),
            "start": np.asarray(self.s_start, dtype=np.float64),
            "end": np.asarray(self.s_end, dtype=np.float64),
        }

    def save(self, path):
        """Write the spans and their name/tag tables to an .npz file."""
        np.savez(path, names=np.asarray(self.names), tags=np.asarray(self.tags),
                 **self.span_arrays())

    # -- wrapping --------------------------------------------------------

    def _wrap(self, span_name, fn):
        tracer = self
        name_id = self._intern(self.names, self._name_id, span_name)
        calls_key = span_name + ".calls"
        hook = _HOOKS.get(span_name)
        if hook is None and span_name.startswith("rmatrix."):
            if span_name.split(".", 1)[1] in RMATRIX_FAMILY:
                hook = _rmatrix_hook
        pole = _module("scalars").PoleError if span_name.startswith(
            "scalars.") else ()
        spans = self.record_spans

        def wrapper(*args, **kwargs):
            counters = tracer.counters
            counters[calls_key] = counters.get(calls_key, 0) + 1
            idx = tracer.open(name_id) if spans else -1
            try:
                state = hook.before(tracer, idx, args) if hook else None
                result = fn(*args, **kwargs)
            except pole as exc:
                # count each PoleError once, where it first leaves the layer
                if exc is not tracer._last_pole:
                    tracer._last_pole = exc
                    tracer.count("scalars.pole_errors")
                raise
            finally:
                if spans:
                    tracer.close(idx)
            if hook:
                hook.after(tracer, idx, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every traced target wherever the package looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for span_name, owner, attr, original in traced_targets():
            if self.only is not None and span_name not in self.only:
                continue
            wrapped = self._wrap(span_name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
                    elif isinstance(value, dict) and not name.startswith("__"):
                        self._patch_table(value, original, wrapped)
        return self

    def _patch(self, owner, attr, wrapped):
        self._patches.append(("attr", owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _patch_table(self, table, original, wrapped):
        """Swap `original` in a module-level lookup table (dict values that
        are the function or a tuple holding it)."""
        for key, value in list(table.items()):
            if value is original:
                new = wrapped
            elif isinstance(value, tuple) and any(v is original for v in value):
                new = tuple(wrapped if v is original else v for v in value)
            else:
                continue
            self._patches.append(("item", table, key, value))
            table[key] = new

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            kind, owner, key, value = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, value)
            else:
                owner[key] = value

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


# -- per-function hooks --------------------------------------------------


class _Hook:
    def before(self, tracer, idx, args):
        return None

    def after(self, tracer, idx, args, result, state):
        pass


class _MatmulHook(_Hook):
    """Record which product path `Mat.__matmul__` takes.  The bound is the
    one the kernel itself tests, read from the package once; `amax()`
    caches, so calling it first does not change the work done."""

    safe = None

    def before(self, tracer, idx, args):
        a, b = args
        if a.backend == "float":
            path = "float"
        else:
            if self.safe is None:
                self.safe = _module("linalg")._INT64_SAFE
            bound = a.shape[1] * a.amax() * b.amax()
            path = "exact_int64" if bound < self.safe else "exact_bigint"
        tracer.count("linalg.matmul." + path)
        tracer.tag(idx, path)


class _LiftHook(_Hook):
    def after(self, tracer, idx, args, result, state):
        tracer.count("linalg.lift.bytes_computed", int(result.num.nbytes))


class _MonodromyHook(_Hook):
    """A monodromy call is a miss when it builds R-matrices (calls site_r)."""

    def before(self, tracer, idx, args):
        return tracer.counters.get("chain.Chain.site_r.calls", 0)

    def after(self, tracer, idx, args, result, state):
        miss = tracer.counters.get("chain.Chain.site_r.calls", 0) > state
        tracer.count("chain.monodromy.misses" if miss else "chain.monodromy.hits")


class _SolveHook(_Hook):
    def before(self, tracer, idx, args):
        problem = args[0]
        tracer.count("bethe_solver.starts",
                     max(problem.starts, len(problem.guesses)))

    def after(self, tracer, idx, args, result, state):
        tracer.count("bethe_solver.roots_found", len(result))
        tracer.count("bethe_solver.iterations",
                     sum(r.iterations for r in result))


class _RunCaseHook(_Hook):
    def after(self, tracer, idx, args, result, state):
        tracer.count("harness.status." + result.status)


class _RmatrixHook(_Hook):
    def after(self, tracer, idx, args, result, state):
        tracer.tag(idx, result.mat.backend)


_rmatrix_hook = _RmatrixHook()
_HOOKS = {
    "linalg.Mat.__matmul__": _MatmulHook(),
    "linalg.lift": _LiftHook(),
    "chain.Chain.monodromy": _MonodromyHook(),
    "bethe_solver.solve": _SolveHook(),
    "harness.run_case": _RunCaseHook(),
}


# -- analysis --------------------------------------------------------------


def self_times(parent, start, end):
    """Per-span self time: duration minus the time child spans cover.

    Spans come from one thread, so children of a span never overlap and
    lie inside it; the covered time is the sum of the children's durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


# -- per-layer metrics ------------------------------------------------------

STRUCTURE_FUNCTIONS = tuple(f"scalars.{n}" for n in (
    "f", "g", "h", "k", "F_left", "F_right", "F2_left", "F2_right"))
RMATRIX_BACKENDS = ("exact", "float")

# metric -> span names whose calls / self time it sums
_GROUPS = {
    "linalg.matmul": ("linalg.Mat.__matmul__",),
    "linalg.lift": ("linalg.lift",),
    "chain.monodromy": ("chain.Chain.monodromy",),
    "nested_gl.residuals": ("nested_gl.gl2_residuals", "nested_gl.gl3_residuals"),
    "nested_gl.vector": ("nested_gl.gl2_vector", "nested_gl.gl3_vector"),
    "nested_gl.block_apply": ("nested_gl.gl3_block_apply",),
    "nested_sp4.residuals": ("nested_sp4.sp4_residuals",),
    "nested_sp4.vector": ("nested_sp4.sp4_bethe_vector",),
    "nested_sp4.pairing": ("nested_sp4.pairing_matrix",),
    "nested_sp4.hatted_apply": ("nested_sp4.hatted_apply",),
    "bethe_solver.solve": ("bethe_solver.solve",),
}


def per_layer_units():
    """Every per-layer metric, in report order, with its unit."""
    out = {"scalars.calls": "count", "scalars.self_s": "s",
           "scalars.pole_errors": "count",
           "linalg.matmul.calls": "count", "linalg.matmul.self_s": "s",
           "linalg.matmul.float": "count", "linalg.matmul.exact_int64": "count",
           "linalg.matmul.exact_bigint": "count",
           "linalg.lift.calls": "count", "linalg.lift.self_s": "s",
           "linalg.lift.bytes_computed": "B", "linalg.kron.calls": "count",
           "rmatrix.build.calls": "count", "rmatrix.build.self_s": "s"}
    for fam in sorted(set(RMATRIX_FAMILY.values())):
        for backend in RMATRIX_BACKENDS:
            out[f"rmatrix.build.{fam}.{backend}.calls"] = "count"
            out[f"rmatrix.build.{fam}.{backend}.self_s"] = "s"
    out.update({
        "chain.monodromy.calls": "count", "chain.monodromy.misses": "count",
        "chain.monodromy.hit_ratio": "ratio", "chain.monodromy.self_s": "s",
        "chain.lam.calls": "count", "chain.vacuum.s": "s",
        "chain.transfer.calls": "count",
        "nested_gl.residuals.calls": "count", "nested_gl.residuals.self_s": "s",
        "nested_gl.vector.self_s": "s", "nested_gl.block_apply.self_s": "s",
        "nested_sp4.residuals.calls": "count",
        "nested_sp4.residuals.self_s": "s", "nested_sp4.vector.self_s": "s",
        "nested_sp4.pairing.calls": "count", "nested_sp4.pairing.self_s": "s",
        "nested_sp4.hatted_apply.calls": "count",
        "nested_sp4.hatted_apply.self_s": "s",
        "bethe_solver.residual_evals": "count",
        "bethe_solver.residual_evals_per_task": "count",
        "bethe_solver.starts": "count", "bethe_solver.roots_found": "count",
        "bethe_solver.roots_per_start": "ratio",
        "bethe_solver.iterations": "count", "bethe_solver.solve.self_s": "s",
        "bethe_solver.verify.s": "s",
        "harness.run_case.s": "s", "harness.fail": "count",
        "harness.skip": "count",
    })
    for layer in LAYERS + ("bench",):
        out[f"layer.{layer}.self_s"] = "s"
    out.update({"trace.untraced_s": "s", "trace.traced_s": "s",
                "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
                "trace.spans": "count"})
    return out


def per_layer_metrics(tracer, n_tasks):
    """Per-layer values from a traced pass (wall times are added by the
    caller under the trace.* names)."""
    arr = tracer.span_arrays()
    own = self_times(arr["parent"], arr["start"], arr["end"])
    dur = arr["end"] - arr["start"]
    names = tracer.names
    calls = tracer.counters

    def mask(pred, tag=None):
        by_name = np.array([bool(pred(n)) for n in names])
        m = by_name[arr["name"]] if arr["name"].size else by_name[:0]
        if tag is not None:
            m &= arr["tag"] == tracer._tag_id.get(tag, -1)
        return m

    def n_calls(span_names):
        return sum(calls.get(n + ".calls", 0) for n in span_names)

    def self_s(span_names, tag=None):
        return float(own[mask(lambda n: n in span_names, tag)].sum())

    m = {"scalars.calls": n_calls(STRUCTURE_FUNCTIONS),
         "scalars.self_s": self_s(STRUCTURE_FUNCTIONS),
         "scalars.pole_errors": calls.get("scalars.pole_errors", 0)}
    for key, span_names in _GROUPS.items():
        m[key + ".calls"] = n_calls(span_names)
        m[key + ".self_s"] = self_s(span_names)
    for path in ("float", "exact_int64", "exact_bigint"):
        m["linalg.matmul." + path] = calls.get("linalg.matmul." + path, 0)
    m["linalg.lift.bytes_computed"] = calls.get("linalg.lift.bytes_computed", 0)
    m["linalg.kron.calls"] = n_calls(("linalg.Mat.kron",))

    builders = tuple(f"rmatrix.{b}" for b in RMATRIX_FAMILY)
    m["rmatrix.build.calls"] = n_calls(builders)
    m["rmatrix.build.self_s"] = self_s(builders)
    for fam in sorted(set(RMATRIX_FAMILY.values())):
        fam_spans = tuple(f"rmatrix.{b}" for b, f in RMATRIX_FAMILY.items()
                          if f == fam)
        for backend in RMATRIX_BACKENDS:
            sel = mask(lambda n: n in fam_spans, backend)
            m[f"rmatrix.build.{fam}.{backend}.calls"] = int(sel.sum())
            m[f"rmatrix.build.{fam}.{backend}.self_s"] = float(own[sel].sum())

    hits = calls.get("chain.monodromy.hits", 0)
    misses = calls.get("chain.monodromy.misses", 0)
    m["chain.monodromy.misses"] = misses
    m["chain.monodromy.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["chain.lam.calls"] = n_calls(("chain.Chain.lam",))
    m["chain.vacuum.s"] = float(dur[mask(lambda n: n == "chain.Chain.vacuum")].sum())
    m["chain.transfer.calls"] = n_calls(("chain.Chain.transfer",))

    evals = n_calls(("bethe_solver.residual_vector",))
    starts = calls.get("bethe_solver.starts", 0)
    roots = calls.get("bethe_solver.roots_found", 0)
    m["bethe_solver.residual_evals"] = evals
    m["bethe_solver.residual_evals_per_task"] = evals / n_tasks if n_tasks else 0.0
    m["bethe_solver.starts"] = starts
    m["bethe_solver.roots_found"] = roots
    m["bethe_solver.roots_per_start"] = roots / starts if starts else 0.0
    m["bethe_solver.iterations"] = calls.get("bethe_solver.iterations", 0)
    m["bethe_solver.verify.s"] = float(
        dur[mask(lambda n: n == "bethe_solver.verify_solution")].sum())
    m["harness.run_case.s"] = float(
        dur[mask(lambda n: n == "harness.run_case")].sum())
    m["harness.fail"] = calls.get("harness.status.fail", 0)
    m["harness.skip"] = calls.get("harness.status.skip", 0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = float(
            own[mask(lambda n: n.startswith(layer + "."))].sum())
    m["layer.bench.self_s"] = float(own[mask(lambda n: n == "task")].sum())
    m["trace.spans"] = int(arr["name"].size)
    return m
