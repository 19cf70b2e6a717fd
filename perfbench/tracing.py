"""Spans around nfix's layer boundaries, recorded from outside the program.

The tracer replaces each boundary function at the name its callers resolve
it through (a module attribute, or a method on AnchoredSpace) with a wrapper
that records a span: name, start, end, parent span, request id and a work
count (rows for batch calls, iterations for solves, trace rows for
write_trace).  Spans stay in memory, in flat arrays, until the run ends.
A layer's self time is its span's duration minus its children's.

A boundary whose attribute no longer exists is skipped, so a refactor that
bypasses a boundary reads as 0 calls rather than as a speed-up.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from array import array

import numpy as np

SOLVE = "solvers.solve"


def _rows(args, result):
    return len(args[1])


def _iterations(args, result):
    return result.iterations if result is not None else 0


def _trace_rows(args, result):
    return len(args[0].trace)


# (span name, nfix module, attribute, work count)
BOUNDARIES = (
    ("nnorm.seminorm_raw", "nnorm", "AnchoredSpace.seminorm_raw", None),
    ("nnorm.seminorm_batch", "nnorm", "AnchoredSpace.seminorm_batch", _rows),
    ("nnorm.gram_nnorm", "nnorm", "gram_nnorm", None),
    ("nnorm.gram_nnorm", "harness", "gram_nnorm", None),
    ("nnorm.is_linearly_dependent", "nnorm", "is_linearly_dependent", None),
    ("nnorm.is_linearly_dependent", "operators", "is_linearly_dependent", None),
    ("nnorm.is_linearly_dependent", "solvers", "is_linearly_dependent", None),
    ("nnorm.b_cauchy_tail", "nnorm", "b_cauchy_tail", None),
    ("operators.apply", "operators", "apply", None),
    ("operators.apply", "solvers", "apply", None),
    ("operators.apply", "harness", "apply", None),
    ("operators.apply_batch", "operators", "apply_batch", _rows),
    ("operators.apply_batch", "solvers", "apply_batch", _rows),
    ("operators.apply_batch", "harness", "apply_batch", _rows),
    ("operators.contraction_constant", "operators", "contraction_constant", None),
    ("operators.contraction_constant", "solvers", "contraction_constant", None),
    ("operators.operator_norm", "cli", "operator_norm", None),
    ("operators.operator_norm", "harness", "operator_norm", None),
    ("operators.kernel_preserved", "operators", "kernel_preserved", None),
    ("operators.kernel_preserved", "harness", "kernel_preserved", None),
    ("operators.continuity_probe", "harness", "continuity_probe", None),
    (SOLVE, "cli", "solve", _iterations),
    (SOLVE, "harness", "picard_solve", _iterations),
    (SOLVE, "harness", "summable_solve", _iterations),
    (SOLVE, "harness", "edelstein_solve", _iterations),
    ("solvers.crosscheck", "solvers", "_crosscheck", None),
    ("solvers.crosscheck", "solvers", "_crosscheck_alpha_in_ball", None),
    ("solvers.independence", "solvers", "_independence", None),
    ("harness.axioms", "cli", "check_axiom_suite", None),
    ("harness.bounded", "cli", "check_bounded_iff_continuous", None),
    ("harness.bounded_sets", "cli", "check_bounded_sets", None),
    ("harness.product_ball", "cli", "check_product_ball_lemma", None),
    ("harness.reduction", "cli", "reduction_suite", None),
    ("harness.ratio", "cli", "check_contractive_ratio", None),
    ("cli.load_problem", "cli", "load_problem", None),
    ("cli.write_trace", "cli", "write_trace", _trace_rows),
    ("cli.check", "cli", "cmd_check", None),
)

LAYERS = ("nnorm", "operators", "solvers", "harness", "cli")

# name -> unit for every metric of the traced run, in output order
PER_LAYER = {
    "operators.apply.us": "us", "operators.apply.calls": "count",
    "nnorm.seminorm_raw.us": "us", "nnorm.seminorm_raw.calls": "count",
    "solvers.step_us": "us",
    "operators.contraction_constant.ms": "ms", "operators.contraction_constant.calls": "count",
    "nnorm.is_linearly_dependent.us": "us", "nnorm.is_linearly_dependent.calls": "count",
    "solvers.solve.self_ms": "ms", "solvers.solve.calls": "count",
    "solvers.crosscheck_share": "ratio", "solvers.crosscheck.calls": "count",
    "solvers.independence.calls": "count",
    "solvers.iterations": "count", "solvers.op_evals": "count",
    "nnorm.gram_nnorm.us": "us", "nnorm.gram_nnorm.calls": "count",
    "nnorm.seminorm_batch.rows_per_s": "1/s", "nnorm.seminorm_batch.calls": "count",
    "operators.apply_batch.rows_per_s": "1/s", "operators.apply_batch.calls": "count",
    "operators.operator_norm.ms": "ms", "operators.operator_norm.calls": "count",
    "operators.kernel_preserved.us": "us", "operators.kernel_preserved.calls": "count",
    "operators.continuity_probe.ms": "ms", "operators.continuity_probe.calls": "count",
    "nnorm.b_cauchy_tail.ms": "ms", "nnorm.b_cauchy_tail.calls": "count",
    "harness.axioms.s": "s", "harness.axioms.calls": "count",
    "harness.bounded.s": "s", "harness.bounded.calls": "count",
    "harness.bounded_sets.s": "s", "harness.bounded_sets.calls": "count",
    "harness.product_ball.s": "s", "harness.product_ball.calls": "count",
    "harness.reduction.s": "s", "harness.reduction.calls": "count",
    "harness.ratio.s": "s", "harness.ratio.calls": "count",
    "cli.load_problem.us": "us", "cli.load_problem.calls": "count",
    "cli.write_trace.us_per_row": "us", "cli.write_trace.calls": "count",
    "cli.check.self_ms": "ms", "cli.check.calls": "count",
    "nnorm.self_s": "s", "operators.self_s": "s", "solvers.self_s": "s",
    "harness.self_s": "s", "cli.self_s": "s",
    "failed_frac": "ratio", "cert_violations": "count", "solvers.cert_excess_max_rel": "ratio",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio", "trace.solve_accounted_frac": "ratio",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request_of = array("q")
        self.units = array("q")
        self._stack = [-1]
        self._request = 0
        self._installed = []
        self.missing = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request_of.append(self._request)
        self.units.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, units: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.units[i] = units

    @contextlib.contextmanager
    def request(self, kind: str):
        """Span for one whole request; its children share its request id."""
        self._request += 1
        i = self._open(self._id("request." + kind))
        try:
            yield
        finally:
            self._close(i, 1)

    def _wrap(self, name: str, fn, count):
        nid = self._id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = opened(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                closed(i, count(args, result) if count else 1)

        return traced

    def install(self, nfix):
        for name, module, attr, count in BOUNDARIES:
            owner = getattr(nfix, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                self._id(name)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def write(self, path: str):
        """Spans as CSV: name, start and end in us from the first span,
        parent index (-1 for none), request id, work count."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,request,units\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                         f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{self.request_of[i]},"
                         f"{self.units[i]}\n")

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, work units; plus
        the parts of solver spans the step time needs."""
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=float) if n else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float) if n else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
        units = np.frombuffer(self.units, dtype=np.int64) if n else np.zeros(0, np.int64)
        incl = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=incl[has_parent], minlength=n)
        own = incl - child
        k = len(self.names)
        stats = {
            name: {
                "calls": int(c),
                "incl": float(i),
                "self": float(s),
                "units": int(u),
            }
            for name, c, i, s, u in zip(
                self.names,
                np.bincount(names, minlength=k),
                np.bincount(names, weights=incl, minlength=k),
                np.bincount(names, weights=own, minlength=k),
                np.bincount(names, weights=units, minlength=k),
            )
        }

        # spans nested in a solve: parents precede children, so one pass
        solve_id = self._ids.get(SOLVE, -1)
        par = parent.tolist()
        nm = names.tolist()
        root = [-1] * n
        for i in range(n):
            p = par[i]
            if p >= 0:
                root[i] = p if nm[p] == solve_id else root[p]
        inside = np.array(root, dtype=np.int64) >= 0

        def total(name, what="incl"):
            nid = self._ids.get(name, -1)
            sel = inside & (names == nid)
            return float((incl if what == "incl" else units)[sel].sum())

        is_solve = names == solve_id
        extra = {
            "solve_incl": float(incl[is_solve].sum()),
            "solve_subtree_self": float(own[inside].sum() + own[is_solve].sum()),
            "crosscheck_in_solve": total("solvers.crosscheck"),
            "independence_in_solve": total("solvers.independence"),
            "op_evals": int(total("operators.apply_batch", "units")),
            "iterations": int(units[is_solve].sum()),
            "wall": float(end.max() - start.min()) if n else 0.0,
        }
        return {"spans": stats, **extra}


def _mean(stat: dict, unit: str) -> float:
    return stat["incl"] / stat["calls"] * _SCALE[unit] if stat["calls"] else 0.0


def layer_metrics(agg: dict, tally, plain_s: float, traced_s: float) -> dict:
    """Every PER_LAYER metric from an aggregate, the request tally and the
    untraced and traced wall times of the same work."""
    spans = agg["spans"]
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "units": 0}
    values = {}
    for metric, unit in PER_LAYER.items():
        base, _, field = metric.rpartition(".")
        stat = spans.get(base, empty)
        if field == "calls":
            values[metric] = stat["calls"]
        elif field in _SCALE:
            values[metric] = _mean(stat, field)
        elif field == "rows_per_s":
            values[metric] = stat["units"] / stat["incl"] if stat["incl"] else 0.0
    solve = spans.get(SOLVE, empty)
    iterations = agg["iterations"]
    step_s = agg["solve_incl"] - agg["crosscheck_in_solve"] - agg["independence_in_solve"]
    write = spans.get("cli.write_trace", empty)
    check = spans.get("cli.check", empty)
    values.update({
        "solvers.step_us": step_s / iterations * 1e6 if iterations else 0.0,
        "solvers.solve.self_ms": solve["self"] / solve["calls"] * 1e3 if solve["calls"] else 0.0,
        "solvers.crosscheck_share": agg["crosscheck_in_solve"] / agg["solve_incl"] if agg["solve_incl"] else 0.0,
        "solvers.iterations": iterations,
        "solvers.op_evals": agg["op_evals"],
        "cli.write_trace.us_per_row": write["incl"] / write["units"] * 1e6 if write["units"] else 0.0,
        "cli.check.self_ms": check["self"] / check["calls"] * 1e3 if check["calls"] else 0.0,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "cert_violations": tally.cert_violations,
        "solvers.cert_excess_max_rel": tally.cert_excess_max_rel if math.isfinite(tally.cert_excess_max_rel) else 0.0,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s if plain_s else 0.0,
        "trace.solve_accounted_frac": agg["solve_subtree_self"] / agg["solve_incl"] if agg["solve_incl"] else 0.0,
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s["self"] for name, s in spans.items() if name.startswith(layer + "."))
    return {name: values[name] for name in PER_LAYER}
