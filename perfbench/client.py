"""One client that sends requests to nfix and checks every answer.

Each request goes through nfix's public functions, resolved as module
attributes at call time so that the tracer's wrappers see them.  Only the
program calls are timed; the checks run after the clock stops.  A request
fails when it raises unexpectedly, when a refusal request is not refused
with the right error, when an answer disagrees with its oracle, or when its
output bytes differ from the first repetition of the same request.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback

import numpy as np

OPNORM_AGREEMENT = 0.02     # formulas I/II/III and the known answer, relative
UPPER_SLACK = 1e-9          # sampled suprema may not exceed exact constants by more
CAUCHY_AGREEMENT = 1e-6     # Gram-determinant vs projection semi-norm, relative
MAX_MESSAGES = 20


class Tally:
    """Attempted and failed requests, and the certificate oracle's record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cert_violations = 0
        self.cert_excess_max_rel = -math.inf
        self.verified_suite_failures = 0
        self.messages = []

    def fail(self, request: str, why: str):
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{request}: {why}")


def _trace_certificate(text: str, saturating: bool) -> float:
    """The certificate a trace CSV states: the last row's certified column,
    or for edelstein (no envelope) the smallest residual."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    if saturating:
        return min(float(row[1]) for row in rows)
    return float(rows[-1][4])


def _genuine_ratio_counterexample(report: dict) -> bool:
    """The ratio suite runs the saturating map on the CLI's default space
    (d=3, anchor e2), where it fixes e3: sampled pairs that differ mostly
    along e3 have displacement ratios within 1e-9 of 1, and the suite
    rightly flags them.  Such a report is a correct answer when its
    counterexample pair, recomputed here by projection, really has that
    ratio."""
    ce = report.get("counterexample") or {}
    if report["property_id"] != "contractive_ratio" or "p" not in ce:
        return False
    p, q = np.asarray(ce["p"]), np.asarray(ce["q"])
    keep = [0] + list(range(2, p.size))       # complement of the anchor e2
    num = np.linalg.norm((_saturate(p) - _saturate(q))[keep])
    den = np.linalg.norm((p - q)[keep])
    return num >= (1.0 - 1e-9) * den


def _saturate(x: np.ndarray) -> np.ndarray:
    y = x.copy()
    y[0] = x[0] / (1.0 + abs(x[0]))
    return y


class Client:
    """Issues requests of the three families; ``tamper`` may edit a solver
    report before the oracle sees it (the self-test plants defects so)."""

    def __init__(self, nfix, inputs, tally: Tally, tamper=None):
        self.nfix = nfix
        self.inputs = inputs
        self.tally = tally
        self.tamper = tamper
        self.first = {}
        self.trace_path = os.path.join(inputs.workdir, "trace.csv")
        self.check_path = os.path.join(inputs.workdir, "check.json")
        self.contraction_objects = [
            (nfix.AnchoredSpace(dim=c.dim, order=c.order, anchors=c.anchors),
             nfix.affine_operator(c.matrix))
            for c in inputs.contractions
        ]
        self.cauchy_prefixes = [
            nfix.SequencePrefix(nfix.AnchoredSpace(dim=c.dim, order=c.order, anchors=c.anchors), c.items)
            for c in inputs.cauchys
        ]

    # -- bookkeeping -----------------------------------------------------

    def _same_as_first(self, key, data) -> bool:
        first = self.first.setdefault(key, data)
        return first == data

    def _unexpected(self, request: str, exc: BaseException):
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.tally.fail(request, f"raised {tb}")

    # -- solve -----------------------------------------------------------

    def solve(self, case):
        """load_problem -> solve -> write_trace, as `nfix solve --out` does.
        Returns (latency_s, certified) or None if the request failed."""
        cli = self.nfix.cli
        self.tally.attempted += 1
        request = f"solve {case.name}"
        t0 = time.perf_counter()
        try:
            problem = cli.load_problem(case.path)
            report = cli.solve(problem.operator, problem.space, problem.x0, problem.solver)
            cli.write_trace(report, self.trace_path)
        except Exception as exc:
            latency = time.perf_counter() - t0
            expected = case.refusal and getattr(self.nfix.solvers, case.refusal)
            if expected and isinstance(exc, expected):
                return latency, False
            self._unexpected(request, exc)
            return None
        latency = time.perf_counter() - t0

        if case.refusal:
            self.tally.fail(request, f"was not refused (expected {case.refusal})")
            return None
        with open(self.trace_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if self.tamper is not None:
            self.tamper(report)
        problems = []
        if not report.converged or not report.certified_error <= case.tol:
            problems.append(f"not certified to tol: {report.certified_error!r}")
        if not self._same_as_first(("solve", case.name), text):
            problems.append("trace CSV bytes differ from the first repetition")
        if _trace_certificate(text, case.saturating) != report.certified_error:
            problems.append("last trace row disagrees with the reported certificate")
        x = np.asarray(report.fixed_point, dtype=float)
        comp = case.comp
        if case.saturating:
            residual = comp.seminorm(x - _saturate(x))
            if abs(residual - report.certified_error) > 1e-9 * report.certified_error:
                problems.append(f"reported residual {report.certified_error!r}, recomputed {residual!r}")
        else:
            err = comp.volume * float(np.linalg.norm(comp.qc.T @ x - case.u_star))
            cert = report.certified_error
            if cert > 0:
                self.tally.cert_excess_max_rel = max(self.tally.cert_excess_max_rel, (err - cert) / cert)
            if err > cert + case.slack:
                self.tally.cert_violations += 1
                problems.append(f"true error {err!r} exceeds certificate {cert!r} + slack {case.slack!r}")
        if problems:
            self.tally.fail(request, "; ".join(problems))
            return None
        return latency, True

    # -- check -----------------------------------------------------------

    def check(self, suite: str, trials=None):
        """`nfix check SUITE --seed s --out f`, with the CLI's default trial
        count unless ``trials`` is given; returns latency_s or None."""
        argv = ["check", suite, "--seed", str(self.inputs.check_seed), "--out", self.check_path]
        if trials is not None:
            argv += ["--trials", str(trials)]
        self.tally.attempted += 1
        request = f"check {suite} trials={trials}"
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.nfix.cli.main(argv)
        except Exception as exc:
            self._unexpected(request, exc)
            return None
        latency = time.perf_counter() - t0
        with open(self.check_path, "rb") as fh:
            data = fh.read()
        problems = []
        reports = json.loads(data)
        flagged = [r for r in reports if r["failures"]]
        verified = [r for r in flagged if _genuine_ratio_counterexample(r)]
        self.tally.verified_suite_failures += len(verified)
        if not reports or len(verified) < len(flagged):
            problems.append(f"property failures in {[r['property_id'] for r in flagged]}")
        if (rc == 0) != (not flagged):
            problems.append(f"exit code {rc} disagrees with the report: {sink.getvalue().strip()[:200]}")
        if not self._same_as_first(("check", suite, trials), data):
            problems.append("check JSON bytes differ from the first repetition")
        if problems:
            self.tally.fail(request, "; ".join(problems))
            return None
        return latency

    # -- estimates -------------------------------------------------------

    def opnorm(self, case):
        """`nfix opnorm --config f`: three formulas at budget 10^4."""
        self.tally.attempted += 1
        request = f"opnorm {case.name}"
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.nfix.cli.main(["opnorm", "--config", case.path])
        except Exception as exc:
            self._unexpected(request, exc)
            return None
        latency = time.perf_counter() - t0
        text = out.getvalue()
        lines = text.splitlines()
        values = [float(line.split("value=", 1)[1]) for line in lines if "value=" in line]
        fields = dict(line.split("=", 1) for line in lines if "=" in line and " " not in line)
        problems = []
        if rc != 0 or len(values) != 3:
            problems.append(f"exit code {rc}, output {text[:200]!r}")
        elif math.isinf(case.exact):
            if not all(math.isinf(v) for v in values) or fields.get("kernel_preserved") != "false":
                problems.append(f"kernel violator not gated to inf: {values}")
        else:
            if fields.get("kernel_preserved") != "true":
                problems.append("kernel-preserving operator reported as violator")
            if max(values) > case.exact * (1 + UPPER_SLACK):
                problems.append(f"estimates {values} exceed the exact norm {case.exact!r}")
            if max(values) > (1 + OPNORM_AGREEMENT) * min(values):
                problems.append(f"formulas disagree by more than 2 %: {values}")
            if case.known is not None and any(abs(v - case.known) > OPNORM_AGREEMENT * case.known
                                              for v in values):
                problems.append(f"estimates {values} miss {case.known} by more than 2 %")
        if not self._same_as_first(("opnorm", case.name), text):
            problems.append("opnorm output differs from the first repetition")
        if problems:
            self.tally.fail(request, "; ".join(problems))
            return None
        return latency

    def contraction(self, index: int):
        """contraction_constant at budget 10^4; returns latency_s or None."""
        case = self.inputs.contractions[index]
        space, op = self.contraction_objects[index]
        self.tally.attempted += 1
        request = f"contraction_constant {case.name}"
        t0 = time.perf_counter()
        try:
            est = self.nfix.operators.contraction_constant(op, space, budget=10_000, seed=case.seed)
        except Exception as exc:
            self._unexpected(request, exc)
            return None
        latency = time.perf_counter() - t0
        problems = []
        if not 0.0 < est.alpha_hat <= case.lipschitz * (1 + UPPER_SLACK):
            problems.append(f"alpha_hat {est.alpha_hat!r} outside (0, {case.lipschitz}]")
        if not (math.isfinite(est.beta_hat) and est.beta_hat >= 0.0):
            problems.append(f"beta_hat {est.beta_hat!r}")
        if est.witness_pair is not None:
            x, y = est.witness_pair
            ratio = case.comp.seminorm(case.matrix @ (x - y)) / case.comp.seminorm(x - y)
            if abs(ratio - est.alpha_hat) > 1e-9 * est.alpha_hat:
                problems.append(f"witness pair gives {ratio!r}, reported {est.alpha_hat!r}")
        else:
            problems.append("no witness pair")
        if not self._same_as_first(("contraction", case.name), (est.alpha_hat, est.beta_hat)):
            problems.append("estimate differs from the first repetition")
        if problems:
            self.tally.fail(request, "; ".join(problems))
            return None
        return latency

    def cauchy(self, index: int):
        """b_cauchy_tail over the whole prefix; returns latency_s or None."""
        case = self.inputs.cauchys[index]
        seq = self.cauchy_prefixes[index]
        self.tally.attempted += 1
        request = f"b_cauchy_tail {case.name}"
        t0 = time.perf_counter()
        try:
            value = self.nfix.nnorm.b_cauchy_tail(seq, 1)
        except Exception as exc:
            self._unexpected(request, exc)
            return None
        latency = time.perf_counter() - t0
        problems = []
        if abs(value - case.expected) > CAUCHY_AGREEMENT * case.expected:
            problems.append(f"got {value!r}, projection oracle {case.expected!r}")
        if not self._same_as_first(("cauchy", case.name), value):
            problems.append("value differs from the first repetition")
        if problems:
            self.tally.fail(request, "; ".join(problems))
            return None
        return latency
