"""Command-line front end: declarative problems in, traces and reports out.

Verbs:
  solve   --config problem.json [--out trace.csv] [--tol --max-iter --seed]
  check   SUITE [--trials --seed --dim --n --out]
  opnorm  --config problem.json

Problem files are JSON with the fields dimension, order, anchors, operator,
solver, x0, seed; vectors are arrays of numbers.  Trace files are CSV with
header k,residual,apriori,aposteriori,certified, every number printed with
17 significant digits so doubles round-trip losslessly.  Identical configs
and seeds produce byte-identical outputs.

Exit codes: 0 certified convergence (or clean report), 1 usage/validation
error (including solver preconditions), 2 non-convergence or aborted run.
The environment variable NFIX_SEED supplies a default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .harness import (
    canonical_space,
    check_axiom_suite,
    check_bounded_iff_continuous,
    check_bounded_sets,
    check_contractive_ratio,
    check_product_ball_lemma,
    reduction_suite,
)
from .nnorm import AnchoredSpace
from .operators import (
    OperatorSpec,
    affine_operator,
    builtin_operator,
    is_linear,
    operator_norm,
)
from .solvers import (
    ASeq,
    ContainmentError,
    NonFiniteIterateError,
    SolverConfig,
    SolverInputError,
    SolverReport,
    explicit_sequence,
    geometric_sequence,
    solve,
)

SUITES = ("axioms", "bounded", "bounded-sets", "product-ball", "reduction", "ratio", "all")
OPNORM_BUDGET = 10_000


class ValidationError(ValueError):
    """Problem-file rejection with a field-path diagnostic."""


_NUMBER_TYPES = {int, float}
# one trace row; %.17g prints exactly what _fmt prints
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _require(cond, field: str, message: str):
    if not cond:
        raise ValidationError(f"{field}: {message}")


def _get_number(data, field: str) -> float:
    # exact-type test: bool, an int subclass, is refused, and so are inf and nan
    _require(type(data) in _NUMBER_TYPES and abs(data) <= sys.float_info.max, field,
             "expected a finite number")
    return float(data)


def _get_int(data, field: str) -> int:
    _require(type(data) is int, field, "expected an integer")
    return data


def _get_vector(data, field: str, dim: Optional[int] = None) -> np.ndarray:
    _require(isinstance(data, (list, tuple)), field, "expected an array of numbers")
    # exact-type test first; bool (an int subclass) falls through and is refused
    _require(set(map(type, data)) <= _NUMBER_TYPES
             or all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in data),
             field, "entries must be numbers")
    v = np.asarray(data, dtype=float)
    _require(np.all(np.isfinite(v)), field, "entries must be finite")
    if dim is not None:
        _require(v.size == dim, field, f"expected length {dim}, got {v.size}")
    return v


def _get_rows(data: list, field: str, dim: int) -> np.ndarray:
    """Vectors of length ``dim`` stacked as rows, each checked as
    _get_vector checks it; a failing input is rechecked row by row so the
    diagnostic names the first bad row."""
    if all(type(row) is list and len(row) == dim for row in data) and \
            set(map(type, chain.from_iterable(data))) <= _NUMBER_TYPES:
        rows = np.array(data, dtype=float)
        if np.all(np.isfinite(rows)):
            return rows
    return np.vstack([_get_vector(row, f"{field}[{i}]", dim) for i, row in enumerate(data)])


@dataclass(eq=False)
class Problem:
    space: AnchoredSpace
    operator: OperatorSpec
    solver: Optional[SolverConfig]
    x0: Optional[np.ndarray]
    seed: int


def _get_param(key: str, value, dim: int):
    """A builtin param checked for its type: "value" is a vector of length
    ``dim``, the rotation axes are integers, and every other param is a
    number.  Unknown and missing params are the operator's to refuse."""
    field = f"operator.params.{key}"
    if key == "value":
        return _get_vector(value, field, dim)
    if key in ("axis1", "axis2"):
        return _get_int(value, field)
    return _get_number(value, field)


def _parse_operator(data, dim: int) -> OperatorSpec:
    _require(isinstance(data, dict), "operator", "expected an object")
    kind = data.get("kind")
    if kind == "affine":
        allowed = {"kind", "matrix", "offset"}
        unknown = set(data) - allowed
        _require(not unknown, "operator", f"unknown fields {sorted(unknown)}")
        matrix = data.get("matrix")
        _require(isinstance(matrix, list) and len(matrix) == dim, "operator.matrix",
                 f"expected {dim} rows")
        rows = _get_rows(matrix, "operator.matrix", dim)
        offset = data.get("offset")
        off = _get_vector(offset, "operator.offset", dim) if offset is not None else None
        return affine_operator(rows, offset=off)
    if kind == "builtin":
        allowed = {"kind", "name", "params"}
        unknown = set(data) - allowed
        _require(not unknown, "operator", f"unknown fields {sorted(unknown)}")
        name = data.get("name")
        params = data.get("params", {})
        _require(isinstance(params, dict), "operator.params", "expected an object")
        params = {key: _get_param(key, value, dim) for key, value in params.items()}
        try:
            op = builtin_operator(name, **params)
            op.compile(dim)  # checks the params against the dimension
        except ValueError as e:
            raise ValidationError(f"operator: {e}") from e
        return op
    raise ValidationError("operator.kind: must be 'affine' or 'builtin'")


def _parse_a_seq(data) -> ASeq:
    _require(isinstance(data, dict), "solver.a_seq", "expected an object")
    kind = data.get("kind")
    try:
        if kind == "geometric":
            _require("ratio" in data, "solver.a_seq.ratio", "required for geometric kind")
            return geometric_sequence(_get_number(data["ratio"], "solver.a_seq.ratio"))
        if kind == "explicit":
            _require(isinstance(data.get("terms"), list), "solver.a_seq.terms", "expected an array")
            return explicit_sequence(_get_vector(data["terms"], "solver.a_seq.terms").tolist(),
                                     tail=_get_number(data.get("tail", 0.0), "solver.a_seq.tail"))
    except SolverInputError as e:
        raise ValidationError(f"solver.a_seq: {e}") from e
    raise ValidationError("solver.a_seq.kind: must be 'geometric' or 'explicit'")


def _parse_solver(data, seed: int) -> SolverConfig:
    _require(isinstance(data, dict), "solver", "expected an object")
    allowed = {"regime", "alpha", "beta", "radius", "a_seq", "tol", "max_iter", "crosscheck_pairs"}
    unknown = set(data) - allowed
    _require(not unknown, "solver", f"unknown fields {sorted(unknown)}")
    _require("regime" in data, "solver.regime", "required")
    kwargs = {
        "regime": data["regime"],
        "tol": _get_number(data.get("tol", 1e-10), "solver.tol"),
        "max_iter": _get_int(data.get("max_iter", 10 ** 6), "solver.max_iter"),
        "seed": seed,
    }
    for key in ("alpha", "beta", "radius"):
        if key in data:
            kwargs[key] = _get_number(data[key], f"solver.{key}")
    if "a_seq" in data:
        kwargs["a_seq"] = _parse_a_seq(data["a_seq"])
    if "crosscheck_pairs" in data:
        kwargs["crosscheck_pairs"] = _get_int(data["crosscheck_pairs"], "solver.crosscheck_pairs")
    try:
        return SolverConfig(**kwargs).validate()
    except SolverInputError as e:
        raise ValidationError(f"solver: {e}") from e


def parse_problem(data: dict, default_seed: int = 0, need_solver: bool = True) -> Problem:
    """Validate a problem dictionary into typed objects, or reject it with a
    field diagnostic."""
    _require(isinstance(data, dict), "problem", "top level must be an object")
    allowed = {"dimension", "order", "anchors", "operator", "solver", "x0", "seed"}
    unknown = set(data) - allowed
    _require(not unknown, "problem", f"unknown fields {sorted(unknown)}")
    for required in ("dimension", "order", "anchors", "operator"):
        _require(required in data, required, "required field missing")

    dim = data["dimension"]
    _require(type(dim) is int and dim >= 1, "dimension", "expected a positive integer")
    order = data["order"]
    _require(type(order) is int and 2 <= order <= dim, "order",
             f"expected an integer with 2 <= order <= dimension ({dim})")

    anchors_raw = data["anchors"]
    _require(isinstance(anchors_raw, list) and len(anchors_raw) == order - 1, "anchors",
             f"expected {order - 1} vectors")
    anchors = _get_rows(anchors_raw, "anchors", dim)
    try:
        space = AnchoredSpace(dim=dim, order=order, anchors=anchors)
    except ValueError as e:
        raise ValidationError(f"anchors: {e}") from e

    op = _parse_operator(data["operator"], dim)

    seed = data.get("seed", default_seed)
    _require(type(seed) is int and seed >= 0, "seed", "expected a nonnegative integer")

    solver = None
    x0 = None
    if need_solver:
        _require("solver" in data, "solver", "required field missing")
        _require("x0" in data, "x0", "required field missing")
        solver = _parse_solver(data["solver"], seed)
        x0 = _get_vector(data["x0"], "x0", dim)
    elif "solver" in data:
        solver = _parse_solver(data["solver"], seed)
    if x0 is None and "x0" in data:
        x0 = _get_vector(data["x0"], "x0", dim)

    return Problem(space=space, operator=op, solver=solver, x0=x0, seed=seed)


def problem_to_dict(problem: Problem) -> dict:
    """Serialize a validated problem back to the file schema."""
    space = problem.space
    out = {
        "dimension": space.dim,
        "order": space.order,
        "anchors": [[float(v) for v in row] for row in space.anchors],
        "seed": problem.seed,
    }
    op = problem.operator
    if op.kind == "affine":
        out["operator"] = {
            "kind": "affine",
            "matrix": [[float(v) for v in row] for row in op.matrix],
            "offset": [float(v) for v in op.offset],
        }
    else:
        params = {
            k: ([float(x) for x in v] if isinstance(v, np.ndarray) else v)
            for k, v in op.params.items()
        }
        out["operator"] = {"kind": "builtin", "name": op.name, "params": params}
    if problem.solver is not None:
        cfg = problem.solver
        sol = {"regime": cfg.regime, "tol": cfg.tol, "max_iter": cfg.max_iter}
        if cfg.alpha is not None:
            sol["alpha"] = cfg.alpha
        if cfg.beta is not None:
            sol["beta"] = cfg.beta
        if cfg.radius is not None:
            sol["radius"] = cfg.radius
        if cfg.a_seq is not None:
            if cfg.a_seq.kind == "geometric":
                sol["a_seq"] = {"kind": "geometric", "ratio": cfg.a_seq.ratio}
            else:
                sol["a_seq"] = {"kind": "explicit", "terms": list(cfg.a_seq.terms),
                                "tail": cfg.a_seq.tail}
        out["solver"] = sol
    if problem.x0 is not None:
        out["x0"] = [float(v) for v in problem.x0]
    return out


def load_problem(path: str, default_seed: int = 0, need_solver: bool = True) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValidationError(f"config: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"config: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return parse_problem(data, default_seed=default_seed, need_solver=need_solver)


def write_trace(report: SolverReport, path: str):
    lines = ["k,residual,apriori,aposteriori,certified"]
    lines.extend(_TRACE_ROW % row for row in report.trace)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_summary(report: SolverReport, out=None):
    out = out or sys.stdout
    print(f"regime={report.regime}", file=out)
    print(f"converged={'true' if report.converged else 'false'}", file=out)
    print(f"iterations={report.iterations}", file=out)
    print(f"certified_error={_fmt(report.certified_error)}", file=out)
    print(f"independence_ok={'true' if report.independence_ok else 'false'}", file=out)
    print(f"uniqueness={report.uniqueness_note}", file=out)
    coords = " ".join(_fmt(v) for v in report.fixed_point)
    print(f"fixed_point={coords}", file=out)
    if report.max_displacement is not None:
        print(f"max_displacement={_fmt(report.max_displacement)}", file=out)
    if report.message:
        print(f"note={report.message}", file=out)


def _default_seed(args_seed: Optional[int]) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("NFIX_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"NFIX_SEED: expected an integer, got {env!r}")
        if value < 0:
            raise ValidationError("NFIX_SEED: expected a nonnegative integer")
        return value
    return 0


def cmd_solve(args) -> int:
    problem = load_problem(args.config, default_seed=_default_seed(args.seed))
    cfg = problem.solver
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.tol = args.tol
    if args.max_iter is not None:
        cfg.max_iter = args.max_iter
    cfg.validate()
    try:
        report = solve(problem.operator, problem.space, problem.x0, cfg)
    except (NonFiniteIterateError, ContainmentError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        write_trace(report, args.out)
    _print_summary(report)
    return 0 if report.converged else 2


def _run_suite(name: str, trials: int, seed: int, dim: int, order: int) -> list:
    space = canonical_space(dim, order)
    if name == "axioms":
        return check_axiom_suite(dim, order, trials=trials, seed=seed)
    if name == "bounded":
        return [check_bounded_iff_continuous(space, trials=trials, seed=seed)]
    if name == "bounded-sets":
        return [check_bounded_sets(space, trials=trials, seed=seed)]
    if name == "product-ball":
        zero = np.zeros(dim)
        return [check_product_ball_lemma(space, zero, zero, r1=1.0, trials=trials, seed=seed)]
    if name == "reduction":
        return [reduction_suite(dim, order, trials=trials, seed=seed)]
    if name == "ratio":
        # the saturating map fixes e2..e_dim, so all of them are anchored
        # (order = dim, whatever --n says): along a fixed axis the map is an
        # isometry and the suite would rightly fail
        x0 = np.eye(dim)[0]
        return [check_contractive_ratio(builtin_operator("saturating"), canonical_space(dim, dim), x0,
                                        trials=trials, seed=seed)]
    raise ValidationError(f"suite: unknown suite {name!r}, expected one of {SUITES}")


def cmd_check(args) -> int:
    seed = _default_seed(args.seed)
    # a suite of no trials passes having checked nothing
    if args.trials < 1:
        raise ValidationError(f"--trials: must be >= 1, got {args.trials}")
    if not (2 <= args.n <= args.dim):
        raise ValidationError(f"--n: need 2 <= n <= dim, got n={args.n}, dim={args.dim}")
    names = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(_run_suite(name, args.trials, seed, args.dim, args.n))
    payload = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    total_failures = sum(r.failures for r in reports)
    return 0 if total_failures == 0 else 2


def cmd_opnorm(args) -> int:
    problem = load_problem(args.config, default_seed=_default_seed(args.seed), need_solver=False)
    op = problem.operator
    if not is_linear(op):
        raise ValidationError("operator: opnorm needs a linear operator (affine with zero offset)")
    estimates = [
        operator_norm(op, problem.space, method, budget=OPNORM_BUDGET, seed=problem.seed)
        for method in ("I", "II", "III")
    ]
    for est in estimates:
        print(f"method={est.method} value={_fmt(est.value)}")
    print(f"budget={OPNORM_BUDGET}")
    print(f"kernel_preserved={'true' if estimates[0].kernel_preserved else 'false'}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(f"usage: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="nfix", description="anchored n-normed spaces: solvers, checks, estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the configured fixed-point solver")
    p_solve.add_argument("--config", required=True, help="problem JSON file")
    p_solve.add_argument("--out", help="trace CSV output path")
    p_solve.add_argument("--tol", type=float, help="override the certified-error target")
    p_solve.add_argument("--max-iter", type=int, dest="max_iter", help="override the iteration cap")
    p_solve.add_argument("--seed", type=int, help="override the problem seed")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--dim", type=int, default=3)
    p_check.add_argument("--n", type=int, default=2,
                         help="norm order n: anchors e2..e_n (not used by ratio, which anchors e2..e_dim)")
    p_check.add_argument("--out", help="JSON output path (stdout if omitted)")
    p_check.set_defaults(func=cmd_check)

    p_opnorm = sub.add_parser("opnorm", help="estimate the three operator-norm formulas")
    p_opnorm.add_argument("--config", required=True, help="problem JSON file")
    p_opnorm.add_argument("--seed", type=int, help="override the problem seed")
    p_opnorm.set_defaults(func=cmd_opnorm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, SolverInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, ValidationError) and str(e).startswith("usage:"):
            parser.print_usage(sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
