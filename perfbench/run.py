"""nfix benchmark: solve-mix, check-suites and estimate workloads.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; nfix is imported from its src/
directory, never from an installed copy.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from a separate traced run of a fixed
amount of work.  The lines before it are an environment block and notes.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_CHILDREN = 2       # set-up is timed in this process and in these fresh ones
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("solve-mix", "check-suites", "estimate")


class SetupError(RuntimeError):
    """The checkout does not hold the program."""


def _import_nfix():
    if not os.path.isfile(os.path.join(SRC, "nfix", "__init__.py")):
        raise SetupError(f"no nfix package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import nfix
    import nfix.cli  # noqa: F401  (the CLI module is a layer of its own)
    if os.path.dirname(os.path.dirname(os.path.abspath(nfix.__file__))) != SRC:
        raise SetupError(f"imported nfix from {nfix.__file__}, not from {SRC}")
    return nfix


def setup(seed: int, workdir: str, scale_name: str = "FULL", tamper=None):
    """Import nfix, build every input, warm up.  Returns ((seconds, speed),
    state), speed being clock.speed() around the set-up."""
    import clock

    before = clock.speed()
    t0 = time.perf_counter()
    nfix = _import_nfix()
    import client as client_mod
    import inputs as inputs_mod
    import workload

    inputs = inputs_mod.build(workdir, seed, getattr(inputs_mod, scale_name))
    tally = client_mod.Tally()
    client = client_mod.Client(nfix, inputs, tally, tamper=tamper)
    workload.warm_up(client, inputs, workload.new_rng(seed, 0))
    seconds = time.perf_counter() - t0
    return (seconds, 0.5 * (before + clock.speed())), (nfix, inputs, tally, client)


def _setup_in_child(args) -> tuple:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup"])


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "?") + " " + deps.get(k, {}).get("version", "?")
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, scale_name: str = "FULL", tamper=None, setup_children: int = SETUP_CHILDREN) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        setup_sample, (nfix, inputs, tally, client) = setup(args.seed, workdir, scale_name, tamper)
        import tracing
        import workload

        shares = workload.SHARES[args.workload]
        family = shares[0][0]
        notes = {}
        if args.trace:
            samples = workload.Samples()
            tracer = tracing.Tracer()

            def fixed_work(span=workload.no_span) -> float:
                t0 = time.perf_counter()
                workload.fixed_work(family, client, inputs, workload.new_rng(args.seed, 1), samples, span)
                return time.perf_counter() - t0

            plain_s = fixed_work()
            tracer.install(nfix)
            try:
                traced_s = fixed_work(tracer.request)
                for other, _ in shares[1:]:
                    workload.touch(other, client, inputs, workload.new_rng(args.seed, 2), samples,
                                   tracer.request)
            finally:
                tracer.uninstall()
            # untraced before and after, so that host drift cancels
            plain_s = 0.5 * (plain_s + fixed_work())
            agg = tracer.aggregate()
            metrics = tracing.layer_metrics(agg, tally, plain_s, traced_s)
            units = tracing.PER_LAYER
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, f"spans-{args.workload}.csv")
            tracer.write(spans_path)
            notes.update(spans=len(tracer.name), spans_file=os.path.relpath(spans_path, ROOT),
                         missing_boundaries=tracer.missing, traced_wall_s=traced_s, untraced_wall_s=plain_s,
                         layers=_layer_table(agg))
        else:
            setups = [setup_sample] + [_setup_in_child(args) for _ in range(setup_children)]
            samples = workload.Samples()
            rng = workload.new_rng(args.seed, 1)
            for fam, share in shares:
                workload.phase(fam, client, inputs, rng, samples, share * args.seconds, fam == family)
            metrics, notes = workload.end_to_end(samples, setups)
            notes["setup_samples"] = setups
            units = workload.END_TO_END
        notes["failures"] = tally.messages
        notes["cert_violations"] = tally.cert_violations
        notes["verified_suite_failures"] = tally.verified_suite_failures
        return {
            "notes": notes,
            "result": {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_table(agg: dict) -> dict:
    return {name: {"calls": s["calls"], "incl_s": round(s["incl"], 6), "self_s": round(s["self"], 6)}
            for name, s in sorted(agg["spans"].items(), key=lambda kv: -kv[1]["self"])}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default="solve-mix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true", help="tiny run with planted defects")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.self_test:
            import selftest
            return selftest.main(run, parse_args)
        if args.setup_only:
            workdir = os.path.join(WORK, f"setup-{os.getpid()}")
            try:
                sample, _ = setup(args.seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup": sample}))
            return 0
        out = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"notes": out["notes"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
