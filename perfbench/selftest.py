"""The benchmark's own self-test, at tiny size.

    python3 perfbench/run.py --self-test

Runs every workload untraced and traced and asserts that every metric
BENCHMARK.json names is emitted with its unit and that nothing failed.
Then plants two defects and asserts that each one shows up as failed
requests: a certificate halved before the oracle sees it, and the solver's
sampled cross-check replaced by a no-op.
"""

from __future__ import annotations

import json
import os

SEED = 3


def _halve_certificate(report):
    report.certified_error *= 0.5


def main(run, parse_args) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def tiny(workload, trace, tamper=None):
        args = parse_args(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                           "--trace", str(trace)])
        return run(args, "TINY", tamper=tamper, setup_children=0)["result"]

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing, extra or with another unit")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} requests failed")
            print(f"self-test {workload} trace={trace}: {result['attempted']} requests, "
                  f"{result['failed']} failed")

    result = tiny("solve-mix", 1, tamper=_halve_certificate)
    metrics = result["metrics"]
    print(f"self-test halved certificate: cert_violations={metrics['cert_violations']['value']} "
          f"failed_frac={metrics['failed_frac']['value']:.3f}")
    if not (metrics["cert_violations"]["value"] > 0 and metrics["failed_frac"]["value"] > 0):
        problems.append("a halved certificate was not caught")

    import nfix.solvers

    original = nfix.solvers._crosscheck
    nfix.solvers._crosscheck = lambda *args, **kwargs: None
    try:
        result = tiny("solve-mix", 1)
    finally:
        nfix.solvers._crosscheck = original
    metrics = result["metrics"]
    print(f"self-test no-op cross-check: failed_frac={metrics['failed_frac']['value']:.3f}")
    if not metrics["failed_frac"]["value"] > 0:
        problems.append("a no-op cross-check was not caught")

    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0
