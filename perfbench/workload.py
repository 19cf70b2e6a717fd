"""The three request families, the closed loop that drives them, and the
end-to-end metrics computed from their latency samples.

Every run issues requests of all three families so that every end-to-end
metric has a value on every workload: each family runs in a closed loop
for its share of the run, the workload's own family first and longest.
One client, one request at a time.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np

import clock
from inputs import SUITES

# Share of a run's --seconds that each family gets, per workload, in the
# order they run.  The workload's own family comes first and gets the
# largest share; the others run so that every end-to-end metric has a
# value on every workload.
SHARES = {
    "solve-mix": (("solve", 0.30), ("check", 0.45), ("estimate", 0.25)),
    "check-suites": (("check", 0.60), ("estimate", 0.30), ("solve", 0.10)),
    "estimate": (("estimate", 0.45), ("check", 0.45), ("solve", 0.10)),
}
SOLVE_CYCLES_TRACED = 20
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solves_per_s": "1/s",
    "check_s": "s",
    "opnorm_p50_ms": "ms",
    "cauchy_p50_ms": "ms",
}

_NO_SPAN = contextlib.nullcontext()


def no_span(kind: str):
    return _NO_SPAN


class Samples:
    """Latency samples by family, each as (request key, seconds, speed):
    speed is the mean of clock.speed() just before and just after the
    request."""

    def __init__(self):
        self.solve = []        # certified solves
        self.solve_all = []    # every solve request that behaved, refusals included
        self.check = []
        self.check_passes = 0
        self.opnorm = []
        self.cauchy = []
        self.contraction = []
        self.solve_samples_goal = 0
        self.calibrations = [clock.speed()]

    def speed(self) -> float:
        """Time the clock loop after a request; returns its mean with the
        previous timing."""
        k = clock.speed()
        self.calibrations.append(k)
        return 0.5 * (self.calibrations[-2] + k)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it,
    for the guaranteed sample count n: never for how many requests a fast
    run happened to finish, so the percentile is the same on every run."""
    return max(p for p in TAIL_LADDER if n * (100.0 - p) >= TAIL_BEYOND * 100.0)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def solve_cycle(client, inputs, rng, samples: Samples, span=no_span):
    for i in rng.permutation(len(inputs.solves)):
        with span("solve"):
            result = client.solve(inputs.solves[i])
        speed = samples.speed()
        if result is not None:
            latency, certified = result
            sample = (inputs.solves[i].name, latency, speed)
            samples.solve_all.append(sample)
            if certified:
                samples.solve.append(sample)


def check_pass(client, inputs, rng, samples: Samples, span=no_span, trials=None):
    for suite in SUITES:
        with span("check"):
            latency = client.check(suite, trials if trials is not None else inputs.scale.check_trials)
        speed = samples.speed()
        if latency is not None:
            samples.check.append((suite, latency, speed))
    samples.check_passes += 1


def estimate_cycle(client, inputs, rng, samples: Samples, span=no_span, cauchy=None):
    """Opnorm on each operator, contraction_constant, and b_cauchy_tail on
    each prefix length (or only the listed prefix indices), shuffled."""
    cauchy = range(len(inputs.cauchys)) if cauchy is None else cauchy
    requests = ([("opnorm", c) for c in inputs.opnorms]
                + [("contraction", i) for i in range(len(inputs.contractions))]
                + [("cauchy", i) for i in cauchy])
    for j in rng.permutation(len(requests)):
        kind, arg = requests[j]
        with span(kind):
            latency = getattr(client, kind)(arg)
        speed = samples.speed()
        if latency is not None:
            getattr(samples, kind).append((arg if kind != "opnorm" else arg.name, latency, speed))


CYCLES = {"solve": solve_cycle, "check": check_pass, "estimate": estimate_cycle}


def phase(family: str, client, inputs, rng, samples: Samples, seconds: float, own: bool):
    """Whole cycles of one family for about ``seconds``: the loop stops when
    half a cycle more would overrun, after at least one cycle and, for
    solves, once the tail percentile has its samples."""
    if family == "solve":
        scale = inputs.scale
        samples.solve_samples_goal = scale.solve_samples_main if own else scale.solve_samples_reference
    cycle = CYCLES[family]
    t0 = time.perf_counter()
    cycles = 0
    while True:
        before = len(samples.solve)
        cycle(client, inputs, rng, samples)
        cycles += 1
        elapsed = time.perf_counter() - t0
        if family == "solve" and len(samples.solve) < samples.solve_samples_goal:
            if len(samples.solve) == before:
                return  # nothing certifies; the failures are already counted
            continue
        if elapsed * (1.0 + 0.5 / cycles) >= seconds:
            return


def touch(family: str, client, inputs, rng, samples: Samples, span=no_span):
    """The smallest request set that reaches every layer of a family, for the
    traced run of a workload that is not its own."""
    if family == "solve":
        solve_cycle(client, inputs, rng, samples, span)
    elif family == "check":
        check_pass(client, inputs, rng, samples, span, trials=10)
    else:
        estimate_cycle(client, inputs, rng, samples, span, cauchy=[0])


def fixed_work(family: str, client, inputs, rng, samples: Samples, span=no_span):
    """The work a traced run measures for its own family, the same on the
    untraced and the traced pass."""
    if family == "solve":
        for _ in range(SOLVE_CYCLES_TRACED):
            solve_cycle(client, inputs, rng, samples, span)
    elif family == "check":
        check_pass(client, inputs, rng, samples, span)
    else:
        estimate_cycle(client, inputs, rng, samples, span)


def warm_up(client, inputs, rng):
    """One request of every kind, with small suites, before any timing:
    imports, BLAS start-up and page faults land in set-up."""
    scratch = Samples()
    solve_cycle(client, inputs, rng, scratch)
    check_pass(client, inputs, rng, scratch, trials=10)
    estimate_cycle(client, inputs, rng, scratch, cauchy=[0])


def end_to_end(samples: Samples, setups: list) -> tuple:
    """(metrics by name, notes) from one run's samples and its set-up
    samples, each a (seconds, speed) pair.

    Each latency is first scaled to the reference host speed (see clock.py).
    Each request key (a problem file, a suite, an estimate input) repeats
    through the run; every sample is then scored at its key's median scaled
    latency, and the percentiles run over the request mix with the weights
    it was sent with.  Raw medians are in the notes.
    """
    ref = clock.REFERENCE_S

    def per_key(sample_list) -> dict:
        by_key = {}
        for key, latency, speed in sample_list:
            by_key.setdefault(key, []).append(latency * ref / speed)
        return {key: statistics.median(values) for key, values in by_key.items()}

    def scored(sample_list) -> list:
        median = per_key(sample_list)
        return [median[key] for key, _, _ in sample_list]

    def median(values) -> float:
        return statistics.median(values) if values else 0.0   # only when every request failed

    solve_p = tail_percentile(samples.solve_samples_goal)
    solve = scored(samples.solve)
    suites = per_key(samples.check)
    values = {
        "setup_s": statistics.median(s * ref / speed for s, speed in setups),
        "solve_p50_ms": median(solve) * 1e3,
        "solve_tail_ms": percentile(solve, solve_p) * 1e3 if solve else 0.0,
        "solves_per_s": len(samples.solve_all) / math.fsum(scored(samples.solve_all)) if samples.solve_all else 0.0,
        "check_s": math.fsum(suites.get(s, 0.0) for s in SUITES),
        "opnorm_p50_ms": median(scored(samples.opnorm)) * 1e3,
        "cauchy_p50_ms": median(scored(samples.cauchy)) * 1e3,
    }

    def raw_median(sample_list):
        return statistics.median(latency for _, latency, _ in sample_list) if sample_list else None

    notes = {
        "solve_tail_percentile": solve_p,
        "solve_samples": len(samples.solve),
        "solve_requests": len(samples.solve_all),
        "check_passes": samples.check_passes,
        "check_suite_s": suites,
        "opnorm_samples": len(samples.opnorm),
        "cauchy_samples": len(samples.cauchy),
        "contraction_samples": len(samples.contraction),
        "speed_fastest_s": min(samples.calibrations),
        "speed_median_s": statistics.median(samples.calibrations),
        "raw_median_s": {
            "setup": statistics.median(s for s, _ in setups),
            "solve": raw_median(samples.solve),
            "opnorm": raw_median(samples.opnorm),
            "cauchy": raw_median(samples.cauchy),
            "contraction": raw_median(samples.contraction),
        },
    }
    return values, notes


def new_rng(seed: int, stream: int):
    return np.random.default_rng([seed, 100 + stream])
