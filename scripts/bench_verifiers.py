#!/usr/bin/env python3
"""Time the verifiers on the certify workload's inputs; write a BENCH json.

Usage:
    python scripts/bench_verifiers.py [--src SRC] [--baseline SRC]
                                      [--rounds N] [--out PATH]

The runs follow scripts/interleave.py: a child process per tree and round,
and with --baseline a second source tree, such as a parent commit's src/,
run in alternating order against SRC. The inputs are those of perfbench's
certify workload at seed SEED: best_response at 200000 grid points for
every prosumer of four Nash points of the case study, and
brute_force_program at grid 2001 on one N=2 and one N=3 market. A child
records, in this order:

  * best_response_ms.fresh: every best_response call of the workload,
    SAMPLES times over, in a process that has made no brute-force call;
  * brute_force_ms.<market and mode>: one untimed warm-up call, then
    SAMPLES timed calls, for each market and mode;
  * best_response_ms.after_brute_force: the best_response calls again,
    right after the brute-force calls. The allocator's mmap threshold,
    which a large freed array raises, can make these two differ;
  * peak_rss_mb.fresh and peak_rss_mb.after_brute_force: the child's peak
    resident set after each best_response measurement.

The output file defaults to BENCH_verifiers.json at the root of this tree.
"""

import resource
import sys
import tempfile
import time
from pathlib import Path

import interleave

OUT = interleave.ROOT / "BENCH_verifiers.json"
BEST_RESPONSE_GRID = 200_000
BRUTE_FORCE_GRID = 2001
# child processes per tree, timed samples per child and measurement, and
# the certify workload's seed
ROUNDS = 10
SAMPLES = 3
SEED = 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _certify_inputs(pm):
    """The certify workload's best_response calls and brute-force markets."""
    sys.path.insert(0, str(interleave.ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        certify = workloads.Certify(pm, SEED, Path(tmp))
        certify.prepare()
    calls = [(i, thetas, config)
             for config, m, thetas, _ in certify.nash_points
             for i in range(m.n)]
    return calls, certify.small


def _brute_force_ms(pm, config, mode) -> list:
    samples = []
    for _ in range(SAMPLES + 1):
        t0 = time.perf_counter()
        pm.brute_force_program(config, mode, grid_points=BRUTE_FORCE_GRID)
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples[1:]


def _best_response_ms(pm, calls) -> list:
    samples = []
    for _ in range(SAMPLES):
        for i, thetas, config in calls:
            t0 = time.perf_counter()
            pm.best_response(i, thetas, config,
                             grid_points=BEST_RESPONSE_GRID)
            samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def measure(pm) -> dict:
    import numpy as np

    calls, small = _certify_inputs(pm)
    timings = {"best_response_ms.fresh": _best_response_ms(pm, calls)}
    rss = {"fresh": [_peak_rss_mb()]}
    for config in small:
        for mode in (pm.MODE_TRUE, pm.MODE_MODIFIED):
            timings[f"brute_force_ms.N={config.n_prosumers} {mode}"] = (
                _brute_force_ms(pm, config, mode))
    timings["best_response_ms.after_brute_force"] = _best_response_ms(
        pm, calls)
    rss["after_brute_force"] = [_peak_rss_mb()]
    return {"timings": timings, "peak_rss_mb": rss,
            "best_response_calls_per_round": len(calls),
            "numpy": np.__version__}


def _report(result: dict) -> None:
    for name, side in result["sides"].items():
        print(f"{name}: " + ", ".join(
            f"{key} {t['median']:.2f}" for key, t in side["timings"].items()))
    for key, share in result.get("change_wins", {}).items():
        print(f"change faster on {key} in {share:.0%} of "
              f"{result['rounds']} rounds")


if __name__ == "__main__":
    sys.exit(interleave.main(
        sys.argv[1:], script=__file__, description=__doc__.split("\n\n")[0],
        measure=measure, out=OUT, rounds=ROUNDS, report=_report,
        samples_per_round=SAMPLES, seed=SEED,
        grid_points={"best_response": BEST_RESPONSE_GRID,
                     "brute_force": BRUTE_FORCE_GRID}))
