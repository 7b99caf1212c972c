#!/usr/bin/env python3
"""Time the verifiers on the certify workload's inputs; write a BENCH json.

Usage:
    python scripts/bench_verifiers.py [--src SRC] [--label NAME]

The script imports prosumer_market from SRC (default: the src/ directory of
this tree), so the same script measures another checkout, such as a parent
commit, by pointing --src at that checkout's src/. The inputs are those of
perfbench's certify workload at seed SEED: best_response at 200000 grid
points for every prosumer of four Nash points of the case study, and
brute_force_program at grid 2001 on one N=2 and one N=3 market. It records,
under runs[NAME] of BENCH_verifiers.json at the root of this tree (other
runs in the file are kept):

  * brute_force_ms: each market and mode, one untimed warm-up call, then
    ROUNDS timed calls;
  * best_response_ms: every best_response call of the workload, ROUNDS
    times over, first in a process that has made no brute-force call
    ("fresh"), then in the same process right after one N=3 brute-force
    call ("after_brute_force"). The allocator's mmap threshold, which a
    large freed array raises, can make these two differ;
  * peak_rss_mb: the peak resident set of each measuring process, and of
    the best-response process before its brute-force call;
  * the Python and numpy versions and the CPU count of the host.

Timings are medians and quartiles in ms. Each of the two measuring
processes is started fresh, one at a time.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_verifiers.json"
BEST_RESPONSE_GRID = 200_000
BRUTE_FORCE_GRID = 2001
# timed rounds per measurement, and the certify workload's seed
ROUNDS = 7
SEED = 1


def _summary(samples_s):
    q1, median, q3 = statistics.quantiles(samples_s, n=4, method="inclusive")
    return {"median": median * 1e3, "q1": q1 * 1e3, "q3": q3 * 1e3,
            "samples": len(samples_s)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _certify_inputs(src: str):
    """The package under src and the certify workload's inputs."""
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import prosumer_market as pm
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        certify = workloads.Certify(pm, SEED, Path(tmp))
        certify.prepare()
    calls = [(i, thetas, config)
             for config, m, thetas, _ in certify.nash_points
             for i in range(m.n)]
    return pm, calls, certify.small


def _brute_force_ms(pm, config, mode):
    samples = []
    for _ in range(ROUNDS + 1):
        t0 = time.perf_counter()
        pm.brute_force_program(config, mode, grid_points=BRUTE_FORCE_GRID)
        samples.append(time.perf_counter() - t0)
    return _summary(samples[1:])


def _best_response_ms(pm, calls):
    samples = []
    for _ in range(ROUNDS):
        for i, thetas, config in calls:
            t0 = time.perf_counter()
            pm.best_response(i, thetas, config,
                             grid_points=BEST_RESPONSE_GRID)
            samples.append(time.perf_counter() - t0)
    return _summary(samples)


def measure_brute_force(src: str) -> dict:
    pm, _, small = _certify_inputs(src)
    times = {f"N={config.n_prosumers} {mode}": _brute_force_ms(pm, config, mode)
             for config in small
             for mode in (pm.MODE_TRUE, pm.MODE_MODIFIED)}
    return {"brute_force_ms": times, "peak_rss_mb": _peak_rss_mb()}


def measure_best_response(src: str) -> dict:
    pm, calls, small = _certify_inputs(src)
    fresh = _best_response_ms(pm, calls)
    rss_fresh = _peak_rss_mb()
    n3 = next(c for c in small if c.n_prosumers == 3)
    pm.brute_force_program(n3, pm.MODE_TRUE, grid_points=BRUTE_FORCE_GRID)
    after = _best_response_ms(pm, calls)
    return {"best_response_ms": {"fresh": fresh, "after_brute_force": after},
            "peak_rss_mb": {"fresh": rss_fresh,
                            "after_brute_force": _peak_rss_mb()},
            "calls_per_round": len(calls)}


def _in_fresh_process(fn, src: str) -> dict:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, (src,))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the prosumer_market package")
    parser.add_argument("--label", default="this_tree",
                        help="name of this run in the output file")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "prosumer_market" / "__init__.py").is_file():
        parser.error(f"no prosumer_market package under {src}")

    brute = _in_fresh_process(measure_brute_force, str(src))
    best = _in_fresh_process(measure_best_response, str(src))
    import numpy as np
    result = {
        "brute_force_ms": brute["brute_force_ms"],
        "best_response_ms": best["best_response_ms"],
        "best_response_calls_per_round": best["calls_per_round"],
        "peak_rss_mb": {"brute_force_process": brute["peak_rss_mb"],
                        "best_response_process": best["peak_rss_mb"]},
        "host": {"python": platform.python_version(),
                 "numpy": np.__version__, "cpu_count": os.cpu_count(),
                 "machine": platform.machine()},
        "rounds": ROUNDS,
        "seed": SEED,
    }
    bench = json.loads(OUT.read_text()) if OUT.is_file() else {}
    bench.setdefault("script", "scripts/bench_verifiers.py")
    bench.setdefault("runs", {})[args.label] = result
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    br = result["best_response_ms"]
    print(f"{args.label}: "
          + ", ".join(f"brute force {k} {v['median']:.1f} ms"
                      for k, v in result["brute_force_ms"].items())
          + f"; best response fresh {br['fresh']['median']:.2f} ms, after "
          f"brute force {br['after_brute_force']['median']:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
