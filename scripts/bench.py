#!/usr/bin/env python3
"""Time the case-study sweep and the verifiers; write BENCH_layers.json.

Each round runs one child process per source tree, which imports
prosumer_market from SRC (default: this tree's src/) or, with --baseline, from
a second tree such as a parent commit's src/. The trees alternate in order so
that host drift falls on both alike. A child records, in this order:

  * case_study_round_ms: the four shipped panels at 30 steps through
    run_sweep, emit_csv and emit_gnuplot; phases_ms: that round split into
    stack build, search, row assembly and emit, with each panel's lockstep
    passes and summed excess evaluations per mode;
  * equilibrium_report_ms: seeded concave markets at N = 200, 250 and 300,
    each searched as a stack of one;
  * best_response_ms.fresh: best_response at 200000 grid points for each
    prosumer of the four Nash points of perfbench's certify workload, one
    sample per call, before any brute-force call;
  * brute_force_ms: brute_force_program at grid 2001 on that workload's N=2
    and N=3 markets in both modes;
  * best_response_ms.after_brute_force: the calls again. The allocator's
    mmap threshold, which a large freed array raises, can make the two
    differ; peak_rss_mb holds the peak resident set after each.

Other timings take one untimed warm-up, then SAMPLES samples. The result
keeps each tree's samples (peak_rss_mb: one per child) with their median and
quartiles, other entries from its first child, and, with --baseline,
change_wins: per timing, the share of rounds whose SRC median beat the
baseline's. A tie is no win.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 30
LARGE_SIZES = (200, 250, 300)
BEST_RESPONSE_GRID = 200_000
BRUTE_FORCE_GRID = 2001
# child processes per tree, timed samples per child and measurement, and
# the seed of the batch-of-one markets and of the certify workload
ROUNDS = 20
SAMPLES = 5
SEED = 1
SAMPLED = ("timings", "peak_rss_mb")


def _timed_ms(fn) -> list:
    fn()
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def _round(pm, specs, out_dir):
    for panel, spec in specs.items():
        rows = pm.run_sweep(spec)
        pm.emit_csv(rows, out_dir / f"{panel}.csv")
        pm.emit_gnuplot(rows, out_dir / f"{panel}.dat")


def _phased_round(pm, specs, out_dir) -> tuple[dict, dict]:
    """One round through the sweep's stages: their times, and search passes."""
    experiments, solver = pm.experiments, pm.solver
    times = dict.fromkeys(("stack_build", "search", "row_assembly", "emit"),
                          0.0)
    passes = {}
    for panel, spec in specs.items():
        t0 = time.perf_counter()
        values = spec.values()
        stack = experiments._sweep_stack(spec, values)
        t1 = time.perf_counter()
        competitive = solver._solve_stack(stack, pm.MODE_TRUE)
        nash = solver._solve_stack(stack, pm.MODE_MODIFIED)
        t2 = time.perf_counter()
        rows = experiments._sweep_rows(spec, values, stack, competitive,
                                       nash)
        t3 = time.perf_counter()
        pm.emit_csv(rows, out_dir / f"{panel}.csv")
        pm.emit_gnuplot(rows, out_dir / f"{panel}.dat")
        t4 = time.perf_counter()
        for key, dt in (("stack_build", t1 - t0), ("search", t2 - t1),
                        ("row_assembly", t3 - t2), ("emit", t4 - t3)):
            times[key] += dt * 1e3
        passes[panel] = {
            mode: {"passes": batch.passes,
                   "excess_evaluations": sum(batch.iterations)}
            for mode, batch in ((pm.MODE_TRUE, competitive),
                                (pm.MODE_MODIFIED, nash))}
    return times, passes


def _best_response_ms(pm, calls) -> tuple[list, float]:
    """SAMPLES passes over the calls, and the peak resident set after them."""
    samples = []
    for _ in range(SAMPLES):
        for i, thetas, config in calls:
            t0 = time.perf_counter()
            pm.best_response(i, thetas, config,
                             grid_points=BEST_RESPONSE_GRID)
            samples.append((time.perf_counter() - t0) * 1e3)
    return samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(pm) -> dict:
    """Every timing of one child as {name: [samples in ms]}, with the rest."""
    import numpy as np

    specs = {p: pm.case_study_spec(p, steps=STEPS) for p in pm.PANELS}
    timings = {}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        timings["case_study_round_ms"] = _timed_ms(
            lambda: _round(pm, specs, out_dir))
        _, passes = _phased_round(pm, specs, out_dir)
        phases = [_phased_round(pm, specs, out_dir)[0]
                  for _ in range(SAMPLES)]
    for key in phases[0]:
        timings[f"phases_ms.{key}"] = [p[key] for p in phases]
    rng = np.random.default_rng([SEED, 2])
    for n in LARGE_SIZES:
        config = pm.MarketConfig(n, d_min=4.0, s_max=1.6,
                                 betas=tuple(rng.uniform(1.5, 3.5, n)))
        timings[f"equilibrium_report_ms.{n}"] = _timed_ms(
            lambda: pm.equilibrium_report(config))

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        certify = workloads.Certify(pm, SEED, Path(tmp))
        certify.prepare()
    calls = [(i, thetas, config)
             for config, m, thetas, _ in certify.nash_points
             for i in range(m.n)]
    timings["best_response_ms.fresh"], fresh = _best_response_ms(pm, calls)
    for config in certify.small:
        for mode in (pm.MODE_TRUE, pm.MODE_MODIFIED):
            timings[f"brute_force_ms.N={config.n_prosumers} {mode}"] = (
                _timed_ms(lambda: pm.brute_force_program(
                    config, mode, grid_points=BRUTE_FORCE_GRID)))
    timings["best_response_ms.after_brute_force"], after = (
        _best_response_ms(pm, calls))
    return {"timings": timings, "passes": passes,
            "peak_rss_mb": {"fresh": [fresh], "after_brute_force": [after]},
            "best_response_calls_per_round": len(calls)}


def _child(src: Path) -> dict:
    """Run measure() on the package under src in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--src", str(src)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(samples) -> dict:
    if len(samples) < 2:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def compare(sides: dict, rounds: int) -> dict:
    """Run every side once per round, alternating the order; summarize."""
    runs = {name: [] for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            runs[name].append(_child(sides[name]))
    result = {"sides": {}}
    for name, children in runs.items():
        side = {key: value for key, value in children[0].items()
                if key not in SAMPLED}
        for group in SAMPLED:
            side[group] = {key: _summary([s for c in children
                                          for s in c[group][key]])
                           for key in children[0][group]}
        result["sides"][name] = side
    if "baseline" in runs:
        result["change_wins"] = {
            key: sum(statistics.median(c["timings"][key])
                     < statistics.median(p["timings"][key])
                     for c, p in zip(runs["change"], runs["baseline"]))
            / rounds
            for key in runs["change"][0]["timings"]}
    result["host"] = {"python": platform.python_version(),
                      "numpy": importlib.metadata.version("numpy"),
                      "cpu_count": os.cpu_count(),
                      "machine": platform.machine()}
    result["rounds"] = rounds
    return result


def _report(result: dict) -> None:
    for name, side in result["sides"].items():
        print(f"{name}: " + ", ".join(
            f"{key} {t['median']:.2f}" for key, t in side["timings"].items()))
    for key, share in result.get("change_wins", {}).items():
        print(f"change faster on {key} in {share:.0%} of "
              f"{result['rounds']} rounds")


def _package_dir(path: str) -> Path:
    src = Path(path).resolve()
    if not (src / "prosumer_market" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(
            f"no prosumer_market package under {src}")
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=_package_dir, default=str(ROOT / "src"),
                        help="directory holding the prosumer_market package")
    parser.add_argument("--baseline", type=_package_dir,
                        help="a second package directory to run against "
                             "--src in alternating order")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="child processes per tree")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json",
                        help="output json file")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(args.src))
        import prosumer_market as pm
        print(json.dumps(measure(pm)))
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"change": args.src}
    if args.baseline is not None:
        sides["baseline"] = args.baseline
    result = {"script": "scripts/bench.py", **compare(sides, args.rounds),
              "samples_per_round": SAMPLES, "seed": SEED,
              "grid_points": {"best_response": BEST_RESPONSE_GRID,
                              "brute_force": BRUTE_FORCE_GRID}}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    _report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
