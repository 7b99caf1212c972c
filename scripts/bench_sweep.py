#!/usr/bin/env python3
"""Time the case-study sweep and batch-of-one reports; write a BENCH json.

Usage:
    python scripts/bench_sweep.py [--src SRC] [--baseline SRC] [--rounds N]
                                  [--out PATH]

Each measurement runs in a child process that imports prosumer_market from
one source tree: SRC (default: the src/ directory of this tree) and, with
--baseline, a second tree such as a parent commit's src/. The two trees
run in alternating order, one child each per round, so that host drift
falls on both alike. A child takes one untimed warm-up of each
measurement and then SAMPLES timed samples of:

  * case_study_round_ms: one in-process case-study round, the four shipped
    panels at 30 steps through run_sweep, emit_csv and emit_gnuplot;
  * phases_ms: the same round split into stack build, search passes, row
    assembly and emit, by calling the sweep's stages one at a time;
  * equilibrium_report_ms: one report of a seeded concave market at N = 200,
    250 and 300 (betas uniform in [1.5, 3.5], d_min = 4, s_max = 1.6), which
    goes through the search as a stack of one.

It also records the lockstep passes of each panel and mode and the excess
evaluations they made. The output file (default: BENCH_batched_sweep.json
at the root of this tree) keeps every sample of each tree with its median
and quartiles, and, with --baseline, for each timing the share of rounds
in which the SRC child's median beat the baseline child's. It also records
the Python and numpy versions and the CPU count of the host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_batched_sweep.json"
STEPS = 30
LARGE_SIZES = (200, 250, 300)
# child processes per tree, timed samples per child and measurement, and
# the seed of the batch-of-one markets
ROUNDS = 20
SAMPLES = 5
SEED = 1


def _round(pm, specs, out_dir):
    for panel, spec in specs.items():
        rows = pm.run_sweep(spec)
        pm.emit_csv(rows, out_dir / f"{panel}.csv")
        pm.emit_gnuplot(rows, out_dir / f"{panel}.dat")


def _phased_round(pm, specs, out_dir) -> dict:
    """One round through the sweep's stages; returns each stage's time."""
    experiments, solver = pm.experiments, pm.solver
    times = dict.fromkeys(("stack_build", "search", "row_assembly", "emit"),
                          0.0)
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
    return times


def _timed_ms(fn) -> list:
    fn()
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def measure(pm) -> dict:
    """Every timing of one child as {name: [samples in ms]}, with passes."""
    import numpy as np

    specs = {p: pm.case_study_spec(p, steps=STEPS) for p in pm.PANELS}
    timings = {}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        timings["case_study_round_ms"] = _timed_ms(
            lambda: _round(pm, specs, out_dir))
        _phased_round(pm, specs, out_dir)
        phases = [_phased_round(pm, specs, out_dir) for _ in range(SAMPLES)]
    for key in phases[0]:
        timings[f"phases_ms.{key}"] = [p[key] for p in phases]
    rng = np.random.default_rng([SEED, 2])
    for n in LARGE_SIZES:
        config = pm.MarketConfig(n, d_min=4.0, s_max=1.6,
                                 betas=tuple(rng.uniform(1.5, 3.5, n)))
        timings[f"equilibrium_report_ms.{n}"] = _timed_ms(
            lambda: pm.equilibrium_report(config))
    passes = {}
    for panel, spec in specs.items():
        stack = pm.experiments._sweep_stack(spec, spec.values())
        passes[panel] = {}
        for mode in (pm.MODE_TRUE, pm.MODE_MODIFIED):
            batch = pm.solver._solve_stack(stack, mode)
            passes[panel][mode] = {"passes": batch.passes,
                                   "excess_evaluations": sum(batch.iterations)}
    return {"timings": timings, "passes": passes,
            "numpy": np.__version__}


def _child(src: Path) -> dict:
    """Measure the package under src in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--src", str(src)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
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
        timings = {key: _summary([s for c in children
                                  for s in c["timings"][key]])
                   for key in children[0]["timings"]}
        result["sides"][name] = {"passes": children[0]["passes"],
                                 "timings": timings}
    if "baseline" in runs:
        result["change_wins"] = {
            key: sum(statistics.median(c["timings"][key])
                     < statistics.median(p["timings"][key])
                     for c, p in zip(runs["change"], runs["baseline"]))
            / rounds
            for key in runs["change"][0]["timings"]}
    numpy_version = runs[names[0]][0]["numpy"]
    result["host"] = {"python": platform.python_version(),
                      "numpy": numpy_version, "cpu_count": os.cpu_count(),
                      "machine": platform.machine()}
    result.update(rounds=rounds, samples_per_round=SAMPLES, seed=SEED)
    return result


def _package_dir(parser, path: Path) -> Path:
    src = path.resolve()
    if not (src / "prosumer_market" / "__init__.py").is_file():
        parser.error(f"no prosumer_market package under {src}")
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the prosumer_market package")
    parser.add_argument("--baseline", type=Path,
                        help="a second package directory to run against "
                             "--src in alternating order")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="child processes per tree")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="output json file")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = _package_dir(parser, args.src)
    if args.child:
        sys.path.insert(0, str(src))
        import prosumer_market as pm
        import prosumer_market.experiments  # noqa: F401
        import prosumer_market.solver  # noqa: F401
        print(json.dumps(measure(pm)))
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"change": src}
    if args.baseline is not None:
        sides["baseline"] = _package_dir(parser, args.baseline)
    result = {"script": "scripts/bench_sweep.py", **compare(sides,
                                                             args.rounds)}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for name, side in result["sides"].items():
        t = side["timings"]["case_study_round_ms"]
        print(f"{name}: case-study round {t['median']:.2f} ms "
              f"(q1 {t['q1']:.2f}, q3 {t['q3']:.2f})")
    if "change_wins" in result:
        share = result["change_wins"]["case_study_round_ms"]
        print(f"change faster in {share:.0%} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
