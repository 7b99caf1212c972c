#!/usr/bin/env python3
"""Time the case-study sweep and batch-of-one reports; write a BENCH json.

Usage:
    python scripts/bench_sweep.py [--src SRC] [--label NAME]

The script imports prosumer_market from SRC (default: the src/ directory of
this tree), so the same script measures another checkout, such as a parent
commit, by pointing --src at that checkout's src/. It records, under
runs[NAME] of BENCH_batched_sweep.json at the root of this tree (other runs
in the file are kept):

  * case_study_round_ms: one in-process case-study round, the four shipped
    panels at 30 steps through run_sweep, emit_csv and emit_gnuplot;
  * phases_ms: the same round split into stack build, search passes, row
    assembly and emit, by calling the sweep's stages one at a time (null for
    a tree whose sweep has no stacked stages);
  * passes: the lockstep passes of each panel and mode, and the excess
    evaluations they made (null likewise);
  * equilibrium_report_ms: one report of a seeded concave market at N = 200,
    250 and 300 (betas uniform in [1.5, 3.5], d_min = 4, s_max = 1.6), which
    goes through the search as a stack of one;
  * the Python and numpy versions and the CPU count of the host.

Timings are medians and quartiles over ROUNDS samples, taken after one
untimed warm-up round; every sample is a whole round or a whole report.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_batched_sweep.json"
STEPS = 30
LARGE_SIZES = (200, 250, 300)
# timed samples per measurement, and the seed of the batch-of-one markets
ROUNDS = 30
SEED = 1


def _summary(samples_s):
    q1, median, q3 = statistics.quantiles(samples_s, n=4, method="inclusive")
    return {"median": median * 1e3, "q1": q1 * 1e3, "q3": q3 * 1e3,
            "samples": len(samples_s)}


def _round(pm, specs, out_dir):
    for panel, spec in specs.items():
        rows = pm.run_sweep(spec)
        pm.emit_csv(rows, out_dir / f"{panel}.csv")
        pm.emit_gnuplot(rows, out_dir / f"{panel}.dat")


def _phased_round(pm, specs, out_dir, times):
    """One round through the sweep's stages; adds each stage's time."""
    experiments, solver = pm.experiments, pm.solver
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
            times[key] += dt


def _timed(fn):
    fn()
    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return _summary(samples)


def measure(pm) -> dict:
    import numpy as np

    specs = {p: pm.case_study_spec(p, steps=STEPS) for p in pm.PANELS}
    stacked = hasattr(pm.solver, "_solve_stack")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        result = {"case_study_round_ms": _timed(
            lambda: _round(pm, specs, out_dir))}
        phases = passes = None
        if stacked:
            samples = {k: [] for k in ("stack_build", "search",
                                       "row_assembly", "emit")}
            _phased_round(pm, specs, out_dir, dict.fromkeys(samples, 0.0))
            for _ in range(ROUNDS):
                times = dict.fromkeys(samples, 0.0)
                _phased_round(pm, specs, out_dir, times)
                for key, dt in times.items():
                    samples[key].append(dt)
            phases = {k: _summary(v) for k, v in samples.items()}
            passes = {}
            for panel, spec in specs.items():
                stack = pm.experiments._sweep_stack(spec, spec.values())
                passes[panel] = {}
                for mode in (pm.MODE_TRUE, pm.MODE_MODIFIED):
                    batch = pm.solver._solve_stack(stack, mode)
                    passes[panel][mode] = {
                        "passes": batch.passes,
                        "excess_evaluations": sum(batch.iterations)}
        result["phases_ms"] = phases
        result["passes"] = passes
    rng = np.random.default_rng([SEED, 2])
    reports = {}
    for n in LARGE_SIZES:
        config = pm.MarketConfig(n, d_min=4.0, s_max=1.6,
                                 betas=tuple(rng.uniform(1.5, 3.5, n)))
        reports[str(n)] = _timed(lambda: pm.equilibrium_report(config))
    result["equilibrium_report_ms"] = reports
    result["host"] = {"python": platform.python_version(),
                      "numpy": np.__version__, "cpu_count": os.cpu_count(),
                      "machine": platform.machine()}
    result["rounds"] = ROUNDS
    result["seed"] = SEED
    return result


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
    sys.path.insert(0, str(src))
    import prosumer_market as pm
    import prosumer_market.experiments  # noqa: F401
    import prosumer_market.solver  # noqa: F401

    result = measure(pm)
    bench = json.loads(OUT.read_text()) if OUT.is_file() else {}
    bench.setdefault("script", "scripts/bench_sweep.py")
    bench.setdefault("runs", {})[args.label] = result
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    round_ms = result["case_study_round_ms"]
    print(f"{args.label}: case-study round {round_ms['median']:.2f} ms "
          f"(q1 {round_ms['q1']:.2f}, q3 {round_ms['q3']:.2f}); "
          + ", ".join(f"N={n} report {r['median']:.3f} ms"
                      for n, r in result["equilibrium_report_ms"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
