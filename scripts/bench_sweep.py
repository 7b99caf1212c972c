#!/usr/bin/env python3
"""Time the case-study sweep and batch-of-one reports; write a BENCH json.

Usage:
    python scripts/bench_sweep.py [--src SRC] [--baseline SRC] [--rounds N]
                                  [--out PATH]

The runs follow scripts/interleave.py: a child process per tree and round,
and with --baseline a second source tree, such as a parent commit's src/,
run in alternating order against SRC. A child takes one untimed warm-up of
each measurement and then SAMPLES timed samples of:

  * case_study_round_ms: one in-process case-study round, the four shipped
    panels at 30 steps through run_sweep, emit_csv and emit_gnuplot;
  * phases_ms: the same round split into stack build, search passes, row
    assembly and emit, by calling the sweep's stages one at a time;
  * equilibrium_report_ms: one report of a seeded concave market at N = 200,
    250 and 300 (betas uniform in [1.5, 3.5], d_min = 4, s_max = 1.6), which
    goes through the search as a stack of one.

It also records the lockstep passes of each panel and mode and the excess
evaluations they made. The output file defaults to BENCH_batched_sweep.json
at the root of this tree.
"""

import sys
import tempfile
import time
from pathlib import Path

import interleave

OUT = interleave.ROOT / "BENCH_batched_sweep.json"
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


def _report(result: dict) -> None:
    for name, side in result["sides"].items():
        t = side["timings"]["case_study_round_ms"]
        print(f"{name}: case-study round {t['median']:.2f} ms "
              f"(q1 {t['q1']:.2f}, q3 {t['q3']:.2f})")
    if "change_wins" in result:
        share = result["change_wins"]["case_study_round_ms"]
        print(f"change faster in {share:.0%} of {result['rounds']} rounds")


if __name__ == "__main__":
    sys.exit(interleave.main(
        sys.argv[1:], script=__file__, description=__doc__.split("\n\n")[0],
        measure=measure, out=OUT, rounds=ROUNDS, report=_report,
        samples_per_round=SAMPLES, seed=SEED))
