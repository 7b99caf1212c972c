#!/usr/bin/env python3
"""Run one benchmark workload against the prosumer_market sources of this tree.

Usage (from the root of the tree):

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 50 --trace 0

The run imports ``prosumer_market`` from ``src/`` next to this directory and
from nowhere else, builds the workload's inputs from the seed, then repeats
whole rounds of the workload's timed public calls until ``--seconds`` have
passed, checking every output against an independent reference. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (setup_s, ops_per_s,
call_p50_ms, peak_rss_mb); ``--trace 1`` wraps the package's layers (see
tracing.py) and reports the per-layer metrics instead, and writes the spans to
``perfbench/out/trace-<workload>.npz``. Outputs go to ``perfbench/out/``.

setup_s is the median over this process and SETUP_PROBES fresh processes of
the time to import the package and build the workload's inputs.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# fresh processes that only import and build inputs, for the setup_s median
SETUP_PROBES = 4


def setup(workload: str, seed: int):
    """Import the package from this tree and build the workload's inputs."""
    t0 = time.perf_counter()
    if not (SRC / "prosumer_market" / "__init__.py").is_file():
        raise SystemExit(f"error: no prosumer_market sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prosumer_market as pm
    import prosumer_market.cli  # noqa: F401  (the entry layer users load)
    if Path(pm.__file__).resolve().parent != SRC / "prosumer_market":
        raise SystemExit(f"error: imported prosumer_market from {pm.__file__}")
    import workloads
    work = workloads.WORKLOADS[workload](pm, seed, OUT_DIR)
    return pm, work, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(work, seconds: float):
    """Whole rounds of timed calls for about `seconds`; check each output.

    A round starts only while it is expected to end within half a round of
    the deadline, so the measured time stays near `seconds` however long a
    round is.
    """
    ops = work.ops()
    durations, problems = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter_ns()
            out = op.call()
            durations.append(time.perf_counter_ns() - t0)
            op_failed, op_problems = op.check(out)
            attempted += op.n
            failed += op_failed
            problems += [f"round {rounds}, {op.label}: {p}" for p in op_problems]
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    return {"durations_ns": durations, "attempted": attempted,
            "failed": failed, "problems": problems, "rounds": rounds,
            "loop_s": time.perf_counter() - start}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pm, work, setup_s = setup(args.workload, args.seed)
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    # reference results and untimed program calls for the checks come first,
    # so a traced run records only the timed calls of the rounds
    work.prepare()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(pm)
    res = measure(work, args.seconds)

    timed_s = sum(res["durations_ns"]) / 1e9
    completed = res["attempted"] - res["failed"]
    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={res['rounds']} calls={len(res['durations_ns'])} "
          f"timed_s={timed_s:.4f} loop_s={res['loop_s']:.4f} "
          f"problems={len(res['problems'])}")
    if tracer is None:
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": completed / timed_s,
            "call_p50_ms": statistics.median(res["durations_ns"]) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
    else:
        metrics = tracer.finish(OUT_DIR / f"trace-{args.workload}.npz",
                                res["rounds"])
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit("error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
