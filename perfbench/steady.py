#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code agree.

Usage (from the root of the tree):

    python3 perfbench/steady.py [--workload NAME ...]

Runs the command of BENCHMARK.json untraced, two sets of RUNS runs per
workload, one fresh process and one seed per run (seeds 1-10, then 11-20),
then reports for every workload and end-to-end metric:

  * spread: the distance between the first and third quartile of a set's
    values (statistics.quantiles, n=4) as a share of its median; it must
    stay within the metric's bound;
  * drift: the change of the second set's median from the first's, as a
    share of the first, counted worse-positive; in either direction it must
    stay within the bound;
  * the share of failed operations, which must be the same in every run.

Exits 0 when everything agrees, 1 otherwise. Every run's result is written
to perfbench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10  # runs per set; set k (0 or 1) uses seeds k*RUNS + 1 ... (k+1)*RUNS


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    results, ok = {}, True
    for workload in args.workload or names:
        sets = [[run_once(bench, workload, s)
                 for s in range(k * RUNS + 1, (k + 1) * RUNS + 1)]
                for k in range(2)]
        results[workload] = sets
        runs = [r for s in sets for r in s]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        shares = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: correct={correct} "
              f"attempted={sum(r['attempted'] for r in runs)} "
              f"failed={sum(r['failed'] for r in runs)} "
              f"failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            spreads = [spread(v) for v in vals]
            medians = [statistics.median(v) for v in vals]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            line = (f"  {name:12s} median {' / '.join(f'{m:.6g}' for m in medians)}"
                    f" {metric['unit']}"
                    f"  spread {' / '.join(f'{x:.4f}' for x in spreads)}"
                    f"  bound {bound}  drift {drift:+.4f}")
            good = max(spreads) <= bound and abs(drift) <= bound
            ok &= good
            print(line + ("" if good else "  DISAGREE"))
    out = BENCH_DIR / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
