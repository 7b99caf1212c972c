#!/usr/bin/env python3
"""Run the four shipped sweep panels and write their CSV/gnuplot outputs.

Usage:
    python scripts/run_case_study.py --outdir results [--steps 30]

Each panel solves both welfare programs at every sweep point and tabulates
the true-welfare loss, the eq21 violation count at the strategic
allocation, and both clearing prices. The two *_bounded panels keep all
conditions satisfied (bounded loss); the two *_unbounded panels let eq21
fail past a threshold, after which the loss keeps growing.
"""

import argparse
import pathlib
import sys

from prosumer_market import PANELS, case_study_spec, emit_csv, emit_gnuplot, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--steps", type=int, default=30,
                        help="sweep points per panel")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for panel in PANELS:
        spec = case_study_spec(panel, steps=args.steps)
        rows = run_sweep(spec)
        emit_csv(rows, outdir / f"{panel}.csv")
        emit_gnuplot(rows, outdir / f"{panel}.dat")
        violated = [r for r in rows if r.eq21_violations > 0]
        onset = f"{violated[0].total_param:.3f}" if violated else "none"
        losses = [r.welfare_loss for r in rows if r.error is None]
        print(f"{panel}: {len(rows)} rows, loss in "
              f"[{min(losses):.3e}, {max(losses):.3e}], "
              f"first eq21 violation at total={onset}")
    print(f"wrote CSV and gnuplot files to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
