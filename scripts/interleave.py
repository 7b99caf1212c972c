"""Interleaved A/B runs of two source trees, shared by the bench scripts.

A bench script supplies measure(pm), which times the prosumer_market
package pm and returns {"timings": {name: [samples in ms]}, ...}, and calls
main(). Each measurement then runs in a child process that imports
prosumer_market from one source tree: SRC (default: the src/ directory of
this tree) and, with --baseline, a second tree such as a parent commit's
src/. The two trees run in alternating order, one child each per round, so
that host drift falls on both alike.

The result keeps every sample of each tree with its median and quartiles;
a child's "peak_rss_mb" entries, one value per child, are summarized the
same way. Other entries are kept as the first child of each tree reported
them. With --baseline, "change_wins" holds, for each timing, the share of
rounds in which the SRC child's median beat the baseline child's. The
host's Python and numpy versions and CPU count are recorded too.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# child entries summarized over every child of a tree
SAMPLED = ("timings", "peak_rss_mb")


def _child(script: str, src: Path) -> dict:
    """Run script's measure() on the package under src in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, script, "--child", "--src", str(src)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(samples) -> dict:
    if len(samples) < 2:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def compare(script: str, sides: dict, rounds: int) -> dict:
    """Run every side once per round, alternating the order; summarize."""
    runs = {name: [] for name in sides}
    names = list(sides)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            runs[name].append(_child(script, sides[name]))
    result = {"sides": {}}
    for name, children in runs.items():
        side = {key: value for key, value in children[0].items()
                if key not in SAMPLED and key != "numpy"}
        for group in SAMPLED:
            if group in children[0]:
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
                      "numpy": runs[names[0]][0]["numpy"],
                      "cpu_count": os.cpu_count(),
                      "machine": platform.machine()}
    result["rounds"] = rounds
    return result


def _package_dir(parser, path: Path) -> Path:
    src = path.resolve()
    if not (src / "prosumer_market" / "__init__.py").is_file():
        parser.error(f"no prosumer_market package under {src}")
    return src


def main(argv, *, script: str, description: str, measure, out: Path,
         rounds: int, report, **fields) -> int:
    """Parse a bench script's command line and run it.

    With --child, print measure(pm) as JSON for the package under --src.
    Otherwise compare the trees, write the result with fields added to
    out (or --out), and pass it to report for the console summary.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the prosumer_market package")
    parser.add_argument("--baseline", type=Path,
                        help="a second package directory to run against "
                             "--src in alternating order")
    parser.add_argument("--rounds", type=int, default=rounds,
                        help="child processes per tree")
    parser.add_argument("--out", type=Path, default=out,
                        help="output json file")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = _package_dir(parser, args.src)
    if args.child:
        sys.path.insert(0, str(src))
        import prosumer_market as pm
        print(json.dumps(measure(pm)))
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"change": src}
    if args.baseline is not None:
        sides["baseline"] = _package_dir(parser, args.baseline)
    name = Path(script).resolve().relative_to(ROOT).as_posix()
    result = {"script": name, **compare(script, sides, args.rounds),
              **fields}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    report(result)
    return 0
