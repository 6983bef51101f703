#!/usr/bin/env python3
"""Reproduce the main convergence-rate tables.

Runs ``advwave converge`` on the 1D periodic (upwind and central), 1D
supersonic, 2D periodic (central and upwind), and 2D mixed-boundary
(subsonic and supersonic inflow) cases; it prints each
case's rates, the slopes fitted over all its grids and over its finest 3
(rates.csv holds both).  Each case's config, errors.csv and rates.csv go to a
directory of its own under --output (default: a temporary directory,
removed at exit), and every case's errors to one reproduced.csv there
(case, n, h, err_u, err_v); tests/data/reproduced.csv pins the --quick one.
Pass --quick for a shorter grid list.
"""

import argparse
import csv
import json
import tempfile
from pathlib import Path

from advwave import cli

CASES = [
    ("1D upwind q=2", dict(problem="periodic1d", q=2, flux="sommerfeld",
                           w=0.5, c=1.0, T=0.4)),
    ("1D upwind q=3", dict(problem="periodic1d", q=3, flux="sommerfeld",
                           w=0.5, c=1.0, T=0.4)),
    ("1D central q=2", dict(problem="periodic1d", q=2, flux="central",
                            w=0.5, c=1.0, T=0.4)),
    ("1D central q=3", dict(problem="periodic1d", q=3, flux="central",
                            w=0.5, c=1.0, T=0.4)),
    ("1D sonic q=2", dict(problem="periodic1d", q=2, flux="central",
                          w=0.5, c=0.5, T=0.4)),
    ("1D supersonic q=3 s=2", dict(problem="periodic1d", q=3, s=2,
                                   flux="central", w=1.0, c=0.5, T=0.4)),
    ("2D central q=2", dict(problem="periodic2d", q=2, flux="central",
                            w=[0.5, 0.5], c=1.0, T=0.2)),
    ("2D central q=3", dict(problem="periodic2d", q=3, flux="central",
                            w=[0.5, 0.5], c=1.0, T=0.2,
                            n_list=[5, 7, 10, 14, 20, 28])),
    ("2D mixed BC q=2", dict(problem="mixed2d", q=2, flux="sommerfeld",
                             w=[0.5, 0.5], c=1.0, T=1.0,
                             n_list=[5, 7, 10, 14, 20])),
    ("2D upwind q=2", dict(problem="periodic2d", q=2, flux="sommerfeld",
                           w=[0.5, 0.5], c=1.0, T=0.2)),
    ("2D upwind q=3", dict(problem="periodic2d", q=3, flux="sommerfeld",
                           w=[0.5, 0.5], c=1.0, T=0.2,
                           n_list=[5, 7, 10, 14, 20, 28])),
    ("2D mixed BC supersonic q=3 s=2", dict(problem="mixed2d", q=3, s=2,
                                            flux="sommerfeld", w=[1.5, 0.3], c=1.0,
                                            T=1.0, n_list=[5, 7, 10, 14, 20])),
]

QUICK_GRIDS = {1: [10, 14, 20, 28, 40], 2: [5, 7, 10, 14]}


def run_cases(outdir: Path, quick: bool, workers: int) -> int:
    failed, rows = 0, []
    for i, (label, config) in enumerate(CASES):
        config = dict(config)
        if quick:
            config["n_list"] = QUICK_GRIDS[1 if config["problem"] == "periodic1d" else 2]
        case_dir = outdir / f"case{i}"
        case_dir.mkdir(parents=True, exist_ok=True)
        path = case_dir / "config.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        print(f"{label}:", flush=True)
        code = cli.main(["converge", "--config", str(path), "--output", str(case_dir),
                         "--workers", str(workers)])
        failed += code != cli.EXIT_OK
        errors = case_dir / "errors.csv"
        if errors.is_file():
            with open(errors, newline="") as fh:
                rows += [[label] + row for row in list(csv.reader(fh))[1:]]
    with open(outdir / "reproduced.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case", "n", "h", "err_u", "err_v"])
        writer.writerows(rows)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use shorter grid lists")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--output", default=None,
                        help="keep each case's config and CSVs under this directory")
    args = parser.parse_args()
    if args.output is not None:
        return run_cases(Path(args.output), args.quick, args.workers)
    with tempfile.TemporaryDirectory() as tmp:
        return run_cases(Path(tmp), args.quick, args.workers)


if __name__ == "__main__":
    raise SystemExit(main())
