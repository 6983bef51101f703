#!/usr/bin/env python3
"""Scan the semidiscrete operator's spectral radius over n and q.

Runs ``advwave spectrum`` once per degree on the 1D periodic problem with
the Sommerfeld flux.  The radii should scale like (c + |w|) q^2 / h,
i.e. double under n -> 2n and roughly quadruple under q -> 2q.
"""

import argparse
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from advwave import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--w", type=float, default=0.5)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--qs", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--ns", type=int, nargs="+", default=[10, 20, 40])
    args = parser.parse_args()

    print(f"{'q':>3s} {'n':>5s} {'radius':>12s} {'radius*h/q^2':>13s} {'conv':>5s}")
    with tempfile.TemporaryDirectory() as tmp:
        for q in args.qs:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(dict(problem="periodic1d", q=q, flux="sommerfeld",
                                            w=args.w, c=args.c, n_list=args.ns)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["spectrum", "--config", str(path), "--output", tmp])
            if code != cli.EXIT_OK:
                return code
            with open(Path(tmp) / "spectrum.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    radius, h = float(row["radius"]), float(row["h"])
                    print(f"{q:3d} {int(row['n']):5d} {radius:12.4e} "
                          f"{radius * h / q ** 2:13.4e} "
                          f"{'yes' if row['converged'] == 'True' else 'no':>5s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
