#!/usr/bin/env python3
"""Export the CSV data behind the cone-section / hyperplane-trace /
orbit figures for an order-6 family problem."""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustlrs.serialize import parse_problem
from robustlrs.cli import emit_plot_data

# the p = 3/5 family member: (x-1)^2 (x^2 - (6/5)x + 1)^2
EXAMPLE = {
    "coeffs": ["-1", "22/5", "-231/25", "292/25", "-231/25", "22/5"],
    "init": ["1", "0", "0", "0", "0", "0"],
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--problem", default=None,
                    help="problem JSON (default: built-in p=3/5 example)")
    ap.add_argument("--kind", default="cone-section",
                    choices=["orbit", "cone-section", "hyperplane-trace"])
    ap.add_argument("--range", type=int, default=100)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    if args.problem:
        with open(args.problem, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = json.dumps(EXAMPLE)
    spec = parse_problem(text)
    csv = emit_plot_data(spec, args.kind, args.range)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)


if __name__ == "__main__":
    main()
