#!/usr/bin/env python3
"""Bracket the Diophantine type of the rotation angle for points on the
rational unit circle, cross-checked against the direct prefix minimum.

The reported interval encloses the horizon-bounded quantity; it is an
upper-bound story for the true type, which is unknown for these
transcendental angles.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustlrs.qmath import parse_rational
from robustlrs.hardness import approximate_L, lagrange_prefix
from robustlrs.serialize import decimal_str


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", default="3/5")
    ap.add_argument("--q", default="4/5")
    ap.add_argument("--eps", default="1/20")
    ap.add_argument("--horizon", type=int, default=10**6)
    args = ap.parse_args()
    p = parse_rational(args.p)
    q = parse_rational(args.q) if args.q else None
    eps = parse_rational(args.eps)

    t0 = time.time()
    est = approximate_L(p, q, eps, args.horizon)
    t1 = time.time()
    direct = lagrange_prefix(p, q, args.horizon)
    t2 = time.time()

    print(f"point on circle: p = {p}, q = {q}")
    print(f"binary-search bracket ({est.probes} probes, {t1-t0:.1f} s): "
          f"[{decimal_str(est.interval.lo, 10)}, "
          f"{decimal_str(est.interval.hi, 10)}]")
    print(f"direct prefix minimum ({t2-t1:.1f} s):        "
          f"[{decimal_str(direct.lo, 10)}, {decimal_str(direct.hi, 10)}]")
    mid_gap = abs(est.interval.mid - direct.mid)
    print(f"midpoint gap: {decimal_str(mid_gap, 10)} (allowed {eps})")
    if est.horizon_exhausted:
        print("note: horizon exhausted before the bracket closed")


if __name__ == "__main__":
    main()
