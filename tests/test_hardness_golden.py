"""Exact outputs of the hardness lab, pinned byte for byte.

`hardness_golden.json` holds the values these calls return.  Every value
here is exact rational arithmetic, a dyadic scan with a fixed rounding
sequence, or a Taylor enclosure at a fixed precision, so a refactor of the
scan loops must reproduce them exactly.  Every term of an irrational
angle is read off an enclosure of the angle; a root-of-unity angle's
terms are exact Chebyshev values.  CLI outputs are pinned by the sha256
of their stdout.
"""

import hashlib
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs.cli import main
from robustlrs.hardness import (basis_change, compute_params,
                                lagrange_prefix, min_ball_term,
                                scan_ball_terms, _exact_ball_term)

GOLDEN = json.loads((Path(__file__).with_name("hardness_golden.json"))
                    .read_text(encoding="utf-8"))

PYTHAGOREAN = ((Q(3, 5), Q(4, 5)), (Q(5, 13), Q(12, 13)))
ROOTS_OF_UNITY = ((Q(1, 2), None), (Q(-1, 2), None), (Q(0), Q(1)),
                  (Q(0), Q(-1)), (Q(-1), Q(0)))


def _ival(iv):
    return [str(iv.lo), str(iv.hi)]


def _params(ell, p, q):
    return compute_params(ell, Q(1, 20), p, q)


def _scan_window(ell, p, q, width):
    """scan_ball_terms over (n2, n2 + width] as [status, n, enclosure]."""
    pr = _params(ell, p, q)
    res = scan_ball_terms(pr, pr.n2, pr.n2 + width)
    return [*res[:2], *map(_ival, res[2:])]


def _cases():
    """(key, thunk) pairs; each thunk returns a JSON-able value."""
    for p, q in PYTHAGOREAN:
        for n in (1, 2, 1000, 10**5):
            yield (f"lagrange_prefix {p} {q} {n}",
                   lambda p=p, q=q, n=n: _ival(lagrange_prefix(p, q, n)))
    for p, q in ROOTS_OF_UNITY:
        yield (f"lagrange_prefix {p} {q} 1..8",
               lambda p=p, q=q: [_ival(lagrange_prefix(p, q, n))
                                 for n in range(1, 9)])
    p35 = (Q(3, 5), Q(4, 5))
    # n2 = 2690 for eps 1/20 and every ell below
    for ell, width in ((Q(1, 2), 20000),   # clean
                       (Q(1), 20000),      # certified violation at 13843
                       (Q(3), 20000)):     # certified violation at 3083
        yield (f"scan_ball_terms 3/5 4/5 ell={ell} +{width}",
               lambda ell=ell, width=width: _scan_window(ell, *p35, width))
    for p in (Q(1, 2), Q(-1, 2)):
        for width in (3, 12):   # clean before the period ends; periodic hit
            yield (f"scan_ball_terms {p} None ell=1 +{width}",
                   lambda p=p, width=width: _scan_window(Q(1), p, None,
                                                         width))
    for n in (100, 5000):
        yield (f"min_ball_term 3/5 4/5 {n}",
               lambda n=n: _ival(min_ball_term(n, _params(Q(1), *p35))))
        yield (f"min_ball_term 1/2 None {n}",
               lambda n=n: _ival(min_ball_term(n, _params(Q(1), Q(1, 2),
                                                          None))))
    for p, q in ((Q(3, 5), Q(4, 5)), (Q(1, 2), None)):
        yield (f"_exact_ball_term {p} {q} 997",
               lambda p=p, q=q: _ival(_exact_ball_term(
                   997, _params(Q(1), p, q))))
    yield ("basis_change 5/13 12/13 inverse",
           lambda: [[str(v) for v in row]
                    for row in basis_change(Q(5, 13), Q(12, 13))[1]])


CLI_CASES = (
    ("lab", "prefix-L", "--p", "3/5", "--q", "4/5", "--n", "1000"),
    ("lab", "prefix-L", "--p", "1/2", "--n", "3"),
    ("lab", "prefix-L", "--p", "-1", "--q", "0", "--n", "1"),
    ("lab", "approx-L", "--p", "3/5", "--q", "4/5", "--eps", "1/20",
     "--horizon", "20000"),
    ("lab", "approx-L", "--p", "1/2", "--eps", "1/20", "--horizon", "20000"),
    ("lab", "ball-term", "--p", "3/5", "--q", "4/5", "--ell", "1", "--eps",
     "1/20", "--n", "100"),
    ("lab", "ball-term", "--p", "5/13", "--q", "12/13", "--ell", "1",
     "--eps", "1/20", "--n", "5000"),
    ("lab", "ball-term", "--p", "1/2", "--ell", "1", "--eps", "1/20", "--n",
     "6"),
)


def _cli_digest(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    return [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]


@pytest.mark.parametrize("key,thunk", list(_cases()),
                         ids=[k for k, _ in _cases()])
def test_golden_value(key, thunk):
    assert thunk() == GOLDEN["values"][key]


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_golden_cli(argv, capsys):
    assert _cli_digest(argv, capsys) == GOLDEN["cli"][" ".join(argv)]
