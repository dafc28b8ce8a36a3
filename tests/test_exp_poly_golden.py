"""Exponential-polynomial coefficients, pinned exactly.

`exp_poly_golden.json` holds, per case, every irreducible factor of the
characteristic polynomial as `exp_poly_solution` returned it when the
coefficients came from partial fractions of the generating function: its
minimal polynomial, its multiplicity and the rational coordinates of each
alpha_j in the basis 1, xi, ..., xi^(d-1) of the factor's field.  The
coefficients are the unique solution of the initial-terms system, so any
way of computing them must reproduce these values exactly.
"""

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs.hardness import build_hardness_lrr
from robustlrs.lrs import InitialConfig, Lrr, exp_poly_solution
from robustlrs.poly import pmul

GOLDEN = json.loads((Path(__file__).with_name("exp_poly_golden.json"))
                    .read_text(encoding="utf-8"))


def _lrr_of(*factors):
    """The recurrence whose characteristic polynomial is the product of
    the monic `factors` (coefficients lowest degree first)."""
    char = [Q(1)]
    for f in factors:
        char = pmul(char, [Q(c) for c in f])
    return Lrr(tuple(-c for c in char[:-1]))


def _cases():
    """(key, Lrr, initial terms)."""
    mixed = _lrr_of((1, Q(-6, 5), 1), (Q(-1, 2), 1))
    yield "fibonacci", Lrr((1, 1)), (0, 1)
    yield "x+1", _lrr_of((1, 1)), (3,)
    yield "(x^2-6/5x+1)(x-1/2)", mixed, (1, Q(-2, 3), Q(5, 7))
    yield "(x-1)^3(x+2)^2", _lrr_of(*[(-1, 1)] * 3, *[(2, 1)] * 2), \
        (1, 0, -3, Q(1, 2), 4)
    for p in (Q(3, 5), Q(1, 2), Q(5, 13)):
        for start in ((1, -2, Q(3, 2), 0, 5, Q(-1, 3)),
                      (2, 0, -1, Q(7, 4), 1, 3)):
            yield (f"order6 p={p} {','.join(map(str, start))}",
                   build_hardness_lrr(p), start)
    yield "x^3+x+3", _lrr_of((3, 1, 0, 1)), (1, 2, -1)
    yield "zero start", mixed, (0, 0, 0)


def _coords(alpha, d):
    coeffs = [alpha] if isinstance(alpha, Q) else list(alpha.coeffs)
    return [str(c) for c in coeffs + [Q(0)] * (d - len(coeffs))]


def solution_record(lrr, start):
    sol = exp_poly_solution(lrr, InitialConfig(start))
    return [{"minpoly": list(f.minpoly), "mult": f.mult,
             "alphas": [_coords(a, len(f.minpoly) - 1) for a in f.alphas]}
            for f in sol.factors]


@pytest.mark.parametrize("key,lrr,start", list(_cases()),
                         ids=[key for key, *_ in _cases()])
def test_exp_poly_golden(key, lrr, start):
    assert solution_record(lrr, start) == GOLDEN[key]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(key for key, *_ in _cases())


def test_mat_inv_singular_is_an_internal_fault():
    from robustlrs.lrs import mat_inv
    with pytest.raises(RuntimeError, match="singular"):
        mat_inv([[Q(1), Q(2)], [Q(2), Q(4)]])
    assert mat_inv([[Q(2), Q(1)], [Q(1), Q(1)]]) == [[1, -1], [-1, 2]]
