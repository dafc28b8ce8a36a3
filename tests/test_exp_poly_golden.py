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
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs.algebraic import FieldElement
from robustlrs.hardness import build_hardness_lrr
from robustlrs.lrs import (InitialConfig, Lrr, eval_terms, exp_poly_solution,
                           exp_poly_solutions, mat_inv)
from robustlrs import poly
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
    with pytest.raises(RuntimeError, match="singular"):
        mat_inv([[Q(1), Q(2)], [Q(2), Q(4)]])
    assert mat_inv([[Q(2), Q(1)], [Q(1), Q(1)]]) == [[1, -1], [-1, 2]]


def _fraction_mat_inv(m):
    """Gauss-Jordan elimination on `Fraction`s: the reference for the
    fraction-free `mat_inv`."""
    n = len(m)
    a = [list(row) + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise RuntimeError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _random_matrix(rng, n):
    """Sparse rational entries: zero pivots force row swaps."""
    return [[Q(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6
             else Q(0) for _ in range(n)] for _ in range(n)]


def test_mat_inv_matches_fraction_gauss_jordan():
    rng = random.Random(14)
    checked = swapped = singular = 0
    while checked < 60 or singular < 10:
        n = rng.randint(1, 7)
        m = _random_matrix(rng, n)
        try:
            want = _fraction_mat_inv(m)
        except RuntimeError:
            singular += 1
            with pytest.raises(RuntimeError, match="singular"):
                mat_inv(m)
            continue
        got = mat_inv(m)
        assert got == want
        assert all(type(v) is Q for row in got for v in row)
        checked += 1
        swapped += m[0][0] == 0
    assert swapped >= 10
    # a row that is a combination of two others
    m = _random_matrix(rng, 5)
    m[3] = [2 * a - Q(1, 3) * b for a, b in zip(m[0], m[1])]
    with pytest.raises(RuntimeError, match="singular"):
        mat_inv(m)


def _reconstruct_exact(factor_solutions, n):
    """u_n as the sum over factors of Tr(A_f(n) xi^n), with xi^n by field
    powering: the per-start, per-n reference for the check that
    `exp_poly_solutions` makes through the trace table."""
    total = Q(0)
    for fs in factor_solutions:
        d = len(fs.minpoly) - 1
        if d == 1:
            root_val = Q(-fs.minpoly[0], fs.minpoly[1])
            a_of_n = sum((a * n**j for j, a in enumerate(fs.alphas)), Q(0))
            total += a_of_n * root_val**n
        else:
            if all(a == 0 for a in fs.alphas):
                continue
            fld = fs.alphas[0].field
            a_of_n = FieldElement.const(fld, Q(0))
            for j, a in enumerate(fs.alphas):
                if a != 0:
                    a_of_n = a_of_n + a * Q(n**j)
            xi_n = FieldElement.generator(fld).pow(n)
            total += (a_of_n * xi_n).trace()
    return total


@pytest.mark.parametrize("key,lrr,start", list(_cases()),
                         ids=[key for key, *_ in _cases()])
def test_solutions_match_per_start_reconstruction(key, lrr, start):
    """Every golden case and three random starts of its recurrence, from
    one call: the per-start trace identity holds for n < 2k."""
    rng = random.Random(key)
    k = lrr.order
    starts = [InitialConfig(start)] + [
        InitialConfig(tuple(Q(rng.randint(-20, 20), rng.randint(1, 9))
                            for _ in range(k))) for _ in range(3)]
    for c, sol in zip(starts, exp_poly_solutions(lrr, starts)):
        for n, u in enumerate(eval_terms(lrr, c, 2 * k - 1)):
            assert _reconstruct_exact(sol.factors, n) == u


def test_corrupted_power_sum_beyond_degree_raises(monkeypatch):
    """The trace-form matrix reads Newton power sums up to k + d - 2; one
    past the degree is wrong here, and the trace table catches it."""
    real = poly.power_sums

    def corrupted(p, count):
        ps = real(p, count)
        if count > len(p):
            ps[len(p)] += 1
        return ps

    monkeypatch.setattr(poly, "power_sums", corrupted)
    with pytest.raises(RuntimeError, match="power sums"):
        exp_poly_solution(build_hardness_lrr(Q(3, 5)),
                          InitialConfig((1, -2, Q(3, 2), 0, 5, Q(-1, 3))))


def test_corrupted_inverse_entry_raises(monkeypatch):
    from robustlrs import lrs
    real = lrs.mat_inv

    def corrupted(m):
        inv = real(m)
        inv[0][0] += Q(1, 7)
        return inv

    monkeypatch.setattr(lrs, "mat_inv", corrupted)
    lrr = build_hardness_lrr(Q(1, 2))
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        exp_poly_solutions(lrr, [InitialConfig((0,) * 6),
                                 InitialConfig((2, 0, -1, Q(7, 4), 1, 3))])


def test_corrupted_inverse_raises_under_python_O():
    script = """
import sys
from fractions import Fraction as Q
from robustlrs import lrs
from robustlrs.hardness import build_hardness_lrr
assert sys.flags.optimize, "run under python -O"
real = lrs.mat_inv
def corrupted(m):
    inv = real(m)
    inv[0][0] += Q(1, 7)
    return inv
lrs.mat_inv = corrupted
try:
    lrs.exp_poly_solution(build_hardness_lrr(Q(1, 2)),
                          lrs.InitialConfig((2, 0, -1, Q(7, 4), 1, 3)))
except RuntimeError as exc:
    print("raised:", exc)
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ("raised: exponential polynomial "
                                  "reconstruction failed")
