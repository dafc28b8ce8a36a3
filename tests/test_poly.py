"""Newton's identities in `poly`: power sums of the roots, the monic
polynomial back from them, and composed products built from the two;
cyclotomic polynomials by exact division; and the integer Horner loop of
box evaluation against its `Fraction` reference."""

import random
from fractions import Fraction as Q

import pytest
import sympy

from robustlrs import poly
from robustlrs.algebraic import FieldElement, NumberField
from robustlrs.interval import Box, Ival
from robustlrs.poly import (composed_product, from_power_sums, int_normalize,
                            peval_box, pmul, pnorm, power_sums)

from oracles import peval_box_ref


def _random_poly(rng, degree):
    """Non-monic rational coefficients; a nonzero leading one."""
    lead = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    return tuple(Q(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(degree)) + (lead,)


def _random_pair_member(rng):
    """Degree 1-4, with a repeated factor half of the time."""
    degree = rng.randint(1, 4)
    if degree >= 2 and rng.random() < 0.5:
        twice = _random_poly(rng, degree // 2)
        return pmul(pmul(twice, twice), _random_poly(rng, degree % 2))
    return _random_poly(rng, degree)


def _composed_product_by_resultant(p, q):
    """Res_y(p(y), y^deg q * q(x / y)): the resultant route, the oracle."""
    x, y = sympy.symbols("x y")
    py = sum(sympy.Rational(c.numerator, c.denominator) * y ** i
             for i, c in enumerate(p))
    dq = len(q) - 1
    qy = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
             * y ** (dq - i) for i, c in enumerate(q))
    res = sympy.Poly(sympy.resultant(py, qy, y), x)
    return int_normalize(poly.from_sympy(res))


@pytest.mark.parametrize("seed", range(6))
def test_composed_product_matches_resultant(seed):
    rng = random.Random(seed)
    for _ in range(5):
        p, q = _random_pair_member(rng), _random_pair_member(rng)
        got = composed_product(p, q)
        assert len(got) - 1 == (len(p) - 1) * (len(q) - 1)
        assert got[-1] == 1
        assert int_normalize(got) == _composed_product_by_resultant(p, q)


@pytest.mark.parametrize("seed", range(4))
def test_from_power_sums_inverts_power_sums(seed):
    rng = random.Random(100 + seed)
    for _ in range(5):
        p = pnorm(_random_pair_member(rng))
        d = len(p) - 1
        monic = tuple(c / p[-1] for c in p)
        assert from_power_sums(power_sums(p, d + 1)) == monic


def test_power_sums_of_x2_minus_x_minus_1_are_lucas():
    """The power sums of x^2 - x - 1 are the Lucas numbers, at any count,
    and a field element's trace reads the first two of them."""
    lucas = [2, 1, 3, 4, 7, 11, 18, 29, 47]
    assert power_sums((-1, -1, 1), 1) == lucas[:1]
    assert power_sums((-1, -1, 1), 9) == lucas
    assert power_sums((Q(-3), Q(-3), Q(3)), 4) == lucas[:4]
    f = NumberField.get((-1, -1, 1), 0)
    assert FieldElement(f, (Q(3), Q(2))).trace() == 3 * 2 + 2 * 1


def test_composed_product_makes_no_resultant_call(monkeypatch):
    p, q = (Q(-2), Q(0), Q(1)), (Q(1), Q(1), Q(1))
    want = _composed_product_by_resultant(p, q)

    def no_resultant(*args, **kwargs):
        raise AssertionError("sympy.resultant called")

    monkeypatch.setattr(sympy, "resultant", no_resultant)
    assert int_normalize(composed_product(p, q)) == want


def test_cyclotomic_and_totient_match_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 301):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert poly.cyclotomic(n) == tuple(int(c) for c in reversed(want)), n
        assert poly._totient(n) == sympy.totient(n), n


def test_cyclotomic_index_without_sympy(monkeypatch):
    """The cyclotomic polynomials and the totient make no sympy call."""
    def refuse(*args, **kwargs):
        raise AssertionError("sympy called")

    monkeypatch.setattr(sympy, "cyclotomic_poly", refuse)
    monkeypatch.setattr(sympy, "totient", refuse)
    poly.cyclotomic.cache_clear()
    assert poly.cyclotomic_index(poly.cyclotomic(210)) == 210
    assert poly.cyclotomic_index((1, 1, 1, 1)) is None
    assert poly.cyclotomic_index((1, 0, 1)) == 4


def _random_ival(rng, straddle):
    """Non-dyadic endpoints; across 0 when `straddle`, else on one side
    or a point."""
    a = Q(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    w = Q(rng.randint(0, 10**4), rng.randint(1, 10**7))
    if straddle:
        return Ival(-abs(a) - w, abs(a) + w)
    return Ival(a, a + w) if rng.random() < 0.8 else Ival.point(a)


def _seed_box(rng, bits):
    """A root seed as `algebraic` makes it: a rational centre
    +- 2^-(bits + 1)."""
    eps = Q(1, 1 << (bits + 1))
    re = Q(rng.randint(-300, 300), rng.randint(1, 97))
    im = Q(rng.randint(-300, 300), rng.randint(1, 97))
    return Box(Ival(re - eps, re + eps), Ival(im - eps, im + eps))


@pytest.mark.parametrize("seed", range(6))
def test_peval_box_matches_fraction_horner(seed):
    """The integer Horner loop gives the `Fraction` loop's endpoints,
    equal, not merely enclosing."""
    rng = random.Random(2100 + seed)
    for case in range(60):
        bits = rng.choice((64, 96, 128, 160, 224, 256, 320))
        degree = case % 10 - 1          # -1 is the empty tuple
        p = tuple(Q(rng.randint(-10**5, 10**5), rng.randint(1, 999))
                  for _ in range(degree + 1))
        kind = case % 3
        if kind == 0:
            z = Box(_random_ival(rng, True), _random_ival(rng, True))
        elif kind == 1:
            z = Box(_random_ival(rng, False), _random_ival(rng, rng.random() < 0.5))
        else:
            z = _seed_box(rng, bits)
        got, want = peval_box(p, z, bits), peval_box_ref(p, z, bits)
        assert (got.re.lo, got.re.hi, got.im.lo, got.im.hi) == \
            (want.re.lo, want.re.hi, want.im.lo, want.im.hi), (p, z, bits)
