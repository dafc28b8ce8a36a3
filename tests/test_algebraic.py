import functools
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from sympy.polys import rootoftools

from robustlrs import algebraic, trig
from robustlrs.interval import Box, Ival
from robustlrs.lrs import Lrr
from robustlrs.poly import (peval, pmul, pnorm, separation_bound,
                            factor_int, cyclotomic)
from robustlrs.torus import root_of_unity_alg
from robustlrs.algebraic import (AlgebraicNumber, FieldElement, NumberField,
                                 isolate_roots, power_product_is_one,
                                 identify_root_of_unity)

from oracles import bisection_walk_ref as walk, pcompose


def poly(*coeffs):
    return tuple(Q(c) for c in coeffs)


def test_isolate_symmetric_integer_roots():
    roots = isolate_roots(poly(-1, 0, 1))  # x^2 - 1
    vals = sorted(a.as_rational() for a, m in roots)
    assert vals == [Q(-1), Q(1)]
    assert all(m == 1 for _, m in roots)


def test_isolate_order6_hardness_polynomial():
    # x^6 - 4x^5 + 8x^4 - 10x^3 + 8x^2 - 4x + 1 = (x-1)^2 (x^2-x+1)^2
    p = poly(1, -4, 8, -10, 8, -4, 1)
    roots = isolate_roots(p)
    assert sum(m for _, m in roots) == 6
    assert all(m == 2 for _, m in roots)
    rational = [a for a, _ in roots if a.is_rational]
    assert len(rational) == 1 and rational[0].as_rational() == 1
    complex_roots = [a for a, _ in roots if not a.is_rational]
    assert len(complex_roots) == 2
    for a in complex_roots:
        b = a.refine(Q(1, 10**9))
        assert b.re.contains(Q(1, 2))  # real part exactly 1/2
        assert a.is_unit_modulus()
    # disks pairwise disjoint
    boxes = [a.box(128) for a, _ in roots]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert boxes[i].disjoint(boxes[j])


def test_isolate_golden_ratio():
    roots = isolate_roots(poly(-1, -1, 1))  # x^2 - x - 1
    assert sum(m for _, m in roots) == 2
    boxes = [a.refine(Q(1, 10**12)) for a, _ in roots]
    vals = sorted(float(b.re.mid) for b in boxes)
    assert abs(vals[0] - (1 - 5**0.5) / 2) < 1e-9
    assert abs(vals[1] - (1 + 5**0.5) / 2) < 1e-9


def test_isolate_rejects_zero():
    with pytest.raises(ValueError):
        isolate_roots(poly())


def test_refine_sqrt2():
    a = next(a for a, _ in isolate_roots(poly(-2, 0, 1)) if a.box(32).re.lo > 0)
    b = a.refine(Q(1, 1000))
    assert b.width <= Q(1, 1000)
    assert b.re.contains(Q(14142135623730951, 10**16)) or \
        b.re.lo <= Q(14142135623730951, 10**16) <= b.re.hi + Q(1, 10**15)
    # idempotent under further refinement
    b2 = a.refine(Q(1, 10**9))
    assert b.re.lo <= b2.re.lo and b2.re.hi <= b.re.hi


def test_refine_rational_point():
    a = AlgebraicNumber.from_rational(Q(1))
    b = a.refine(Q(1, 7))
    assert b.re.lo == b.re.hi == 1 and b.im.lo == b.im.hi == 0


def test_refine_sixth_root_of_unity():
    p = poly(1, -1, 1)  # x^2 - x + 1, roots e^{+-i pi/3}
    a = next(a for a, _ in isolate_roots(p) if a.box(64).im.lo > 0)
    b = a.refine(Q(1, 10**6))
    assert b.re.contains(Q(1, 2))
    assert abs(float(b.im.mid) - 0.8660254037844386) < 1e-6


def test_reconstruction_product_of_factors():
    # multiply out (x - r)^m over isolated roots and compare in intervals
    p = poly(1, -4, 8, -10, 8, -4, 1)
    roots = isolate_roots(p)
    acc = [Box.point(1)]
    for a, m in roots:
        for _ in range(m):
            b = a.refine(Q(1, 10**24))
            new = [Box.point(0)] * (len(acc) + 1)
            for i, c in enumerate(acc):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] + c * (-1) * Box(b.re, b.im)
            acc = new
    for i, c in enumerate(p):
        assert acc[i].re.contains(c), f"coefficient {i}"
        assert acc[i].im.contains(Q(0))


def test_separation_bound_respected():
    p = poly(1, -4, 8, -10, 8, -4, 1)
    roots = isolate_roots(p)
    sep = separation_bound((1, -4, 8, -10, 8, -4, 1))
    boxes = [a.refine(sep / 4) for a, _ in roots]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            dist_sq = ((boxes[i].re - boxes[j].re).sq()
                       + (boxes[i].im - boxes[j].im).sq())
            assert dist_sq.hi > sep * sep


def test_power_product_minus_one_squared():
    g = [AlgebraicNumber.from_rational(Q(-1))]
    assert power_product_is_one(g, [2])
    assert not power_product_is_one(g, [3])


def _unit_pair_3_4_5():
    # roots of 5x^2 - 6x + 5 are (3 +- 4i)/5
    roots = isolate_roots(poly(5, -6, 5))
    a = next(r for r, _ in roots if r.box(64).im.lo > 0)
    b = next(r for r, _ in roots if r.box(64).im.hi < 0)
    return a, b


def test_power_product_conjugate_pair():
    a, b = _unit_pair_3_4_5()
    assert power_product_is_one([a, b], [1, 1])
    assert power_product_is_one([a, b], [5, 5])
    assert not power_product_is_one([a, b], [2, 1])
    assert not power_product_is_one([a], [3])  # (3+4i)^3/125 != 1
    assert not power_product_is_one([a], [40])


def test_power_product_rejects_non_unit():
    phi = next(a for a, _ in isolate_roots(poly(-1, -1, 1))
               if a.box(32).re.lo > 0)
    with pytest.raises(RuntimeError):
        power_product_is_one([phi], [1])


def test_power_product_sixth_roots():
    p = poly(1, -1, 1)
    roots = [a for a, _ in isolate_roots(p)]
    assert power_product_is_one(roots, [1, 1])
    assert power_product_is_one(roots, [6, 0])
    assert power_product_is_one(roots, [7, 1])
    assert not power_product_is_one(roots, [1, 0])
    assert not power_product_is_one(roots, [3, 2])


def test_identify_root_of_unity():
    p = poly(1, -1, 1)
    a = next(a for a, _ in isolate_roots(p) if a.box(64).im.lo > 0)
    assert identify_root_of_unity(a) == (1, 6)
    assert identify_root_of_unity(AlgebraicNumber.from_rational(Q(-1))) == (1, 2)
    assert identify_root_of_unity(AlgebraicNumber.from_rational(Q(2))) is None
    u, _ = _unit_pair_3_4_5()
    assert identify_root_of_unity(u) is None


# Orders 3..30 with at most 10 primitive roots.  The other ten (13, 17, 19,
# 21, 23, 25, 26, 27, 28, 29) cost 2.7-77 s each on a 2-core machine,
# 160 s together, nearly all of it sympy isolating the roots of their
# cyclotomic polynomials (degree 12-28) to seed the fields.
_ROU_ORDERS = [n for n in range(3, 31)
               if sum(math.gcd(k, n) == 1 for k in range(n)) <= 10]


def test_identify_every_primitive_root_of_unity():
    for n in _ROU_ORDERS:
        for k in range(n):
            if math.gcd(k, n) == 1:
                assert identify_root_of_unity(root_of_unity_alg(k, n)) == (k, n)


def test_identify_unit_non_roots_of_unity():
    # x^4 - x^3 - x^2 - x + 1: a Salem-type quartic, two roots on the circle
    salem = [a for a, _ in isolate_roots(poly(1, -1, -1, -1, 1))
             if not a.is_rational and a.is_unit_modulus()]
    pairs = [r for p in (poly(5, -6, 5), poly(13, -10, 13), poly(25, 14, 25))
             for r, _ in isolate_roots(p)]
    units = salem + pairs
    assert len(units) == 8 and all(u.is_unit_modulus() for u in units)
    for u in units:
        assert identify_root_of_unity(u) is None


def test_identify_root_of_unity_once_per_object(monkeypatch):
    """The answer is kept on the object: a second call sweeps no
    candidates (no unit_box) and repeats no cyclotomic test."""
    boxes, tests = [], []
    real_box, real_index = trig.unit_box, algebraic.cyclotomic_index

    def counted_box(t, bits=64):
        boxes.append(t)
        return real_box(t, bits)

    def counted_index(mp):
        tests.append(mp)
        return real_index(mp)

    monkeypatch.setattr(trig, "unit_box", counted_box)
    monkeypatch.setattr(algebraic, "cyclotomic_index", counted_index)
    rou = AlgebraicNumber.from_root(NumberField.get(cyclotomic(7), 2))
    u, _ = _unit_pair_3_4_5()
    first = [identify_root_of_unity(a) for a in (rou, u)]
    assert first[0] is not None and first[1] is None
    assert boxes and len(tests) == 2
    seen = len(boxes), len(tests)
    assert [identify_root_of_unity(a) for a in (rou, u)] == first
    assert (len(boxes), len(tests)) == seen


def test_mixed_rou_and_pair_product():
    a, b = _unit_pair_3_4_5()
    minus = AlgebraicNumber.from_rational(Q(-1))
    assert power_product_is_one([minus, a, b], [2, 3, 3])
    assert not power_product_is_one([minus, a, b], [1, 1, 1])


def test_power_product_root_of_unity_comparison(monkeypatch):
    """In Q(i), (3 + 4i)/5 * (4 + 3i)/5 = i: with i^-1 the product is 1,
    with i^1 it is -1.  Both answers come from the comparison of the field
    product with the root of unity the exponents of i leave, not from the
    composed-product fallback."""
    def refuse(gammas, exponents):
        raise AssertionError("composed-product fallback ran")

    monkeypatch.setattr(algebraic, "_power_product_general", refuse)
    i = next(a for a, _ in isolate_roots(poly(1, 0, 1)) if a.box(64).im.lo > 0)
    field = i.elem.field
    gammas = [AlgebraicNumber.from_element(FieldElement(field, coeffs))
              for coeffs in ((Q(3, 5), Q(4, 5)), (Q(4, 5), Q(3, 5)))] + [i]
    assert identify_root_of_unity(i) == (1, 4)
    assert power_product_is_one(gammas, [1, 1, -1])
    assert not power_product_is_one(gammas, [1, 1, 1])
    assert not power_product_is_one(gammas, [1, 1, 0])


def test_root_box_reseeds_between_close_roots():
    """x^3 - 2 (2^30 x - 1)^2 is irreducible, with two real roots about
    2^-60 apart near 2^-30.  Newton cannot contract on either 64-bit seed
    box, so `root_box` reseeds at 128 bits; each close root's 256-bit box
    brackets a sign change of the polynomial and misses the other's."""
    from robustlrs.poly import peval
    minpoly = (-2, 1 << 32, -(1 << 61), 1)
    assert factor_int(minpoly) == [(minpoly, 1)]
    seeds = []
    real = NumberField._seed_box

    def spy(field, bits):
        seeds.append((field.root_index, bits))
        return real(field, bits)

    fields = [NumberField(minpoly, i) for i in range(3)]
    close = [f for f in fields if f.root_box(64).re.hi < 1]
    assert len(close) == 2
    with pytest.MonkeyPatch.context() as m:
        m.setattr(NumberField, "_seed_box", spy)
        fields = [NumberField(minpoly, f.root_index) for f in close]
        for f in fields:
            f.root_box(128)
    assert seeds == [(f.root_index, b) for f in fields for b in (64, 128)]
    boxes = [f.root_box(256) for f in fields]
    assert boxes[0].disjoint(boxes[1])
    p = tuple(Q(c) for c in minpoly)
    for b in boxes:
        assert b.width <= Q(1, 1 << 256) and b.im.lo == b.im.hi == 0
        assert peval(p, b.re.lo) * peval(p, b.re.hi) < 0


def test_field_element_arithmetic():
    f = NumberField.get((5, -6, 5), 0)
    g = FieldElement.generator(f)
    assert (g * g.inverse()).coeffs == (Q(1),)
    tr = g.trace()
    assert tr == Q(6, 5)  # sum of (3+-4i)/5
    c = g.conj_in_field()
    assert (g * c).coeffs == (Q(1),)  # unit modulus exactly


def test_field_mismatch_is_an_internal_error():
    """Arithmetic across two fields is a broken invariant (no CLI input
    reaches it): RuntimeError, exit 4.  Comparison across fields is
    False, not an error."""
    a = FieldElement.generator(NumberField.get((5, -6, 5), 0))
    b = FieldElement.generator(NumberField.get((5, -6, 5), 1))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(RuntimeError, match="field mismatch"):
            op()
    assert not a == b and a != b


def _conjugate_pair_x2_x_4():
    """The normalized roots r/2 of x^2 - x + 4 (modulus 1, minimal
    polynomial 2x^2 - x + 2), as elements of the two fields of x^2 - x + 4."""
    from robustlrs.lrs import InitialConfig, normalize
    form, _ = normalize(Lrr((Q(-4), Q(1))), InitialConfig((Q(1), Q(1))))
    return [g for _, g in form.terms]


def _recording_field_cache(monkeypatch):
    built = []
    fresh = functools.lru_cache(maxsize=None)(NumberField)
    monkeypatch.setattr(algebraic, "_field_cache",
                        lambda mp, idx: built.append(mp) or fresh(mp, idx))
    return built


def test_equals_on_disjoint_boxes_seeds_no_root_field(monkeypatch):
    """gamma and conj(gamma) of x^2 - x + 4, normalized, have disjoint
    64-bit boxes: `equals` answers False before any field of their minimal
    polynomial 2x^2 - x + 2 is seeded."""
    a, b = _conjugate_pair_x2_x_4()
    assert a._defining_ints() == b._defining_ints() == (2, -1, 2)
    built = _recording_field_cache(monkeypatch)
    assert not a.equals(b) and not b.equals(a)
    assert built == []
    assert a.equals(a)


@pytest.mark.parametrize("minpoly, unit", [
    ((5, -6, 5), True),             # (3 +- 4i)/5
    ((1, 1, 1, 1, 1), True),        # primitive fifth roots of unity
    ((2, 1, 2, 1, 2), True),        # unit circle, not cyclotomic
    ((1, -3, 1), False),            # real, 1/z a root
    ((1, 1, 3, 1, 1), False),       # complex, moduli 1.54 and 0.65
    ((4, -1, 1), False),            # 1/z not a root
])
def test_on_unit_circle_for_every_root(minpoly, unit, monkeypatch):
    """`_on_unit_circle` answers for each root of the minimal polynomial;
    a non-unit root whose conjugate and inverse boxes are disjoint at the
    first rung seeds no field of the other roots."""
    for idx in range(len(minpoly) - 1):
        f = NumberField(minpoly, idx)
        built = _recording_field_cache(monkeypatch)
        assert algebraic._on_unit_circle(minpoly, f.root_box) is unit
        if not unit:
            assert built == []


def _inverse_substitution(e, x):
    """sum c_i x^i from the powers of x: the former loop of `conj_in_field`
    and `_as_common_field`, the reference for `FieldElement.at`."""
    acc = FieldElement.const(x.field, Q(0))
    for i, c in enumerate(e.coeffs):
        acc = acc + x.pow(i) * c
    return acc


def _sample_elements(field, rng):
    d = field.degree
    out = [FieldElement.const(field, Q(0)), FieldElement.const(field, Q(-3, 7)),
           FieldElement.generator(field)]
    out += [FieldElement(field, [Q(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(d)]) for _ in range(4)]
    return out


# minimal polynomial: whether its complex roots are of modulus 1
SHARED_PATH_FIELDS = {
    (1, -1, 1): True,               # x^2 - x + 1, primitive sixth roots
    (5, -6, 5): True,               # (3 +- 4i)/5
    (1, 0, 0, 0, 1): True,          # x^4 + 1
    (1, 0, -1, 0, 1): True,         # x^4 - x^2 + 1
    (1, -1, -1, -1, 1): True,       # Salem quartic: two real roots, one unit pair
    (2, 0, 0, 0, 1): False,         # x^4 + 2, modulus 2^(1/4)
}


@pytest.mark.parametrize("minpoly", list(SHARED_PATH_FIELDS))
def test_change_of_embedding_matches_former_formulas(minpoly):
    """`at`, `root_exchanged` and `conj_in_field` give, element for element,
    what the former loops gave: sum c_i x^i from powers, `pcompose` with
    s - x, and the inverse substitution for a unit-modulus generator; and
    the conjugate's box meets the mirrored box of the element."""
    rng = random.Random(sum(minpoly) + len(minpoly))
    d = len(minpoly) - 1
    fields = [NumberField.get(minpoly, i) for i in range(d)]
    for f in fields:
        gen = FieldElement.generator(f)
        points = [gen.inverse(), gen * gen + 1] + _sample_elements(f, rng)[3:5]
        for e in _sample_elements(f, rng):
            for x in points:
                assert e.at(x) == _inverse_substitution(e, x)
            if d == 2:
                for g in fields:
                    s = -g.minpoly_q[1]
                    assert e.root_exchanged(g) == FieldElement(
                        g, pcompose(e.coeffs, (s, Q(-1))))
            if f.is_real_root:
                expected = e
            elif d == 2:
                expected = FieldElement(f, pcompose(e.coeffs,
                                                    (-f.minpoly_q[1], Q(-1))))
            elif SHARED_PATH_FIELDS[minpoly]:
                expected = _inverse_substitution(e, gen.inverse())
            else:
                expected = None
            cj = e.conj_in_field()
            assert (cj is None) if expected is None else cj == expected
            if cj is not None:
                for bits in (64, 128):
                    assert not cj.box(bits).disjoint(e.box(bits).conj())


def test_conj_in_field_decides_unit_modulus_once_per_field(monkeypatch):
    """A complex field of degree 4 asks the unit-circle test through the
    cached generator case: one `_same_root_of` per field, however many
    conjugates are taken.  2x^4 + x^3 + 2x^2 + x + 2 has its four roots on
    the unit circle and is not cyclotomic."""
    calls = []
    same_root_of = algebraic._same_root_of
    monkeypatch.setattr(algebraic, "_same_root_of",
                        lambda *args: calls.append(args[0]) or same_root_of(*args))
    rng = random.Random(4)
    minpoly = (2, 1, 2, 1, 2)
    for idx in (0, 2):
        f = NumberField.get(minpoly, idx)
        for e in _sample_elements(f, rng)[1:] * 2:
            cj = e.conj_in_field()
            assert not cj.box(64).disjoint(e.box(64).conj())
        assert AlgebraicNumber.from_root(f).is_unit_modulus()
    assert calls == [minpoly, minpoly]


def test_locate_root_climbs_until_one_root_meets_the_box():
    """`locate_root` answers only when one candidate meets the target: the
    roots 1 +- 2^-40 both meet a box of radius 2^-32 around the lower one
    (64 bits), and only the lower one meets the 128-bit box."""
    e = Q(1, 1 << 40)
    lower = 1 - e
    seen = []

    def box_at(bits):
        seen.append(bits)
        r = Q(1, 1 << (bits // 2))
        return Box(Ival(lower - r, lower + r), Ival(-r, r))

    got = algebraic.locate_root(poly(1 - e * e, -2, 1), box_at, "test")
    assert got.is_rational and got.as_rational() == lower
    assert seen == [64, 128]


def test_defining_poly_of_derived_element():
    f = NumberField.get((-2, 0, 1), 1)  # sqrt(2)
    e = FieldElement(f, (Q(1), Q(1)))  # 1 + sqrt(2)
    a = AlgebraicNumber.from_element(e)
    # minimal polynomial of 1 + sqrt2 is x^2 - 2x - 1
    assert a.defining_poly == (Q(-1), Q(-2), Q(1))


def _defining_ints_by_resultant(a):
    """The minimal polynomial of a field element as the one factor of
    Res_y(M(y), x - A(y)) that vanishes on the element's box: the sympy
    route, the reference for the characteristic-polynomial route."""
    import sympy
    from robustlrs.poly import from_sympy, peval_box
    from robustlrs.qmath import precisions
    e = a.elem
    x, y = sympy.symbols("x y")
    my = sum(c * y ** i for i, c in enumerate(e.field.minpoly))
    ay = sum(sympy.Rational(c.numerator, c.denominator) * y ** i
             for i, c in enumerate(e.coeffs))
    res = sympy.Poly(sympy.resultant(my, x - ay, y), x)
    cands = [fac for fac, _ in factor_int(from_sympy(res)) if len(fac) > 1]
    for bits in precisions(64, "reference identification"):
        b = a.box(bits)
        alive = [fac for fac in cands
                 if not peval_box([Q(c) for c in fac], b).disjoint(Box.point(0))]
        if len(alive) == 1:
            return alive[0]


@pytest.mark.parametrize("minpoly", [
    (-2, 0, 1), (1, 1, 1), (3, -2, 1),            # degree 2
    (-2, 0, 0, 1), (3, 1, 0, 1), (-1, -1, 0, 1),  # degree 3
    (1, 0, 0, 0, 1), (5, 0, -2, 0, 1), (1, 1, 1, 1, 1),  # degree 4
])
def test_defining_ints_matches_resultant(minpoly):
    """Random elements of every embedding, subfield elements included
    (x^2 in Q(zeta_8) and in Q[x]/(x^4 - 2x^2 + 5)), get the same minimal
    polynomial from the traces of their powers as from the resultant."""
    rng = random.Random(sum(minpoly) * 31 + len(minpoly))
    d = len(minpoly) - 1
    for idx in range(d):
        f = NumberField.get(minpoly, idx)
        elems = [FieldElement(f, [Q(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                                  for _ in range(d)]) for _ in range(3)]
        elems.append(FieldElement(f, (Q(1),) + (Q(0),) * (d - 2) + (Q(-2),)))
        x2 = FieldElement(f, (Q(0), Q(0), Q(1)))
        if d == 4:
            elems.append(x2)
        for e in elems:
            if e.is_rational():
                continue
            got = AlgebraicNumber.from_element(e)._defining_ints()
            assert got == _defining_ints_by_resultant(AlgebraicNumber.from_element(e))
            if e == x2 and minpoly[1] == minpoly[3] == 0:
                assert len(got) == 3    # x^2 lies in a quadratic subfield


@pytest.mark.parametrize("minpoly", [
    (-2, 0, 1), (1, 1, 1), (5, -6, 5),            # degree 2
    (-2, 0, 0, 1), (3, 1, 0, 1),                  # degree 3
    (1, 0, 0, 0, 1), (1, -1, -1, -1, 1),          # degree 4
])
def test_root_fields_match_factor_int_route(minpoly, monkeypatch):
    """`_root_fields` of a minimal polynomial takes its fields by root index
    with no factorization; they are the very fields the factorization of
    the polynomial names, in the same order, with disjoint boxes."""
    want = [algebraic._field_cache(fac, idx)
            for fac, _ in factor_int([Q(c) for c in minpoly]) if len(fac) > 1
            for idx in range(len(fac) - 1)]

    def no_factoring(p):
        raise AssertionError("factor_int called")

    monkeypatch.setattr(algebraic.P, "factor_int", no_factoring)
    got = algebraic._root_fields(minpoly)
    assert len(got) == len(want) == len(minpoly) - 1
    assert all(g is w for g, w in zip(got, want))
    boxes = [f.root_box(32) for f in got]
    assert all(boxes[i].disjoint(boxes[j])
               for i in range(len(boxes)) for j in range(i + 1, len(boxes)))


# -- the bisection replay against sympy's own refinement ---------------------
#
# `algebraic._BisectionPath` replays the path of sympy's
# `CRootOf.eval_rational` (halve the longer side, keep the half holding the
# root, stop when both sides are < 2^-(bits+1), keep the deepest rectangle)
# instead of calling it.  These tests pin that rule for the installed sympy:
# each runs a sequence of seed requests once through the replay and once
# through `eval_rational`, from the same fresh sympy state, and asks for the
# same boxes.


@pytest.fixture
def fresh_roots(monkeypatch):
    """Returns a reset to a fresh sympy root cache (and fresh replays); the
    process's own caches come back after the test."""
    def reset():
        monkeypatch.setattr(rootoftools, "_reals_cache", rootoftools._pure_key_dict())
        monkeypatch.setattr(rootoftools, "_complexes_cache",
                            rootoftools._pure_key_dict())
        monkeypatch.setattr(algebraic, "_PATHS", {})
    return reset


def _box_key(box):
    return (box.re.lo, box.re.hi, box.im.lo, box.im.hi)


def _replay_and_sympy(fresh_roots, monkeypatch, requests):
    """Seed boxes for `requests` [(int poly, root index, bits)], in order,
    from the replay and from sympy's `eval_rational`."""
    def run():
        fresh_roots()
        return [_box_key(algebraic._sympy_expr_box(algebraic._rootof(p, i), bits))
                for p, i, bits in requests]
    replayed = run()
    with monkeypatch.context() as m:
        m.setattr(algebraic._BisectionPath, "centre",
                  lambda self, bits: algebraic._eval_rational(self.root, bits))
        reference = run()
    return replayed, reference


def _both_roots(p, bits_seq):
    return [(p, i, b) for i in (0, 1) for b in bits_seq]


def test_replay_matches_sympy_on_complex_quadratics(fresh_roots, monkeypatch):
    grid = [(c, b, a) for a in (1, 2, 3, 4, 9) for b in range(-8, 9)
            for c in range(1, 14) if b * b < 4 * a * c]
    polys = random.Random(4).sample(grid, 40)
    polys += [(4, -3, 1),   # roots 3/2 +- i sqrt(7)/2: on a vertical split line
              (7, 0, 1)]    # +- i sqrt(7): on the imaginary axis
    requests = [r for p in polys for r in _both_roots(p, [64])]
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert replayed == reference


def test_replay_keeps_sympys_deepest_rectangle(fresh_roots, monkeypatch):
    # 64 then 128 bits, 128 then 64 (sympy keeps the deeper rectangle), and
    # sympy writes a root of x^2+4 as 2 * (a root of x^2+1), so its 64-bit
    # seed refines sympy's x^2+1 root to 68 bits
    requests = (_both_roots((5, 2, 1), [64, 128]) + _both_roots((3, 1, 2), [128, 64])
                + [((1, 0, 1), 1, 64), ((4, 0, 1), 1, 64), ((1, 0, 1), 1, 64),
                   ((4, 0, 1), 0, 64), ((1, 0, 1), 0, 64)])
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert replayed == reference
    assert replayed[-3] != replayed[-5]    # x^2+1 at 64 bits after x^2+4


def _acceptance4_factors(count):
    """Irreducible factors of degree 3-6 with non-real roots, from the
    characteristic polynomials of recurrences drawn as in acceptance 4."""
    rng, out = random.Random(7), []
    while len(out) < count:
        order = rng.randint(1, 6)
        coeffs = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order))
        if coeffs[0] == 0:
            continue
        for fac, _ in factor_int(Lrr(coeffs).char_poly()):
            if len(fac) >= 4 and fac not in out and \
                    not all(algebraic._rootof(fac, i).is_real for i in range(len(fac) - 1)):
                out.append(fac)
    return out[:count]


def test_replay_matches_sympy_on_higher_degree_roots(fresh_roots, monkeypatch):
    # a seeded batch of cubics to sextics, each root landed through its
    # certified enclosure
    requests = []
    for k, fac in enumerate(_acceptance4_factors(8)):
        complex_idx = [i for i in range(len(fac) - 1)
                       if not algebraic._rootof(fac, i).is_real]
        bits_seq = [[64], [64, 128], [128, 64]][k] if k < 3 else [64]
        requests += [(fac, i, b) for i in complex_idx[:2] for b in bits_seq]
    # x^4 + 3x^2 + 1: four roots on the imaginary axis; x^4 - x^2 + 1: roots
    # (+-sqrt(3) +- i) / 2, whose im = 1/2 is the top edge of sympy's
    # rectangle, so each enclosure straddles that edge
    requests += [(p, i, 64) for p in ((1, 0, 3, 0, 1), (1, 0, -1, 0, 1))
                 for i in range(4)]
    fallbacks = []
    fallback = algebraic._BisectionPath._fallback
    monkeypatch.setattr(algebraic._BisectionPath, "_fallback",
                        lambda self, bits: fallbacks.append(bits) or fallback(self, bits))
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert replayed == reference
    assert not fallbacks


def _real_factors(count, seed):
    """Seeded irreducible factors of degree 2-6 with a real root."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 6)))
        if not p[0]:
            continue
        for fac, _ in factor_int(p + (rng.randint(1, 3),)):
            if len(fac) >= 3 and fac not in out and algebraic._rootof(fac, 0).is_real:
                out.append(fac)
    return out[:count]


def test_real_replay_matches_sympy(fresh_roots, monkeypatch):
    """`_real_interval` takes sympy's own continued-fraction steps on
    plain integers: from the same fresh sympy state, each real seed box
    and, afterwards, every interval in sympy's cache are those of
    `eval_rational`, for the request orders 64; 64 then 128; 128 then 64.
    x^2 + 2x - 4 is one that sympy writes as 2 * (a root of y^2 + y - 1);
    the first requests, at 0 and 1 bits, pass an interval of width exactly
    2^-(bits+1), where sympy takes one more step."""
    def sympy_interval(r, bits):
        algebraic._eval_rational(r, bits)
        iv = r._get_interval()
        return algebraic._frac(iv.a), algebraic._frac(iv.b)

    facs = _real_factors(30, 39) + [(-4, 2, 1)]
    assert algebraic._rootof((-4, 2, 1), 0).is_Mul
    assert {len(fac) - 1 for fac in facs} == {2, 3, 4, 5, 6}
    requests = [((-2, 0, 1), 1, 0), ((-5, 0, 1), 1, 1), ((-7, 2, 1), 0, 1)]
    for k, fac in enumerate(facs):
        reals = [i for i in range(len(fac) - 1) if algebraic._rootof(fac, i).is_real]
        requests += [(fac, i, b) for i in reals for b in [[64], [64, 128], [128, 64]][k % 3]]

    def run():
        fresh_roots()
        boxes = [_box_key(algebraic._sympy_expr_box(algebraic._rootof(p, i), bits))
                 for p, i, bits in requests]
        return boxes, {poly: [iv.args for iv in ivs]
                       for poly, ivs in rootoftools._reals_cache._dict.items()}

    replayed = run()
    with monkeypatch.context() as m:
        m.setattr(algebraic, "_real_interval", sympy_interval)
        reference = run()
    assert replayed == reference


def test_lmq_bound_matches_sympys():
    """`_lmq_lower_bound` is `int(dup_root_lower_bound(f))`, with sympy's
    `int(math.log(x, 2))`, which rounds up past floor(log2 x) for
    coefficients just below a large power of two, as drawn here."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_root_lower_bound
    rng = random.Random(39)
    for _ in range(2000):
        f = [rng.choice([1, -1]) * rng.choice([rng.randint(1, 50),
                                               (1 << rng.randint(50, 70)) - rng.randint(1, 3)])
             for _ in range(rng.randint(3, 5))]
        bound = dup_root_lower_bound(f, ZZ)
        assert algebraic._lmq_lower_bound(f) == (0 if bound is None else int(bound)), f


def test_replay_falls_back_to_sympy(fresh_roots, monkeypatch):
    # an undecided side that a Newton step cannot sharpen hands the rest of
    # the request to eval_rational, and the replay then continues from
    # sympy's rectangle: the first cell asked for gets the root put on the
    # middle horizontal line of its rectangle, and its Newton step stalls
    calls = {"n": 0}
    grid_cell, contract = algebraic._grid_cell, algebraic._contract

    def undecided_once(rect, bits, re, im, a=0, b=0):
        calls["n"] += 1
        if calls["n"] == 1:
            u, v, s, t = rect
            im = Ival.point((v + t) / 2)
        return grid_cell(rect, bits, re, im, a, b)

    monkeypatch.setattr(algebraic, "_grid_cell", undecided_once)
    monkeypatch.setattr(algebraic, "_contract",
                        lambda *args: None if calls["n"] == 1 else contract(*args))
    fallbacks = []
    fallback = algebraic._BisectionPath._fallback
    monkeypatch.setattr(algebraic._BisectionPath, "_fallback",
                        lambda self, bits: fallbacks.append(bits) or fallback(self, bits))
    cubic = _acceptance4_factors(1)[0]
    complex_idx = [i for i in range(len(cubic) - 1)
                   if not algebraic._rootof(cubic, i).is_real]
    requests = [((11, 3, 2), 1, 64), ((11, 3, 2), 1, 128), ((11, 3, 2), 1, 64),
                (cubic, complex_idx[0], 64), (cubic, complex_idx[0], 128)]
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert fallbacks == [64]
    assert replayed == reference


def test_point_box_undecided_falls_back(fresh_roots, monkeypatch):
    """The closed-form box of 1 + i, a root of x^2 - 2x + 2, is a point,
    the root itself; put on an inner line of its grid, it cannot be
    sharpened, and the request goes to sympy's refinement."""
    grid_cell = algebraic._grid_cell
    monkeypatch.setattr(algebraic, "_grid_cell", lambda rect, bits, re, im, a=0, b=0:
                        None if bits == 64 else grid_cell(rect, bits, re, im, a, b))
    fallbacks = []
    fallback = algebraic._BisectionPath._fallback
    monkeypatch.setattr(algebraic._BisectionPath, "_fallback",
                        lambda self, bits: fallbacks.append(bits) or fallback(self, bits))
    requests = [((2, -2, 1), 1, 64), ((2, -2, 1), 1, 128)]
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert algebraic._root_enclosures((2, -2, 1))[1].width == 0
    assert fallbacks == [64]
    assert replayed == reference


def test_rectangle_meeting_two_enclosures_falls_back(fresh_roots, monkeypatch):
    """A rectangle that meets the certified boxes of two roots names
    neither, and the request goes to sympy's refinement: here every
    rectangle of x^4 - x^2 + 1 is widened to hold both roots
    (+-sqrt(3) + i) / 2."""
    corners = algebraic._corners

    def wide(iv):
        u, v, s, t = corners(iv)
        return u - 2, v, s + 2, t

    monkeypatch.setattr(algebraic, "_corners", wide)
    fallbacks = []
    fallback = algebraic._BisectionPath._fallback
    monkeypatch.setattr(algebraic._BisectionPath, "_fallback",
                        lambda self, bits: fallbacks.append(bits) or fallback(self, bits))
    requests = [((1, 0, -1, 0, 1), i, 64) for i in range(4)]
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert fallbacks == [64] * 4
    assert replayed == reference


def _cubic_path(fresh_roots):
    """The replay of a non-real root of a cubic, once its certified box is
    known."""
    fresh_roots()
    cubic = _acceptance4_factors(1)[0]
    index = next(i for i in range(len(cubic) - 1)
                 if not algebraic._rootof(cubic, i).is_real)
    path = algebraic._bisection_path(algebraic._rootof(cubic, index))
    path.centre(64)
    assert path.enc is not None
    return path


def _shift_rectangles(monkeypatch):
    """Every rectangle taken from sympy from now on lies 1 to the right."""
    corners = algebraic._corners

    def shifted(iv):
        u, v, s, t = corners(iv)
        return u + 1, v, s + 1, t

    monkeypatch.setattr(algebraic, "_corners", shifted)


def test_fallback_off_a_cubic_root_raises(fresh_roots, monkeypatch):
    """Once the root's box is known, a centre sympy returns off it, or a
    rectangle its refinement leaves off it, is an internal fault for every
    degree; sympy's own centre and rectangle pass."""
    path = _cubic_path(fresh_roots)
    right = algebraic._eval_rational(path.root, 64)
    assert path._fallback(64) == right
    d = Q(1, 1 << 40)
    with monkeypatch.context() as m:
        for wrong in ((right[0] + d, right[1]), (right[0], right[1] + d)):
            m.setattr(algebraic, "_eval_rational", lambda r, bits: wrong)
            with pytest.raises(RuntimeError, match="where no root lies"):
                path._fallback(64)
    _shift_rectangles(monkeypatch)
    with pytest.raises(RuntimeError, match="where no root lies"):
        path._fallback(64)


def test_deeper_rectangle_off_a_cubic_root_raises(fresh_roots, monkeypatch):
    """A deeper rectangle sympy has cached, taken after the root's box is
    known, must still meet that box: shifted off it, the replay raises
    instead of landing on an edge cell."""
    import sympy
    path = _cubic_path(fresh_roots)
    dx = sympy.Rational(1, 1 << 129)
    path.root.eval_rational(dx=dx, dy=dx)
    _shift_rectangles(monkeypatch)
    with pytest.raises(RuntimeError, match="where no root lies"):
        path.centre(128)


# -- sympy's bisection grid, cell by cell ------------------------------------
#
# `algebraic._grid_cell` lands in one step where sympy's bisection lands
# one halving at a time; the per-halving walk, kept in `tests/oracles.py`,
# is its reference on synthetic rectangles, one test per rule.

_RECTS = [(Q(0), Q(0), Q(1), Q(1)), (Q(-2), Q(0), Q(2), Q(2)),
          (Q(-1, 3), Q(1, 5), Q(2, 7), Q(3, 4)), (Q(5, 8), Q(1, 8), Q(7, 8), Q(1)),
          (Q(-3), Q(7, 9), Q(-1, 11), Q(1, 1)), (Q(1, 6), Q(0), Q(1, 2), Q(3))]


def _grid_lines(lo, hi, bits):
    """The lines of the grid `_grid_cell` puts over [lo, hi] at `bits`."""
    n = 1 << math.floor((hi - lo) * (1 << (bits + 1))).bit_length()
    return [lo + (hi - lo) * j / n for j in range(n + 1)], n


def _check_cell(rect, bits, re, im, a=0, b=0):
    # on sympy's [-B, B] x [0, B], k halvings give a, b = (k+1)//2, k//2
    want = walk(rect, bits, re, im, a + b)
    got = algebraic._grid_cell(rect, bits, re, im, a, b)
    assert got == want, (rect, bits, re, im, a, b)
    return got


def test_grid_size_is_the_fewest_halvings_below_the_width():
    """a and b are bit_length(floor(side 2^(bits+1))) whatever order the
    walk takes: wide, tall and square rectangles, sides on and off a power
    of two, and roots anywhere inside."""
    rng = random.Random(38)
    for bits in (2, 5, 9, 64):
        eps = Q(1, 1 << (bits + 1))
        for _ in range(40):
            u, v = Q(rng.randint(-50, 50), 17), Q(rng.randint(0, 50), 19)
            w = eps * rng.choice([Q(1, 3), 1, Q(8, 7), 2, 5, 64, 100, 1 << 20])
            h = eps * rng.choice([Q(1, 2), 1, 3, 16, 33, 1 << 12, 1 << 21])
            rect = (u, v, u + w, v + h)
            # off every inner horizontal line: no k / 1001 is j / 2^b
            re = u + w * Q(rng.randint(0, 1001), 1001)
            im = (v + h * Q(rng.randint(1, 1001), 1001)) ** 2
            cu, cv, cs, ct = _check_cell(rect, bits, re, im)
            assert cs - cu == w / (1 << math.floor(w / eps).bit_length())
            assert ct - cv == h / (1 << math.floor(h / eps).bit_length())


def test_grid_column_of_a_root_on_a_vertical_line_is_the_right_one():
    """A column is floor((x - u) / w), clamped to the last column: a root
    on any vertical line goes right, one on the right edge lands in the
    last column."""
    for rect in _RECTS:
        u, v, s, t = rect
        im = ((v + t) / 2 + (t - v) / 1000) ** 2
        lines, n = _grid_lines(u, s, 3)
        for j, x in enumerate(lines):
            cell = _check_cell(rect, 3, x, im)
            assert cell[0] == lines[min(j, n - 1)]


def test_grid_row_of_an_exact_square():
    """A row from the exact square X is floor((sqrt(X) - v) / h): on an
    inner horizontal line it is undecided (the closed-form seed leaves the
    root to the replay), on the bottom or top edge it is the first or last
    row, and off the lines it is the row the walk reaches."""
    for rect in _RECTS:
        u, v, s, t = rect
        re = u + (s - u) / 3
        lines, n = _grid_lines(v, t, 3)
        for j, y in enumerate(lines):
            cell = _check_cell(rect, 3, re, y * y)
            assert (cell is None) == (0 < j < n)
            if cell is not None:
                assert cell[1] == lines[min(j, n - 1)]
            for off in (Q(1, 10 ** 9), (t - v) / (3 * n)):
                if y + off < t:
                    assert _check_cell(rect, 3, re, (y + off) ** 2)[1] == y
                if y - off > v:
                    assert _check_cell(rect, 3, re, (y - off) ** 2)[1] == lines[j - 1]


def test_grid_cell_of_an_enclosure():
    """An enclosure decides a side when both ends lie in one cell; a row
    also needs its lower end off every inner line.  Ends on lines, inside
    cells, on the edges and outside the rectangle, in both sides."""
    for rect in _RECTS:
        u, v, s, t = rect
        xs, nx = _grid_lines(u, s, 2)
        ys, ny = _grid_lines(v, t, 2)
        w, h = (s - u) / nx, (t - v) / ny
        x_pts = sorted({u - w, *xs, *(x + w / 3 for x in xs), s + w})
        y_pts = sorted({v - h, *ys, *(y + h / 5 for y in ys), t + h})
        im_mid = Ival(v + (t - v) / 2 + h / 7, v + (t - v) / 2 + h / 6)
        re_mid = Ival(u + w / 3, u + w / 2)
        decided = 0
        for lo, hi in itertools.combinations_with_replacement(x_pts, 2):
            decided += _check_cell(rect, 2, Ival(lo, hi), im_mid) is not None
            decided += _check_cell(rect, 2, (lo + hi) / 2, Ival(lo, hi)) is not None
        for lo, hi in itertools.combinations_with_replacement(y_pts, 2):
            cell = _check_cell(rect, 2, re_mid, Ival(lo, hi))
            assert cell is None or lo not in ys[1:-1]
            decided += cell is not None
        assert decided > 0


def test_grid_side_below_the_width_gets_no_halving():
    """A side already below 2^-(bits+1) is not halved: a small rectangle
    is its own cell, and a thin one is cut along its long side only."""
    eps = Q(1, 1 << 65)
    rect = (Q(1, 3), Q(1, 7), Q(1, 3) + eps / 2, Q(1, 7) + eps * Q(9, 10))
    re, im = Q(1, 3) + eps / 5, (Q(1, 7) + eps / 3) ** 2
    assert _check_cell(rect, 64, re, im) == rect
    assert _check_cell(rect, 64, Ival(rect[0], rect[2]), Ival(rect[1], rect[3])) == rect
    thin = (Q(1, 3), Q(1, 7), Q(1, 3) + eps / 2, Q(1, 7) + 5 * eps)
    u, v, s, t = _check_cell(thin, 64, re, im)
    assert (u, s) == (thin[0], thin[2]) and t - v == 5 * eps / 8


def test_grid_at_a_given_depth_is_sympys_isolation():
    """Given a and b, the cell is the walk's after k halvings of sympy's
    order on [-B, B] x [0, B] (2^((k+1)//2) columns, 2^(k//2) rows), or
    deeper where the width asks for it."""
    rng = random.Random(37)
    for _ in range(60):
        big = Q(rng.randint(1, 40), rng.randint(1, 7))
        rect = (-big, Q(0), big, big)
        re = big * Q(rng.randint(-999, 999), 1000)
        im = (big * Q(rng.randint(1, 999), 1000)) ** 2
        for k in (1, 2, 7, 30, 31):
            for bits in (1, 4, 20):
                _check_cell(rect, bits, re, im, (k + 1) // 2, k // 2)


# 9x^2 - 12x + 8 has the roots 2/3 +- 2/3 i; sympy 1.14's own refinement
# puts them at 4/3 +- 4/3 i.
_NINE = (8, -12, 9)


@pytest.mark.parametrize("index", [0, 1])
def test_root_boxes_hold_the_exact_quadratic_root(fresh_roots, index):
    fresh_roots()
    field = NumberField(_NINE, index)
    im = Q(2, 3) if index == 1 else Q(-2, 3)
    for bits in (64, 128):
        box = field.root_box(bits)
        assert box.contains(Q(2, 3), im) and box.width <= Q(1, 1 << 63)


@pytest.mark.parametrize("index", [0, 1])
def test_fallback_checks_sympys_quadratic_root(fresh_roots, monkeypatch,
                                               index):
    """An undecided side hands the request to sympy's `eval_rational`; the
    box of half-side 2^-(bits+1) about its centre must meet the root's
    certified box, for a quadratic the closed-form one, or the request is
    an internal fault."""
    fresh_roots()
    r = algebraic._rootof(_NINE, index)
    sign = -1 if algebraic._bisection_path(r).conj else 1
    exact = (Q(2, 3), sign * Q(2, 3))
    eps = Q(1, 1 << 65)
    with monkeypatch.context() as m:
        m.setattr(algebraic, "_eval_rational", lambda r, bits: exact)
        assert algebraic._bisection_path(r)._fallback(64) == exact
        for wrong in ((Q(4, 3), sign * Q(4, 3)), (Q(2, 3), -sign * Q(2, 3)),
                      (Q(2, 3) + 2 * eps, exact[1]),
                      (Q(2, 3), exact[1] + 2 * eps)):
            m.setattr(algebraic, "_eval_rational", lambda r, bits: wrong)
            with pytest.raises(RuntimeError, match="where no root lies"):
                algebraic._bisection_path(r)._fallback(64)
    # sympy's own answer is either right or refused
    fresh_roots()
    try:
        re, im = algebraic._bisection_path(r)._fallback(64)
    except RuntimeError:
        return
    assert abs(re - exact[0]) <= eps and abs(im - exact[1]) <= eps


def test_sympy_rectangle_off_the_quadratic_root_raises(fresh_roots,
                                                       monkeypatch):
    """After sympy's own refinement of a root of 9x^2 - 12x + 8 to a
    rectangle about 4/3 + 4/3 i, a replay that would take that rectangle,
    when it is built or as a deeper cached one in `centre`, raises
    instead of seeding the field."""
    import sympy
    monkeypatch.setattr(algebraic, "_field_cache",
                        functools.lru_cache(maxsize=None)(NumberField))
    dx = sympy.Rational(1, 1 << 65)
    fresh_roots()
    algebraic._rootof(_NINE, 1).eval_rational(dx=dx, dy=dx)
    with pytest.raises(RuntimeError, match="where no root lies"):
        NumberField(_NINE, 1).root_box(64)
    fresh_roots()
    r = algebraic._rootof(_NINE, 1)
    path = algebraic._bisection_path(r)
    r.eval_rational(dx=dx, dy=dx)
    with pytest.raises(RuntimeError, match="where no root lies"):
        path.centre(64)


def test_rectangle_check_on_every_side(fresh_roots):
    """The rectangle check compares the root's closed-form box with each
    side: a rectangle beside, below or above 2/3 + 2/3 i (sympy's
    coordinates) misses it and raises, one around it or with the root on
    its edge meets it."""
    fresh_roots()
    path = algebraic._bisection_path(algebraic._rootof(_NINE, 1))
    h = Q(1, 1 << 20)
    r = Q(2, 3)
    for rect, holds in [((r - h, r - h, r + h, r + h), True),
                        ((r, r, r + h, r + h), True),
                        ((r - h, r - h, r, r), True),
                        ((r + h, r - h, r + 2 * h, r + h), False),
                        ((r - 2 * h, r - h, r - h, r + h), False),
                        ((r - h, r + h, r + h, r + 2 * h), False),
                        ((r - h, r - 2 * h, r + h, r - h), False),
                        ((r - h, -r - h, r + h, -r + h), False)]:
        path.rect = rect
        if holds:
            assert path._enclosure() is path.enc is not None, rect
        else:
            with pytest.raises(RuntimeError, match="where no root lies"):
                path._enclosure()


def test_closed_form_boxes_hold_the_quadratic_roots():
    """Both boxes `_root_enclosures` gives a non-real quadratic hold its
    exact roots, compared exactly: re = -b / 2a and im.lo^2 <= X <= im.hi^2
    for X = im^2 = (4ac - b^2) / 4a^2, on a seeded grid with coefficients
    up to 2^141."""
    rng = random.Random(40)
    polys = _sampled_quadratics(300, 40) + _DEEP_ISOLATION + _ON_A_LINE
    while len(polys) < 400:
        c, a = (rng.randint(1, 1 << rng.randint(1, 141)) for _ in range(2))
        b = rng.randint(-1, 1) * math.isqrt(4 * a * c - 1)
        polys.append((c, b, a))
    for c, b, a in polys:
        X = Q(4 * a * c - b * b, 4 * a * a)
        assert X > 0
        lower, upper = algebraic._root_enclosures((c, b, a))
        assert lower.disjoint(upper)
        for box, im in ((lower, -lower.im), (upper, upper.im)):
            assert box.re.lo == box.re.hi == Q(-b, 2 * a), (c, b, a)
            assert 0 < im.lo and im.lo ** 2 <= X <= im.hi ** 2, (c, b, a)


@pytest.mark.parametrize("coeffs", [(Q(-8, 9), Q(4, 3)),
                                    (Q(-18, 25), Q(6, 5))],
                         ids=["9x^2-12x+8", "25x^2-30x+18"])
def test_positivity_on_quadratics_sympy_misplaces(fresh_roots, coeffs):
    # sympy's eval_rational puts these roots at twice their value; the
    # replay's rectangles hold them, so the answer stands
    from robustlrs.decide import Analysis, exists_robust_positivity
    from robustlrs.lrs import InitialConfig
    fresh_roots()
    start = InitialConfig((Q(1), Q(0)))
    assert exists_robust_positivity(
        Analysis.build(Lrr(coeffs), start)).verdict == "NO"


# -- closed-form seeds of non-real quadratic roots ---------------------------
#
# `algebraic._quadratic_seed` computes the cell of sympy's bisection grid
# that the replay above reaches from a fresh sympy state, without sympy.
# The replay started from a fresh sympy state stays its oracle.

_SEED_CASES = [(16, -4, 1),   # 2 +- 2 sqrt(3) i: on a vertical line
               (12, -4, 3),   # sympy's 2 * (a root of 3y^2 - 2y + 3)
               (4, -3, 1),    # 3/2 +- i sqrt(7)/2: on a vertical line
               (7, 0, 1),     # +- i sqrt(7): on the imaginary axis
               (5, -6, 5)]    # 3/5 +- 4/5 i: on a vertical line
_ON_A_LINE = [(1, 0, 1), (4, 0, 1), (2, -2, 1), _NINE]
# roots nearer an axis than 2^-65, where sympy's isolation, which stops at
# the first cell clear of both axes, goes deeper than a 64-bit seed: re
# = -+2^-71 on a vertical line, im about 2^-70, and im = 2^-70 / sqrt(3)
# on the imaginary axis
_DEEP_ISOLATION = [(1, 1, 2 ** 70), (1, -1, 2 ** 70),
                   (2 ** 140 + 1, -2 ** 141 - 1, 2 ** 140 + 1),
                   (1, 0, 3 * 2 ** 139)]


def _sampled_quadratics(count, seed):
    rng, out = random.Random(seed), []
    while len(out) < count:
        p = (rng.randint(1, 48), rng.randint(-24, 24), rng.randint(1, 12))
        if p[1] ** 2 < 4 * p[0] * p[2] and math.gcd(*p) == 1 and p not in out:
            out.append(p)
    return out


def test_quadratic_seed_matches_the_fresh_replay(fresh_roots):
    routed = 0
    for p in _SEED_CASES + _DEEP_ISOLATION + _sampled_quadratics(400, 37):
        fresh_roots()
        for index in (0, 1):
            for bits in (64, 128, 256):
                got = algebraic._quadratic_seed(p, index, bits)
                if got is None:
                    assert p not in _SEED_CASES
                    routed += 1
                    continue
                want = algebraic._sympy_expr_box(algebraic._rootof(p, index), bits)
                assert _box_key(got) == _box_key(want), (p, index, bits)
    assert routed < 60


def test_integer_basis_matches_sympys_preprocess_roots():
    """`_integer_basis` is sympy's: `preprocess_roots` writes the root of
    c2 x^2 + c1 x + c0 as d times a root of c2 y^2 + (c1/d) y + c0/d^2."""
    import sympy
    from sympy.polys.polyroots import preprocess_roots
    x = sympy.Symbol("x")
    cases = _SEED_CASES + _sampled_quadratics(200, 38) + [
        (c0, c1, c2) for c2 in (1, 2, 3) for c1 in (0, 2, -6, 12, -36)
        for c0 in (4, 9, 18, 36, 72, 144) if math.gcd(c0, c1, c2) == 1]
    bases = 0
    for c0, c1, c2 in cases:
        coeff, reduced = preprocess_roots(sympy.Poly(c2 * x**2 + c1 * x + c0, x))
        d = algebraic._integer_basis(c0, c1, c2)
        assert coeff == (d or 1), (c0, c1, c2)
        want = [c2, c1 // (d or 1), c0 // (d or 1) ** 2]
        assert [int(c) for c in reduced.all_coeffs()] == want, (c0, c1, c2)
        bases += d is not None
    assert bases >= 10


@pytest.mark.parametrize("minpoly", _ON_A_LINE,
                         ids=["x^2+1", "x^2+4", "x^2-2x+2", "9x^2-12x+8"])
def test_roots_on_a_horizontal_grid_line_take_the_replay(fresh_roots,
                                                         monkeypatch, minpoly):
    fresh_roots()
    replayed = []
    expr_box = algebraic._sympy_expr_box
    monkeypatch.setattr(algebraic, "_sympy_expr_box",
                        lambda r, bits: replayed.append(bits) or expr_box(r, bits))
    for index in (0, 1):
        assert algebraic._quadratic_seed(minpoly, index, 64) is None
        replayed.clear()
        NumberField(minpoly, index).root_box(64)
        assert replayed[:1] == [64]    # then each factor of 2 * root


def test_is_real_root_of_a_quadratic_matches_sympy():
    for p in [(-2, 0, 1), (-1, -1, 1), (1, -3, 1), (-5, 2, 3)] + _SEED_CASES:
        for index in (0, 1):
            assert NumberField(p, index).is_real_root == \
                bool(algebraic._rootof(p, index).is_real), p


def test_quadratic_seeds_do_not_depend_on_earlier_seeds(fresh_roots):
    """sympy names the roots of 3x^2 - 4x + 12 as twice those of
    3y^2 - 2y + 3, and refined that shared root to 68 bits for a 64-bit
    seed: a later 64-bit seed of 3x^2 - 2x + 3 came from sympy's deeper
    rectangle.  Now each seed is a function of the polynomial, the index
    and the bits alone."""
    fresh_roots()
    alone = NumberField((3, -2, 3), 1).root_box(64)
    fresh_roots()
    for index in (0, 1):
        NumberField((12, -4, 3), index).root_box(64)
    after = NumberField((3, -2, 3), 1).root_box(64)
    assert _box_key(after) == _box_key(alone)
    assert max(e.denominator for e in _box_key(alone)).bit_length() <= 69


def test_quadratic_fields_make_no_sympy_root_isolation(fresh_roots,
                                                        monkeypatch):
    """Seeding, `is_real_root` and `conjugate_field` of x^2 - x + 4 and
    13x^2 - 10x + 13 run without sympy's root isolation."""
    def no_isolation(cls, *args, **kwargs):
        raise AssertionError("sympy root isolation")

    fresh_roots()
    monkeypatch.setattr(algebraic, "_field_cache",
                        functools.lru_cache(maxsize=None)(NumberField))
    for name in ("_get_complexes", "_get_reals"):
        monkeypatch.setattr(rootoftools.ComplexRootOf, name,
                            classmethod(no_isolation))
    for minpoly in ((4, -1, 1), (13, -10, 13)):
        for index in (0, 1):
            field = algebraic._field_cache(minpoly, index)
            for bits in (64, 128):
                assert field.root_box(bits).width <= Q(1, 1 << (bits - 1))
            assert not field.is_real_root
            assert field.conjugate_field().root_index == 1 - index
