import math
import random
from fractions import Fraction as Q

import pytest
from sympy.polys import rootoftools

from robustlrs import algebraic, trig
from robustlrs.interval import Box
from robustlrs.lrs import Lrr
from robustlrs.poly import (PolyRat, peval, pmul, pnorm, separation_bound,
                            factor_int, cyclotomic)
from robustlrs.torus import root_of_unity_alg
from robustlrs.algebraic import (AlgebraicNumber, FieldElement, NumberField,
                                 isolate_roots, power_product_is_one,
                                 identify_root_of_unity)


def poly(*coeffs):
    return PolyRat(tuple(Q(c) for c in coeffs))


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
    for i, c in enumerate(p.coefficients):
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
    with pytest.raises(ValueError):
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


def test_field_element_arithmetic():
    f = NumberField.get((5, -6, 5), 0)
    g = FieldElement.generator(f)
    assert (g * g.inverse()).coeffs == (Q(1),)
    tr = g.trace()
    assert tr == Q(6, 5)  # sum of (3+-4i)/5
    c = g.conj_in_field()
    assert (g * c).coeffs == (Q(1),)  # unit modulus exactly


def test_defining_poly_of_derived_element():
    f = NumberField.get((-2, 0, 1), 1)  # sqrt(2)
    e = FieldElement(f, (Q(1), Q(1)))  # 1 + sqrt(2)
    a = AlgebraicNumber.from_element(e)
    # minimal polynomial of 1 + sqrt2 is x^2 - 2x - 1
    assert a.defining_poly.coefficients == (Q(-1), Q(-2), Q(1))


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
    requests = []
    for k, fac in enumerate(_acceptance4_factors(4)):
        complex_idx = [i for i in range(len(fac) - 1)
                       if not algebraic._rootof(fac, i).is_real]
        bits_seq = [[64], [64, 128], [128, 64], [64]][k]
        requests += [(fac, i, b) for i in complex_idx[:2] for b in bits_seq]
    # x^4 + 3x^2 + 1: four roots on the imaginary axis
    requests += [((1, 0, 3, 0, 1), i, 64) for i in range(4)]
    replayed, reference = _replay_and_sympy(fresh_roots, monkeypatch, requests)
    assert replayed == reference


def test_replay_falls_back_to_sympy(fresh_roots, monkeypatch):
    # an undecided side hands the rest of the request to eval_rational, and
    # the replay then continues from sympy's rectangle
    calls = {"n": 0}
    decide = algebraic._BisectionPath._upper_half

    def undecided_once(self, vertical, m, bits):
        calls["n"] += 1
        return None if calls["n"] == 20 else decide(self, vertical, m, bits)

    monkeypatch.setattr(algebraic._BisectionPath, "_upper_half", undecided_once)
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
