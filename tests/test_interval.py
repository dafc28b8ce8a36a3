import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from robustlrs import qmath
from robustlrs.interval import Ival, Box, box_ends, imul, mul_ends, round_ends
from robustlrs.qmath import (parse_rational, format_rational, round_down,
                             round_up, sqrt_down, sqrt_up, exact_sqrt,
                             precisions, PrecisionExhausted)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def test_parse_format_roundtrip():
    for s in ["3/4", "-7/2", "5", "0", "-12"]:
        assert format_rational(parse_rational(s)) == s
    with pytest.raises(ValueError):
        parse_rational("1/-2")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@given(rationals)
def test_dyadic_rounding_brackets(x):
    lo, hi = round_down(x, 20), round_up(x, 20)
    assert lo <= x <= hi
    assert hi - lo <= Q(2, 1 << 20)


@given(st.fractions(min_value=0, max_value=10000, max_denominator=997))
def test_sqrt_bounds(x):
    lo, hi = sqrt_down(x, 40), sqrt_up(x, 40)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Q(2, 1 << 40) + Q(1, 1 << 30)


@pytest.mark.parametrize("sqrt", [sqrt_down, sqrt_up])
def test_sqrt_of_a_negative_rational_is_an_internal_fault(sqrt):
    assert sqrt(Q(0), 40) == 0
    with pytest.raises(RuntimeError, match="sqrt of negative rational"):
        sqrt(Q(-1, 1 << 80), 40)


def test_exact_sqrt():
    assert exact_sqrt(Q(9, 4)) == Q(3, 2)
    with pytest.raises(ValueError):
        exact_sqrt(Q(2))


def test_precisions_ladder():
    ladder = precisions(64, "x")
    assert [next(ladder) for _ in range(11)] == [64 << i for i in range(11)]
    assert 64 << 10 == qmath.MAX_BITS == 65536
    with pytest.raises(PrecisionExhausted, match="x: undecided at 65536 bits"):
        next(ladder)
    assert issubclass(PrecisionExhausted, RuntimeError)


def test_precisions_reads_cap_when_called(monkeypatch):
    monkeypatch.setattr(qmath, "MAX_BITS", 256)
    seen = []
    with pytest.raises(PrecisionExhausted, match="y: undecided at 256 bits"):
        for bits in precisions(64, "y"):
            seen.append(bits)
    assert seen == [64, 128, 256]


@given(rationals, rationals, rationals, rationals)
def test_containment_add_mul(a, b, c, d):
    # x in [min(a,b), max(a,b)], y in [min(c,d), max(c,d)]
    X = Ival(min(a, b), max(a, b))
    Y = Ival(min(c, d), max(c, d))
    for x in (X.lo, X.hi, X.mid):
        for y in (Y.lo, Y.hi, Y.mid):
            assert (X + Y).contains(x + y)
            assert (X - Y).contains(x - y)
            assert (X * Y).contains(x * y)


@given(rationals, rationals)
def test_box_mul_containment(a, b):
    w = Ival(a - 1, a + 1)
    z = Ival(b - 1, b + 1)
    bx = Box(w, z)
    sq = bx * bx
    # the exact square of the corner point stays inside
    re, im = a - 1, b + 1
    assert sq.contains(re * re - im * im, 2 * re * im)


def test_interval_misc():
    x = Ival(Q(-2), Q(3))
    assert x.abs().lo == 0 and x.abs().hi == 3
    assert x.sq().lo == 0 and x.sq().hi == 9
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    assert Ival(Q(1), Q(2)).inverse().lo == Q(1, 2)


def test_box_pow_matches_exact():
    # (3+4i)/5 is on the unit circle; cube it exactly
    b = Box.point(Q(3, 5), Q(4, 5))
    p3 = b.pow(3)
    assert p3.contains(Q(-117, 125), Q(44, 125))
    pm1 = b.pow(-1)
    assert pm1.contains(Q(3, 5), Q(-4, 5))


def test_sign():
    assert Ival(Q(1), Q(2)).sign() == 1
    assert Ival(Q(-2), Q(-1)).sign() == -1
    assert Ival(Q(0), Q(0)).sign() == 0
    assert Ival(Q(-1), Q(1)).sign() is None


def _interval_of_sign(rng, sign, bits):
    """Integer endpoints of an interval >= 0 (sign 1), <= 0 (sign -1) or
    straddling 0 (sign 0), about `bits` bits wide; a third of the signed
    ones end at 0 and a third are points, [0, 0] among them."""
    m = 1 << bits
    if sign == 0:
        return -rng.randint(1, m), rng.randint(1, m)
    lo = rng.choice((0, rng.randint(1, m), rng.randint(1, m)))
    hi = lo + rng.choice((0, rng.randint(1, m), rng.randint(1, m)))
    return (lo, hi) if sign > 0 else (-hi, -lo)


SIGNS = (1, -1, 0)


def _four_products(a_lo, a_hi, b_lo, b_hi):
    """The min and max of the four end products: the reference interval
    product."""
    cands = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(cands), max(cands)


def _box_product(a, b):
    """The product of two boxes (re lo, re hi, im lo, im hi) from four
    `_four_products`."""
    rr, ii = _four_products(*a[:2], *b[:2]), _four_products(*a[2:], *b[2:])
    ri, ir = _four_products(*a[:2], *b[2:]), _four_products(*a[2:], *b[:2])
    return (rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1])


@pytest.mark.parametrize("bits", (1, 8, 200))
def test_imul_matches_ival_product_in_every_sign_case(bits):
    """`imul` picks the end products whose min and max make the interval
    product, in all nine sign cases of a factor pair."""
    rng = random.Random(bits)
    for sa, sb in itertools.product(SIGNS, repeat=2):
        for _ in range(60):
            a = _interval_of_sign(rng, sa, bits)
            b = _interval_of_sign(rng, sb, bits)
            assert imul(*a, *b) == _four_products(*a, *b), (a, b)


@st.composite
def signed_ivals(draw):
    """A `Fraction` interval >= 0, <= 0, straddling 0 or a point (0
    included), its ends drawn apart from its sign."""
    a, b = sorted((draw(st.fractions(min_value=0, max_value=100,
                                     max_denominator=1000)),
                   draw(st.fractions(min_value=0, max_value=100,
                                     max_denominator=1000))))
    kind = draw(st.sampled_from(("pos", "neg", "straddle", "point")))
    if kind == "pos":
        return Ival(a, b)
    if kind == "neg":
        return Ival(-b, -a)
    if kind == "straddle":
        return Ival(-a, b)
    return Ival.point(draw(st.sampled_from((a, -a))))


def _ends(x):
    return x.lo, x.hi


@given(signed_ivals(), signed_ivals(), signed_ivals(), signed_ivals())
@example(Ival(Q(-2), Q(3)), Ival(Q(-5), Q(1)), Ival(Q(-1, 3), Q(1, 2)),
         Ival(Q(-7), Q(7)))
@example(Ival(Q(0), Q(0)), Ival(Q(-3, 2), Q(-1, 2)), Ival(Q(0), Q(2)),
         Ival(Q(-4), Q(0)))
@settings(max_examples=300)
def test_fraction_classes_match_four_product_reference(a, b, c, d):
    """`Ival.__mul__` (by an interval and by a scalar), `Ival.sq` and
    `Box.__mul__` run the integer kernels on `Fraction` ends; each equals
    the min and max of the four end products, the square with its lower
    end raised to 0 when the interval straddles 0."""
    assert _ends(a * b) == _four_products(*_ends(a), *_ends(b))
    assert _ends(a * b.lo) == _four_products(*_ends(a), b.lo, b.lo)
    assert _ends(b.hi * a) == _four_products(*_ends(a), b.hi, b.hi)
    lo, hi = _four_products(*_ends(a), *_ends(a))
    assert _ends(a.sq()) == (max(lo, 0), hi)
    assert all(type(e) is Q for e in _ends(a.sq()) + _ends(a * b))
    z, w = Box(a, b), Box(c, d)
    got = z * w
    assert (*_ends(got.re), *_ends(got.im)) == \
        _box_product((*_ends(a), *_ends(b)), (*_ends(c), *_ends(d)))
    scaled = z * c
    assert (*_ends(scaled.re), *_ends(scaled.im)) == \
        (*_four_products(*_ends(a), *_ends(c)),
         *_four_products(*_ends(b), *_ends(c)))


def test_round_ends_shifts_match_division_by_a_power_of_two():
    """Over a power of two `den` no smaller than 2^bits, `round_ends`
    rounds by shifts; on random signed ends of every size they equal the
    floor and ceiling divisions of the general form."""
    rng = random.Random(37)
    for _ in range(3000):
        bits = rng.choice((0, 1, 8, 64, 96, 192))
        den = 1 << (bits + rng.choice((0, 1, 2, bits, rng.randint(0, 300))))
        ends = tuple(rng.choice((1, -1)) * rng.randint(0, 1 << rng.randint(0, 500))
                     for _ in range(4))
        want = tuple(-((-e << bits) // den) if i % 2 else (e << bits) // den
                     for i, e in enumerate(ends))
        assert round_ends(ends, den, bits) == want, (ends, den, bits)


def test_round_ends_matches_fraction_and_shift_rounding():
    """`round_ends` floors each lower end and ceils each upper end of a box
    onto the 2^-bits grid: the floor and ceiling of each end as a `Fraction` times
    2^bits and, over 2^(2 bits), the right shifts by `bits` the relation
    screen and the objective's weights ran before."""
    rng = random.Random(7)
    for _ in range(2000):
        bits = rng.choice((1, 8, 96, 200))
        den = rng.choice((1, 3, 1 << bits, 1 << (2 * bits),
                          rng.randint(1, 1 << 300)))
        ends = tuple(rng.choice((0, 1, -1)) * rng.randint(0, 1 << 400)
                     for _ in range(4))
        got = round_ends(ends, den, bits)
        want = tuple((Q(e, den).numerator << bits) // Q(e, den).denominator
                     if i % 2 == 0 else
                     -((-Q(e, den).numerator << bits) // Q(e, den).denominator)
                     for i, e in enumerate(ends))
        assert got == want, (ends, den, bits)
        if den == 1 << (2 * bits):
            assert got == tuple(-(-e >> bits) if i % 2 else e >> bits
                                for i, e in enumerate(ends))


@pytest.mark.parametrize("bits", (1, 8, 200))
def test_mul_ends_matches_box_product_in_every_sign_case(bits):
    """`mul_ends` gives the reference box product's endpoints over the
    product of the denominators, and `Box.__mul__`'s, whatever the signs of
    the four intervals, so each of its four interval products meets all
    nine sign cases."""
    rng = random.Random(bits)
    for signs in itertools.product(SIGNS, repeat=4):
        for _ in range(6):
            ends = [_interval_of_sign(rng, s, bits) for s in signs]
            A, B = rng.choice((1, 3, 1 << bits)), rng.choice((1, 7, 1 << 5))
            a, b = ends[0] + ends[1], ends[2] + ends[3]
            za, zb = (Box(Ival(Q(e[0], D), Q(e[1], D)),
                          Ival(Q(e[2], D), Q(e[3], D)))
                      for e, D in ((a, A), (b, B)))
            want = za * zb
            got = [Q(e, A * B) for e in mul_ends(a, b)]
            assert got == [want.re.lo, want.re.hi, want.im.lo, want.im.hi]
            assert tuple(mul_ends(a, b)) == _box_product(a, b)
            # and on box_ends' own form of the two boxes
            (ea, da), (eb, db) = box_ends(za), box_ends(zb)
            assert [Q(e, da * db) for e in mul_ends(ea, eb)] == got
