import ast
import math
import random
from fractions import Fraction as Q
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import robustlrs
from robustlrs import trig
from robustlrs.interval import Box, Ival
from robustlrs.trig import (pi_ival, cos_turn, sin_turn, unit_box, unit_ends,
                            atan_ival, angle_from_cos, rotation_order,
                            rotation_power)
from robustlrs.hardness import _rotation_ivals, lagrange_prefix
from robustlrs.qmath import exact_sqrt, is_perfect_square, sqrt_down, sqrt_up

from oracles import (RotScan, walk_to, cos_turn_ival, sin_turn_ival,
                     has_point_mod1_ref, taylor_series_ref, turn_point_ref)

mpmath.mp.dps = 60


def _inside(ival, mp_value, slack=mpmath.mpf("1e-50")):
    return mpmath.mpf(ival.lo.numerator) / ival.lo.denominator - slack <= mp_value \
        <= mpmath.mpf(ival.hi.numerator) / ival.hi.denominator + slack


def test_pi_enclosure():
    p = pi_ival(100)
    assert _inside(p, mpmath.pi)
    assert p.width < Q(1, 1 << 100)


@given(st.fractions(min_value=-3, max_value=3, max_denominator=720))
@settings(max_examples=60)
def test_cos_sin_point_vs_mpmath(r):
    box = unit_box(r, 64)
    c, s = box.re, box.im
    arg = 2 * mpmath.pi * mpmath.mpf(r.numerator) / r.denominator
    assert _inside(c, mpmath.cos(arg))
    assert _inside(s, mpmath.sin(arg))
    assert c.width < Q(1, 1 << 60)
    total = c.sq() + s.sq()
    assert total.contains(Q(1))


def _dyadic(t: Ival) -> tuple[int, int, int]:
    """A dyadic turn interval as integer endpoints over one 2^d, and d."""
    d = max(t.lo.denominator, t.hi.denominator).bit_length() - 1
    return (t.lo.numerator << (d + 1 - t.lo.denominator.bit_length()),
            t.hi.numerator << (d + 1 - t.hi.denominator.bit_length()), d)


def _turn_ival(fn, t: Ival, bits: int) -> Ival:
    """`cos_turn` or `sin_turn` on a dyadic `Ival` turn, as an `Ival`."""
    lo, hi = fn(*_dyadic(t), bits)
    one = 1 << (bits + 2)
    return Ival(Q(lo, one), Q(hi, one))


def test_cos_turn_interval_extrema():
    c = _turn_ival(cos_turn, Ival(Q(-1, 8), Q(1, 8)), 64)
    assert c.hi == 1  # contains the max at angle 0
    s = _turn_ival(sin_turn, Ival(Q(1, 8), Q(3, 8)), 64)
    assert s.hi == 1  # max at quarter turn
    wide = _turn_ival(cos_turn, Ival(Q(0), Q(2)), 64)
    assert wide.lo == -1 and wide.hi == 1
    assert cos_turn(0, 1, 0, 64) == sin_turn(-3, -2, 0, 64) == \
        (-(1 << 66), 1 << 66)


def _endpoints(box):
    return box.re.lo, box.re.hi, box.im.lo, box.im.hi


def _grid_ends(iv: Ival, bits: int) -> tuple[int, int]:
    """An interval on the 2^-(bits + 2) grid as its integer ends."""
    lo, hi = iv.lo * (1 << (bits + 2)), iv.hi * (1 << (bits + 2))
    assert lo.denominator == hi.denominator == 1
    return lo.numerator, hi.numerator


# turns r in [0, 1/8] at which the quarter functions evaluate the series,
# at x = 2 pi r and at x = 2 pi (1/4 - r): dyadic, non-dyadic and the
# boundaries 0 and 1/8 (r = 1/4 gives x = 0 again)
_SERIES_TURNS = (Q(0), Q(1, 8), Q(1, 16), Q(3, 64), Q(5, 1024),
                 Q(12345, 2 ** 20), Q(1, 10), Q(1, 12), Q(7, 60), Q(1, 9),
                 Q(1, 3 * 2 ** 10), Q(999, 8000))


@pytest.mark.parametrize("bits", (64, 96, 232, 512, 1024))
def test_taylor_series_matches_fraction_oracle(bits):
    pi = pi_ival(bits + 8)
    for r in _SERIES_TURNS:
        for x in (pi * (2 * r), pi * (2 * (Q(1, 4) - r))):
            for odd in (0, 1):
                got = trig._taylor_series(x, bits, odd)
                want = _grid_ends(taylor_series_ref(x, bits, odd), bits)
                assert got == want, (r, bits, odd)


def test_point_turns_match_fraction_oracle(monkeypatch):
    """`_point_ends` at the octant boundaries and a few other turns,
    against the same function on the oracle series."""
    turns = [Q(k, 8) for k in range(-8, 17)] + [Q(1, 3), Q(-5, 12), Q(7, 10)]
    got = [trig._point_ends(t.numerator, t.denominator, b)
           for t in turns for b in (64, 200)]
    monkeypatch.setattr(trig, "_taylor_series", lambda x, bits, odd: _grid_ends(
        taylor_series_ref(x, bits, odd), bits))
    want = [trig._point_ends(t.numerator, t.denominator, b)
            for t in turns for b in (64, 200)]
    assert got == want


def _point_turns(rng):
    """Every k/8, k/16 and k/24 for k in [-q, 2q], then 300 seeded turns:
    small and large denominators, dyadic ones and ones just off an octant
    boundary, of either sign."""
    turns = [Q(k, q) for q in (8, 16, 24) for k in range(-q, 2 * q + 1)]
    for _ in range(300):
        kind = rng.randrange(3)
        if kind == 0:
            q = rng.randint(1, 1000)
        elif kind == 1:
            q = 1 << rng.randint(1, 80)
        else:
            turns.append(Q(rng.randint(-8, 16), 8)
                         + rng.choice((1, -1)) * Q(1, rng.randint(2, 1 << 40)))
            continue
        turns.append(Q(rng.randint(-2 * q, 3 * q), q))
    return turns


@pytest.mark.parametrize("bits", (64, 96, 200))
def test_point_ends_match_per_function_reduction(bits):
    """`_point_ends` reduces a turn once into [0, 1/8] for both cos and
    sin; its endpoints are those of `oracles.turn_point_ref`, which
    reduces the turn for each function on its own."""
    one = 1 << (bits + 2)
    for t in _point_turns(random.Random(bits)):
        got = trig._point_ends(t.numerator, t.denominator, bits)
        c, s = turn_point_ref(t, bits)
        assert tuple(Q(e, one) for e in got) == (c.lo, c.hi, s.lo, s.hi), t


@pytest.mark.parametrize("bits", (64, 96, 192))
def test_point_ends_match_reference_at_small_denominators(bits):
    """`_point_ends` at every turn n/q with q <= 24, over a turn and a half
    either way, equals `oracles.turn_point_ref`, which runs the series on
    `Fraction` intervals: a rounding slip in the integer series or in the
    octant reflections moves an end."""
    for q in range(1, 25):
        for n in range(-q, 2 * q + 1):
            c, s = turn_point_ref(Q(n, q), bits)
            assert trig._point_ends(n, q, bits) == \
                (*_grid_ends(c, bits), *_grid_ends(s, bits)), (n, q)


def _point_hull(point_fn, t, bits, top, bottom):
    """cos_turn / sin_turn as the hull of the point enclosures at the
    endpoints, widened to the extremum at the turns top and bottom."""
    if t.width >= 1:
        return Ival(Q(-1), Q(1))
    out = Ival.hull([point_fn(t.lo, bits), point_fn(t.hi, bits)])
    if has_point_mod1_ref(t.lo, t.hi, top):
        out = Ival(out.lo, Q(1))
    if has_point_mod1_ref(t.lo, t.hi, bottom):
        out = Ival(Q(-1), out.hi)
    return out


def _has_point_mod1(lo, hi, q):
    """`trig._has_point_mod1` on dyadic `Fraction` endpoints, over 2^64."""
    d = 64
    return trig._has_point_mod1(int(lo * (1 << d)), int(hi * (1 << d)), d, q)


def test_has_point_mod1_matches_fraction_oracle():
    """Dyadic endpoints at, just off and around 0, 1/4, 1/2 and 3/4 (mod 1),
    widths from 0 to just under and over 1, against the Fraction version."""
    rng = random.Random(13)
    offsets = [Q(0), Q(1, 1 << 60), -Q(1, 1 << 60), Q(1, 1 << 3), -Q(1, 1 << 5)]
    widths = [Q(0), Q(1, 1 << 40), Q(1, 4), Q(1, 2),
              1 - Q(1, 1 << 50), Q(1), 1 + Q(1, 1 << 50)]
    cases = hits = 0
    for base in range(4):
        for shift in range(-2, 3):
            for off in offsets:
                lo = Q(base, 4) + shift + off
                for w in widths:
                    for q in range(4):
                        frac = Q(q, 4)
                        want = has_point_mod1_ref(lo, lo + w, frac)
                        assert _has_point_mod1(lo, lo + w, q) == want
                        hits += want
                        # the same with the point at the upper endpoint
                        hi = lo
                        want = has_point_mod1_ref(hi - w, hi, frac)
                        assert _has_point_mod1(hi - w, hi, q) == want
                        cases += 1
    for _ in range(2000):
        d = rng.randint(0, 64)
        lo = rng.randint(-3 << d, 3 << d)
        hi = lo + rng.randint(0, 2 << d)
        q = rng.randrange(4)
        assert trig._has_point_mod1(lo, hi, d, q) == \
            has_point_mod1_ref(Q(lo, 1 << d), Q(hi, 1 << d), Q(q, 4))
    # both outcomes are exercised, equality at an endpoint included
    assert 0 < hits < cases
    assert trig._has_point_mod1(1, 1, 2, 1)
    assert trig._has_point_mod1(-3, 0, 2, 1)
    assert trig._has_point_mod1(0, 0, 0, 0)
    assert not trig._has_point_mod1(0, 0, 1, 1)
    assert not _has_point_mod1(Q(-1, 2) + Q(1, 1 << 60), Q(1, 4) - Q(1, 1 << 60),
                               1)


def _random_dyadic_turn(rng) -> Ival:
    """A dyadic turn of either sign, of width 0 to just over 1, at depths
    the branch and bound and the hardness lab reach."""
    d = rng.choice((0, 1, 2, 3, rng.randint(4, 64), rng.randint(65, 340)))
    lo = rng.randint(-3 << d, 3 << d)
    width = rng.choice((0, 1, rng.randint(0, 1 << d), (1 << d) - 1,
                        1 << d, (1 << d) + rng.randint(0, 1 << d)))
    return Ival(Q(lo, 1 << d), Q(lo + width, 1 << d))


def _cos_ref(t, bits):
    return turn_point_ref(t, bits)[0]


def _sin_ref(t, bits):
    return turn_point_ref(t, bits)[1]


def test_interval_turns_match_point_hull():
    """cos_turn and sin_turn read their endpoints from the turn table; the
    enclosures are the hull of the point enclosures of `turn_point_ref`."""
    rng = random.Random(10)
    for _ in range(150):
        bits = rng.choice((64, 96, 232))
        t = _random_dyadic_turn(rng)
        assert _endpoints(Box(_turn_ival(cos_turn, t, bits),
                              _turn_ival(sin_turn, t, bits))) == \
            _endpoints(Box(_point_hull(_cos_ref, t, bits, Q(0), Q(1, 2)),
                           _point_hull(_sin_ref, t, bits, Q(1, 4), Q(3, 4)))), \
            (t, bits)


@pytest.mark.parametrize("bits", (64, 96, 160, 232, 320))
def test_integer_turns_match_ival_forms(bits):
    """cos_turn and sin_turn on integer endpoints give the endpoints of
    their `Fraction` interval forms, whatever the depth d the turn is
    written at (the table reduces it to lowest terms)."""
    rng = random.Random(bits)
    one = 1 << (bits + 2)
    for _ in range(300):
        t = _random_dyadic_turn(rng)
        lo, hi, d = _dyadic(t)
        extra = rng.choice((0, 0, 1, 7))
        lo, hi, d = lo << extra, hi << extra, d + extra
        want = (cos_turn_ival(t, bits), sin_turn_ival(t, bits))
        got = (cos_turn(lo, hi, d, bits), sin_turn(lo, hi, d, bits))
        assert [(Q(a, one), Q(b, one)) for a, b in got] == \
            [(iv.lo, iv.hi) for iv in want], (t, d, bits)


def test_unit_box_table_matches_point_enclosures():
    """`unit_ends` on a rational turn reads a table of integers keyed by
    (t mod 1, bits): every entry, over 2^(bits + 2), is the enclosure
    `turn_point_ref` gives at the unreduced turn, endpoint for endpoint,
    and stays so on repeat; `unit_box` is the same entry as a `Box`.  At a dyadic turn the entry is the one `cos_turn` and
    `sin_turn` read from their own table."""
    for bits in (64, 96, 192):
        one = 1 << (bits + 2)
        for n in range(1, 25):
            for k in range(-n, 2 * n):
                t = Q(k, n)
                want = _endpoints(Box(*turn_point_ref(t, bits)))
                for _ in range(2):
                    ends, den = unit_ends(t, bits)
                    assert den == one
                    assert tuple(Q(e, den) for e in ends) == want, (t, bits)
                    assert _endpoints(unit_box(t, bits)) == want, (t, bits)
                if n & (n - 1) == 0:
                    d = n.bit_length() - 1
                    assert trig._turn_ends(k, d, bits) == ends, (t, bits)
                    assert trig._turn_table(t.numerator % t.denominator,
                                            t.denominator, bits) == ends


class _FieldWrites(ast.NodeVisitor):
    """Assignments to a `lo`, `hi`, `re` or `im` attribute anywhere but to
    `self` in an `__init__`, and every call of `setattr`."""

    FIELDS = ("lo", "hi", "re", "im")

    def __init__(self, name):
        self.name = name
        self.func = None
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _targets(self, targets):
        for tgt in targets:
            for attr in ast.walk(tgt):
                if isinstance(attr, ast.Attribute) and attr.attr in self.FIELDS \
                        and not (self.func == "__init__"
                                 and isinstance(attr.value, ast.Name)
                                 and attr.value.id == "self"):
                    self.found.append(f"{self.name}:{attr.lineno}")

    def visit_Assign(self, node):
        self._targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._targets([node.target])
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "setattr":
            self.found.append(f"{self.name}:{node.lineno} setattr")
        self.generic_visit(node)


def test_no_code_assigns_to_box_or_ival_fields():
    """pi_ival hands every caller the same table entry, so no code in the
    package may change a Box or Ival after building it."""
    found = []
    for path in sorted(Path(robustlrs.__file__).parent.glob("*.py")):
        v = _FieldWrites(path.name)
        v.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += v.found
    assert not found, found


@given(st.fractions(min_value=0, max_value=50, max_denominator=100))
@settings(max_examples=40)
def test_atan_point(x):
    v = atan_ival(Ival.point(x), 64)
    assert _inside(v, mpmath.atan(mpmath.mpf(x.numerator) / x.denominator))
    assert v.width < Q(1, 1 << 50)


def test_atan_rejects_negative_arguments():
    with pytest.raises(ValueError, match="x >= 0"):
        atan_ival(Ival(Q(-1, 2), Q(1, 2)), 64)


@given(st.fractions(min_value=-1, max_value=1, max_denominator=512))
@settings(max_examples=60)
def test_angle_from_cos(c):
    a = angle_from_cos(Ival.point(c), 64)
    truth = mpmath.acos(mpmath.mpf(c.numerator) / c.denominator)
    assert _inside(a, truth)


def test_angle_from_cos_wide_interval():
    # a cosine interval reaching past both reflections gets the
    # square-root bounds, which still hold arccos over the whole interval
    a = angle_from_cos(Ival(Q(-9, 10), Q(9, 10)), 64)
    for c in ("-0.9", "0", "0.9"):
        assert _inside(a, mpmath.acos(mpmath.mpf(c)))


def test_rot_scan_tracks_true_angle():
    scan = RotScan(Q(3, 5), Q(4, 5), bits=96)
    theta = math.atan2(4, 3)
    for n in range(1, 2000):
        c, _ = walk_to(scan, n)
        truth = math.cos(n * theta)
        assert c.lo - 1e-12 <= truth <= c.hi + 1e-12
    assert c.width < Q(1, 1 << 70)


# cos of the Niven turns k/order, the reference the Chebyshev pair must meet
_NIVEN_COS = {Q(0): Q(1), Q(1, 6): Q(1, 2), Q(1, 4): Q(0), Q(1, 3): Q(-1, 2),
              Q(1, 2): Q(-1), Q(2, 3): Q(-1, 2), Q(3, 4): Q(0),
              Q(5, 6): Q(1, 2)}


def _niven_reference(p, q, n, bits):
    """(cos, sin) of n theta from the Niven table: cos exact, sin exact or
    a square-root enclosure, signed by the half-turn and the sign of q."""
    order = rotation_order(p)
    k = n % order
    c = _NIVEN_COS[Q(k, order)]
    sign = 0 if 2 * k in (0, order) else (1 if 2 * k < order else -1)
    if q is not None and q < 0:
        sign = -sign
    s2 = 1 - c * c
    if sign == 0:
        sin = Ival.point(0)
    elif is_perfect_square(s2):
        sin = Ival.point(sign * exact_sqrt(s2))
    else:
        mag = Ival(sqrt_down(s2, bits), sqrt_up(s2, bits))
        sin = mag if sign > 0 else -mag
    return Ival.point(c), sin


@pytest.mark.parametrize("p", [Q(1), Q(1, 2), Q(0), Q(-1, 2), Q(-1)])
def test_rotation_power_matches_niven_values(p):
    qs = [None] + ([exact_sqrt(1 - p * p), -exact_sqrt(1 - p * p)]
                   if is_perfect_square(1 - p * p) else [])
    for n in range(25):
        c, _ = rotation_power(p, n)
        assert c == _NIVEN_COS[Q(n % rotation_order(p), rotation_order(p))]
        for q in qs:
            got = _rotation_ivals(p, q, n, 128)
            want = _niven_reference(p, q, n, 128)
            assert [(iv.lo, iv.hi) for iv in got] == \
                [(iv.lo, iv.hi) for iv in want], (p, q, n)


@pytest.mark.parametrize("p,q", [(Q(3, 5), Q(4, 5)), (Q(5, 13), Q(-12, 13)),
                                 (Q(-7, 25), Q(24, 25)),
                                 (Q(-8, 17), Q(-15, 17))])
def test_rotation_power_is_exact_complex_power(p, q):
    re, im = Q(1), Q(0)
    for n in range(41):
        assert rotation_power(p, n) == (re, im / q)
        re, im = re * p - im * q, re * q + im * p


def test_niven_rotation_period6():
    seen = [tuple((iv.lo, iv.hi) for iv in _rotation_ivals(Q(1, 2), None, n,
                                                            128))
            for n in range(1, 13)]
    assert all(lo == hi for (lo, hi), _ in seen)
    assert [lo for (lo, _), _ in seen[:6]] == [Q(1, 2), Q(-1, 2), Q(-1),
                                               Q(-1, 2), Q(1, 2), Q(1)]
    assert seen[:6] == seen[6:]
    # sin(n pi/3) = +-sqrt(3)/2 or 0
    for n in range(1, 13):
        _, s = _rotation_ivals(Q(1, 2), None, n, 128)
        truth = math.sin(n * math.pi / 3)
        assert s.lo - 1e-12 <= truth <= s.hi + 1e-12
        assert s.width < Q(1, 1 << 120)


def test_niven_rotation_rejects_irrational_angle():
    c, s = _rotation_ivals(Q(0), Q(1), 3, 128)   # a quarter turn, 3 times
    assert (c.lo, c.hi, s.lo, s.hi) == (0, 0, -1, -1)
    # an irrational angle takes the turn route, which needs the exact sine
    c, s = _rotation_ivals(Q(3, 5), Q(4, 5), 1, 128)
    assert c.contains(Q(3, 5)) and s.contains(Q(4, 5)) and c.width > 0
    with pytest.raises(ValueError):
        _rotation_ivals(Q(3, 5), None, 1, 128)
    # the dyadic scan of an irrational angle needs the exact sine
    with pytest.raises(ValueError, match="exact sine"):
        lagrange_prefix(Q(3, 5), None, 10)
    assert rotation_order(Q(1, 2)) == 6
    assert rotation_order(Q(3, 5)) is None
