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
from robustlrs.trig import (pi_ival, cos_turn_point, sin_turn_point, cos_turn,
                            sin_turn, unit_box, atan_ival, angle_from_cos,
                            RotScan, niven_rotation, rotation_order)

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
    c = cos_turn_point(r, 64)
    s = sin_turn_point(r, 64)
    arg = 2 * mpmath.pi * mpmath.mpf(r.numerator) / r.denominator
    assert _inside(c, mpmath.cos(arg))
    assert _inside(s, mpmath.sin(arg))
    assert c.width < Q(1, 1 << 60)
    total = c.sq() + s.sq()
    assert total.contains(Q(1))


def test_cos_turn_interval_extrema():
    t = Ival(Q(-1, 8), Q(1, 8))
    c = cos_turn(t, 64)
    assert c.hi == 1  # contains the max at angle 0
    s = sin_turn(Ival(Q(1, 8), Q(3, 8)), 64)
    assert s.hi == 1  # max at quarter turn
    wide = cos_turn(Ival(Q(0), Q(2)), 64)
    assert wide.lo == -1 and wide.hi == 1


def _endpoints(box):
    return box.re.lo, box.re.hi, box.im.lo, box.im.hi


def _taylor_series_fraction(x: Ival, bits: int, odd: int) -> Ival:
    """The series on `Fraction` intervals, every term rounded out to
    bits + 8: the reference oracle of `trig._taylor_series`, which runs
    the same rounding on integers."""
    term = acc = x if odd else Ival.point(1)
    x2 = (x * x).round_out(bits + 8)
    k = 0
    threshold = Q(1, 1 << (bits + 4))
    while True:
        k += 1
        term = (term * x2 * Q(1, (2 * k - 1 + odd) * (2 * k + odd))
                ).round_out(bits + 8)
        if term.hi < threshold:
            acc = acc + Ival(-term.hi, term.hi)
            break
        acc = acc + (term if k % 2 == 0 else -term)
    return acc.round_out(bits + 2).intersect(Ival(Q(-1), Q(1)))


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
                want = _taylor_series_fraction(x, bits, odd)
                assert (got.lo, got.hi) == (want.lo, want.hi), (r, bits, odd)


def test_point_turns_match_fraction_oracle(monkeypatch):
    """cos_turn_point and sin_turn_point at the octant boundaries and a
    few other turns, against the same functions on the oracle series."""
    turns = [Q(k, 8) for k in range(-8, 17)] + [Q(1, 3), Q(-5, 12), Q(7, 10)]
    got = [(cos_turn_point(t, b), sin_turn_point(t, b))
           for t in turns for b in (64, 200)]
    monkeypatch.setattr(trig, "_taylor_series", _taylor_series_fraction)
    want = [(cos_turn_point(t, b), sin_turn_point(t, b))
            for t in turns for b in (64, 200)]
    for (gc, gs), (wc, ws) in zip(got, want):
        assert (gc.lo, gc.hi, gs.lo, gs.hi) == (wc.lo, wc.hi, ws.lo, ws.hi)


def _point_hull(point_fn, t, bits, top, bottom):
    """cos_turn / sin_turn as the hull of the point enclosures at the
    endpoints, widened to the extremum at the turns top and bottom."""
    if t.width >= 1:
        return Ival(Q(-1), Q(1))
    out = Ival.hull([point_fn(t.lo, bits), point_fn(t.hi, bits)])
    if trig._has_point_mod1(t.lo, t.hi, top):
        out = Ival(out.lo, Q(1))
    if trig._has_point_mod1(t.lo, t.hi, bottom):
        out = Ival(Q(-1), out.hi)
    return out


def _has_point_mod1_fraction(lo, hi, frac):
    """The least x = frac (mod 1) with x >= lo, compared with hi in
    `Fraction`s: the reference for the integer test."""
    k = (lo - frac).numerator // (lo - frac).denominator
    candidate = frac + k
    if candidate < lo:
        candidate += 1
    return candidate <= hi


def test_has_point_mod1_matches_fraction_oracle():
    """Dyadic endpoints at, just off and around 0, 1/4, 1/2 and 3/4 (mod 1),
    widths from 0 to just under and over 1, against the Fraction version."""
    rng = random.Random(13)
    fracs = [Q(0), Q(1, 4), Q(1, 2), Q(3, 4)]
    offsets = [Q(0), Q(1, 1 << 60), -Q(1, 1 << 60), Q(1, 1 << 3), -Q(1, 1 << 5)]
    widths = [Q(0), Q(1, 1 << 40), Q(1, 4), Q(1, 2),
              1 - Q(1, 1 << 50), Q(1), 1 + Q(1, 1 << 50)]
    cases = hits = 0
    for base in fracs:
        for shift in range(-2, 3):
            for off in offsets:
                lo = base + shift + off
                for w in widths:
                    for frac in fracs:
                        want = _has_point_mod1_fraction(lo, lo + w, frac)
                        assert trig._has_point_mod1(lo, lo + w, frac) == want
                        hits += want
                        # the same with the point at the upper endpoint
                        hi = lo
                        want = _has_point_mod1_fraction(hi - w, hi, frac)
                        assert trig._has_point_mod1(hi - w, hi, frac) == want
                        cases += 1
    for _ in range(2000):
        den = 1 << rng.randint(0, 64)
        lo = Q(rng.randint(-3 * den, 3 * den), den)
        hi = lo + Q(rng.randint(0, 2 * den), den)
        frac = rng.choice(fracs)
        assert trig._has_point_mod1(lo, hi, frac) == \
            _has_point_mod1_fraction(lo, hi, frac)
    # both outcomes are exercised, equality at an endpoint included
    assert 0 < hits < cases
    assert trig._has_point_mod1(Q(1, 4), Q(1, 4), Q(1, 4))
    assert trig._has_point_mod1(Q(-3, 4), Q(0), Q(1, 4))
    assert not trig._has_point_mod1(Q(-1, 2) + Q(1, 1 << 60), Q(1, 4) - Q(1, 1 << 60),
                                    Q(1, 4))


def test_interval_turns_match_point_hull():
    """cos_turn and sin_turn read their endpoints from the turn table; the
    enclosures are the hull of cos_turn_point / sin_turn_point."""
    rng = random.Random(10)
    for _ in range(150):
        bits = rng.choice((64, 96, 232))
        if rng.random() < 0.5:
            den = 1 << rng.randint(1, 40)
        else:
            den = rng.randint(1, 10 ** 6)
        lo = Q(rng.randint(-2 * den, 2 * den), den)
        t = Ival(lo, lo + Q(rng.randint(0, den), den) / rng.choice((1, 7, 64)))
        assert _endpoints(Box(cos_turn(t, bits), sin_turn(t, bits))) == \
            _endpoints(Box(_point_hull(cos_turn_point, t, bits, Q(0), Q(1, 2)),
                           _point_hull(sin_turn_point, t, bits, Q(1, 4),
                                       Q(3, 4)))), (t, bits)


def test_unit_box_table_matches_point_enclosures():
    """unit_box on a rational turn reads a table keyed by (t mod 1, bits);
    every entry is the enclosure cos_turn_point and sin_turn_point give at
    the unreduced turn, endpoint for endpoint, and stays so on repeat."""
    for bits in (64, 96, 192):
        for n in range(1, 25):
            for k in range(-n, 2 * n):
                t = Q(k, n)
                want = _endpoints(Box(cos_turn_point(t, bits),
                                      sin_turn_point(t, bits)))
                assert _endpoints(unit_box(t, bits)) == want, (t, bits)
                assert _endpoints(unit_box(t, bits)) == want, (t, bits)


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
    """unit_box hands every caller the same table entry, so no code in the
    package may change a Box or Ival after building it."""
    found = []
    for path in sorted(Path(robustlrs.__file__).parent.glob("*.py")):
        v = _FieldWrites(path.name)
        v.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += v.found
    assert not found, found


@given(st.fractions(min_value=-50, max_value=50, max_denominator=100))
@settings(max_examples=40)
def test_atan_point(x):
    v = atan_ival(Ival.point(x), 64)
    assert _inside(v, mpmath.atan(mpmath.mpf(x.numerator) / x.denominator))
    assert v.width < Q(1, 1 << 50)


@given(st.fractions(min_value=-1, max_value=1, max_denominator=512))
@settings(max_examples=60)
def test_angle_from_cos(c):
    a = angle_from_cos(Ival.point(c), 64)
    truth = mpmath.acos(mpmath.mpf(c.numerator) / c.denominator)
    assert _inside(a, truth)
    crude = angle_from_cos(Ival.point(c), 64, crude=True)
    assert _inside(crude, truth)


def test_rot_scan_tracks_true_angle():
    scan = RotScan(Q(3, 5), Q(4, 5), bits=96)
    theta = math.atan2(4, 3)
    for n in range(1, 2000):
        scan.step()
        c = scan.cos_ival()
        truth = math.cos(n * theta)
        assert c.lo - 1e-12 <= truth <= c.hi + 1e-12
    assert scan.cos_ival().width < Q(1, 1 << 70)


def test_niven_rotation_period6():
    seen = [tuple((iv.lo, iv.hi) for iv in niven_rotation(Q(1, 2), None, n))
            for n in range(1, 13)]
    assert all(lo == hi for (lo, hi), _ in seen)
    assert [lo for (lo, _), _ in seen[:6]] == [Q(1, 2), Q(-1, 2), Q(-1),
                                               Q(-1, 2), Q(1, 2), Q(1)]
    assert seen[:6] == seen[6:]
    # sin(n pi/3) = +-sqrt(3)/2 or 0, negated for the other direction
    for n in range(1, 13):
        _, s = niven_rotation(Q(1, 2), None, n)
        truth = math.sin(n * math.pi / 3)
        assert s.lo - 1e-12 <= truth <= s.hi + 1e-12
        assert s.width < Q(1, 1 << 120)
        _, s_neg = niven_rotation(Q(1, 2), Q(-1), n)
        assert (s_neg.lo, s_neg.hi) == (-s.hi, -s.lo)


def test_niven_rotation_rejects_irrational_angle():
    c, s = niven_rotation(Q(0), Q(1), 3)      # a quarter turn, three times
    assert (c.lo, c.hi, s.lo, s.hi) == (0, 0, -1, -1)
    with pytest.raises(ValueError):
        niven_rotation(Q(3, 5), Q(4, 5), 1)
    # the dyadic scan of an irrational angle needs the exact sine
    with pytest.raises(ValueError):
        RotScan(Q(3, 5), None)
    assert rotation_order(Q(1, 2)) == 6
    assert rotation_order(Q(3, 5)) is None
