"""Certified enclosures of pi and circular functions over rational intervals.

Angles are handled in *turns* (multiples of a full revolution) so that
period reduction is exact rational arithmetic; only the final Taylor
evaluation multiplies by an enclosure of 2*pi.  Series remainders are
bounded by the alternating-series criterion after argument reduction.

The Taylor series runs on integers at scale 2^(bits + 8), rounding each
term outward as `Ival.round_out` would, so its enclosures are those of
the same series on `Fraction` intervals, endpoint for endpoint.

`unit_box` at a rational turn reads a bounded table keyed by (turn mod 1,
bits), so the enclosure of each root of unity at each precision is
computed once per process: the finite-torus path of the optimizer and
the root-of-unity tests of `algebraic` and `torus` ask for the same few
constants at every coset and every term.  `cos_turn` and `sin_turn` read
the endpoints of an interval turn from the same table, so a
branch-and-bound child box, whose endpoints are its parent's endpoints
or midpoint, costs about one new point.  Entries are shared, so callers
build new boxes from them and never change them.

`RotScan` iterates the exact rotation by a rational point (p, q) on the
unit circle as a dyadic point plus an error ball.  Rotations are
isometries, so the Euclidean error grows only additively with the number
of steps (naive interval iteration would blow up exponentially).  It is
the one stepper of the dyadic rotation: the hardness lab's integer scans
(`hardness.scan_ball_terms`, `hardness.lagrange_prefix`) consume its
`walk`.  `rotation_power` gives the same powers exactly, and
`niven_rotation` gives the periodic root-of-unity angles exactly, with no
stepping.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .qmath import Q, ZERO, ONE, exact_sqrt, is_perfect_square, sqrt_down, sqrt_up
from .interval import Ival, Box

_PI_CACHE: dict[int, Ival] = {}


def _atan_inv_int(m: int, bits: int) -> Ival:
    """Enclosure of atan(1/m) for integer m >= 2, by alternating series."""
    # terms 1/((2k+1) m^(2k+1)) are strictly decreasing, so consecutive
    # partial sums bracket the limit
    acc_lo = acc_hi = Q(0)
    k = 0
    mpow = m
    threshold = Q(1, 1 << (bits + 8))
    while True:
        term = Q(1, (2 * k + 1) * mpow)
        if k % 2 == 0:
            acc_hi = acc_lo + term
        else:
            acc_lo = acc_hi - term
        if term < threshold:
            break
        k += 1
        mpow *= m * m
    if acc_lo > acc_hi:
        acc_lo, acc_hi = acc_hi, acc_lo
    return Ival(acc_lo, acc_hi).round_out(bits + 4)


def pi_ival(bits: int = 128) -> Ival:
    """Rational enclosure of pi with width below 2^-bits (Machin's formula)."""
    if bits not in _PI_CACHE:
        a = _atan_inv_int(5, bits + 8)
        b = _atan_inv_int(239, bits + 8)
        _PI_CACHE[bits] = (a * 16 - b * 4).round_out(bits + 2)
    return _PI_CACHE[bits]


def _taylor_series(x: Ival, bits: int, odd: int) -> Ival:
    """cos (odd = 0) or sin (odd = 1) on 0 <= x <= 1 (radians): the
    alternating Taylor series x^(2k + odd) / (2k + odd)!.

    x^2 and the terms after the first are integers at scale 2^s, s =
    bits + 8, each floored (lower end) or ceiled (upper end) as
    `round_out(s)` would round the exact interval product; the first term
    (1 or x) is exact and added once at the end."""
    s = bits + 8
    lo, hi = x.lo, x.hi
    x2lo = (lo.numerator ** 2 << s) // lo.denominator ** 2
    x2hi = -((-hi.numerator ** 2 << s) // hi.denominator ** 2)
    if odd:
        tlo = lo.numerator * x2lo // (6 * lo.denominator)
        thi = -(-hi.numerator * x2hi // (6 * hi.denominator))
    else:
        tlo, thi = x2lo >> 1, -(-x2hi >> 1)
    acc_lo = acc_hi = 0    # sum of the terms after the first, scale 2^s
    k = 1
    while thi >= 16:       # term.hi >= 2^-(bits + 4)
        if k % 2:
            acc_lo, acc_hi = acc_lo - thi, acc_hi - tlo
        else:
            acc_lo, acc_hi = acc_lo + tlo, acc_hi + thi
        k += 1
        m = (2 * k - 1 + odd) * (2 * k + odd) << s
        tlo, thi = tlo * x2lo // m, -(-thi * x2hi // m)
    # remainder bounded by the first omitted term (terms decreasing)
    acc_lo, acc_hi = acc_lo - thi, acc_hi + thi
    # round_out(bits + 2) of first term + acc / 2^s, clamped to [-1, 1]
    first_lo, first_hi = (lo, hi) if odd else (ONE, ONE)
    d_lo, d_hi = first_lo.denominator, first_hi.denominator
    one = 1 << (bits + 2)
    out_lo = ((first_lo.numerator << s) + acc_lo * d_lo) // (d_lo << 6)
    out_hi = -((-(first_hi.numerator << s) - acc_hi * d_hi) // (d_hi << 6))
    return Ival(Q(max(out_lo, -one), one), Q(min(out_hi, one), one))


def _cos2pi_quarter(r: Fraction, bits: int) -> Ival:
    """cos(2 pi r) for 0 <= r <= 1/4."""
    if r <= Q(1, 8):
        return _taylor_series(pi_ival(bits + 8) * (2 * r), bits, 0)
    return _taylor_series(pi_ival(bits + 8) * (2 * (Q(1, 4) - r)), bits, 1)


def _sin2pi_quarter(r: Fraction, bits: int) -> Ival:
    """sin(2 pi r) for 0 <= r <= 1/4."""
    if r <= Q(1, 8):
        return _taylor_series(pi_ival(bits + 8) * (2 * r), bits, 1)
    return _taylor_series(pi_ival(bits + 8) * (2 * (Q(1, 4) - r)), bits, 0)


def cos_turn_point(r: Fraction, bits: int = 64) -> Ival:
    """Enclosure of cos(2 pi r) for rational r (r in turns)."""
    r = r - (r.numerator // r.denominator)  # reduce mod 1 into [0, 1)
    if r > Q(1, 2):
        r = 1 - r
    if r <= Q(1, 4):
        return _cos2pi_quarter(r, bits)
    return -_cos2pi_quarter(Q(1, 2) - r, bits)


def sin_turn_point(r: Fraction, bits: int = 64) -> Ival:
    """Enclosure of sin(2 pi r) for rational r (r in turns)."""
    r = r - (r.numerator // r.denominator)
    sign = 1
    if r > Q(1, 2):
        r = 1 - r
        sign = -1
    if r > Q(1, 4):
        r = Q(1, 2) - r
    v = _sin2pi_quarter(r, bits)
    return v if sign == 1 else -v


def _has_point_mod1(lo: Fraction, hi: Fraction, frac: Fraction) -> bool:
    """Is there an x in [lo, hi] with x = frac (mod 1)?  That is, is
    ceil(lo - frac) <= floor(hi - frac), on numerators and denominators."""
    a, b = frac.numerator, frac.denominator
    ld, hd = lo.denominator, hi.denominator
    return (-((a * ld - lo.numerator * b) // (ld * b))
            <= (hi.numerator * b - a * hd) // (hd * b))


def cos_turn(t: Ival, bits: int = 64) -> Ival:
    """Enclosure of cos(2 pi x) for x in t (turns)."""
    if t.width >= 1:
        return Ival(Q(-1), Q(1))
    # endpoints read the turn table; a point interval (a box midpoint) is
    # read once
    out = Ival.hull([unit_box(x, bits).re for x in {t.lo, t.hi}])
    if _has_point_mod1(t.lo, t.hi, ZERO):
        out = Ival(out.lo, ONE)
    if _has_point_mod1(t.lo, t.hi, Q(1, 2)):
        out = Ival(Q(-1), out.hi)
    return out


def sin_turn(t: Ival, bits: int = 64) -> Ival:
    """Enclosure of sin(2 pi x) for x in t (turns)."""
    if t.width >= 1:
        return Ival(Q(-1), Q(1))
    out = Ival.hull([unit_box(x, bits).im for x in {t.lo, t.hi}])
    if _has_point_mod1(t.lo, t.hi, Q(1, 4)):
        out = Ival(out.lo, ONE)
    if _has_point_mod1(t.lo, t.hi, Q(3, 4)):
        out = Ival(Q(-1), out.hi)
    return out


# Keys are the few root-of-unity turns of a problem and the endpoints of
# the branch-and-bound boxes: a child box's endpoints are its parent's
# endpoints or midpoint, read shortly before.  The bound matters because a
# precision climb can reach 2^15 bits, where one entry holds tens of kB.
@lru_cache(maxsize=256)
def _unit_point_box(t: Fraction, bits: int) -> Box:
    """The table entry of `unit_box` for a turn reduced into [0, 1)."""
    return Box(cos_turn_point(t, bits), sin_turn_point(t, bits))


def unit_box(t: Ival | Fraction, bits: int = 64) -> Box:
    """Box enclosing e^(2 pi i x) for x in t (turns).

    A rational turn reads the shared table, so the returned `Box` must not
    be changed."""
    if isinstance(t, Fraction):
        return _unit_point_box(t - (t.numerator // t.denominator), bits)
    return Box(cos_turn(t, bits), sin_turn(t, bits))


def _atan_nonneg(x: Ival, bits: int) -> Ival:
    """atan on an interval with x.lo >= 0."""
    if x.hi > 1:
        # atan(x) = pi/2 - atan(1/x); split at 1 if needed
        if x.lo < 1:
            lo_part = _atan_nonneg(Ival(x.lo, ONE), bits)
            hi_part = _atan_nonneg(Ival(ONE, x.hi), bits)
            return Ival.hull([lo_part, hi_part])
        half_pi = pi_ival(bits + 4) * Q(1, 2)
        return half_pi - _atan_nonneg(x.inverse(), bits)
    # halve the argument until it is at most 1/4
    doublings = 0
    while x.hi > Q(1, 4):
        s = (1 + (1 + x * x).sqrt(bits + 16)).round_out(bits + 16)
        x = (x / s).round_out(bits + 16)
        doublings += 1
    # alternating series on [0, 1/4]
    term = x
    acc = x
    x2 = (x * x).round_out(bits + 16)
    k = 0
    threshold = Q(1, 1 << (bits + 8))
    while True:
        k += 1
        term = (term * x2 * Q(2 * k - 1, 2 * k + 1)).round_out(bits + 16)
        if term.hi < threshold:
            acc = acc + Ival(-term.hi, term.hi)
            break
        acc = acc + (term if k % 2 == 0 else -term)
    return (acc * (1 << doublings)).round_out(bits + 2)


def atan_ival(x: Ival, bits: int = 64) -> Ival:
    if x.lo >= 0:
        return _atan_nonneg(x, bits)
    if x.hi <= 0:
        return -_atan_nonneg(-x, bits)
    return Ival.hull([-_atan_nonneg(Ival(ZERO, -x.lo), bits),
                      _atan_nonneg(Ival(ZERO, x.hi), bits)])


def angle_from_cos(c: Ival, bits: int = 64, crude: bool = False) -> Ival:
    """Enclosure of arccos restricted to [0, pi]: the angle distance [x].

    With `crude=True` only the square-root bounds
    sqrt(2(1-c)) <= arccos(c) <= pi*sqrt((1-c)/2) are used (cheap; tight
    within a factor pi/2).
    """
    c = c.intersect(Ival(Q(-1), Q(1)))
    pi_hi = pi_ival(bits).hi
    lo = sqrt_down(2 * (1 - c.hi), bits) if c.hi < 1 else ZERO
    hi = min(pi_hi, pi_hi * sqrt_up((1 - c.lo) / 2, bits))
    crude_ival = Ival(lo, hi)
    if crude:
        return crude_ival
    if c.lo > Q(-1, 2):
        one_plus = Ival(1 + c.lo, 1 + c.hi)
        s2 = (1 - c.sq()).intersect(Ival(ZERO, ONE))
        s = s2.sqrt(bits + 8)
        precise = atan_ival((s / one_plus).round_out(bits + 8), bits) * 2
        return precise.intersect(crude_ival)
    if c.hi < Q(1, 2):
        reflected = angle_from_cos(-c, bits)
        return (pi_ival(bits) - reflected).intersect(crude_ival)
    # wide interval straddling both reflections: fall back to the hull
    left = angle_from_cos(Ival(c.lo, Q(0)), bits)
    right = angle_from_cos(Ival(Q(0), c.hi), bits)
    return Ival.hull([left, right]).intersect(crude_ival)


# Rational cosines of roots of unity (Niven) and the orders of their angles
# 0, 1/6, 1/4, 1/3, 1/2 turns.
_NIVEN_ORDER = {Q(1): 1, Q(1, 2): 6, Q(0): 4, Q(-1, 2): 3, Q(-1): 2}


def rotation_order(p: Fraction) -> int | None:
    """Order of the rotation e^(2 pi i theta) with cos = p, when finite.

    Returns None when theta is irrational (equivalently p not in Niven's
    list), which is the case for every p + qi with p, q rational nonzero
    on the unit circle.  The order does not depend on the direction.
    """
    return _NIVEN_ORDER.get(p)


def rotation_power(p: Fraction, q: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Exact (cos, sin) of n * theta for e^(i theta) = p + qi, q rational,
    by binary powering."""
    c, s = ONE, ZERO
    bc, bs = p, q
    while n:
        if n & 1:
            c, s = c * bc - s * bs, c * bs + s * bc
        n >>= 1
        if n:
            bc, bs = bc * bc - bs * bs, 2 * bc * bs
    return c, s


class RotScan:
    """Iterates (cos, sin) of n * theta for e^(i theta) = p + qi exactly on
    the unit circle, as a dyadic point with a certified error ball.

    The state is integers: cos ~ c / 2^bits, sin ~ s / 2^bits, with the
    Euclidean error at most err + 1 units of 2^-bits after n steps.  Per
    step the rounding adds at most one unit in the last place; the
    rotation itself is an isometry and adds nothing.

    This is the only code that advances the dyadic rotation.  `step`,
    `advance`, `hardness.scan_ball_terms` and `hardness.lagrange_prefix`
    all go through `walk`.
    """

    def __init__(self, p: Fraction, q: Fraction | None, bits: int = 128):
        if q is None:
            raise ValueError("irrational-angle scan needs the exact sine "
                             "value q")
        if p * p + q * q != 1:
            raise ValueError("(p, q) must lie exactly on the unit circle")
        den = p.denominator * q.denominator // math.gcd(p.denominator, q.denominator)
        self.pn = int(p * den)
        self.qn = int(q * den)
        self.den = den
        self.bits = bits
        self.scale = 1 << bits
        self.c = self.scale
        self.s = 0
        self.err = 0  # euclidean error in ulps (2^-bits)
        self.n = 0

    def walk(self, n_to: int):
        """Step up to index n_to, yielding (n, c, s, err) after each step.

        The loop runs on locals; the attributes are written back once, when
        the generator finishes or is closed, so read them only after that.
        """
        c, s, err, n = self.c, self.s, self.err, self.n
        pn, qn, den = self.pn, self.qn, self.den
        d2 = 2 * den
        try:
            while n < n_to:
                # round to nearest: (2x + den) // (2 den) = floor(x/den + 1/2)
                c, s = ((2 * (pn * c - qn * s) + den) // d2,
                        (2 * (qn * c + pn * s) + den) // d2)
                err += 1
                n += 1
                yield n, c, s, err
        finally:
            self.c, self.s, self.err, self.n = c, s, err, n

    def step(self):
        self.advance(self.n + 1)

    def advance(self, n_to: int):
        """Step until the index is n_to."""
        for _ in self.walk(n_to):
            pass

    def ival(self, v: int, err: int) -> Ival:
        """Enclosure of a coordinate held as v / 2^bits with error err."""
        e = Q(err + 1, self.scale)
        x = Q(v, self.scale)
        return Ival(max(x - e, Q(-1)), min(x + e, Q(1)))

    def cos_ival(self) -> Ival:
        return self.ival(self.c, self.err)

    def sin_ival(self) -> Ival:
        return self.ival(self.s, self.err)


def niven_rotation(p: Fraction, q: Fraction | None, n: int,
                   bits: int = 128) -> tuple[Ival, Ival]:
    """Exact (cos, sin) enclosures of n * theta for a root-of-unity angle
    (rational p per Niven): theta is 1/order of a turn, and the sign of q
    (None: positive) gives the direction.  cos is an exact rational; sin
    is exact or a square-root enclosure of `bits` bits."""
    order = rotation_order(p)
    if order is None:
        raise ValueError(f"cos = {p} is not a root-of-unity angle")
    k = n % order
    c = _exact_cos_turn(Q(k, order))
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


def _exact_cos_turn(t: Fraction) -> Fraction:
    """Exact cos(2 pi t); defined for the Niven turns (denominator | 6 or 4)."""
    t = t - (t.numerator // t.denominator)
    table = {Q(0): Q(1), Q(1, 6): Q(1, 2), Q(1, 4): Q(0), Q(1, 3): Q(-1, 2),
             Q(1, 2): Q(-1), Q(2, 3): Q(-1, 2), Q(3, 4): Q(0), Q(5, 6): Q(1, 2)}
    if t in table:
        return table[t]
    raise ValueError(f"no exact rational cos for turn {t}")
