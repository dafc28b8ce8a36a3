"""Certified enclosures of pi and circular functions over rational intervals.

Angles are handled in *turns* (multiples of a full revolution) so that
period reduction is exact rational arithmetic; only the final Taylor
evaluation multiplies by an enclosure of 2*pi.  Series remainders are
bounded by the alternating-series criterion after argument reduction.

A point enclosure of cos and sin comes from one octant reduction: the
turn is reflected once into [0, 1/8] (`_point_ends`), and both Taylor
series run at the one argument 2 pi r.  The series runs on integers at
scale 2^(bits + 8), rounding each term outward as `Ival.round_out` would,
so its enclosures are those of the same series on `Fraction` intervals,
endpoint for endpoint; it returns them as integers on the 2^-(bits + 2)
grid, the ends `_point_ends` gives.

`unit_ends` takes a rational turn, the one form its callers hold (an
interval turn goes through `cos_turn` and `sin_turn`), and reads a
bounded table keyed by (turn mod 1, bits) of the integer endpoints of
the point enclosures, so each root of unity at each precision is
computed once per process: the finite-torus path of the optimizer and
the root-of-unity tests of `algebraic` and `torus` ask for the same few
constants at every coset and every term.  `unit_box` is its `Box` view.

`cos_turn` and `sin_turn` take one form: a dyadic interval turn as
integer endpoints over 2^d, as the branch and bound and the hardness lab
hold it.  They return integer endpoints on the same 2^-(bits + 2) grid,
read from a second table, filled by the same computation and keyed by
the endpoint reduced mod 1 to lowest terms, so a branch-and-bound child
box, whose endpoints are its parent's endpoints or midpoint, costs about
one new point, and its churn cannot evict a root of unity.  Whether the
turn reaches an extremum is a comparison of shifted integers.  The
enclosures are those of the hull of the point enclosures on `Fraction`
intervals, endpoint for endpoint.

`angle_from_cos` reads arccos off `atan_ival` at tan(theta/2) >= 0, the
only argument sign `atan_ival` takes.

`rotation_power` gives the powers of a rotation whose cosine p is
rational exactly, as the Chebyshev pair (cos n theta, sin n theta /
sin theta); the hardness lab reads its basis change and its
root-of-unity angles (at n mod the order) off it, with no stepping.  The
module steps no orbit: the one dyadic rotation walk of the package is
`hardness.lagrange_prefix`'s own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qmath import Q, ZERO, ONE, sqrt_down, sqrt_up
from .interval import Ival, Box

_PI_CACHE: dict[int, Ival] = {}


def _atan_inv_int(m: int, bits: int) -> Ival:
    """Enclosure of atan(1/m) for integer m >= 2, by alternating series."""
    # terms 1/((2k+1) m^(2k+1)) are strictly decreasing, so consecutive
    # partial sums bracket the limit, the odd ones below the even ones
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
    return Ival(acc_lo, acc_hi).round_out(bits + 4)


def pi_ival(bits: int) -> Ival:
    """Rational enclosure of pi with width below 2^-bits (Machin's formula)."""
    if bits not in _PI_CACHE:
        a = _atan_inv_int(5, bits + 8)
        b = _atan_inv_int(239, bits + 8)
        _PI_CACHE[bits] = (a * 16 - b * 4).round_out(bits + 2)
    return _PI_CACHE[bits]


def _taylor_series(x: Ival, bits: int, odd: int) -> tuple[int, int]:
    """cos (odd = 0) or sin (odd = 1) on 0 <= x <= 1 (radians): the
    alternating Taylor series x^(2k + odd) / (2k + odd)!, as integer ends
    over 2^(bits + 2), the grid `round_out(bits + 2)` rounds onto.

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
    return max(out_lo, -one), min(out_hi, one)


def _has_point_mod1(lo: int, hi: int, d: int, q: int) -> bool:
    """Is there an x in [lo, hi] / 2^d with x = q/4 (mod 1)?  That is, is
    ceil((4 lo - q 2^d) / 2^(d + 2)) <= floor((4 hi - q 2^d) / 2^(d + 2)),
    both by shifts."""
    off, s = q << d, d + 2
    return -((off - (lo << 2)) >> s) <= ((hi << 2) - off) >> s


def _turn_ends(n: int, d: int, bits: int) -> tuple[int, int, int, int]:
    """The table entry of the turn n / 2^d: (cos lo, cos hi, sin lo,
    sin hi) over 2^(bits + 2).  The turn is reduced mod 1 to lowest terms
    first, so one angle is one entry whatever the box depth it comes
    from."""
    n &= (1 << d) - 1
    if n:
        z = (n & -n).bit_length() - 1
        n, d = n >> z, d - z
    else:
        d = 0
    return _turn_table(n, 1 << d, bits)


def _point_ends(n: int, q: int, bits: int) -> tuple[int, int, int, int]:
    """(cos lo, cos hi, sin lo, sin hi) of the point enclosures at the turn
    n/q, over 2^(bits + 2), the grid their endpoints lie on.

    The turn r = n/q mod 1 is reduced once into [0, 1/8] by three
    reflections, each taken when r is past the reflection's midpoint:
    r -> 1 - r negates sin, r -> 1/2 - r negates cos, and r -> 1/4 - r
    swaps cos and sin.  Both series then run at the one x = 2 pi r."""
    r = Q(n % q, q)
    flip_sin = r > Q(1, 2)
    if flip_sin:
        r = 1 - r
    flip_cos = r > Q(1, 4)
    if flip_cos:
        r = Q(1, 2) - r
    swap = int(r > Q(1, 8))
    if swap:
        r = Q(1, 4) - r
    x = pi_ival(bits + 8) * (2 * r)
    c_lo, c_hi = _taylor_series(x, bits, swap)
    s_lo, s_hi = _taylor_series(x, bits, 1 - swap)
    if flip_cos:
        c_lo, c_hi = -c_hi, -c_lo
    if flip_sin:
        s_lo, s_hi = -s_hi, -s_lo
    return c_lo, c_hi, s_lo, s_hi


# Two bounded tables of `_point_ends`.  `_turn_table` holds turns n / 2^d
# in lowest terms: box endpoints and midpoints, a child's read shortly
# after its parent's, and a hardness-lab turn per step.  `_unit_table`
# holds the few root-of-unity turns of a problem, reduced into [0, 1); its
# bound matters because a precision climb can reach 2^15 bits, where one
# entry holds tens of kB.
_turn_table = lru_cache(maxsize=256)(_point_ends)
_unit_table = lru_cache(maxsize=256)(_point_ends)


def _turn_range(lo: int, hi: int, d: int, bits: int,
                odd: int) -> tuple[int, int]:
    """cos (odd = 0) or sin (odd = 1) of 2 pi x for x in [lo, hi] / 2^d:
    the hull of the table entries at the endpoints (a point, such as a box
    midpoint, is read once), widened to 1 and -1 where the turn reaches
    odd/4 and (odd + 2)/4 (mod 1)."""
    one = 1 << (bits + 2)
    if hi - lo >= 1 << d:
        return -one, one
    ends = _turn_ends(lo, d, bits)
    out_lo, out_hi = ends[2 * odd], ends[2 * odd + 1]
    if hi != lo:
        ends = _turn_ends(hi, d, bits)
        out_lo = min(out_lo, ends[2 * odd])
        out_hi = max(out_hi, ends[2 * odd + 1])
    if _has_point_mod1(lo, hi, d, odd):
        out_hi = one
    if _has_point_mod1(lo, hi, d, odd + 2):
        out_lo = -one
    return out_lo, out_hi


def cos_turn(lo: int, hi: int, d: int, bits: int) -> tuple[int, int]:
    """Enclosure of cos(2 pi x) for x in [lo, hi] / 2^d (turns), as integer
    endpoints over 2^(bits + 2)."""
    return _turn_range(lo, hi, d, bits, 0)


def sin_turn(lo: int, hi: int, d: int, bits: int) -> tuple[int, int]:
    """Enclosure of sin(2 pi x) for x in [lo, hi] / 2^d (turns), as integer
    endpoints over 2^(bits + 2)."""
    return _turn_range(lo, hi, d, bits, 1)


def unit_ends(t: Fraction, bits: int) -> tuple[tuple, int]:
    """e^(2 pi i t) for a rational turn t as `interval.box_ends` writes a
    box: its endpoints (cos lo, cos hi, sin lo, sin hi) over one
    denominator D = 2^(bits + 2), and D."""
    q = t.denominator
    return _unit_table(t.numerator % q, q, bits), 1 << (bits + 2)


def unit_box(t: Fraction, bits: int) -> Box:
    """Box enclosing e^(2 pi i t) for a rational turn t (`unit_ends`)."""
    (c_lo, c_hi, s_lo, s_hi), one = unit_ends(t, bits)
    return Box(Ival(Q(c_lo, one), Q(c_hi, one)),
               Ival(Q(s_lo, one), Q(s_hi, one)))


def atan_ival(x: Ival, bits: int) -> Ival:
    """atan on an interval with x.lo >= 0 (`angle_from_cos` passes
    tan(theta/2) >= 0)."""
    if x.lo < 0:
        raise ValueError(f"atan_ival needs x >= 0, got lower end {x.lo}")
    if x.hi > 1:
        # atan(x) = pi/2 - atan(1/x); split at 1 if needed
        if x.lo < 1:
            lo_part = atan_ival(Ival(x.lo, ONE), bits)
            hi_part = atan_ival(Ival(ONE, x.hi), bits)
            return Ival.hull([lo_part, hi_part])
        half_pi = pi_ival(bits + 4) * Q(1, 2)
        return half_pi - atan_ival(x.inverse(), bits)
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


def angle_from_cos(c: Ival, bits: int) -> Ival:
    """Enclosure of arccos restricted to [0, pi]: the angle distance [x].

    The result lies within the square-root bounds
    sqrt(2(1-c)) <= arccos(c) <= pi*sqrt((1-c)/2), which are returned
    as they are for an interval wider than both reflections below serve
    (the package passes a point or an interval far narrower).
    """
    c = c.intersect(Ival(Q(-1), Q(1)))
    pi_hi = pi_ival(bits).hi
    lo = sqrt_down(2 * (1 - c.hi), bits) if c.hi < 1 else ZERO
    hi = min(pi_hi, pi_hi * sqrt_up((1 - c.lo) / 2, bits))
    crude_ival = Ival(lo, hi)
    if c.lo > Q(-1, 2):
        one_plus = Ival(1 + c.lo, 1 + c.hi)
        s2 = (1 - c.sq()).intersect(Ival(ZERO, ONE))
        s = s2.sqrt(bits + 8)
        precise = atan_ival((s / one_plus).round_out(bits + 8), bits) * 2
        return precise.intersect(crude_ival)
    if c.hi < Q(1, 2):
        reflected = angle_from_cos(-c, bits)
        return (pi_ival(bits) - reflected).intersect(crude_ival)
    return crude_ival


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


def rotation_power(p: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """The Chebyshev pair (T_n(p), U_(n-1)(p)) = (cos n theta,
    sin n theta / sin theta) for cos theta = p and n >= 0, by binary
    powering: (c, u) stands for c + u i sin theta, and
    (c, u)(c', u') = (c c' - (1 - p^2) u u', c u' + u c')."""
    s2 = 1 - p * p
    c, u = ONE, ZERO
    bc, bu = p, ONE
    while n:
        if n & 1:
            c, u = c * bc - s2 * u * bu, c * bu + u * bc
        n >>= 1
        if n:
            bc, bu = bc * bc - s2 * bu * bu, 2 * bc * bu
    return c, u

