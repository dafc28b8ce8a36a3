"""Rational interval arithmetic: real intervals and complex boxes.

`Ival` and `Box` hold `Fraction` endpoints and every operation is outward
rounded (containment preserving).  `round_out` coarsens endpoints to
dyadics so denominators stay bounded in long computations.

Each interval operation is written once, on bare endpoints, and serves
both the `Fraction` classes and the hot loops, which run on integer
numerators: `imul` is the one interval product (`Ival.__mul__`, and per
term in `lrs.OrbitScanner.step`), `isq` the one square (`Ival.sq` and the
optimizer's gradient norm), and `mul_ends`, four `imul`s, the one box
product (`Box.__mul__`).  `box_ends` writes a box as endpoints (re lo,
re hi, im lo, im hi) over one denominator, and `round_ends` is the one
outward rounding of such integer endpoints onto a 2^-bits grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .qmath import Q, ZERO, round_down, round_up, sqrt_down, sqrt_up


class Ival:
    """Closed real interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise RuntimeError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(x) -> "Ival":
        x = Q(x)
        return Ival(x, x)

    @staticmethod
    def hull(items: Iterable["Ival"]) -> "Ival":
        items = list(items)
        return Ival(min(i.lo for i in items), max(i.hi for i in items))

    def __repr__(self):
        return f"Ival({self.lo}, {self.hi})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Ival") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        if isinstance(other, Ival):
            return Ival(self.lo + other.lo, self.hi + other.hi)
        return Ival(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self):
        return Ival(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Ival) else Ival.point(-Q(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Ival):
            return Ival(*imul(self.lo, self.hi, other.lo, other.hi))
        other = Q(other)
        return Ival(*imul(self.lo, self.hi, other, other))

    __rmul__ = __mul__

    def inverse(self) -> "Ival":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Ival(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "Ival") -> "Ival":
        return self * other.inverse()

    def abs(self) -> "Ival":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Ival(ZERO, max(-self.lo, self.hi))

    def sq(self) -> "Ival":
        lo, hi = isq(self.lo, self.hi)
        return Ival(lo or ZERO, hi)

    def sqrt(self, bits: int = 128) -> "Ival":
        lo = self.lo if self.lo > 0 else ZERO
        if self.hi < 0:
            raise RuntimeError("sqrt of negative interval")
        return Ival(sqrt_down(lo, bits), sqrt_up(self.hi, bits))

    def round_out(self, bits: int) -> "Ival":
        return Ival(round_down(self.lo, bits), round_up(self.hi, bits))

    def sign(self) -> int | None:
        """+1 / -1 when the sign is certified, 0 for the point zero, else None."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def intersect(self, other: "Ival") -> "Ival":
        return Ival(max(self.lo, other.lo), min(self.hi, other.hi))


class Box:
    """Complex interval (rectangle) re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re: Ival, im: Ival):
        self.re = re
        self.im = im

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box(Ival.point(re), Ival.point(im))

    def __repr__(self):
        return f"Box(re={self.re}, im={self.im})"

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def __add__(self, other):
        if isinstance(other, Box):
            return Box(self.re + other.re, self.im + other.im)
        return Box(self.re + other, self.im)

    __radd__ = __add__

    def __neg__(self):
        return Box(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Box):
            re_lo, re_hi, im_lo, im_hi = mul_ends(
                (self.re.lo, self.re.hi, self.im.lo, self.im.hi),
                (other.re.lo, other.re.hi, other.im.lo, other.im.hi))
            return Box(Ival(re_lo, re_hi), Ival(im_lo, im_hi))
        return Box(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self) -> "Box":
        return Box(self.re, -self.im)

    def abs_sq(self) -> Ival:
        return self.re.sq() + self.im.sq()

    def abs(self, bits: int = 128) -> Ival:
        return self.abs_sq().sqrt(bits)

    def inverse(self) -> "Box":
        m = self.abs_sq()
        return Box(self.re / m, -self.im / m)

    def contains(self, re: Fraction, im: Fraction = ZERO) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def round_out(self, bits: int) -> "Box":
        return Box(self.re.round_out(bits), self.im.round_out(bits))

    def pow(self, n: int, bits: int = 256) -> "Box":
        """Binary powering with outward dyadic rounding; n may be negative."""
        if n == 0:
            return Box.point(1)
        base = self.inverse() if n < 0 else self
        n = abs(n)
        result = None
        while n:
            if n & 1:
                result = base if result is None else (result * base).round_out(bits)
            n >>= 1
            if n:
                base = (base * base).round_out(bits)
        return result

    def disjoint(self, other: "Box") -> bool:
        return not (self.re.overlaps(other.re) and self.im.overlaps(other.im))


def box_ends(z: Box) -> tuple[tuple, int]:
    """z's endpoints (re lo, re hi, im lo, im hi) as integers over their
    least common denominator D, and D."""
    ends = (z.re.lo, z.re.hi, z.im.lo, z.im.hi)
    D = math.lcm(*(e.denominator for e in ends))
    return tuple(e.numerator * (D // e.denominator) for e in ends), D


def imul(a_lo, a_hi, b_lo, b_hi) -> tuple:
    """[a_lo, a_hi] * [b_lo, b_hi]: the two of the four end products that
    the factors' signs pick, which are their min and max; only when both
    straddle 0 are all four formed.  The ends are integers or `Fraction`s
    (`Ival.__mul__`)."""
    if a_lo >= 0:
        if b_lo >= 0:
            return a_lo * b_lo, a_hi * b_hi
        if b_hi <= 0:
            return a_hi * b_lo, a_lo * b_hi
        return a_hi * b_lo, a_hi * b_hi
    if a_hi <= 0:
        if b_lo >= 0:
            return a_lo * b_hi, a_hi * b_lo
        if b_hi <= 0:
            return a_hi * b_hi, a_lo * b_lo
        return a_lo * b_hi, a_lo * b_lo
    if b_lo >= 0:
        return a_lo * b_hi, a_hi * b_hi
    if b_hi <= 0:
        return a_hi * b_lo, a_lo * b_lo
    return min(a_lo * b_hi, a_hi * b_lo), max(a_lo * b_lo, a_hi * b_hi)


def isq(lo, hi) -> tuple:
    """[lo, hi]^2: the square of each end, in the order the interval's sign
    gives, and [0, max] when it straddles 0."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def mul_ends(a: tuple, b: tuple) -> tuple:
    """The product of two boxes given as endpoints (re lo, re hi, im lo,
    im hi): integers over denominators A and B give endpoints over A*B,
    `Fraction`s give `Box.__mul__`'s own.  Each interval product is an
    `imul`."""
    ar, Ar, ai, Ai = a
    cr, Cr, ci, Ci = b
    # re = a.re b.re - a.im b.im, im = a.re b.im + a.im b.re
    rr_lo, rr_hi = imul(ar, Ar, cr, Cr)
    ii_lo, ii_hi = imul(ai, Ai, ci, Ci)
    ri_lo, ri_hi = imul(ar, Ar, ci, Ci)
    ir_lo, ir_hi = imul(ai, Ai, cr, Cr)
    return rr_lo - ii_hi, rr_hi - ii_lo, ri_lo + ir_lo, ri_hi + ir_hi


def round_ends(ends: tuple, den: int, bits: int) -> tuple:
    """Integer box endpoints (re lo, re hi, im lo, im hi) over `den` rounded
    outward onto the 2^-bits grid, as integers over 2^bits: each lower end
    floored, each upper end ceiled, by shifts when `den` is a power of two
    no smaller than 2^bits."""
    re_lo, re_hi, im_lo, im_hi = ends
    shift = den.bit_length() - 1 - bits
    if shift >= 0 and den & (den - 1) == 0:
        return (re_lo >> shift, -(-re_hi >> shift),
                im_lo >> shift, -(-im_hi >> shift))
    return ((re_lo << bits) // den, -((-re_hi << bits) // den),
            (im_lo << bits) // den, -((-im_hi << bits) // den))
