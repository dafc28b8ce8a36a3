"""Rational interval arithmetic: real intervals and complex boxes.

`Ival` and `Box` hold `Fraction` endpoints and every operation is outward
rounded (containment preserving).  `round_out` coarsens endpoints to
dyadics so denominators stay bounded in long computations.

Hot loops run on integer numerators, with this module's one integer
interval product `imul` (per term in `lrs.OrbitScanner.step`): `box_ends`
writes a box as endpoints (re lo, re hi, im lo, im hi) over one
denominator, and `mul_ends`, four `imul`s, is the box product on such
endpoints, exactly what `Box.__mul__` gives on the same values.
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
            raise ValueError(f"empty interval [{lo}, {hi}]")
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
            cands = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return Ival(min(cands), max(cands))
        other = Q(other)
        if other >= 0:
            return Ival(self.lo * other, self.hi * other)
        return Ival(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def inverse(self) -> "Ival":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Ival(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        if isinstance(other, Ival):
            return self * other.inverse()
        return self * (1 / Q(other))

    def abs(self) -> "Ival":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Ival(ZERO, max(-self.lo, self.hi))

    def sq(self) -> "Ival":
        return (self * self) if self.lo >= 0 or self.hi <= 0 else Ival(
            ZERO, max(self.lo * self.lo, self.hi * self.hi))

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
            return Box(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)
        if isinstance(other, Ival):
            return Box(self.re * other, self.im * other)
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


def imul(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """[a_lo, a_hi] * [b_lo, b_hi] on integer endpoints: the two of the four
    end products that the factors' signs pick, which are their min and
    max; only when both straddle 0 are all four formed."""
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


def mul_ends(a: tuple, b: tuple) -> tuple:
    """The product of two boxes given as integer endpoints (re lo, re hi,
    im lo, im hi) over denominators A and B, as endpoints over A*B.  Each
    interval product is an `imul`, the min and max of `Ival.__mul__`, so
    the values are those `Box.__mul__` gives."""
    ar, Ar, ai, Ai = a
    cr, Cr, ci, Ci = b
    # re = a.re b.re - a.im b.im, im = a.re b.im + a.im b.re
    rr_lo, rr_hi = imul(ar, Ar, cr, Cr)
    ii_lo, ii_hi = imul(ai, Ai, ci, Ci)
    ri_lo, ri_hi = imul(ar, Ar, ci, Ci)
    ir_lo, ir_hi = imul(ai, Ai, cr, Cr)
    return rr_lo - ii_hi, rr_hi - ii_lo, ri_lo + ir_lo, ri_hi + ir_hi
