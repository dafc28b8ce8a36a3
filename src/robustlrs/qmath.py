"""Exact rational helpers: parsing, dyadic rounding, directed square roots.

Everything in the trusted core works over `fractions.Fraction`.  Dyadic
rounding keeps denominators bounded inside long interval computations;
a dyadic rational is still a rational, so no binary floating point enters
any certified path.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction

ZERO = Q(0)
ONE = Q(1)

# Precision cap of every exact decision that refines enclosures until they
# separate (root identification, equal moduli, roots of unity, relations).
MAX_BITS = 1 << 16


class PrecisionExhausted(RuntimeError):
    """An exact decision still undecided at MAX_BITS bits of precision."""


def precisions(start: int, what: str):
    """The precision ladder start, 2*start, ... up to MAX_BITS (read at each
    rung); past it, raise PrecisionExhausted naming `what`."""
    bits = start
    while bits <= MAX_BITS:
        yield bits
        bits *= 2
    raise PrecisionExhausted(f"{what}: undecided at {MAX_BITS} bits")


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its canonical "p/q" (or plain integer) string."""
    s = text.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num, den = int(num_s), int(den_s)
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Q(num, den)
    return Q(int(s))


def format_rational(x: Fraction) -> str:
    """Canonical string form: "p/q" with q > 0, or "p" when q == 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def round_down(x: Fraction, bits: int) -> Fraction:
    """Largest dyadic rational k/2^bits that is <= x."""
    scaled = x.numerator << bits
    return Q(scaled // x.denominator, 1 << bits)


def round_up(x: Fraction, bits: int) -> Fraction:
    """Smallest dyadic rational k/2^bits that is >= x."""
    scaled = x.numerator << bits
    return Q(-((-scaled) // x.denominator), 1 << bits)


def sqrt_down(x: Fraction, bits: int) -> Fraction:
    """Dyadic lower bound on sqrt(x); x < 0 is an internal fault."""
    if x < 0:
        raise RuntimeError("sqrt of negative rational")
    if x == 0:
        return ZERO
    # sqrt(x) >= isqrt(num * 2^(2 bits) // den) / 2^bits
    scaled = (x.numerator << (2 * bits)) // x.denominator
    return Q(math.isqrt(scaled), 1 << bits)


def sqrt_up(x: Fraction, bits: int) -> Fraction:
    """Dyadic upper bound on sqrt(x); x < 0 is an internal fault."""
    if x < 0:
        raise RuntimeError("sqrt of negative rational")
    if x == 0:
        return ZERO
    scaled = -((-(x.numerator << (2 * bits))) // x.denominator)
    r = math.isqrt(scaled)
    if r * r < scaled:
        r += 1
    return Q(r, 1 << bits)


def is_perfect_square(x: Fraction) -> bool:
    if x < 0:
        return False
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def exact_sqrt(x: Fraction) -> Fraction:
    """Exact rational square root; raises if x is not a perfect square."""
    if not is_perfect_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Q(math.isqrt(x.numerator), math.isqrt(x.denominator))


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
