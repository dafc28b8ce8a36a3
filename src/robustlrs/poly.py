"""Polynomials over Q as coefficient tuples (lowest degree first).

The tuple is the one form a polynomial takes in the package: every
function here reads and returns it, and so do `algebraic.isolate_roots`
and `AlgebraicNumber.defining_poly`.

Thin exact layer: arithmetic, division, power sums, composed products
and cyclotomic polynomials are hand-rolled over `Fraction`.  `peval_box`, the
box evaluation under root refinement and field-element boxes, runs its
Horner steps on integer numerators and builds `Fraction`s only for the
result.  sympy only factors into irreducibles; the uncalled `resultant`
also delegates to it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import sympy

from .qmath import Q, ZERO, ONE
from .interval import Box, Ival, box_ends, mul_ends

_x = sympy.Symbol("x")

Coeffs = tuple[Fraction, ...]


def pnorm(coeffs) -> Coeffs:
    """Strip leading (highest-degree) zeros; () is the zero polynomial."""
    c = [Q(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(p: Coeffs) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def padd(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return pnorm([ (p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO)
                   for i in range(n) ])


def pneg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def psub(p: Coeffs, q: Coeffs) -> Coeffs:
    return padd(p, pneg(q))


def pscale(p: Coeffs, s: Fraction) -> Coeffs:
    if s == 0:
        return ()
    return tuple(c * s for c in p)


def pmul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return pnorm(out)


def pdivmod(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [ZERO] * max(len(p) - len(q) + 1, 0)
    inv_lead = 1 / q[-1]
    for top in range(len(rem) - 1, len(q) - 2, -1):
        c = rem[top] * inv_lead
        if c == 0:
            continue
        shift = top - (len(q) - 1)
        quot[shift] = c
        for j, b in enumerate(q):
            rem[shift + j] -= c * b
    return pnorm(quot), pnorm(rem)


def pmod(p: Coeffs, q: Coeffs) -> Coeffs:
    return pdivmod(p, q)[1]


def peval(p: Coeffs, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def peval_box(p: Coeffs, z: Box, bits: int = 256) -> Box:
    """Horner enclosure of p(z), rounded out to the 2^-bits grid at every
    step: the endpoints `(acc * z + c).round_out(bits)` gives on `Fraction`
    boxes, computed on integers.  z's endpoints share one denominator D and
    acc's are integers over 2^bits, so acc * z is exact over 2^bits * D;
    adding c = cn/cd and rounding out is one floor or ceiling division."""
    zs, D = box_ends(z)
    one = 1 << bits
    acc = (0, 0, 0, 0)
    for c in reversed(p):
        re_lo, re_hi, im_lo, im_hi = mul_ends(acc, zs)
        cd = c.denominator
        shift, den = c.numerator * one * D, cd * D
        acc = ((re_lo * cd + shift) // den, -((-re_hi * cd - shift) // den),
               im_lo // D, -(-im_hi // D))
    return Box(Ival(Q(acc[0], one), Q(acc[1], one)),
               Ival(Q(acc[2], one), Q(acc[3], one)))


def pderiv(p: Coeffs) -> Coeffs:
    return pnorm([i * p[i] for i in range(1, len(p))])


def preverse(p: Coeffs) -> Coeffs:
    """x^deg * p(1/x)."""
    return pnorm(tuple(reversed(p)))


def int_normalize(p: Coeffs) -> tuple[int, ...]:
    """Primitive integer form with positive leading coefficient."""
    p = pnorm(p)
    if not p:
        return ()
    den = math.lcm(*[c.denominator for c in p])
    ints = [int(c * den) for c in p]
    g = math.gcd(*[abs(v) for v in ints])
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def to_sympy(p) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       if isinstance(c, Fraction) else int(c)
                       for c in reversed(tuple(p))], _x)


def from_sympy(sp: sympy.Poly) -> Coeffs:
    return pnorm([Q(c.p, c.q) for c in reversed(sp.all_coeffs())])


def factor_int(p) -> list[tuple[tuple[int, ...], int]]:
    """Factor into primitive irreducible integer polynomials with powers."""
    sp = to_sympy(p)
    _, factors = sp.factor_list()
    out = []
    for f, mult in factors:
        out.append((tuple(int(c) for c in int_normalize(from_sympy(sympy.Poly(f, _x)))),
                    int(mult)))
    out.sort()
    return out


def resultant(p: Coeffs, q: Coeffs) -> Fraction:
    r = sympy.resultant(to_sympy(p).as_expr(), to_sympy(q).as_expr(), _x)
    r = sympy.Rational(r)
    return Q(r.p, r.q)


def power_sums(p: Coeffs, count: int) -> list[Fraction]:
    """Power sums s_k = sum of a^k over the roots a of p (with multiplicity),
    k < count (at least s_0 = deg p), by Newton's identities."""
    p = pnorm(p)
    d = pdeg(p)
    c = [v / p[-1] for v in p]  # monic: x^d + c[d-1] x^(d-1) + ... + c[0]
    ps = [Q(d)]
    for k in range(1, count):
        acc = -k * c[d - k] if k <= d else ZERO
        for i in range(1, min(k, d + 1)):
            acc -= c[d - i] * ps[k - i]
        ps.append(acc)
    return ps


def from_power_sums(ps) -> Coeffs:
    """The monic polynomial of degree ps[0] whose roots have power sums
    ps[1], ps[2], ...: Newton's identities solved for the elementary
    symmetric functions e_k, k e_k = sum_i (-1)^(i-1) e_(k-i) ps[i]."""
    d = int(ps[0])
    el = [ONE]
    for k in range(1, d + 1):
        el.append(sum(((-1) ** (i - 1) * el[k - i] * ps[i]
                       for i in range(1, k + 1)), ZERO) / k)
    return tuple((-1) ** (d - j) * el[d - j] for j in range(d + 1))


def composed_product(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic polynomial whose roots are all products a*b, a a root of p and
    b of q, with multiplicity: the power sums of the products are the
    products of the power sums (Bostan, Flajolet, Salvy and Schost, "Fast
    computation of special resultants", J. Symb. Comput. 41(1), 2006)."""
    n = pdeg(p) * pdeg(q) + 1
    return from_power_sums([a * b for a, b in
                            zip(power_sums(p, n), power_sums(q, n))])


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    """Euler's phi(n) for n >= 1."""
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def _spread(p: Coeffs, k: int) -> Coeffs:
    """p(x^k)."""
    out = [ZERO] * ((len(p) - 1) * k + 1)
    out[::k] = p
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial.  For a prime p not dividing m,
    Phi_pm(x) = Phi_m(x^p) / Phi_m(x), an exact division; and
    Phi_n(x) = Phi_r(x^(n/r)) with r the product of the primes of n."""
    phi = (-ONE, ONE)
    r = 1
    for p in _prime_factors(n):
        phi, rem = pdivmod(_spread(phi, p), phi)
        if rem:
            raise RuntimeError("cyclotomic division left a remainder")
        r *= p
    return tuple(int(c) for c in _spread(phi, n // r))


def cyclotomic_index(p) -> int | None:
    """n such that p is the n-th cyclotomic polynomial, else None."""
    ints = tuple(int(c) for c in p)
    d = len(ints) - 1
    if d < 1:
        return None
    # phi(n) = d forces n <= 2*d^2 + 2 comfortably (phi(n) >= sqrt(n/2))
    for n in range(1, 2 * d * d + 3):
        if _totient(n) == d and cyclotomic(n) == ints:
            return n
    return None


def separation_bound(intpoly) -> Fraction:
    """Rational lower bound on the distance between distinct roots.

    Uses sqrt(6) / (d^((d+1)/2) * H^(d-1)) for an integer polynomial of
    degree d and height H.
    """
    p = tuple(int(c) for c in intpoly)
    d = len(p) - 1
    if d <= 1:
        return Q(1)
    H = max(abs(c) for c in p)
    # denominator upper bound: d^((d+1)/2) <= isqrt-up of d^(d+1)
    dd = d ** (d + 1)
    r = math.isqrt(dd)
    if r * r < dd:
        r += 1
    denom = r * H ** (d - 1)
    # sqrt(6) > 2.449 > 49/20... use 2 as a safe lower bound on sqrt(6)
    return Q(2, denom)

