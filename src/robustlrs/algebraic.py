"""Exact algebraic numbers: isolation, refinement, and field arithmetic.

An algebraic number is represented as an element of Q[x]/(M) for an
irreducible integer polynomial M together with an isolating box for the
distinguished root of M.  sympy isolates the roots (`CRootOf`); the first
box of a non-real root comes from replaying sympy's bisection of its
isolating rectangle here (`_BisectionPath`, the same box sympy's
`eval_rational` would return), and deeper refinement is the package's
own interval Newton.  A real root's seed box is still sympy's, and sympy
factors.  Everything layered on top -- arithmetic, conjugation, zero tests,
unit-modulus and root-of-unity decisions, minimal polynomials from power
sums -- is exact rational computation here.

Predicates are never decided by approximation alone: enclosures may
*separate* two numbers, while equalities are certified through unique
representations (field elements), separation bounds, or membership in an
explicitly isolated root set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy.polys import rootoftools

from .qmath import Q, ZERO, ONE, precisions
from .interval import Ival, Box
from . import poly as P
from .poly import (pnorm, pdeg, padd, psub, pmul, pmod, pdivmod, pscale,
                   peval, peval_box, pderiv, int_normalize, preverse,
                   separation_bound, cyclotomic_index, PolyRat)

_x = sympy.Symbol("x")

_UNSET = object()   # marks a lazily computed slot not yet filled


def _rootof(intpoly: tuple[int, ...], index: int):
    expr = sum(int(c) * _x**i for i, c in enumerate(intpoly))
    return sympy.rootof(expr, _x, index, radicals=False)


def _eval_rational(r, bits: int) -> tuple[Fraction, Fraction]:
    """Centre of sympy's own refinement of the CRootOf `r` to sides
    < 2^-(bits+1) (Collins-Krandick bisection; cached by sympy)."""
    dx = sympy.Rational(1, 1 << (bits + 1))
    re_s, im_s = r.eval_rational(dx=dx, dy=dx).as_real_imag()
    return Q(re_s.p, re_s.q), Q(im_s.p, im_s.q)


def _sympy_expr_box(expr, bits: int) -> Box:
    """Certified box for the affine CRootOf expressions sympy's root
    preprocessing can produce (rational multiples/shifts of a CRootOf)."""
    if expr.is_Rational:
        return Box.point(Q(expr.p, expr.q))
    if isinstance(expr, rootoftools.ComplexRootOf):
        if expr.is_real:
            re, im = _eval_rational(expr, bits)
        else:
            re, im = _bisection_path(expr).centre(bits)
        eps = Q(1, 1 << (bits + 1))
        return Box(Ival(re - eps, re + eps), Ival(im - eps, im + eps))
    if expr.is_Add:
        acc = Box.point(0)
        for arg in expr.args:
            acc = acc + _sympy_expr_box(arg, bits + 4)
        return acc
    if expr.is_Mul:
        acc = Box.point(1)
        for arg in expr.args:
            acc = acc * _sympy_expr_box(arg, bits + 4)
        return acc
    raise TypeError(f"unsupported root expression {expr!r}")


def _newton_step(p, dp, box: Box, work: int) -> Box | None:
    """One certified interval Newton step for the roots of `p` in `box`:
    its image intersected with the box, or None when p' may vanish on the
    box or the image misses it."""
    dval = peval_box(dp, box, work)
    if dval.re.contains(ZERO) and dval.im.contains(ZERO):
        return None
    try:
        dinv = dval.inverse()
    except ZeroDivisionError:
        return None
    mid = Box.point(box.re.mid, box.im.mid)
    pmid = peval_box(p, mid, work)
    cand = (mid - pmid * dinv).round_out(work)
    re = cand.re.intersect(box.re) if cand.re.overlaps(box.re) else None
    im = cand.im.intersect(box.im) if cand.im.overlaps(box.im) else None
    if re is None or im is None:
        return None
    return Box(re, im)


def _frac(v) -> Fraction:
    return Q(int(v.numerator), int(v.denominator))


def _corners(iv) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return _frac(iv.a[0]), _frac(iv.a[1]), _frac(iv.b[0]), _frac(iv.b[1])


def _bits_of(width: Fraction) -> int:
    """k with 2^-k < width <= 2^-(k-1), for 0 < width <= 1; 0 above."""
    return (width.denominator // width.numerator).bit_length()


class _BisectionPath:
    """sympy's refinement of one non-real CRootOf, replayed without sympy.

    `CRootOf.eval_rational` halves the longer side of the root's isolating
    rectangle (the vertical split when dx > dy), keeps the half that holds
    the root, returns the centre of the first rectangle with both sides
    < dx, and caches that rectangle: a later request for fewer bits gets
    the deepest rectangle reached.  This walks the same path from sympy's
    isolating rectangle, so it returns the same centres.  The rectangle
    (u, v)-(s, t) is in sympy's coordinates for the conjugate with positive
    imaginary part; sympy flips the imaginary part when `conj` is set and
    reads the real part as 0 for a root on the imaginary axis.

    Each half is chosen from an exact description of the root where there
    is one: the real part of a quadratic's or an imaginary root (a root on
    a vertical line goes to the right half, as in sympy) and the squared
    imaginary part of a quadratic's.  Otherwise it comes from a certified
    Newton enclosure, sharpened when it straddles the line, once sympy's
    own steps have shrunk the rectangle until a Newton step contracts.  A
    side this cannot decide (a root on a horizontal line, or a straddle
    that persists at high precision) is left to sympy's `eval_rational`.
    """

    def __init__(self, r):
        self.root = r
        self.cache = rootoftools._complexes_cache
        self.iv = r._get_interval()
        self.conj = self.iv.conj
        self.imaginary = bool(r.is_imaginary)
        self.rect = _corners(self.iv)
        coeffs = [int(c) for c in reversed(r.poly.all_coeffs())]
        self.poly = tuple(Q(c) for c in coeffs)
        self.deriv = pderiv(self.poly)
        self.re = ZERO if self.imaginary else None
        self.im_sq = None
        if len(coeffs) == 3:
            c, b, a = coeffs
            self.re, self.im_sq = Q(-b, 2 * a), Q(4 * a * c - b * b, 4 * a * a)
        self.enc: Box | None = None

    def centre(self, bits: int) -> tuple[Fraction, Fraction]:
        eps = Q(1, 1 << (bits + 1))
        u, v, s, t = self.rect
        iv = self.root._get_interval()
        if _frac(iv.dx) <= s - u and _frac(iv.dy) <= t - v:
            # sympy's cached rectangle is at least as deep: continue from it
            self.iv = iv
            u, v, s, t = self.rect = _corners(iv)
        while not (s - u < eps and t - v < eps):
            if self.im_sq is None and self.enc is None:
                self.iv = self.iv._inner_refine()
                u, v, s, t = self.rect = _corners(self.iv)
                self._try_newton()
                continue
            vertical = s - u > t - v
            m = (u + s) / 2 if vertical else (v + t) / 2
            upper = self._upper_half(vertical, m, bits)
            if upper is None:
                return self._fallback(bits)
            if vertical:
                u, s = (m, s) if upper else (u, m)
            else:
                v, t = (m, t) if upper else (v, m)
            self.rect = (u, v, s, t)
        im = (v + t) / 2
        return (ZERO if self.imaginary else (u + s) / 2), (-im if self.conj else im)

    def _try_newton(self):
        u, v, s, t = self.rect
        box = Box(Ival(u, s), Ival(v, t))
        nxt = _newton_step(self.poly, self.deriv, box, 2 * _bits_of(box.width) + 32)
        if nxt is not None and nxt.width <= box.width / 4:
            self.enc = nxt

    def _upper_half(self, vertical: bool, m: Fraction, bits: int) -> bool | None:
        """Whether the root lies in the right (vertical split at re = m) or
        the top (horizontal split at im = m) half; None if undecided."""
        if vertical and self.re is not None:
            return self.re >= m
        if not vertical and self.im_sq is not None:
            if self.im_sq == m * m:
                return None  # m > 0: the root is on the line
            return self.im_sq > m * m
        while True:
            ival = self.enc.re if vertical else self.enc.im
            if ival.lo > m or (vertical and ival.lo == m):
                return True
            if ival.hi < m:
                return False
            if not self._sharpen(4 * (bits + 1)):
                return None

    def _sharpen(self, max_bits: int) -> bool:
        width = self.enc.width
        k = _bits_of(width)
        if k > max_bits:
            return False
        nxt = _newton_step(self.poly, self.deriv, self.enc, 2 * k + 32)
        if nxt is None or nxt.width > width * Q(3, 4):
            return False
        self.enc = nxt
        return True

    def _fallback(self, bits: int) -> tuple[Fraction, Fraction]:
        # every rectangle here is on sympy's path and no deeper than the
        # request, so sympy's refinement reaches the same rectangle
        centre = _eval_rational(self.root, bits)
        self.iv = self.root._get_interval()
        self.rect = _corners(self.iv)
        return centre


_PATHS: dict = {}


def _bisection_path(r) -> _BisectionPath:
    """The replay for the CRootOf `r`, kept as long as sympy's cache of
    isolating rectangles (`CRootOf.clear_cache` replaces it)."""
    path = _PATHS.get(r)
    if path is None or path.cache is not rootoftools._complexes_cache:
        path = _PATHS[r] = _BisectionPath(r)
    return path


@lru_cache(maxsize=None)
def _field_cache(minpoly: tuple[int, ...], index: int) -> "NumberField":
    return NumberField(minpoly, index)


class NumberField:
    """Q[x]/(minpoly) with a distinguished root (a specific embedding).

    Deep refinement runs a certified complex interval Newton iteration
    (sound over convex boxes; the minimal polynomial is irreducible, so
    the root is simple and p' eventually excludes zero).  The certified
    seed box comes from sympy's isolation: sympy's own refinement for a
    real root, the replay of its bisection (`_BisectionPath`) otherwise.
    """

    def __init__(self, minpoly: tuple[int, ...], root_index: int):
        self.minpoly = tuple(int(c) for c in minpoly)
        self.root_index = root_index
        self.minpoly_q = pnorm([Q(c, self.minpoly[-1]) for c in self.minpoly])  # monic
        self.degree = len(self.minpoly) - 1
        self._rootof = _rootof(self.minpoly, root_index)
        self._box_bits = 0
        self._box: Box | None = None
        self._deriv = pderiv(self.minpoly_q)
        # Tr(x^i), i < degree: the power sums of the roots
        self._basis_traces = P.power_sums(self.minpoly_q, self.degree)

    @staticmethod
    def get(minpoly: tuple[int, ...], root_index: int) -> "NumberField":
        return _field_cache(tuple(int(c) for c in minpoly), root_index)

    def __repr__(self):
        return f"NumberField({self.minpoly}, root {self.root_index})"

    @property
    def is_real_root(self) -> bool:
        return bool(self._rootof.is_real)

    def _seed_box(self, bits: int) -> Box:
        box = _sympy_expr_box(self._rootof, bits)
        if self._rootof.is_real:
            box = Box(box.re, Ival.point(0))
        return box

    def root_box(self, bits: int) -> Box:
        if self._box is not None and self._box_bits >= bits:
            return self._box
        if self._box is None:
            self._box = self._seed_box(64)
            self._box_bits = 64
            if bits <= 64:
                return self._box
        box = self._box
        work = bits + 16
        seed_bits = 64
        while box.width > Q(1, 1 << bits):
            nxt = _newton_step(self.minpoly_q, self._deriv, box, work)
            if nxt is None or nxt.width > box.width * Q(3, 4):
                # derivative box straddles zero or convergence stalled:
                # take a sharper certified seed and retry
                seed_bits = max(seed_bits * 2, bits)
                box = self._seed_box(seed_bits)
                if seed_bits >= bits:
                    break
                continue
            box = nxt
        if self._rootof.is_real:
            box = Box(box.re, Ival.point(0))
        self._box = box
        self._box_bits = bits
        return box

    def conjugate_field(self) -> "NumberField":
        """The field embedding at the complex-conjugate root."""
        if self.is_real_root:
            return self
        # conjugate root is the unique root of minpoly in the mirrored box
        for bits in precisions(32, "conjugate root identification"):
            target = self.root_box(bits).conj()
            hits = []
            for idx in range(self.degree):
                other = _field_cache(self.minpoly, idx)
                if not other.root_box(bits).disjoint(target):
                    hits.append(idx)
            if len(hits) == 1:
                return _field_cache(self.minpoly, hits[0])


class FieldElement:
    """Element of a number field, as a polynomial in the root (deg < d)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        c = pnorm(coeffs)
        if pdeg(c) >= field.degree:
            c = pmod(c, field.minpoly_q)
        self.coeffs = c

    @staticmethod
    def generator(field: NumberField) -> "FieldElement":
        return FieldElement(field, (ZERO, ONE))

    @staticmethod
    def const(field: NumberField, q: Fraction) -> "FieldElement":
        return FieldElement(field, (Q(q),))

    def __repr__(self):
        return f"FieldElement({self.coeffs} @ {self.field.minpoly})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return pdeg(self.coeffs) <= 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0] if self.coeffs else ZERO

    def _same(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("field mismatch")
            return other
        return FieldElement.const(self.field, Q(other))

    def __add__(self, other):
        other = self._same(other)
        return FieldElement(self.field, padd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._same(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._same(other)
        return FieldElement(self.field, pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._same(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.minpoly, self.field.root_index, self.coeffs))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended euclid: u * self + v * minpoly = 1
        a, b = self.coeffs, self.field.minpoly_q
        u0, u1 = (ONE,), ()
        while b:
            q, r = pdivmod(a, b)
            a, b = b, r
            u0, u1 = u1, psub(u0, pmul(q, u1))
        # a is the gcd (a nonzero constant since minpoly is irreducible)
        return FieldElement(self.field, pscale(u0, 1 / a[0]))

    def __truediv__(self, other):
        return self * self._same(other).inverse()

    def pow(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse().pow(-n)
        result = FieldElement.const(self.field, ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def trace(self) -> Fraction:
        traces = self.field._basis_traces
        return sum((c * t for c, t in zip(self.coeffs, traces)), ZERO)

    def box(self, bits: int = 64) -> Box:
        if self.is_rational():
            return Box.point(self.as_rational())
        return peval_box(self.coeffs, self.field.root_box(bits), bits + 32)

    def box_width(self, width: Fraction) -> Box:
        """Enclosure of guaranteed width at most `width`."""
        if self.is_rational():
            return Box.point(self.as_rational())
        for bits in precisions(64, "refinement to a given width"):
            b = self.box(bits)
            if b.width <= width:
                return b

    def root_exchanged(self, field: NumberField) -> "FieldElement":
        """The same number in `field`, a quadratic field on the same minimal
        polynomial at the other root (or, for a complex root, at its own
        conjugate): the roots are r and s - r with s the rational root sum."""
        return FieldElement(field, P.pcompose(self.coeffs,
                                              (-field.minpoly_q[1], Q(-1))))

    def conj_in_field(self) -> "FieldElement | None":
        """Complex conjugate as an element of the same field, when expressible:
        real embeddings (identity), quadratic fields (root exchange), and
        unit-modulus generators (conjugate = inverse)."""
        f = self.field
        if f.is_real_root:
            return self
        if f.degree == 2:
            return self.root_exchanged(f)
        gen = FieldElement.generator(f)
        if _unit_modulus_primitive(f):
            inv = gen.inverse()
            acc = FieldElement.const(f, ZERO)
            for i, c in enumerate(self.coeffs):
                acc = acc + inv.pow(i) * c
            return acc
        return None


@lru_cache(maxsize=None)
def _unit_modulus_minpoly(minpoly: tuple[int, ...], index: int) -> bool:
    field = _field_cache(minpoly, index)
    return _unit_modulus_primitive(field)


def _unit_modulus_primitive(field: NumberField) -> bool:
    """Exact |root| == 1 test for the distinguished root of the field."""
    mp = field.minpoly
    if len(mp) == 2:  # rational root -q0/q1
        val = Q(-mp[0], mp[1])
        return abs(val) == 1
    rev = int_normalize(preverse([Q(c) for c in mp]))
    if rev != mp:
        return False  # 1/root is not a root of minpoly, so |root| != 1
    if field.is_real_root:
        return False  # real root of degree >= 2 cannot be +-1
    # both conj(root) and 1/root are roots of minpoly; |root|=1 iff equal
    def conj_refiner(bits):
        return field.root_box(bits).conj()

    def inv_refiner(bits):
        return field.root_box(bits).inverse()

    return _same_root_of(mp, conj_refiner, inv_refiner)


def _root_fields(minpoly: tuple[int, ...]) -> list[NumberField]:
    """One NumberField per root of the irreducible, primitive integer
    polynomial `minpoly`, boxes refined to pairwise disjoint."""
    fields = [_field_cache(minpoly, idx) for idx in range(len(minpoly) - 1)]
    _separate(lambda bits: [f.root_box(bits) for f in fields], 32)
    return fields


def _same_root_of(intpoly, refine_a, refine_b) -> bool:
    """Decide equality of two numbers known to both be roots of intpoly, an
    irreducible, primitive integer polynomial (a minimal polynomial).

    `refine_a`/`refine_b` map a bit count to enclosing boxes.  Terminates:
    either the boxes separate, or each eventually fits inside the unique
    isolating box of its root, and equality reduces to identity of that
    root."""
    fields = _root_fields(intpoly)
    for bits in precisions(64, "root identification"):
        ba, bb = refine_a(bits), refine_b(bits)
        if ba.disjoint(bb):
            return False
        root_boxes = [f.root_box(bits) for f in fields]
        ia = [i for i, rb in enumerate(root_boxes) if not rb.disjoint(ba)]
        ib = [i for i, rb in enumerate(root_boxes) if not rb.disjoint(bb)]
        if len(ia) == 1 and len(ib) == 1:
            return ia == ib


class AlgebraicNumber:
    """Exact complex algebraic number.

    Value is either a plain rational or a field element; the public view
    (defining polynomial plus isolating disk, unique root within the
    radius) is derived lazily and certified via the separation bound.
    """

    __slots__ = ("_rat", "_elem", "_defpoly", "_rou")

    def __init__(self, rat: Fraction | None = None, elem: FieldElement | None = None):
        if (rat is None) == (elem is None):
            raise ValueError("exactly one of rat/elem required")
        if elem is not None and elem.is_rational():
            rat, elem = elem.as_rational() if elem.coeffs else ZERO, None
        self._rat = rat
        self._elem = elem
        self._defpoly: tuple[int, ...] | None = None
        self._rou = _UNSET      # identify_root_of_unity's answer, once found

    @staticmethod
    def from_rational(q) -> "AlgebraicNumber":
        return AlgebraicNumber(rat=Q(q))

    @staticmethod
    def from_root(field: NumberField) -> "AlgebraicNumber":
        return AlgebraicNumber(elem=FieldElement.generator(field))

    @staticmethod
    def from_element(elem: FieldElement) -> "AlgebraicNumber":
        return AlgebraicNumber(elem=elem)

    def __repr__(self):
        if self._rat is not None:
            return f"AlgebraicNumber({self._rat})"
        b = self.box(32)
        return f"AlgebraicNumber(~{float(b.re.mid):.6g}{float(b.im.mid):+.6g}i)"

    @property
    def is_rational(self) -> bool:
        return self._rat is not None

    def as_rational(self) -> Fraction:
        if self._rat is None:
            raise ValueError("not rational")
        return self._rat

    @property
    def elem(self) -> FieldElement:
        if self._elem is None:
            raise ValueError("rational value has no field element")
        return self._elem

    def box(self, bits: int = 64) -> Box:
        if self._rat is not None:
            return Box.point(self._rat)
        return self._elem.box(bits)

    def refine(self, width: Fraction) -> Box:
        """Enclosure of width at most `width` (idempotent under shrinking)."""
        width = Q(width)
        if width <= 0:
            raise ValueError("width must be positive")
        if self._rat is not None:
            return Box.point(self._rat)
        return self._elem.box_width(width)

    @property
    def defining_poly(self) -> PolyRat:
        return PolyRat(tuple(Q(c) for c in self._defining_ints()))

    def _defining_ints(self) -> tuple[int, ...]:
        if self._defpoly is not None:
            return self._defpoly
        if self._rat is not None:
            self._defpoly = int_normalize((-self._rat, ONE))
            return self._defpoly
        e = self._elem
        if e.coeffs == (ZERO, ONE):
            self._defpoly = e.field.minpoly
            return self._defpoly
        # the characteristic polynomial of e is minpoly^k: its power sums are
        # the traces of e^i
        ps, power = [e.field.degree], e
        for _ in range(e.field.degree):
            ps.append(power.trace())
            power = power * e
        char = P.from_power_sums(ps)
        (fac, _), = [f for f in P.factor_int(char) if len(f[0]) > 1]
        self._defpoly = fac
        return self._defpoly

    def isolating_disk(self) -> tuple[Fraction, Fraction, Fraction]:
        """(center_re, center_im, radius) containing exactly one root of the
        defining polynomial: radius is pushed below half the separation
        bound."""
        sep = separation_bound(self._defining_ints())
        b = self.refine(sep / 8)
        center_re, center_im = b.re.mid, b.im.mid
        # half-diagonal upper bound
        from .qmath import sqrt_up
        radius = sqrt_up((b.re.width / 2) ** 2 + (b.im.width / 2) ** 2, 64)
        return center_re, center_im, max(radius, Q(1, 1 << 200))

    def is_unit_modulus(self) -> bool:
        """Exact test |value| == 1."""
        if self._rat is not None:
            return abs(self._rat) == 1
        e = self._elem
        if e.coeffs == (ZERO, ONE):
            return _unit_modulus_minpoly(e.field.minpoly, e.field.root_index)
        cj = e.conj_in_field()
        if cj is not None:
            return (e * cj).coeffs == (ONE,)
        mp = self._defining_ints()
        rev = int_normalize(preverse([Q(c) for c in mp]))
        if rev != mp:
            return False
        return _same_root_of(mp, lambda b: self.box(b).conj(),
                             lambda b: self.box(b).inverse())

    def equals(self, other: "AlgebraicNumber") -> bool:
        if self._rat is not None and other._rat is not None:
            return self._rat == other._rat
        if (self._rat is None) != (other._rat is None):
            rat, alg = (other._rat, self) if other._rat is not None else (self._rat, other)
            e = alg._elem
            return e.is_rational() and e.as_rational() == rat
        a, b = self._elem, other._elem
        if a.field is b.field:
            return a == b
        if a.field.minpoly != b.field.minpoly:
            # different minimal polynomials -> can only agree if both rational
            pa = self._defining_ints()
            pb = other._defining_ints()
            if pa != pb:
                return False
        return _same_root_of(self._defining_ints(), self.box, other.box)


def isolate_roots(p, factors=None) -> list[tuple[AlgebraicNumber, int]]:
    """Isolate all complex roots of a rational polynomial.

    Returns (root, multiplicity) pairs; multiplicities sum to deg(p) and
    the isolating disks are pairwise disjoint.  `factors` is
    `poly.factor_int(p)` when the caller already holds it.
    """
    coeffs = p.coefficients if isinstance(p, PolyRat) else pnorm(p)
    if not coeffs:
        raise ValueError("cannot isolate roots of the zero polynomial")
    out = []
    for fac, mult in factors if factors is not None else P.factor_int(coeffs):
        if len(fac) == 1:
            continue
        if len(fac) == 2:
            val = Q(-fac[0], fac[1])
            out.append((AlgebraicNumber.from_rational(val), mult))
            continue
        for idx in range(len(fac) - 1):
            out.append((AlgebraicNumber.from_root(_field_cache(fac, idx)), mult))
    # touch disjointness once so returned disks are isolated
    if any(not a.is_rational for a, _ in out):
        _separate(lambda bits: [a.box(bits) for a, _ in out], 64)
    return out


def _separate(boxes_at, start: int):
    """Climb the precision ladder from `start` until the boxes
    `boxes_at(bits)` are pairwise disjoint."""
    for bits in precisions(start, "root separation"):
        boxes = boxes_at(bits)
        if all(boxes[i].disjoint(boxes[j])
               for i in range(len(boxes)) for j in range(i + 1, len(boxes))):
            return


def identify_root_of_unity(a: AlgebraicNumber) -> tuple[int, int] | None:
    """(k, n) with value = e^(2 pi i k/n), gcd(k, n) = 1, when the number is
    a root of unity; None otherwise.  Found once per object and kept."""
    if a._rou is _UNSET:
        a._rou = _root_of_unity_index(a)
    return a._rou


def _root_of_unity_index(a: AlgebraicNumber) -> tuple[int, int] | None:
    if a.is_rational:
        if a.as_rational() == 1:
            return (0, 1)
        if a.as_rational() == -1:
            return (1, 2)
        return None
    mp = a._defining_ints()
    n = cyclotomic_index(mp)
    if n is None:
        return None
    from .trig import unit_box
    cands = [k for k in range(n) if math.gcd(k, n) == 1]
    for bits in precisions(64, "root-of-unity identification"):
        b = a.box(bits)
        alive = [k for k in cands if not b.disjoint(unit_box(Q(k, n), bits))]
        if len(alive) == 1:
            return (alive[0], n)


def _as_common_field(gammas: list[AlgebraicNumber]):
    """Try to express all non-root-of-unity gammas in one field.

    Returns (field, elems, rou_parts) where elems[i] is the field element
    for gamma i (None when gamma is a root of unity handled separately).
    """
    field = None
    elems: list[FieldElement | None] = []
    rous: list[tuple[int, int] | None] = []
    for g in gammas:
        rou = identify_root_of_unity(g)
        rous.append(rou)
        if rou is not None:
            elems.append(None)
            continue
        e = g.elem
        if field is None:
            field = e.field
        if e.field is field:
            elems.append(e)
            continue
        if e.field.minpoly == field.minpoly:
            # same minimal polynomial: usable when it is the conjugate
            # embedding of a unit-modulus root (conjugate = inverse)
            conj = field.conjugate_field()
            if e.field is conj or e.field.root_index == conj.root_index:
                inv_gen = FieldElement.generator(field).inverse()
                acc = FieldElement.const(field, ZERO)
                for i, c in enumerate(e.coeffs):
                    acc = acc + inv_gen.pow(i) * c
                elems.append(acc)
                continue
        return None
    return field, elems, rous


def power_product_is_one(gammas: list[AlgebraicNumber],
                         exponents: list[int]) -> bool:
    """Exact decision of prod gamma_j^(lambda_j) == 1 for unit-modulus inputs."""
    if len(gammas) != len(exponents):
        raise ValueError("gammas and exponents must have equal length")
    for g in gammas:
        if not g.is_unit_modulus():
            raise ValueError("power_product_is_one requires unit-modulus inputs")
    common = _as_common_field(gammas)
    if common is not None:
        field, elems, rous = common
        # root-of-unity contribution as an exact angle in turns
        turn = Q(0)
        for rou, lam in zip(rous, exponents):
            if rou is not None:
                k, n = rou
                turn += Q(k * lam, n)
        turn -= turn.numerator // turn.denominator
        if field is None:
            return turn == 0
        prod = FieldElement.const(field, ONE)
        for e, lam in zip(elems, exponents):
            if e is not None and lam != 0:
                prod = prod * e.pow(lam)
        if turn == 0:
            return prod.coeffs == (ONE,)
        n = turn.denominator
        # product == zeta^(-turn) requires product^n == 1 in the field
        if prod.pow(n).coeffs != (ONE,):
            return False
        from .trig import unit_box
        target = -turn
        for bits in precisions(64, "root-of-unity comparison"):
            b = prod.box(bits)
            tb = unit_box(target, bits)
            if b.disjoint(tb):
                return False
            if max(b.width, tb.width) < Q(1, 4 * n):
                # distinct n-th roots of unity are at least 2 sin(pi/n) > 4/n apart
                return True
    return _power_product_general(gammas, exponents)


def _power_product_general(gammas, exponents) -> bool:
    """Composed-product fallback: build an integer polynomial vanishing on
    the product, then decide equality with 1 via separation."""
    def prod_box(bits):
        acc = Box.point(1)
        for g, lam in zip(gammas, exponents):
            if lam:
                acc = acc * g.box(bits).pow(lam, bits + 32)
        return acc

    # quick rejection by refinement
    for bits in (64, 128, 256):
        b = prod_box(bits)
        if not b.contains(ONE):
            return False
    # polynomial with the product among its roots
    polys = []
    for g, lam in zip(gammas, exponents):
        if lam == 0:
            continue
        if g.is_rational:
            polys.append(int_normalize((-(g.as_rational() ** lam), ONE)))
            continue
        e = g.elem.pow(lam)
        polys.append(AlgebraicNumber.from_element(e)._defining_ints())
    if not polys:
        return True
    acc = [Q(c) for c in polys[0]]
    for nxt in polys[1:]:
        acc = P.composed_product(acc, [Q(c) for c in nxt])
    acc_int = int_normalize(acc)
    if peval([Q(c) for c in acc_int], ONE) != 0:
        return False
    sep = separation_bound(acc_int)
    for bits in precisions(64, "power product decision"):
        b = prod_box(bits)
        if not b.contains(ONE):
            return False
        if b.width < sep / 4:
            return True  # a root of acc_int within sep/2 of the root 1 is 1

