"""Exact algebraic numbers: isolation, refinement, and field arithmetic.

An algebraic number is represented as an element of Q[x]/(M) for an
irreducible integer polynomial M together with an isolating box for the
distinguished root of M.  The first box of a root is the one sympy's
isolation and `eval_rational` would give, and deeper refinement is the
package's own interval Newton.  sympy factors and isolates; none of its
refinement steps runs.  A non-real root's seed has one path, `_land`: its
certified box (`_root_enclosures`: closed form for a quadratic, else
Aberth-Ehrlich approximations, each confirmed by one interval Newton
step), sharpened while it straddles a line, lands on the cell of sympy's
bisection grid that holds it (`_grid_cell`), over sympy's first
rectangle for a quadratic (`_quadratic_seed`, no sympy call), else over
sympy's isolating rectangle (`_BisectionPath`), which must meet the box.
A real root's interval is sympy's continued-fraction refinement replayed
on plain integers (`_real_interval`), and must straddle a sign change.
All else -- arithmetic, conjugation, zero tests, unit-modulus and
root-of-unity decisions, minimal polynomials from power sums -- is exact
rational computation here.

Predicates are never decided by approximation alone: enclosures may
*separate* two numbers, while equalities are certified through unique
representations (field elements), separation bounds, or membership in an
explicitly isolated root set.

Each of the three exact steps under the decisions has one path.  A
change of embedding is one substitution, `FieldElement.at`: the root
exchange of a quadratic field puts s - xi for the generator xi, and the
conjugate of a unit-modulus generator is its inverse.  |z| = 1 is one
test, `_on_unit_circle` (1/z must be a root, then conj z and 1/z must be
the same root), cached per field for a generator.  Naming the root that
a box holds is one precision ladder, `_sole_hit`: the conjugate field,
the root of unity and `locate_root` all ask it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property, lru_cache

import sympy
from sympy.polys import rootisolation, rootoftools

from .qmath import Q, ZERO, ONE, precisions, sqrt_up
from .interval import Ival, Box
from . import trig
from . import poly as P
from .poly import (pnorm, pdeg, padd, psub, pmul, pmod, pdivmod, pscale,
                   peval, peval_box, pderiv, int_normalize, preverse,
                   separation_bound, cyclotomic_index)

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


def _centre_box(re: Fraction, im: Fraction, bits: int) -> Box:
    """The box of half-side 2^-(bits+1) about re + im i, a centre of
    sympy's refinement to sides < 2^-(bits+1)."""
    eps = Q(1, 1 << (bits + 1))
    return Box(Ival(re - eps, re + eps), Ival(im - eps, im + eps))


def _sympy_expr_box(expr, bits: int) -> Box:
    """Certified box for what sympy's `CRootOf(...)` returns: a Rational, a
    CRootOf, or a rational multiple of a CRootOf.  A real root's box has
    imaginary part exactly 0, and the root must change the sign of its
    polynomial across sympy's interval (an irreducible polynomial has no
    rational root), or it is an internal fault."""
    if expr.is_Rational:
        return Box.point(Q(expr.p, expr.q))
    if isinstance(expr, rootoftools.ComplexRootOf):
        if not expr.is_real:
            return _centre_box(*_bisection_path(expr).centre(bits), bits)
        lo, hi = _real_interval(expr, bits)
        p = expr.poly.rep.to_list()[::-1]
        if (peval(p, lo) > 0) == (peval(p, hi) > 0):
            raise RuntimeError(
                f"sympy isolates a real root of {p} in [{lo}, {hi}], "
                f"where its sign does not change")
        return Box(_centre_box((lo + hi) / 2, ZERO, bits).re, Ival.point(ZERO))
    if expr.is_Mul:
        acc = Box.point(1)
        for arg in expr.args:
            acc = acc * _sympy_expr_box(arg, bits + 4)
        return acc
    raise TypeError(f"unsupported root expression {expr!r}")


def _real_interval(r, bits: int) -> tuple[Fraction, Fraction]:
    """The interval `r.eval_rational` refines the real CRootOf `r` to, for
    sides < 2^-(bits+1), by sympy 1.14's own steps on plain integers, with
    sympy's cache written back as `eval_rational` writes it; its centre is
    sympy's.

    sympy keeps a real root as a Moebius map x -> (a x + b) / (c x + d)
    (c, d > 0 from the isolation on), `neg` for a root it mirrored, and the
    transformed polynomial f whose one positive root the map sends to
    |root|; the interval's ends are a/c and b/d.  `refine_size` takes
    `_real_step`s until |a/c - b/d| < 2^-(bits+1), that is until
    |ad - bc| 2^(bits+1) < cd."""
    iv = r._get_interval()
    f, (a, b, c, d) = iv.f, iv.mobius
    while abs(a * d - b * c) << (bits + 1) >= c * d:
        f, (a, b, c, d) = _real_step(f, a, b, c, d)
    r._set_interval(rootisolation.RealInterval((a, b, c, d, iv.neg), f, iv.dom))
    lo, hi = sorted((Q(a, c), Q(b, d)))
    return (-hi, -lo) if iv.neg else (lo, hi)


def _real_step(f: list, a: int, b: int, c: int, d: int):
    """sympy's `dup_step_refine_real_root` (without `fast`) on integers:
    f's coefficients highest degree first, the Moebius map (a, b, c, d).
    Shift by the LMQ lower bound of f's positive root when it is >= 1,
    then keep the half (1, inf) when f(x + 1) has one sign variation,
    else the half (0, 1), through x -> 1 / (x + 1)."""
    if a == b and c == d:
        return f, (a, b, c, d)
    A = _lmq_lower_bound(f)
    if A >= 1:
        f = _taylor_shift(f, A)
        b, d = A * a + b, A * c + d
        if not f[-1]:
            return f, (b, b, d, d)
    f, g = _taylor_shift(f, 1), f
    if not f[-1]:
        return f, (a + b, a + b, c + d, c + d)
    if _sign_variations(f) == 1:
        return f, (a, a + b, c, c + d)
    rev = g[::-1]
    while not rev[0]:
        rev.pop(0)
    f = _taylor_shift(rev, 1)
    if not f[-1]:
        f = f[:-1]
    return f, (b, a + b, d, c + d)


def _lmq_lower_bound(f: list) -> int:
    """int(`dup_root_lower_bound`(f)): the integer part of the reciprocal
    of the LMQ bound on the positive roots of f reversed (A. G. Akritas,
    J. UCS 15(3), 2009), with sympy's `int(math.log(x, 2))` for floor(log2)."""
    h = list(f)
    while not h[-1]:
        h.pop()
    if h[-1] < 0:
        h = [-x for x in h]
    times, exps = [1] * len(h), []
    for i, hi in enumerate(h):
        if hi >= 0:
            continue
        log_hi, best = int(math.log(-hi, 2)), None
        for j in range(i + 1, len(h)):
            if h[j] > 0:
                q = (times[j] + log_hi - int(math.log(h[j], 2))) // (j - i)
                if best is None or q < best[0]:
                    best = (q, j)
        if best is not None:
            times[best[1]] += 1
            exps.append(best[0])
    # the bound is 2^(max + 1); its reciprocal's integer part
    e = max(exps) + 1 if exps else 1
    return 1 << -e if e <= 0 else 0


def _taylor_shift(f: list, a: int) -> list:
    """f(x + a), coefficients highest degree first."""
    f = list(f)
    for i in range(len(f) - 1, 0, -1):
        for j in range(i):
            f[j + 1] += a * f[j]
    return f


def _sign_variations(f: list) -> int:
    count, prev = 0, 0
    for c in f:
        if c * prev < 0:
            count += 1
        if c:
            prev = c
    return count


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


def _contract(p, dp, box: Box, work: int) -> Box | None:
    """`_newton_step`'s image when it is at most 3/4 of the box's width,
    the step refinement keeps; None when the step fails or stalls."""
    nxt = _newton_step(p, dp, box, work)
    return None if nxt is None or nxt.width > box.width * Q(3, 4) else nxt


def _certify(p, dp, box: Box) -> Box | None:
    """The Newton image of `box` when it lies strictly inside the box: then
    the box holds exactly one root of p, and so does the image; else
    None."""
    nxt = _newton_step(p, dp, box, 2 * _bits_of(box.width) + 32)
    if nxt is None or not all(b.lo < a.lo and a.hi < b.hi for a, b in
                              ((nxt.re, box.re), (nxt.im, box.im))):
        return None
    return nxt


def _approx_roots(c: list[float]) -> list[complex] | None:
    """All roots of the monic polynomial with coefficients `c` (highest
    degree first), untrusted: the Aberth-Ehrlich iteration in double
    precision (O. Aberth, Math. Comp. 27(122), 1973), from a circle of
    radius |c_0|^(1/n), until every correction is below 2^-45 of its root.
    None when a float overflows or the iteration does not settle in 100
    sweeps."""
    n = len(c) - 1
    try:
        radius = abs(c[-1]) ** (1 / n)
        z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
        for _ in range(100):
            settled = True
            for k, zk in enumerate(z):
                p = dp = 0j
                for a in c:
                    p, dp = p * zk + a, dp * zk + p
                if not p:
                    continue
                w = p / dp
                w /= 1 - w * sum(1 / (zk - zj) for j, zj in enumerate(z) if j != k)
                z[k] = zk - w
                settled = settled and abs(w) <= abs(zk) * 2.0 ** -45
            if settled:
                return z
    except (ZeroDivisionError, OverflowError):
        pass
    return None


@lru_cache(maxsize=None)
def _root_enclosures(poly: tuple[int, ...]) -> tuple[Box, ...] | None:
    """A certified box about every root of the irreducible integer
    polynomial `poly`, pairwise disjoint, so that each holds one root and
    together they hold all; None when a stage fails.  A non-real quadratic
    c + b x + a x^2 has its two in closed form: re = -b / 2a exactly, im
    between directed square roots of (4ac - b^2) / 4a^2.  Else each root's
    approximation is the centre of a box of half-side a power of two above
    twice its error estimate (|p(z)| and the rounding of p's Horner sum,
    over |p'(z)|), and the box's Newton image, strictly inside, is kept."""
    if len(poly) == 3:
        c, b, a = poly
        sq = Q(4 * a * c - b * b, 4 * a * a)
        if sq > 0:
            re, im = Ival.point(Q(-b, 2 * a)), Ival.point(sq).sqrt(128 + _bits_of(sq))
            return Box(re, -im), Box(re, im)
    try:
        coeffs = [c / poly[-1] for c in reversed(poly)]
    except OverflowError:
        return None
    zs = _approx_roots(coeffs)
    if zs is None:
        return None
    n, p = len(poly) - 1, tuple(Q(c) for c in poly)
    dp = pderiv(p)
    out = []
    for z in zs:
        val = der = size = 0.0
        for a in coeffs:
            val, der, size = val * z + a, der * z + val, size * abs(z) + abs(a)
        r = 2 * (abs(val) + n * size * 2.0 ** -50) / abs(der) if der else math.inf
        if not 0 < r < math.inf:
            return None
        e = math.frexp(r)[1]
        r = Q(1 << e) if e >= 0 else Q(1, 1 << -e)
        re, im = Q(z.real), Q(z.imag)
        box = _certify(p, dp, Box(Ival(re - r, re + r), Ival(im - r, im + r)))
        if box is None:
            return None
        out.append(box)
    if any(not out[i].disjoint(out[j]) for i in range(n) for j in range(i + 1, n)):
        return None
    return tuple(out)


def _frac(v) -> Fraction:
    return Q(int(v.numerator), int(v.denominator))


def _corners(iv) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return _frac(iv.a[0]), _frac(iv.a[1]), _frac(iv.b[0]), _frac(iv.b[1])


def _bits_of(width: Fraction) -> int:
    """k with 2^-k < width <= 2^-(k-1), for 0 < width <= 1; 0 above."""
    return (width.denominator // width.numerator).bit_length()


def _grid_cell(rect, bits: int, re: Ival, im: Ival, a: int = 0, b: int = 0):
    """The cell (u, v, s, t) of the 2^a x 2^b grid over `rect` that holds
    the root whose real and imaginary parts, in sympy's coordinates
    (im >= 0), lie in `re` and `im`; None when the box leaves a side
    undecided.

    This is sympy's refinement rule, written once.  sympy's isolation, its
    `eval_rational` and the replay halve the longer side (the height on a
    tie), keeping the half that holds the root, until both sides are
    < 2^-(bits+1).  A side is halved only while it is at least that, so in
    any order the halvings reach this grid, a and b raised to
    bit_length(floor(side * 2^(bits+1))); a side below gets none.  A side
    is decided when both ends of its interval lie in one cell, the column
    of x being floor((x - u) / w), clamped to the grid, so that a root on a
    vertical line goes right and one on the right edge to the last column;
    a row also needs the lower end off every inner line (a halving keeps
    the top half only for a root strictly above the cut).  The rectangle
    is taken in integers over its common denominator `den`, so that each
    column, row and cell end is a shift or a floor division.
    """
    den = math.lcm(*(c.denominator for c in rect))
    U, V, S, T = (c.numerator * (den // c.denominator) for c in rect)
    a = max(a, (((S - U) << (bits + 1)) // den).bit_length())
    b = max(b, (((T - V) << (bits + 1)) // den).bit_length())

    def cell(x, lo, side, n):
        """x's cell among 2^n of `side` from `lo` (over den), clamped, and
        whether x is on an inner line."""
        k, rem = divmod((x.numerator * den - lo * x.denominator) << n,
                        x.denominator * side)
        return min(max(k, 0), (1 << n) - 1), rem == 0 and 0 < k < 1 << n

    i = cell(re.lo, U, S - U, a)[0]
    j, on_line = cell(im.lo, V, T - V, b)
    if i != cell(re.hi, U, S - U, a)[0] or on_line or j != cell(im.hi, V, T - V, b)[0]:
        return None
    return (Q((U << a) + i * (S - U), den << a), Q((V << b) + j * (T - V), den << b),
            Q((U << a) + (i + 1) * (S - U), den << a),
            Q((V << b) + (j + 1) * (T - V), den << b))


def _land(rect, bits: int, p, dp, box: Box | None, imaginary: bool = False,
          a: int = 0, b: int = 0) -> tuple[tuple | None, Box | None]:
    """`_grid_cell` of the root of `p` that the certified box `box` holds
    (real part 0 for an `imaginary` root, as sympy reads it), sharpened by
    Newton steps while it leaves a side undecided, and the box it reached.
    No cell where there is no box, the box is a point (the root itself) or
    outgrows 4 (bits+1) bits, or a step stalls, the box then being None."""
    while box is not None:
        cell = _grid_cell(rect, bits, Ival.point(ZERO) if imaginary else box.re,
                          box.im, a, b)
        if cell is not None:
            return cell, box
        k = _bits_of(box.width) if box.width else math.inf
        if k > 4 * (bits + 1):
            break
        box = _contract(p, dp, box, 2 * k + 32)
    return None, box


class _BisectionPath:
    """sympy's refinement of one non-real CRootOf, replayed without sympy.

    `CRootOf.eval_rational` refines the isolating rectangle by
    `_grid_cell`'s rule and caches the cell it reaches, so a request for
    fewer bits gets the deepest rectangle reached; this keeps the same
    deepest rectangle, in sympy's coordinates for the conjugate with
    positive imaginary part (sympy flips the imaginary part when `conj` is
    set and reads the real part of an imaginary root as 0).  The root is
    described once, for every degree: by its certified box `enc`, the one
    of `_root_enclosures`' pairwise disjoint boxes that meets sympy's
    rectangle, landed by `_land` as a quadratic's seed is.  Where that box
    is not found or stays undecided, the request goes to sympy's
    `eval_rational`.
    Every rectangle taken from sympy must meet the box, and so must the box
    of half-side 2^-(bits+1) about a centre sympy returns, or it is an
    internal fault: sympy 1.14 refines a root of 9x^2 - 12x + 8 to
    4/3 + 4/3 i.
    """

    def __init__(self, r):
        self.root = r
        self.cache = rootoftools._complexes_cache
        iv = r._get_interval()
        self.conj = iv.conj
        self.imaginary = bool(r.is_imaginary)
        self.coeffs = tuple(reversed(r.poly.rep.to_list()))
        self.poly = tuple(Q(c) for c in self.coeffs)
        self.deriv = pderiv(self.poly)
        self.enc: Box | None = None
        self._adopt(iv)
        self.enc = self._enclosure()

    def _adopt(self, iv):
        """Continue from sympy's rectangle `iv`."""
        self.rect = _corners(iv)

    def centre(self, bits: int) -> tuple[Fraction, Fraction]:
        u, v, s, t = self.rect
        iv = self.root._get_interval()
        if _frac(iv.dx) <= s - u and _frac(iv.dy) <= t - v:
            # sympy's cached rectangle is at least as deep: continue from it
            self._adopt(iv)
            self.enc = self._enclosure()
        cell, self.enc = _land(self.rect, bits, self.poly, self.deriv, self.enc,
                               self.imaginary)
        if cell is not None:
            u, v, s, t = self.rect = cell
            im = (v + t) / 2
            return (ZERO if self.imaginary else (u + s) / 2), (-im if self.conj else im)
        return self._fallback(bits)

    def _enclosure(self) -> Box | None:
        """The root's certified box, which the rectangle must meet: `enc`
        once found, else the one of `_root_enclosures` that meets the
        rectangle; None when the boxes are not found or several meet it."""
        boxes = (self.enc,) if self.enc is not None else _root_enclosures(self.coeffs)
        if boxes is None:
            return None
        u, v, s, t = self.rect
        hits = [box for box in boxes if not box.disjoint(Box(Ival(u, s), Ival(v, t)))]
        if not hits:
            raise RuntimeError(
                f"sympy isolates a root of {list(self.coeffs)} in "
                f"[{u}, {s}] + [{v}, {t}] i, where no root lies")
        return hits[0] if len(hits) == 1 else None

    def _fallback(self, bits: int) -> tuple[Fraction, Fraction]:
        # every rectangle here is on sympy's path and no deeper than the
        # request, so sympy's refinement reaches the same rectangle; the box
        # of half-side 2^-(bits+1) about its centre, in sympy's coordinates,
        # must meet the root's box, as the rectangle must
        centre = _eval_rational(self.root, bits)
        box = _centre_box(centre[0], -centre[1] if self.conj else centre[1], bits)
        self.rect = (box.re.lo, box.im.lo, box.re.hi, box.im.hi)
        self._enclosure()
        self._adopt(self.root._get_interval())
        self.enc = self._enclosure()
        return centre


_PATHS: dict = {}


def _bisection_path(r) -> _BisectionPath:
    """The replay for the CRootOf `r`, kept as long as sympy's cache of
    isolating rectangles (`CRootOf.clear_cache` replaces it)."""
    path = _PATHS.get(r)
    if path is None or path.cache is not rootoftools._complexes_cache:
        path = _PATHS[r] = _BisectionPath(r)
    return path


def _integer_basis(c0: int, c1: int, c2: int) -> int | None:
    """sympy's `_integer_basis` for c2 x^2 + c1 x + c0, c2 > 0, c0 != 0,
    tried only when c2 < |c0|: the largest d >= 2 with d | c1 and d^2 | c0,
    or for c1 = 0 the integer sqrt(|c0|); None when there is none.
    `CRootOf` names a root of the quadratic as d times a root of
    c2 y^2 + (c1/d) y + c0/d^2 (`preprocess_roots`)."""
    a0, a1 = abs(c0), abs(c1)
    if c2 >= a0:
        return None
    if not a1:
        r = math.isqrt(a0)
        return r if r * r == a0 else None
    return next((d for d in reversed(sympy.divisors(math.gcd(a0, a1))[1:])
                 if a0 % (d * d) == 0), None)


def _quadratic_seed(minpoly: tuple[int, ...], index: int, bits: int) -> Box | None:
    """The seed box `_sympy_expr_box` gives the non-real root `index` of
    the irreducible quadratic `minpoly` (c0, c1, c2 > 0) from a fresh
    sympy state, with no sympy call; None where `_land` finds no cell (a
    root on a horizontal line of sympy's grid), left to the replay.

    sympy isolates the root of c2 x^2 + c1 x + c0 (after `_integer_basis`)
    in [-B, B] x [0, B], B = 2 max|c_i| / c2, by `_grid_cell`'s rule, up
    to the first cell clear of both axes: after k halvings, 2^((k+1)//2)
    columns and 2^(k//2) rows.  The seed is the centre of the cell that
    the upper closed-form box lands on, at that depth or deeper (real part
    0 on the imaginary axis, as sympy reads it).
    """
    c0, c1, c2 = minpoly
    d = _integer_basis(c0, c1, c2)
    if d is not None:
        # the root is d * CRootOf(...), each factor seeded 4 bits deeper
        c0, c1, bits = c0 // (d * d), c1 // d, bits + 4
    top = max(abs(c0), abs(c1), c2)    # B = 2 top / c2
    disc = 4 * c2 * c0 - c1 * c1       # (2 c2 im)^2
    # clear of the real axis: height B / 2^n <= im at step 2n
    k = (((16 * top * top - 1) // disc).bit_length() + 1) // 2 * 2
    if c1:
        # clear of the imaginary axis: width <= re, or < -re for re < 0
        k = max(k, 2 * ((4 * top - (c1 < 0)) // abs(c1)).bit_length() + 1)
    bound = Q(2 * top, c2)
    p = (Q(c0), Q(c1), Q(c2))
    cell, _ = _land((-bound, ZERO, bound, bound), bits, p, pderiv(p),
                    _root_enclosures((c0, c1, c2))[1], a=(k + 1) // 2, b=k // 2)
    if cell is None:
        return None
    u, v, s, t = cell
    re, im = ((u + s) / 2 if c1 else ZERO), (v + t) / 2
    # sympy's index 0 is the root below the real axis
    box = _centre_box(re, -im if index == 0 else im, bits)
    return box if d is None else Box.point(d) * box


@lru_cache(maxsize=None)
def _field_cache(minpoly: tuple[int, ...], index: int) -> "NumberField":
    return NumberField(minpoly, index)


class NumberField:
    """Q[x]/(minpoly) with a distinguished root (a specific embedding).

    Deep refinement runs a certified complex interval Newton iteration
    (sound over convex boxes; the minimal polynomial is irreducible, so
    the root is simple and p' eventually excludes zero).  The certified
    seed box is the one sympy's isolation gives, a function of the
    polynomial, the index and the bits: landed from the closed form for a
    non-real quadratic root (`_quadratic_seed`), else the replay of sympy's
    refinement (`_sympy_expr_box`).  sympy's `CRootOf` is built only for
    the replay, and whether a quadratic's root is real is the sign of its
    discriminant.  A Newton step that fails takes one seed as sharp as
    the request.
    """

    def __init__(self, minpoly: tuple[int, ...], root_index: int):
        self.minpoly = tuple(int(c) for c in minpoly)
        self.root_index = root_index
        self.minpoly_q = pnorm([Q(c, self.minpoly[-1]) for c in self.minpoly])  # monic
        self.degree = len(self.minpoly) - 1
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

    @cached_property
    def _crootof(self):
        """sympy's name for the root, built on first use."""
        return _rootof(self.minpoly, self.root_index)

    @cached_property
    def is_real_root(self) -> bool:
        if self.degree == 2:
            c0, c1, c2 = self.minpoly
            return c1 * c1 > 4 * c2 * c0
        return bool(self._crootof.is_real)

    def _seed_box(self, bits: int) -> Box:
        if self.degree == 2 and not self.is_real_root:
            box = _quadratic_seed(self.minpoly, self.root_index, bits)
            if box is not None:
                return box
        return _sympy_expr_box(self._crootof, bits)

    def root_box(self, bits: int) -> Box:
        if self._box is not None and self._box_bits >= bits:
            return self._box
        if self._box is None:
            self._box = self._seed_box(64)
            self._box_bits = 64
            if bits <= 64:
                return self._box
        box = self._box
        while box.width > Q(1, 1 << bits):
            box = _contract(self.minpoly_q, self._deriv, box, bits + 16)
            if box is None:
                # derivative box straddles zero or convergence stalled:
                # a seed as sharp as the request
                box = self._seed_box(max(bits, 128))
                break
        self._box = box
        self._box_bits = bits
        return box

    def conjugate_field(self) -> "NumberField":
        """The field embedding at the complex-conjugate root."""
        if self.is_real_root:
            return self
        # the conjugate root is the unique root of minpoly in the mirrored
        # box; each field is built inside its own box call, in index order
        idx = _sole_hit(lambda bits: self.root_box(bits).conj(),
                        range(self.degree),
                        lambda i, bits: _field_cache(self.minpoly, i).root_box(bits),
                        32, "conjugate root identification")
        return _field_cache(self.minpoly, idx)


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
            raise RuntimeError("not a rational element")
        return self.coeffs[0] if self.coeffs else ZERO

    def _same(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise RuntimeError("field mismatch")
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
        if isinstance(other, FieldElement) and other.field is not self.field:
            return NotImplemented
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

    def at(self, x: "FieldElement") -> "FieldElement":
        """The element's polynomial in the generator evaluated at x, by
        Horner, in x's field: every change of embedding is this one
        substitution."""
        f, acc = x.field, ()
        for c in reversed(self.coeffs):
            acc = padd(pmul(acc, x.coeffs), (c,))
            if pdeg(acc) >= f.degree:
                acc = pmod(acc, f.minpoly_q)
        return FieldElement(f, acc)

    def root_exchanged(self, field: NumberField) -> "FieldElement":
        """The same number in `field`, a quadratic field on the same minimal
        polynomial at the other root (or, for a complex root, at its own
        conjugate): the roots are r and s - r with s the rational root sum."""
        return self.at(FieldElement(field, (-field.minpoly_q[1], Q(-1))))

    def conj_in_field(self) -> "FieldElement | None":
        """Complex conjugate as an element of the same field, when expressible:
        real embeddings (identity), quadratic fields (root exchange), and
        unit-modulus generators (conjugate = inverse)."""
        f = self.field
        if f.is_real_root:
            return self
        if f.degree == 2:
            return self.root_exchanged(f)
        if _unit_modulus_minpoly(f.minpoly, f.root_index):
            return self.at(FieldElement.generator(f).inverse())
        return None


@lru_cache(maxsize=None)
def _unit_modulus_minpoly(minpoly: tuple[int, ...], index: int) -> bool:
    """Exact |root| == 1 test for the distinguished root of the field; a
    real root of degree >= 2 cannot be +-1."""
    field = _field_cache(minpoly, index)
    return not field.is_real_root and _on_unit_circle(minpoly, field.root_box)


def _on_unit_circle(mp: tuple[int, ...], box_at) -> bool:
    """Exact |z| == 1 for the root z of `mp` (irreducible, primitive) that
    the box `box_at(bits)` encloses: 1/z must be a root of mp, and then
    |z| = 1 iff conj(z) and 1/z are the same root."""
    if int_normalize(preverse([Q(c) for c in mp])) != mp:
        return False  # 1/z is not a root of mp, so |z| != 1
    return _same_root_of(mp, lambda bits: box_at(bits).conj(),
                         lambda bits: box_at(bits).inverse())


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
    root.  Boxes that are disjoint at the first rung answer before any
    field of intpoly's roots is seeded; only the boxes that meet go on to
    the root boxes."""
    fields = None
    for bits in precisions(64, "root identification"):
        ba, bb = refine_a(bits), refine_b(bits)
        if ba.disjoint(bb):
            return False
        if fields is None:
            fields = _root_fields(intpoly)
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

    __slots__ = ("_rat", "_elem", "_defpoly", "_rou", "_unit")

    def __init__(self, rat: Fraction | None = None, elem: FieldElement | None = None):
        if (rat is None) == (elem is None):
            raise RuntimeError("exactly one of rat/elem required")
        if elem is not None and elem.is_rational():
            rat, elem = elem.as_rational() if elem.coeffs else ZERO, None
        self._rat = rat
        self._elem = elem
        self._defpoly: tuple[int, ...] | None = None
        self._rou = _UNSET      # identify_root_of_unity's answer, once found
        self._unit = _UNSET     # is_unit_modulus's answer, once found

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
            raise RuntimeError("not rational")
        return self._rat

    @property
    def elem(self) -> FieldElement:
        if self._elem is None:
            raise RuntimeError("rational value has no field element")
        return self._elem

    def box(self, bits: int = 64) -> Box:
        if self._rat is not None:
            return Box.point(self._rat)
        return self._elem.box(bits)

    def refine(self, width: Fraction) -> Box:
        """Enclosure of width at most `width` (idempotent under shrinking)."""
        width = Q(width)
        if width <= 0:
            raise RuntimeError("width must be positive")
        for bits in precisions(64, "refinement to a given width"):
            b = self.box(bits)
            if b.width <= width:
                return b

    @property
    def defining_poly(self) -> tuple[Fraction, ...]:
        """The minimal polynomial's coefficients, lowest degree first."""
        return tuple(Q(c) for c in self._defining_ints())

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
        radius = sqrt_up((b.re.width / 2) ** 2 + (b.im.width / 2) ** 2, 64)
        return center_re, center_im, max(radius, Q(1, 1 << 200))

    def is_unit_modulus(self) -> bool:
        """Exact test |value| == 1, found once per object and kept."""
        if self._unit is _UNSET:
            self._unit = self._unit_modulus()
        return self._unit

    def _unit_modulus(self) -> bool:
        if self._rat is not None:
            return abs(self._rat) == 1
        e = self._elem
        if e.coeffs == (ZERO, ONE):
            return _unit_modulus_minpoly(e.field.minpoly, e.field.root_index)
        cj = e.conj_in_field()
        if cj is not None:
            return (e * cj).coeffs == (ONE,)
        return _on_unit_circle(self._defining_ints(), self.box)

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
    the isolating disks are pairwise disjoint.  `p` is a coefficient
    tuple, lowest degree first; `factors` is `poly.factor_int(p)` when the
    caller already holds it.
    """
    coeffs = pnorm(p)
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


def locate_root(coeffs, box_at, what: str) -> AlgebraicNumber:
    """The one root of the polynomial `coeffs` whose box meets the box
    `box_at(bits)` enclosing the wanted number, refined until one does."""
    cands = [a for a, _ in isolate_roots(coeffs)]
    return _sole_hit(box_at, cands, lambda a, bits: a.box(bits), 64, what)


def _sole_hit(target_at, cands, box_at, start: int, what: str):
    """The one candidate c whose box `box_at(c, bits)` meets the target box
    `target_at(bits)`, climbing the precision ladder from `start` until
    exactly one does.  At each rung the target is refined first, then
    every candidate in order."""
    for bits in precisions(start, what):
        target = target_at(bits)
        hits = [c for c in cands if not box_at(c, bits).disjoint(target)]
        if len(hits) == 1:
            return hits[0]


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
    hit = _sole_hit(a.box, [Q(k, n) for k in range(n) if math.gcd(k, n) == 1],
                    trig.unit_box, 64, "root-of-unity identification")
    return (hit.numerator, n)


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
                # 1/xi is the conjugate only when |xi| = 1 (ROADMAP item 1)
                elems.append(e.at(FieldElement.generator(field).inverse()))
                continue
        return None
    return field, elems, rous


def power_product_is_one(gammas: list[AlgebraicNumber],
                         exponents: list[int]) -> bool:
    """Exact decision of prod gamma_j^(lambda_j) == 1 for unit-modulus inputs."""
    if len(gammas) != len(exponents):
        raise RuntimeError("gammas and exponents must have equal length")
    for g in gammas:
        if not g.is_unit_modulus():
            raise RuntimeError("power_product_is_one requires unit-modulus inputs")
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
        # prod = zeta^(-turn) needs prod^n = 1, and then its box names it
        if prod.pow(n).coeffs != (ONE,):
            return False
        hit = _sole_hit(prod.box, [Q(k, n) for k in range(n)], trig.unit_box,
                        64, "root-of-unity comparison")
        return hit == -turn % 1
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

