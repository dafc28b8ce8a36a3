"""Reference routines that only the tests call.

The package runs none of these: a float-screen sampling oracle for the
decisions (`brute_force_check`), exact companion-matrix powers and
hyperplane distances, exact orbit points and parametrization points of
the closure torus, a direct enclosure of the residual, the orbit scan's
`Fraction` formula and its two-call integer form (`OrbitScannerRef`), the
exact check of the order-6 rotation block, LLL with a Gram-Schmidt
rebuild after every step (`lll_reduce_ref`), the per-step rotation walk
(`RotScan`) and scans of the hardness lab, the
`Fraction` Horner loop of box evaluation, polynomial composition (the
root exchange of a quadratic field), sympy's bisection of a root's
rectangle one halving at a time (`bisection_walk_ref`), the `Fraction` interval forms of
`cos_turn` and `sin_turn`, of the Taylor series under them
(`taylor_series_ref`) and of the per-function reduction of a point turn
(`turn_point_ref`), the problem document of a parsed spec, the
`Fraction` forms of the optimizer's finite-torus coset values and
open-ball norm term, of its branch and bound and of the start solve, and
the emptying of the recurrence-level memos.
The sampling screen is the only user of numpy, which is a test
dependency, not a runtime one.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from robustlrs.qmath import (Q, ZERO, ONE, is_perfect_square, exact_sqrt,
                             format_rational)
from robustlrs.interval import Ival, Box, imul
from robustlrs.poly import (int_normalize, padd, pmul, pnorm, pdivmod,
                            cyclotomic)
from robustlrs.algebraic import (AlgebraicNumber, NumberField, FieldElement,
                                 power_product_is_one, identify_root_of_unity)
from robustlrs.lrs import (Lrr, InitialConfig, Ball, SpectralData, spectral,
                           _check_config, ResidualTerm, OrbitScanner,
                           _scaled_integer_recurrence, _scaled_terms,
                           TraceSystem, mat_inv)
from robustlrs.optimize import ExactReal
from robustlrs.torus import TorusParam, TorusPoint, root_of_unity_alg
from robustlrs.trig import pi_ival, rotation_order, unit_box
from robustlrs import decide, hardness, lrs, optimize, trig


# ---------------------------------------------------------------------------
# the recurrence-level memos


def clear_analysis_memos():
    """Empty `lrs.trace_system`, `lrs.recurrence` and
    `decide.closure_torus`, so that the next analysis of any recurrence
    builds its shared records afresh."""
    lrs.trace_system.cache_clear()
    lrs.recurrence.cache_clear()
    decide.closure_torus.cache_clear()


# ---------------------------------------------------------------------------
# box evaluation of a polynomial


def peval_box_ref(p, z: Box, bits: int) -> Box:
    """Horner on `Fraction` boxes, rounded out to `bits` after every step:
    the reference of `poly.peval_box`'s integer loop."""
    acc = Box.point(0)
    for c in reversed(p):
        acc = (acc * z + c).round_out(bits)
    return acc


def pcompose(p, q):
    """p(q(x)) as a coefficient tuple: with q = s - x, the reference of
    `FieldElement.root_exchanged`."""
    acc = ()
    for c in reversed(p):
        acc = padd(pmul(acc, q), (c,))
    return acc


# ---------------------------------------------------------------------------
# the optimizer's finite-torus coset values, open-ball norm term and
# branch and bound, and the start solve, on `Fraction`s


def cyclo_combo_ref(terms, rho: AlgebraicNumber | None) -> ExactReal | None:
    """sum alpha_j * zeta_j over (alpha, s, zeta_turn) terms as an element
    of Q(zeta_N), with `Fraction` coefficients and `Box` sums, everything
    found again for each coset: the reference of
    `optimize._CycloForm.value`."""
    if rho is None or not rho.is_rational:
        return None
    r = rho.as_rational()
    datas = []
    for alpha, s, zeta_turn in terms:
        rou = identify_root_of_unity(s)
        if rou is None:
            return None
        datas.append((alpha, rou, zeta_turn))
    n_all = [n for _, (_, n), _ in datas] + \
            [t.denominator for _, _, t in datas]
    N = math.lcm(*n_all) if n_all else 1
    coeffs = [ZERO] * N
    for alpha, (k, n), zt in datas:
        shift = (zt.numerator * (N // zt.denominator)) % N
        if alpha.is_rational:
            coeffs[shift] += alpha.as_rational()
            continue
        w = (k * (N // n)) % N
        # gamma = r * zeta_N^w must be the field generator of alpha
        gb = alpha.elem.field.root_box(96)
        target = unit_box(Q(w, N), 96) * r
        if gb.disjoint(target):
            return None
        for i, a in enumerate(alpha.elem.coeffs):
            if a:
                coeffs[(shift + w * i) % N] += a * r**i
    phi_n = [Q(c) for c in cyclotomic(N)]

    def is_zero() -> bool:
        _, rem = pdivmod(pnorm(coeffs), phi_n)
        return not rem

    def refiner(bits: int) -> Ival:
        acc = Box.point(0)
        for t, c in enumerate(coeffs):
            if c:
                acc = acc + unit_box(Q(t, N), bits) * c
        return acc.re

    return ExactReal(refiner, is_zero)


def ball_value_ref(vals: list[Ival], bits: int, radius: Fraction) -> Ival:
    """vals[0] - radius * sqrt(sum of vals[j]^2, j >= 1) on `Fraction`
    intervals: the reference of `optimize._ball_value`."""
    norm_sq = Ival.point(0)
    for v in vals[1:]:
        norm_sq = norm_sq + v.sq()
    return vals[0] - norm_sq.sqrt(bits) * radius


def solve_coords_ref(system: TraceSystem,
                     c: InitialConfig) -> list[Fraction]:
    """The coordinates a = M^-1 u of a start, with M and its inverse as
    `Fraction` matrices (the inverse found again from M) and the check
    M a = u on `Fraction`s: the reference of `lrs._solve`'s integer
    products."""
    mat = [[Q(v, system.mat_den) for v in row] for row in system.mat]
    coords = [sum((a * u for a, u in zip(row, c.entries)), ZERO)
              for row in mat_inv(mat)]
    if any(sum((a * x for a, x in zip(row, coords)), ZERO) != u
           for row, u in zip(mat, c.entries)):
        raise RuntimeError("exponential polynomial reconstruction failed")
    return coords


def dyadic_box(sbox: list[Ival]) -> tuple[list[int], list[int], int]:
    """A box of dyadic `Ival` angles as the integer box `(los, his, d)`
    of `optimize._branch_and_bound`, at the least d that holds it."""
    d = max((max(s.lo.denominator, s.hi.denominator) for s in sbox),
            default=1).bit_length() - 1
    return ([s.lo.numerator << (d + 1 - s.lo.denominator.bit_length())
             for s in sbox],
            [s.hi.numerator << (d + 1 - s.hi.denominator.bit_length())
             for s in sbox], d)


def branch_and_bound_ref(value_fn, free: int, tol: Fraction,
                         max_boxes: int = optimize._MAX_BOXES,
                         sign_exit: bool = False):
    """`optimize._branch_and_bound` on `Fraction` boxes: each box a list
    of `Ival` angles, split at the `Fraction` midpoint of its widest
    angle.  `value_fn` reads the integer box, so each box is converted by
    `dyadic_box` before it is evaluated.  The reference of the integer
    search, which gives the same enclosure, witness, `converged` and
    number of `value_fn` calls."""
    if free == 0:
        return value_fn(dyadic_box([]))[0], (), True
    start = [Ival(ZERO, ONE) for _ in range(free)]
    counter = itertools.count()
    iv0 = value_fn(dyadic_box(start))[0]
    heap = [(iv0.lo, next(counter), start)]
    upper = iv0.hi
    best_mid = tuple(s.mid for s in start)
    boxes_done = 0
    converged = True
    while heap:
        lo, _, box = heapq.heappop(heap)
        if upper - lo <= tol or (sign_exit and (upper < 0 or lo > 0)):
            heapq.heappush(heap, (lo, next(counter), box))
            break
        if boxes_done >= max_boxes:
            heapq.heappush(heap, (lo, next(counter), box))
            converged = False
            break
        boxes_done += 1
        widths = [s.width for s in box]
        dim = widths.index(max(widths))
        mid = box[dim].mid
        for part in (Ival(box[dim].lo, mid), Ival(mid, box[dim].hi)):
            child = list(box)
            child[dim] = part
            iv, at_mid = value_fn(dyadic_box(child))
            if at_mid.hi < upper:
                upper = at_mid.hi
                best_mid = tuple(s.mid for s in child)
            if iv.lo <= upper:
                heapq.heappush(heap, (iv.lo, next(counter), child))
    global_lo = min((item[0] for item in heap), default=upper)
    return Ival(min(global_lo, upper), upper), best_mid, converged


# ---------------------------------------------------------------------------
# sympy's bisection of a root's rectangle, one halving at a time


def bisection_walk_ref(rect, bits: int | None, re, im, steps: int = 0):
    """Halve the longer side of `rect` = (u, v, s, t) (the height on a
    tie) and keep the half that holds the root, at least `steps` times and
    until both sides are < 2^-(bits+1) (exactly `steps` times for bits
    None); None at the first halving the root's description leaves
    undecided.  The root is described by an exact real part or an `Ival`
    enclosing it, and by an exact squared imaginary part (v >= 0) or an
    `Ival` enclosing the imaginary part.  `algebraic._grid_cell` takes the
    `Ival` forms only; the exact forms, a quadratic's root in closed form,
    live only here.  The per-halving walk the replay took before
    `_grid_cell`, and its reference."""
    def upper_half(vertical, m):
        """Whether the root lies in the right (vertical split at re = m)
        or the top (horizontal split at im = m) half; None if undecided."""
        if vertical and not isinstance(re, Ival):
            return re >= m    # a root on a vertical line goes right
        if not vertical and not isinstance(im, Ival):
            if im == m * m:
                return None   # m > 0: the root is on the line
            return im > m * m
        ival = re if vertical else im
        if ival.lo > m or (vertical and ival.lo == m):
            return True
        if ival.hi < m:
            return False
        return None

    eps = None if bits is None else Q(1, 1 << (bits + 1))
    u, v, s, t = rect
    while steps > 0 or eps is not None and not (s - u < eps and t - v < eps):
        steps -= 1
        vertical = s - u > t - v
        m = (u + s) / 2 if vertical else (v + t) / 2
        upper = upper_half(vertical, m)
        if upper is None:
            return None
        if vertical:
            u, s = (m, s) if upper else (u, m)
        else:
            v, t = (m, t) if upper else (v, m)
    return u, v, s, t


# ---------------------------------------------------------------------------
# cos and sin of a turn on `Fraction` intervals


def taylor_series_ref(x: Ival, bits: int, odd: int) -> Ival:
    """cos (odd = 0) or sin (odd = 1) on 0 <= x <= 1 by the series on
    `Fraction` intervals, every term rounded out to bits + 8: the
    reference of `trig._taylor_series`, which runs the same rounding on
    integers."""
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


def turn_point_ref(r: Fraction, bits: int) -> tuple[Ival, Ival]:
    """Enclosures of cos(2 pi r) and sin(2 pi r) for a rational turn r,
    each reduced on its own into a quarter turn (cos by r -> 1 - r and
    r -> 1/2 - r, negated after the second; sin by the same, negated after
    the first), then past 1/8 the other series at 1/4 - r, on `Fraction`
    intervals (`taylor_series_ref`).  The reference of
    `trig._point_ends`, which reduces the turn once for both."""
    def quarter(r, odd):
        if r > Q(1, 8):
            r, odd = Q(1, 4) - r, 1 - odd
        return taylor_series_ref(pi_ival(bits + 8) * (2 * r), bits, odd)

    r = r - (r.numerator // r.denominator)
    c = 1 - r if r > Q(1, 2) else r
    cos = quarter(c, 0) if c <= Q(1, 4) else -quarter(Q(1, 2) - c, 0)
    s, sign = (1 - r, -1) if r > Q(1, 2) else (r, 1)
    sin = quarter(Q(1, 2) - s if s > Q(1, 4) else s, 1)
    return cos, (sin if sign == 1 else -sin)


def has_point_mod1_ref(lo: Fraction, hi: Fraction, frac: Fraction) -> bool:
    """Is there an x in [lo, hi] with x = frac (mod 1)?  The least such x
    with x >= lo, compared with hi."""
    k = (lo - frac).numerator // (lo - frac).denominator
    candidate = frac + k
    if candidate < lo:
        candidate += 1
    return candidate <= hi


def cos_turn_ival(t: Ival, bits: int) -> Ival:
    """Enclosure of cos(2 pi x) for x in t (turns) on `Fraction` intervals:
    the hull of the table entries at the endpoints, widened to 1 and -1 at
    the turns 0 and 1/2.  The reference of `trig.cos_turn`, which runs the
    same on integer endpoints."""
    if t.width >= 1:
        return Ival(Q(-1), ONE)
    out = Ival.hull([unit_box(x, bits).re for x in {t.lo, t.hi}])
    if has_point_mod1_ref(t.lo, t.hi, ZERO):
        out = Ival(out.lo, ONE)
    if has_point_mod1_ref(t.lo, t.hi, Q(1, 2)):
        out = Ival(Q(-1), out.hi)
    return out


def sin_turn_ival(t: Ival, bits: int) -> Ival:
    """`cos_turn_ival` for sin(2 pi x), whose extrema sit at 1/4 and 3/4:
    the reference of `trig.sin_turn`."""
    if t.width >= 1:
        return Ival(Q(-1), ONE)
    out = Ival.hull([unit_box(x, bits).im for x in {t.lo, t.hi}])
    if has_point_mod1_ref(t.lo, t.hi, Q(1, 4)):
        out = Ival(out.lo, ONE)
    if has_point_mod1_ref(t.lo, t.hi, Q(3, 4)):
        out = Ival(Q(-1), out.hi)
    return out


# ---------------------------------------------------------------------------
# lattice reduction


def lll_reduce_ref(basis: list[list[int]]) -> list[list[int]]:
    """LLL with delta = 3/4 that rebuilds the whole Gram-Schmidt data after
    every size-reduction step and every swap: the reference of
    `intmat.lll_reduce`, which updates row k of mu in place instead."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0:
        return b

    def gram_schmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        star: list[list[Fraction]] = []
        for i in range(n):
            vec = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    continue
                mu[i][j] = Fraction(sum(Fraction(b[i][k]) * star[j][k]
                                        for k in range(len(vec)))) / norms[j]
                vec = [vk - mu[i][j] * sk for vk, sk in zip(vec, star[j])]
            star.append(vec)
            norms[i] = sum(x * x for x in vec)
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# companion matrix and hyperplane distance (Claim: distance(c, H_n) <=
# C |v_n(c)|)


def companion_matrix(lrr: Lrr) -> list[list[Fraction]]:
    k = lrr.order
    m = [[ZERO] * k for _ in range(k)]
    for i in range(k - 1):
        m[i][i + 1] = ONE
    m[k - 1] = list(lrr.coeffs)
    return m


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_pow(m, n: int):
    k = len(m)
    result = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    base = m
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def hyperplane_distance(lrr: Lrr, c: InitialConfig, n: int,
                        bits: int = 128) -> Ival:
    """Enclosure of distance(c, H_n) = |u_n(c)| / ||first row of M^n||."""
    _check_config(lrr, c)
    row = mat_pow(companion_matrix(lrr), n)[0]
    norm_sq = sum((v * v for v in row), ZERO)
    u_n = sum((row[j] * c.entries[j] for j in range(lrr.order)), ZERO)
    if norm_sq == 0:
        raise ArithmeticError("zero row in companion power")
    return Ival.point(abs(u_n)) / Ival.point(norm_sq).sqrt(bits)


def hyperplane_constant(lrr: Lrr, spec: SpectralData | None = None,
                        bits: int = 128) -> Fraction:
    """Upper bound C with distance(c, H_n) <= C * |v_n(c)| for n >= 1:
    C = Frobenius norm of the generalized Vandermonde V[n,(i,j)] = n^j g_i^n."""
    if spec is None:
        spec = spectral(lrr)
    total = Ival.point(0)
    for n in range(lrr.order):
        for root, mult in spec.roots:
            gb = root.box(bits).pow(n, bits + 16)
            for j in range(mult):
                total = total + (gb * Q(n**j)).abs_sq()
    return total.sqrt(bits).hi


# ---------------------------------------------------------------------------
# exact orbit points of the closure torus


def orbit_point(gammas: list[AlgebraicNumber], n: int) -> tuple[AlgebraicNumber, ...]:
    """Exact n-th powers (e^(i n theta_1), ..., e^(i n theta_k))."""
    out = []
    for g in gammas:
        if g.is_rational:
            out.append(AlgebraicNumber.from_rational(g.as_rational() ** n))
        else:
            out.append(AlgebraicNumber.from_element(g.elem.pow(n)))
    return tuple(out)


def point_turns(torus: TorusParam, pt: TorusPoint) -> tuple[Fraction, ...]:
    """Turns in [0, 1) of each coordinate of a parametrization point."""
    out = []
    for j, t in enumerate(torus.coset_turns[pt.coset]):
        for b, ang in enumerate(pt.angles):
            t += torus.embedding[j][b] * ang
        out.append(t - (t.numerator // t.denominator))
    return tuple(out)


def point_values(torus: TorusParam,
                 pt: TorusPoint) -> tuple[AlgebraicNumber, ...]:
    """Exact values of a parametrization point (its turns are rational)."""
    return tuple(root_of_unity_alg(t.numerator, t.denominator)
                 for t in point_turns(torus, pt))


def contains_values(torus: TorusParam, values) -> bool:
    """Exact membership of a tuple of unit algebraic numbers in the torus:
    every generator of the relation lattice holds."""
    if len(values) != torus.k:
        return False
    return all(power_product_is_one(list(values), list(gen))
               for gen in torus.lattice.generators)


# ---------------------------------------------------------------------------
# direct enclosures of the residual and of the orbit scan


def residual_box(res: list[ResidualTerm], n: int, bits: int = 128) -> Box:
    """Enclosure of v_n^res, term by term with interval powers."""
    if n < 1:
        raise ValueError("residual evaluation starts at n = 1")
    acc = Box.point(0)
    for t in res:
        npow = Q(n) ** t.npow
        term = t.alpha.box(bits) * t.base.box(bits).pow(n, bits + 32) * npow
        acc = (acc + term).round_out(bits + 16)
    return acc


def scanner_powers(sc: OrbitScanner) -> list[tuple[int, int]]:
    """Every term's power point (c, d), base^n ~ (c + d i)/2^bits, read
    from the scanner's live term records."""
    return [(t[6], t[7]) for t in sc._terms]


def fraction_enclosure(sc: OrbitScanner, normal,
                       dominant_only: bool = False) -> Box:
    """The `Fraction` interval formula over the scanner's state at its
    current step n >= 1: the sum over the terms of `normal`, the (form,
    residual terms) pair the scanner was built from, of alpha_box *
    (base^n box) * n^npow, real and imaginary parts, with base^n the
    dyadic point widened by err + 2 ulps.  With `dominant_only`, the sum
    over the dominant terms alone."""
    n = sc.n
    form, res = normal
    terms = [(a, 0) for a, _ in form.terms]
    if not dominant_only:
        terms += [(t.alpha, t.npow) for t in res]
    scale = 1 << sc.bits
    e = Q(sc.err + 2, scale)
    acc = Box.point(0)
    for (alpha, npow), (vr, vi) in zip(terms, scanner_powers(sc)):
        ab = alpha.refine(Q(1, scale))
        pr, pi = Q(vr, scale), Q(vi, scale)
        pw = Box(Ival(pr - e, pr + e), Ival(pi - e, pi + e))
        acc = acc + ab * pw * (Q(n) ** npow)
    return acc


class OrbitScannerRef:
    """The orbit scan with one call to advance and one to read: `step`
    rebuilds the list of power points, `enclosure` sums every term through
    `interval.imul` and multiplies a base of 1 like any other.  The
    reference of `lrs.OrbitScanner`, whose `step` returns the same (lo, hi,
    den) and leaves the same power points (`scanner_powers`), `err` and
    `n`."""

    def __init__(self, normal, bits: int):
        self.bits = bits
        form, res = normal
        triples = [(a, b, 0) for a, b in form.terms] + \
                  [(t.alpha, t.base, t.npow) for t in res]
        ends = []
        for a, _, _ in triples:
            ab = a.refine(Q(1, 1 << bits))
            ends.append((ab.re.lo, ab.re.hi, ab.im.lo, ab.im.hi))
        den = math.lcm(*(x.denominator for e in ends for x in e))
        self._alpha = [tuple(x.numerator * (den // x.denominator) for x in e)
                       for e in ends]
        scale = 1 << bits
        self._base = []
        for _, b, _ in triples:
            bb = b.refine(Q(1, scale * 4))
            self._base.append((int(bb.re.mid * scale), int(bb.im.mid * scale)))
        self._power = [(scale, 0)] * len(triples)
        self.err = 0
        self._den = den << bits
        self._npow_max = max([0] + [-npow for _, _, npow in triples])
        self._nexp = [npow + self._npow_max for _, _, npow in triples]
        self.n = 0

    def step(self):
        s = self.bits
        self._power = [((vr * br) >> s, 0) if not bi else
                       ((vr * br - vi * bi) >> s, (vr * bi + vi * br) >> s)
                       for (vr, vi), (br, bi) in zip(self._power, self._base)]
        self.err += 7 + (self.err >> (s - 8))
        self.n += 1

    def enclosure(self) -> tuple[int, int, int]:
        n = self.n
        if n < 1:
            raise RuntimeError("scan value defined for n >= 1")
        e = self.err + 2
        lo = hi = 0
        for (ar_lo, ar_hi, ai_lo, ai_hi), (vr, vi), k in zip(
                self._alpha, self._power, self._nexp):
            re_lo, re_hi = imul(ar_lo, ar_hi, vr - e, vr + e)
            if ai_lo or ai_hi:
                b_lo, b_hi = imul(ai_lo, ai_hi, vi - e, vi + e)
                re_lo, re_hi = re_lo - b_hi, re_hi - b_lo
            if k:
                s = n ** k
                re_lo, re_hi = re_lo * s, re_hi * s
            lo += re_lo
            hi += re_hi
        if self._npow_max:
            return lo, hi, self._den * n ** self._npow_max
        return lo, hi, self._den


# ---------------------------------------------------------------------------
# problem documents


def problem_json(spec) -> dict:
    """The problem document that `serialize.parse_problem` reads back as
    `spec`."""
    out = {
        "coeffs": [format_rational(a) for a in spec.lrr.coeffs],
        "init": [format_rational(v) for v in spec.init.entries],
    }
    if spec.ball is not None:
        out["ball"] = {"radius": format_rational(spec.ball.radius),
                       "topology": spec.ball.topology}
    if spec.question is not None:
        out["question"] = spec.question
    if spec.tol is not None:
        out["tol"] = format_rational(spec.tol)
    if spec.prefix_cap is not None:
        out["prefix_cap"] = spec.prefix_cap
    if spec.height_bound is not None:
        out["height_bound"] = spec.height_bound
    return out


# ---------------------------------------------------------------------------
# the order-6 rotation block


@dataclass
class RotationReport:
    is_rotation: bool
    orthogonal: bool
    determinant_one: bool
    order: Optional[int]            # finite order of the composition, if any


def rotation_check(p, q) -> RotationReport:
    """Exact verification that the dominant-block action is the rotation
    (z, x, y) -> (z, x p + y q, y p - x q) around the z axis."""
    p = Q(p)
    if q is not None:
        q = Q(q)
    if q is not None and p * p + q * q == 1:
        # rational case: plain Fraction matrix
        rows = [[ONE, ZERO, ZERO], [ZERO, p, q], [ZERO, -q, p]]
        mt_m = [[sum(rows[k][i] * rows[k][j] for k in range(3))
                 for j in range(3)] for i in range(3)]
        orth = mt_m == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        det = p * p + q * q
        return RotationReport(is_rotation=orth and det == 1, orthogonal=orth,
                              determinant_one=det == 1, order=rotation_order(p))
    # algebraic sine: q^2 = 1 - p^2, work in Q[x]/(x^2 - (1 - p^2))
    q2 = 1 - p * p
    if q2 < 0:
        raise ValueError("p out of range")
    if is_perfect_square(q2):
        return rotation_check(p, exact_sqrt(q2))
    mp = int_normalize((-q2, ZERO, ONE))
    # pick the positive real root
    f0, f1 = NumberField.get(mp, 0), NumberField.get(mp, 1)
    fld = f1 if f1.root_box(64).re.lo > 0 else f0
    qe = FieldElement.generator(fld)
    pe = FieldElement.const(fld, p)
    one = FieldElement.const(fld, ONE)
    zero = FieldElement.const(fld, ZERO)
    rows = [[one, zero, zero], [zero, pe, qe], [zero, -qe, pe]]
    mt_m = [[sum((rows[k][i] * rows[k][j] for k in range(3)),
                 zero) for j in range(3)] for i in range(3)]
    ident = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    orth = mt_m == ident
    det = pe * pe + qe * qe
    order = rotation_order(p)
    if order is not None:
        # compose order times exactly and check identity
        acc = ident
        for _ in range(order):
            acc = [[sum((acc[i][k] * rows[k][j] for k in range(3)), zero)
                    for j in range(3)] for i in range(3)]
        if acc != ident:
            order = None
    return RotationReport(is_rotation=orth and det == one, orthogonal=orth,
                          determinant_one=det == one, order=order)


# ---------------------------------------------------------------------------
# per-step rotation scans of the hardness lab


class RotScan:
    """Iterates (cos, sin) of n * theta for e^(i theta) = p + qi exactly on
    the unit circle, as a dyadic point with a certified error ball: the
    per-step reference of the rotation walk in `hardness.lagrange_prefix`.

    The state is integers: cos ~ c / 2^bits, sin ~ s / 2^bits, with the
    Euclidean error at most n + 1 units of 2^-bits after n steps.  Per
    step the rounding adds at most one unit in the last place; the
    rotation itself is an isometry and adds nothing.  So the step count
    is the error count, and no other state varies.
    """

    def __init__(self, p: Fraction, q: Fraction | None, bits: int):
        if q is None:
            raise ValueError("irrational-angle scan needs the exact sine "
                             "value q")
        if p * p + q * q != 1:
            raise ValueError("(p, q) must lie exactly on the unit circle")
        den = math.lcm(p.denominator, q.denominator)
        self.pn = int(p * den)
        self.qn = int(q * den)
        self.den = den
        self.bits = bits
        self.scale = 1 << bits
        self.c = self.scale
        self.s = 0
        self.n = 0

    def walk(self, n_to: int):
        """Step up to index n_to, yielding (n, c, s) after each step.

        The loop runs on locals; the attributes are written back once, when
        the generator finishes or is closed, so read them only after that.
        """
        c, s, n = self.c, self.s, self.n
        pn, qn, den = self.pn, self.qn, self.den
        d2 = 2 * den
        try:
            while n < n_to:
                # round to nearest: (2x + den) // (2 den) = floor(x/den + 1/2)
                c, s = ((2 * (pn * c - qn * s) + den) // d2,
                        (2 * (qn * c + pn * s) + den) // d2)
                n += 1
                yield n, c, s
        finally:
            self.c, self.s, self.n = c, s, n

    def ival(self, v: int, n: int) -> Ival:
        """Enclosure of a coordinate held as v / 2^bits after n steps."""
        e = Q(n + 1, self.scale)
        x = Q(v, self.scale)
        return Ival(max(x - e, Q(-1)), min(x + e, Q(1)))


def walk_to(sc: RotScan, n: int) -> tuple[Ival, Ival]:
    """Step `sc` up to index n; the enclosures of cos and sin there."""
    for _ in sc.walk(n):
        pass
    return sc.ival(sc.c, sc.n), sc.ival(sc.s, sc.n)


def ball_term_steps(params, n_from: int, n_to: int, bits: int = 160):
    """Every step of (n_from, n_to] whose ball term the integer T_lo / T_hi
    test on a `bits`-bit walk does not certify >= 0, as (n, enclosure):
    the enclosure when the term is certified negative, else None."""
    psi, lam = params.psi, params.two_pi_ell
    sc = RotScan(params.p, params.q, bits)
    scale = sc.scale
    a = 2 - psi
    L = math.lcm(a.denominator, lam.denominator, psi.denominator)
    aL, lamL, psiL = int(a * L), int(lam * L), int(psi * L)
    walk_to(sc, n_from)
    for n, C, S in sc.walk(n_to):
        Sa = abs(S)
        T_lo = (2 * n * n * aL * (scale - C - n - 1)
                - 2 * n * lamL * (Sa + n + 1) - 2 * psiL * scale)
        if T_lo >= 0:
            continue
        T_hi = (2 * n * n * aL * (scale - C + n + 1)
                - 2 * n * lamL * max(Sa - n - 1, 0)
                - 4 * n * psiL * scale // (2 * n + 1))
        if T_hi < 0:
            f = 2 * n * scale * L
            lo, hi = Q(T_lo, f), Q(T_hi, f)
            yield n, Ival(min(lo, hi), max(lo, hi))
        else:
            yield n, None


def scan_ball_terms_ref(params, n_from: int, n_to: int):
    """`hardness.scan_ball_terms` as a plain per-step scan."""
    ambiguous = []
    for n, iv in ball_term_steps(params, n_from, n_to):
        if iv is not None:
            return ("violation", n, iv)
        ambiguous.append(n)
    return hardness._resolve_ambiguous(ambiguous, params)


def lagrange_prefix_ref(p, q, N: int, bits: int = 192) -> Ival:
    """`hardness.lagrange_prefix` as a plain per-step scan: every step of
    (0, N] through the squared-angle bounds."""
    pi_iv = pi_ival(bits)
    sc = RotScan(p, q, bits)
    pi_sq_hi = (pi_iv.hi * pi_iv.hi / 2).limit_denominator(1 << 48)
    if pi_sq_hi < pi_iv.hi * pi_iv.hi / 2:
        pi_sq_hi += Q(1, 1 << 40)
    ka, kb = pi_sq_hi.numerator, pi_sq_hi.denominator
    scale = sc.scale
    upper = None
    candidates = []
    for n, C, _ in sc.walk(N):
        hi_sq = n * n * ka * (scale - C + n + 1)
        lo_sq = 2 * n * n * kb * max(scale - C - n - 1, 0)
        if upper is None or hi_sq < upper:
            upper = hi_sq
        if lo_sq <= upper:
            candidates.append((lo_sq, n, C))
    best = None
    for lo_sq, n, C in candidates:
        if lo_sq <= upper:
            precise = hardness.angle_from_cos(sc.ival(C, n), bits) * n
            best = precise if best is None else Ival(min(best.lo, precise.lo),
                                                     min(best.hi, precise.hi))
    out = best / (pi_iv * 2)
    if out.lo < 0:
        out = Ival(ZERO, max(out.hi, ZERO))
    return out


# ---------------------------------------------------------------------------
# sampling oracle for the decisions


@dataclass
class BruteForceReport:
    mode: str
    horizon: int
    samples: int
    violation: Optional[tuple[int, tuple[Fraction, ...]]]
    violation_sign: Optional[int] = None
    min_scaled_value: float = float("inf")
    notes: str = ""


def ball_samples(ball: Ball, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Deterministic rational sample points: center, boundary-biased, and
    uniform-ish interior; all strictly inside for open balls."""
    rng = random.Random(seed)
    k = len(ball.center.entries)
    pts = [ball.center.entries]
    D = 1 << 12
    shrink = Q(4095, 4096)
    while len(pts) < count:
        v = [rng.randint(-D, D) for _ in range(k)]
        nv2 = sum(x * x for x in v)
        if nv2 == 0 or nv2 > D * D:
            continue
        boundary = len(pts) % 2 == 0
        # lambda <= radius * shrink / sqrt(nv2), rounded down
        inv = Q(1 << 20, math.isqrt(nv2 << 40) + 1)
        lam = ball.radius * shrink * inv
        if not boundary:
            lam = lam * Q(rng.randint(1, 1 << 12), 1 << 12)
        pts.append(tuple(cj + lam * vj
                         for cj, vj in zip(ball.center.entries, v)))
    return pts[:count]


def brute_force_check(lrr: Lrr, region, horizon: int = 10**4,
                      samples: int = 10**3, mode: str = "positivity",
                      seed: int = 0) -> BruteForceReport:
    """Sampling oracle: exact-confirmed first violation or none found.

    A float screen (renormalized power iteration over all samples at once)
    flags every term whose scaled value falls below a small float
    threshold (or whose magnitude does, for Skolem mode) as a candidate;
    each candidate's sign is then decided exactly, and the first exactly
    confirmed violation is reported.  The exact signs are those of the
    scaled integer recurrence, one per sample, advanced from candidate to
    candidate.  'none found' means every candidate was exactly refuted;
    terms the screen saw above its threshold are not checked exactly, so
    it is evidence, not a proof.  The screen stops early once it holds
    more than 50 000 candidates.  `min_scaled_value` is the screen's
    least float margin.
    """
    if mode not in ("positivity", "skolem", "ultpos"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(region, Ball):
        pts = ball_samples(region, samples, seed)
    else:
        pts = [region.entries]
    k = lrr.order
    M = np.array([[float(x) for x in row]
                  for row in companion_matrix(lrr)], dtype=float)
    W = np.array([[float(p[j]) for p in pts] for j in range(k)], dtype=float)
    candidates: list[tuple[int, int]] = []   # (n, sample index)
    min_scaled = float("inf")
    threshold = 1e-7
    for n in range(horizon + 1):
        vals = W[0]
        scale = np.max(np.abs(W), axis=0)
        scale[scale == 0] = 1.0
        scaled = vals / scale
        if mode == "skolem":
            hits = np.nonzero(np.abs(scaled) < threshold)[0]
        else:
            hits = np.nonzero(scaled < threshold)[0]
        min_scaled = min(min_scaled, float(np.min(np.abs(scaled))
                                           if mode == "skolem"
                                           else np.min(scaled)))
        candidates.extend((n, int(i)) for i in hits)
        if len(candidates) > 50_000:
            break
        W = np.vstack([W[1:], (M[-1] @ W)[None, :]])
        W = W / np.max(np.abs(W), axis=0, keepdims=True).clip(min=1e-300)
    candidates.sort(key=lambda t: (t[0], pts[t[1]]))
    # each sample's candidates come in increasing n: one scaled integer
    # recurrence per sample, advanced from its last candidate
    walks = {}      # sample index -> its (n, w_n), consumed in order
    for n, i in candidates:
        if i not in walks:
            coeffs, init, _, _ = _scaled_integer_recurrence(
                lrr, InitialConfig(pts[i]))
            walks[i] = enumerate(_scaled_terms(coeffs, init))
        w = next(w for m, w in walks[i] if m == n)
        s = (w > 0) - (w < 0)
        bad = (s == 0) if mode == "skolem" else (s <= 0)
        if bad:
            return BruteForceReport(mode=mode, horizon=horizon,
                                    samples=len(pts),
                                    violation=(n, pts[i]), violation_sign=s,
                                    min_scaled_value=min_scaled,
                                    notes="violation exactly confirmed")
    return BruteForceReport(mode=mode, horizon=horizon, samples=len(pts),
                            violation=None, min_scaled_value=min_scaled,
                            notes="none found (screened; candidates exactly "
                                  "refuted)" if candidates else "none found")
