"""Certified minimization of the dominant form over the closure torus.

Replaces quantifier elimination with three routes, chosen by structure:

* finite torus (free rank 0): exact algebraic evaluation at every coset;
* a single free conjugate pair: the closed-form range
  S + [-2|w|, +2|w|] of S + w z + conj(w z), |z| = 1;
* general: deterministic interval branch-and-bound over the free angles.
  Each box costs one cos/sin pass over its angles and one over its
  midpoint; the plain enclosure, the first-order centered (mean-value)
  form and the midpoint upper bound all come from those two passes.
  `min_over_ball` runs the same objective and the same per-coset loop.
  The objective's products and sums run on integers: weights at scale
  2^bits, cos/sin on the 2^-(bits + 2) grid, products exact at scale
  2^(2 bits + 2), sums rounded out to `bits` by shifts.  Its `Fraction`
  enclosures are those of the same operations on `Fraction` intervals.

The two closed-form routes share one exact finish (`_exact_min`): the
least of one exact real per coset decides the sign.  A value that its
enclosures leave straddling 0 uses its own zero test where it has one:
the remainder modulo the cyclotomic polynomial, or for the pair with
rational S and |w|^2 a comparison of S^2 with 4|w|^2.

A ZERO verdict is only ever issued with an exact certificate; when
intervals alone cannot separate the minimum from zero the verdict is
UNKNOWN at the requested tolerance, after the configured escalation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .qmath import Q, ZERO, ONE, is_perfect_square, exact_sqrt
from .interval import Ival, Box
from .trig import unit_box, cos_turn, sin_turn, pi_ival
from .poly import cyclotomic, pnorm, pdivmod
from .algebraic import AlgebraicNumber, FieldElement, identify_root_of_unity
from .lrs import DominantForm
from .torus import TorusParam, TorusPoint

DEFAULT_TOL = Q(1, 1 << 40)
ESCALATION_FACTOR = Q(1, 1 << 10)
TOL_FLOOR = Q(1, 1 << 200)
_MAX_BITS = 1 << 15
# Top of the precision climb of `ExactReal.sign` for a value with no exact
# zero test: an exact zero never separates from 0, and each doubling costs
# about five times the last.  Enclosures of width TOL_FLOOR / 2 come from
# precisions below the cap, which the climb has already tried.
_SIGN_MAX_BITS = 1 << 10
_MAX_BOXES = 60_000


@dataclass
class SignOutcome:
    verdict: str                    # POSITIVE | NEGATIVE | ZERO | UNKNOWN
    enclosure: Ival
    witness: Optional[TorusPoint] = None
    tol: Fraction = DEFAULT_TOL
    lattice_complete: bool = True
    method: str = "branch-and-bound"
    converged: bool = True          # False when a finer tol cannot help

    def __post_init__(self):
        v = self.verdict
        if (v == "POSITIVE" and not self.enclosure.lo > 0) or \
                (v == "NEGATIVE" and not self.enclosure.hi < 0):
            raise RuntimeError(f"{v} outcome with enclosure {self.enclosure}")


# ---------------------------------------------------------------------------
# exact evaluation helpers


class ExactReal:
    """Real quantity with a certified refiner and, where one is known, an
    exact zero test."""

    def __init__(self, refiner: Callable[[int], Ival],
                 is_zero: Callable[[], bool] | None = None):
        self.refiner = refiner
        self.is_zero = is_zero

    @staticmethod
    def of_rational(v: Fraction) -> "ExactReal":
        v = Q(v)
        return ExactReal(lambda bits: Ival.point(v))

    def ival(self, bits: int) -> Ival:
        return self.refiner(bits)

    def ival_width(self, width: Fraction) -> Ival:
        bits = 96
        while True:
            iv = self.refiner(bits)
            if iv.width <= width:
                return iv
            bits *= 2
            if bits > _MAX_BITS:
                return iv

    def abs(self) -> "ExactReal":
        return ExactReal(lambda bits: self.refiner(bits).abs(), self.is_zero)

    def sign(self) -> tuple[int | None, Ival]:
        """Certified sign and the enclosure that shows it, or None and the
        last enclosure tried.  A straddling enclosure goes to the exact zero
        test where there is one, and a value it finds nonzero is refined
        until it separates from 0 (up to _MAX_BITS); without a zero test
        the precision climbs up to _SIGN_MAX_BITS."""
        bits, top = 96, _SIGN_MAX_BITS
        iv = self.refiner(bits)
        if iv.sign() is None and self.is_zero is not None:
            if self.is_zero():
                return 0, Ival.point(0)
            top = _MAX_BITS
        while iv.sign() is None and bits * 2 <= top:
            bits *= 2
            iv = self.refiner(bits)
        return iv.sign(), iv


def _work_bits(tol: Fraction) -> int:
    """floor(log2(1/tol)) + 32, exact for every positive rational tol."""
    num, den = tol.denominator, tol.numerator   # 1/tol = num/den
    k = num.bit_length() - den.bit_length()
    if (num << max(-k, 0)) < (den << max(k, 0)):   # num/den < 2^k
        k -= 1
    return k + 32


def _cyclo_combo(terms, rho: AlgebraicNumber | None) -> ExactReal | None:
    """sum alpha_j * zeta_j as an element of Q(zeta_N) when the alphas live
    in fields generated by rho * (root of unity) with rho rational."""
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


def _quadratic_combo(terms) -> ExactReal | None:
    """sum alpha_j * zeta_j inside one quadratic field (zeta in {1,-1}).
    `_exact_combo` takes the all-rational case first, so some alpha is
    irrational here."""
    base_field = None
    acc_rat = ZERO
    parts = []
    for alpha, _s, zeta_turn in terms:
        if zeta_turn.denominator > 2:
            return None
        sign = 1 if zeta_turn == 0 else -1
        if alpha.is_rational:
            acc_rat += sign * alpha.as_rational()
            continue
        f = alpha.elem.field
        if f.degree != 2:
            return None
        if base_field is None:
            base_field = f
        parts.append((alpha.elem, sign))
    total = FieldElement.const(base_field, acc_rat)
    s_sum = -base_field.minpoly_q[1]  # rational sum of the two roots
    for elem, sign in parts:
        if elem.field is base_field:
            e = elem
        elif elem.field.minpoly == base_field.minpoly:
            from .poly import pcompose
            e = FieldElement(base_field, pcompose(elem.coeffs, (s_sum, Q(-1))))
        else:
            return None
        total = total + (e if sign == 1 else -e)
    # a zero total is rational, so its box is the point 0: no zero test
    return ExactReal(lambda bits: total.box(bits).re)


def _exact_combo(terms, rho: AlgebraicNumber | None) -> ExactReal:
    """Re sum alpha_j * zeta_j over (alpha, s, zeta_turn) terms, as exact as
    achievable: rational, then cyclotomic, then one quadratic field, else a
    certified refiner with no exact zero test."""
    if all(a.is_rational and t.denominator <= 2 for a, _, t in terms):
        return ExactReal.of_rational(sum(
            (a.as_rational() * (1 if t == 0 else -1) for a, _, t in terms),
            ZERO))
    got = _cyclo_combo(terms, rho) or _quadratic_combo(terms)
    if got is not None:
        return got

    def refiner(bits: int) -> Ival:
        acc = Box.point(0)
        for a, _, t in terms:
            acc = acc + a.box(bits) * unit_box(t, bits)
        return acc.re

    return ExactReal(refiner)


def _coset_exact_value(form: DominantForm, torus: TorusParam,
                       coset: int) -> ExactReal:
    """dominant(c, coset point) on a finite torus, as exact as achievable."""
    turns = torus.coset_turns[coset]
    return _exact_combo([(alpha, s, turns[j])
                         for j, (alpha, s) in enumerate(form.terms)],
                        form.rho)


# ---------------------------------------------------------------------------
# closed form for a single free conjugate pair


def _pair_structure(form: DominantForm, torus: TorusParam):
    """Detect: one free angle driving exactly two coordinates with opposite
    integer multiples, all other coordinates torsion-fixed, and the two
    driven terms exact conjugates.  Returns (a, b) indices or None."""
    if torus.free_rank != 1:
        return None
    col = [torus.embedding[j][0] for j in range(torus.k)]
    driven = [j for j, e in enumerate(col) if e != 0]
    if len(driven) != 2:
        return None
    a, b = driven
    if col[a] != -col[b]:
        return None
    alpha_a, s_a = form.terms[a]
    alpha_b, s_b = form.terms[b]
    # conjugate structure: shared minimal polynomial, conjugate embeddings,
    # identical coefficient vectors (guaranteed per irreducible factor)
    if alpha_a.is_rational and alpha_b.is_rational:
        if alpha_a.as_rational() != alpha_b.as_rational():
            return None
    elif alpha_a.is_rational or alpha_b.is_rational:
        return None
    else:
        fa, fb = alpha_a.elem.field, alpha_b.elem.field
        if fa.minpoly != fb.minpoly or alpha_a.elem.coeffs != alpha_b.elem.coeffs:
            return None
        if fa.conjugate_field() is not fb:
            return None
    return a, b


def _abs_sq_exact(alpha: AlgebraicNumber) -> Fraction | None:
    """|alpha|^2 as an exact rational when computable in-field."""
    if alpha.is_rational:
        return alpha.as_rational() ** 2
    cj = alpha.elem.conj_in_field()
    if cj is None:
        return None
    prod = alpha.elem * cj
    if prod.is_rational():
        return prod.as_rational()
    return None


def _minimizer_turn(alpha: AlgebraicNumber, coset_turn: Fraction,
                    e_mult: int) -> Fraction:
    """Approximate turn of the free angle minimizing Re(w e^{2 pi i e t})."""
    b = alpha.box(96)
    w_re, w_im = float(b.re.mid), float(b.im.mid)
    zt = float(coset_turn)
    w_arg = math.atan2(w_im, w_re) / (2 * math.pi) + zt
    target = Q(0.5 - w_arg).limit_denominator(1 << 24)
    t = target / e_mult
    return t - (t.numerator // t.denominator)


# ---------------------------------------------------------------------------
# branch and bound


def _on_grid(x: Fraction, bits: int) -> int:
    """x * 2^bits for a dyadic x on the 2^-bits grid.  Anything else
    would be truncated and lose the enclosure, so it raises."""
    den = x.denominator
    shift = bits - den.bit_length() + 1
    if den & (den - 1) or shift < 0:
        raise RuntimeError(f"{x} is not on the 2^-{bits} grid")
    return x.numerator << shift


class _Objective:
    """Interval objective over the free angles for one torsion coset.

    `evaluate` costs one cos/sin pass over a box's angles and one over its
    midpoint, whatever the number of forms.  The products and sums run on
    integers.  Each weight w_j = alpha_j zeta_j is kept as the endpoints
    (re lo, re hi, im lo, im hi) at scale 2^bits, and the cos/sin
    enclosures lie on the 2^-(bits + 2) grid, so w_j e^{2 pi i phi_j} and
    the sums of its real parts are exact at scale 2^(2 bits + 2), each
    interval product the min and max of four as in `Ival.__mul__`.  Sums
    are rounded out to `bits` by shifts.  Only `evaluate` builds `Fraction`
    intervals, with the endpoints the same operations on `Fraction`
    intervals give."""

    def __init__(self, forms: list[DominantForm], torus: TorusParam,
                 coset: int, bits: int):
        self.bits = bits
        self.k = torus.k
        self.embed = torus.embedding
        self.free = torus.free_rank
        # per form, per coordinate: w_j = alpha_j * zeta_j, scale 2^bits
        self.weights = []
        for form in forms:
            row = []
            for j, (alpha, _s) in enumerate(form.terms):
                zb = unit_box(torus.coset_turns[coset][j], bits)
                w = (alpha.box(bits) * zb).round_out(bits)
                row.append((_on_grid(w.re.lo, bits), _on_grid(w.re.hi, bits),
                            _on_grid(w.im.lo, bits), _on_grid(w.im.hi, bits)))
            self.weights.append(row)
        self.two_pi = pi_ival(bits) * 2

    def _terms(self, sbox: list[Ival]) -> list[list[tuple]]:
        """w_j e^{2 pi i phi_j} per form and coordinate over sbox, as
        (re lo, re hi, im lo, im hi) at scale 2^(2 bits + 2): one cos/sin
        pass over the angles phi_j."""
        zbits = self.bits + 2
        zs = []
        for j in range(self.k):
            t = Ival.point(0)
            for b in range(self.free):
                e = self.embed[j][b]
                if e:
                    t = t + sbox[b] * e
            c, s = cos_turn(t, self.bits), sin_turn(t, self.bits)
            zs.append((_on_grid(c.lo, zbits), _on_grid(c.hi, zbits),
                       _on_grid(s.lo, zbits), _on_grid(s.hi, zbits)))
        out = []
        for row in self.weights:
            prods = []
            for (ar, Ar, ai, Ai), (cr, Cr, ci, Ci) in zip(row, zs):
                # re = w.re z.re - w.im z.im, im = w.re z.im + w.im z.re
                rr = (ar * cr, ar * Cr, Ar * cr, Ar * Cr)
                ii = (ai * ci, ai * Ci, Ai * ci, Ai * Ci)
                ri = (ar * ci, ar * Ci, Ar * ci, Ar * Ci)
                ir = (ai * cr, ai * Cr, Ai * cr, Ai * Cr)
                prods.append((min(rr) - max(ii), max(rr) - min(ii),
                              min(ri) + min(ir), max(ri) + max(ir)))
            out.append(prods)
        return out

    def _values(self, terms: list[list[tuple]]) -> list[Ival]:
        """Sum of the real parts per form, rounded out to `bits`."""
        shift, den = self.bits + 2, 1 << self.bits
        return [Ival(Q(sum(p[0] for p in row) >> shift, den),
                     Q(-(-sum(p[1] for p in row) >> shift), den))
                for row in terms]

    def evaluate(self, sbox: list[Ival]) -> tuple[list[Ival], list[Ival]]:
        """(enclosures over sbox, enclosures at its midpoint), one per form.

        Form 0's box enclosure is the plain one intersected with the
        centered form f(m) + f'(sbox) (sbox - m), whose derivative reuses
        the box's trig pass."""
        mid = [Ival.point(s.mid) for s in sbox]
        terms = self._terms(sbox)
        plain = self._values(terms)
        at_mid = self._values(self._terms(mid))
        acc = at_mid[0]
        den = 1 << (2 * self.bits + 2)
        for b in range(self.free):
            # d/ds_b sum Re(w e^{2 pi i phi}) = -2 pi sum e_jb Im(w e^{..})
            lo = hi = 0
            for j in range(self.k):
                e = self.embed[j][b]
                if e:
                    im_lo, im_hi = terms[0][j][2:]
                    lo, hi = ((lo - e * im_hi, hi - e * im_lo) if e > 0 else
                              (lo - e * im_lo, hi - e * im_hi))
            deriv = Ival(Q(lo, den), Q(hi, den))
            acc = acc + deriv * self.two_pi * (sbox[b] - mid[b])
        centered = (acc.intersect(plain[0]) if acc.overlaps(plain[0])
                    else plain[0])
        return [centered] + plain[1:], at_mid


def _branch_and_bound(value_fn, free: int, tol: Fraction,
                      max_boxes: int = _MAX_BOXES, sign_exit: bool = False):
    """Minimize a certified interval objective over [0,1)^free.

    `value_fn(box)` returns (enclosure over the box, enclosure at its
    midpoint); the midpoint's upper end bounds the minimum from above.
    Returns (enclosure, witness_angles, converged).  Deterministic: boxes
    are ordered by (lower bound, insertion counter).  With `sign_exit` the
    search stops as soon as the sign of the minimum is certified, even if
    the enclosure is wider than tol."""
    if free == 0:
        return value_fn([])[0], (), True
    start = [Ival(ZERO, ONE) for _ in range(free)]
    counter = itertools.count()
    iv0 = value_fn(start)[0]
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
            iv, at_mid = value_fn(child)
            if at_mid.hi < upper:
                upper = at_mid.hi
                best_mid = tuple(s.mid for s in child)
            if iv.lo <= upper:
                heapq.heappush(heap, (iv.lo, next(counter), child))
    global_lo = min((item[0] for item in heap), default=upper)
    return Ival(min(global_lo, upper), upper), best_mid, converged


def _bb_min(forms, torus, tol, value_of, method: str, **bnb) -> SignOutcome:
    """Branch and bound of `value_of(objective, box)` on every torsion
    coset; the least enclosure decides the sign."""
    bits = max(96, _work_bits(tol))
    best = None
    all_converged = True
    for coset in range(len(torus.coset_turns)):
        obj = _Objective(forms, torus, coset, bits)
        encl, mids, conv = _branch_and_bound(
            lambda sbox, obj=obj: value_of(obj, sbox), torus.free_rank, tol,
            **bnb)
        all_converged = all_converged and conv
        wit = TorusPoint(coset, mids)
        if best is None:
            best = (encl, wit)
        else:
            lo = min(best[0].lo, encl.lo)
            hi = min(best[0].hi, encl.hi)
            keep = best[1] if best[0].hi <= encl.hi else wit
            best = (Ival(lo, hi), keep)
    encl, wit = best
    verdict = ("POSITIVE" if encl.lo > 0 else
               "NEGATIVE" if encl.hi < 0 else "UNKNOWN")
    return SignOutcome(verdict, encl, wit, tol, torus.lattice.complete,
                       method, converged=all_converged)


# ---------------------------------------------------------------------------
# public minimizers


def _exact_min(values: list[ExactReal], first: list[Ival],
               witnesses: list[TorusPoint], tol, lat_ok: bool,
               method: str) -> SignOutcome:
    """Certified sign of the least of `values`, one per coset.  The least
    value is negative when one value is, zero when one value is exactly 0
    and none can lie below it, and positive when all values are.  The
    enclosures `first` decide this when they can; otherwise every value
    they leave straddling 0 climbs `ExactReal.sign`."""
    ivs, signs = list(first), [iv.sign() for iv in first]

    def least() -> SignOutcome:
        encl = Ival(min(iv.lo for iv in ivs), min(iv.hi for iv in ivs))
        best = witnesses[min(range(len(ivs)), key=lambda i: (ivs[i].lo, i))]
        if -1 in signs:
            return SignOutcome("NEGATIVE", encl, best, tol, lat_ok, method)
        if signs.count(1) == len(signs):
            return SignOutcome("POSITIVE", encl, best, tol, lat_ok, method)
        if 0 in signs and all(s is not None or iv.lo >= 0
                              for s, iv in zip(signs, ivs)):
            return SignOutcome("ZERO", Ival.point(0),
                               witnesses[signs.index(0)], tol, lat_ok, method)
        # After the climb, an undecided value straddles 0 at every
        # precision an escalated tolerance would use, so escalating would
        # only repeat this pass.
        return SignOutcome("UNKNOWN", encl, best, tol, lat_ok, method,
                           converged=False)

    out = least()
    if out.verdict == "UNKNOWN":
        for i, v in enumerate(values):
            if signs[i] is None:
                signs[i], ivs[i] = v.sign()
        out = least()
    return out


def _finite_torus_min(form, torus, tol, absolute: bool):
    values = [_coset_exact_value(form, torus, i)
              for i in range(len(torus.coset_turns))]
    first = [v.ival_width(tol / 2) for v in values]
    if absolute:
        values, first = [v.abs() for v in values], [iv.abs() for iv in first]
    return _exact_min(values, first,
                      [TorusPoint(i, ()) for i in range(len(values))], tol,
                      torus.lattice.complete, "finite-exact")


def _pair_closed_form(form, torus, tol, absolute: bool):
    """On each coset the value S + w z + conj(w z) sweeps exactly
    [S - 2|w|, S + 2|w|] as the free angle turns z, so its least value is
    S - 2|w| and its least |value| max(|S| - 2|w|, 0)."""
    pair = _pair_structure(form, torus)
    if pair is None:
        return None
    a, b = pair
    alpha = form.terms[a][0]
    fixed_idx = [j for j in range(torus.k) if j not in (a, b)]
    mag2 = _abs_sq_exact(alpha)
    e_mult = torus.embedding[a][0]

    def two_mag(bits: int) -> Ival:
        if mag2 is None:
            return alpha.box(bits).abs_sq().sqrt(bits) * 2
        if is_perfect_square(mag2):
            return Ival.point(2 * exact_sqrt(mag2))
        return Ival.point(mag2).sqrt(bits) * 2

    values, witnesses = [], []
    for coset, turns in enumerate(torus.coset_turns):
        S = _exact_combo([(form.terms[j][0], form.terms[j][1], turns[j])
                          for j in fixed_idx], form.rho)
        values.append(_pair_value(S, two_mag, mag2, absolute))
        witnesses.append(TorusPoint(
            coset, (_minimizer_turn(alpha, turns[a], e_mult),)))
    bits = max(128, _work_bits(tol))
    return _exact_min(values, [v.ival(bits) for v in values], witnesses,
                      tol, torus.lattice.complete, "pair-closed-form")


def _pair_value(S: ExactReal, two_mag: Callable[[int], Ival],
                mag2: Fraction | None, absolute: bool) -> ExactReal:
    """S - 2|w|, or max(|S| - 2|w|, 0) when `absolute`, with an exact zero
    test when S and |w|^2 are rational."""
    iv = S.ival(96)
    s = iv.lo if iv.lo == iv.hi and mag2 is not None else None
    if not absolute:
        return ExactReal(lambda bits: S.ival(bits) - two_mag(bits),
                         None if s is None else
                         lambda: s >= 0 and s * s == 4 * mag2)

    def refiner(bits: int) -> Ival:
        s_iv, m = S.ival(bits), two_mag(bits)
        lo, hi = s_iv - m, s_iv + m
        if lo.hi <= 0 <= hi.lo:
            return Ival.point(0)    # the range certainly brackets 0
        if lo.lo > 0:
            return lo
        if hi.hi < 0:
            return -hi
        return Ival(ZERO, min(lo.abs().hi, hi.abs().hi))

    return ExactReal(refiner, None if s is None else
                     lambda: s * s <= 4 * mag2)


def _minimize(forms, torus, tol, absolute: bool):
    form = forms[0]
    if torus.free_rank == 0 and len(forms) == 1:
        return _finite_torus_min(form, torus, tol, absolute)
    if len(forms) == 1:
        got = _pair_closed_form(form, torus, tol, absolute)
        if got is not None:
            return got

    def value_of(obj, sbox):
        (iv,), (at_mid,) = obj.evaluate(sbox)
        return (iv.abs(), at_mid.abs()) if absolute else (iv, at_mid)

    return _bb_min(forms, torus, tol, value_of, "branch-and-bound")


def _with_escalation(run, tol):
    out = run(tol)
    t = tol
    while out.verdict == "UNKNOWN" and t > TOL_FLOOR and out.converged:
        t = t * ESCALATION_FACTOR
        nxt = run(t)
        if nxt.verdict != "UNKNOWN":
            return nxt
        out = nxt
    return out


def mu(form: DominantForm, torus: TorusParam,
       tol: Fraction = DEFAULT_TOL) -> SignOutcome:
    """Certified min over the torus of dominant(c, t)."""
    tol = Q(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _with_escalation(lambda t: _minimize([form], torus, t, False), tol)


def nu(form: DominantForm, torus: TorusParam,
       tol: Fraction = DEFAULT_TOL) -> SignOutcome:
    """Certified min over the torus of |dominant(c, t)| (never NEGATIVE)."""
    tol = Q(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _with_escalation(lambda t: _minimize([form], torus, t, True), tol)


@dataclass
class DominantFamily:
    """Affine family d -> dominant form of (c + d): the center form plus one
    form per coordinate direction (alpha is linear in c)."""

    center: DominantForm
    basis: list[DominantForm]


def min_over_ball(family: DominantFamily, radius: Fraction,
                  torus: TorusParam, tol: Fraction = DEFAULT_TOL) -> SignOutcome:
    """Enclosure of min over the closed ball x torus of dominant(c + d, t):
    at a fixed torus point the inner minimum is value(t) - radius * ||g(t)||
    with g the gradient of the value in the starting-configuration basis."""
    radius = Q(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    tol = Q(tol)

    def value_of(obj, sbox):
        out = []
        for vals in obj.evaluate(sbox):   # the box, then its midpoint
            norm_sq = Ival.point(0)
            for v in vals[1:]:
                norm_sq = norm_sq + v.sq()
            out.append(vals[0] - norm_sq.sqrt(obj.bits) * radius)
        return tuple(out)

    return _with_escalation(
        lambda t: _bb_min([family.center] + family.basis, torus, t, value_of,
                          "ball-bnb", max_boxes=20_000, sign_exit=True), tol)
