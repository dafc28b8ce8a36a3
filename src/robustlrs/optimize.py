"""Certified minimization of the dominant form over the closure torus.

Replaces quantifier elimination with three routes, chosen by structure:

* finite torus (free rank 0): exact algebraic evaluation at every coset,
  with zero tests in a cyclotomic ring or a shared quadratic field;
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
    """Real quantity with a certified refiner and (optionally) an exact
    sign decision procedure."""

    def __init__(self, refiner: Callable[[int], Ival],
                 exact_sign: Callable[[], int] | None = None):
        self.refiner = refiner
        self.exact_sign = exact_sign

    @staticmethod
    def of_rational(v: Fraction) -> "ExactReal":
        v = Q(v)
        return ExactReal(lambda bits: Ival.point(v),
                         lambda: (v > 0) - (v < 0))

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

    def sign(self) -> int | None:
        """Certified sign, or None.  A straddling enclosure goes to the
        exact zero test when there is one; otherwise the precision climbs,
        up to _SIGN_MAX_BITS."""
        bits = 96
        while bits <= _SIGN_MAX_BITS:
            s = self.refiner(bits).sign()
            if s is not None:
                return s
            if self.exact_sign is not None:
                return self.exact_sign()
            bits *= 2
        return None


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

    return ExactReal(refiner, lambda: 0 if is_zero() else None)


def _quadratic_combo(terms) -> ExactReal | None:
    """sum alpha_j * zeta_j inside one quadratic field (zeta in {1,-1})."""
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
    if base_field is None:
        return ExactReal.of_rational(acc_rat)
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

    def exact_sign() -> int | None:
        if total.is_zero():
            return 0
        return None  # nonzero: the refiner will separate

    return ExactReal(lambda bits: total.box(bits).re, exact_sign)


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
                        getattr(form, "rho", None))


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
    for coset in range(len(torus.finite_part)):
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


def _finite_torus_min(form, torus, tol, absolute: bool):
    values = [_coset_exact_value(form, torus, i)
              for i in range(len(torus.finite_part))]
    lat_ok = torus.lattice.complete

    def enclosure_at(width):
        ivs = [v.ival_width(width) for v in values]
        if absolute:
            ivs = [iv.abs() for iv in ivs]
        return ivs

    ivals = enclosure_at(tol / 2)
    enclosure = Ival(min(iv.lo for iv in ivals), min(iv.hi for iv in ivals))
    best = min(range(len(ivals)), key=lambda i: (ivals[i].lo, i))
    witness = TorusPoint(best, ())
    if enclosure.lo > 0:
        return SignOutcome("POSITIVE", enclosure, witness, tol, lat_ok,
                           "finite-exact")
    if enclosure.hi < 0:
        return SignOutcome("NEGATIVE", enclosure, witness, tol, lat_ok,
                           "finite-exact")
    signs = [v.sign() for v in values]
    if absolute:
        signs = [None if s is None else abs(s) for s in signs]
    if all(s is not None for s in signs):
        m = min(signs)
        if m == 0:
            zi = signs.index(0)
            return SignOutcome("ZERO", Ival.point(0), TorusPoint(zi, ()), tol,
                               lat_ok, "finite-exact")
        # every coset value is nonzero with known sign: refine until the
        # interval verdict agrees (terminates, the values are nonzero)
        width = tol / 2
        while width > Q(1, 1 << _MAX_BITS):
            ivals = enclosure_at(width)
            enclosure = Ival(min(iv.lo for iv in ivals),
                             min(iv.hi for iv in ivals))
            if m > 0 and enclosure.lo > 0:
                return SignOutcome("POSITIVE", enclosure, witness, tol,
                                   lat_ok, "finite-exact")
            if m < 0 and enclosure.hi < 0:
                neg = min(i for i, s in enumerate(signs) if s < 0)
                return SignOutcome("NEGATIVE", enclosure,
                                   TorusPoint(neg, ()), tol, lat_ok,
                                   "finite-exact")
            width = width * width if width < 1 else width / 2
    # A coset with no exact zero test that still straddles 0 at the capped
    # climb straddles it at every escalated tolerance too, so POSITIVE is
    # out of reach; unless another coset may be negative, so is NEGATIVE,
    # and escalating would only repeat this pass.
    stuck = any(s is None and v.exact_sign is None
                for v, s in zip(values, signs))
    open_neg = any((s is None and v.exact_sign is not None)
                   or (s is not None and s < 0)
                   for v, s in zip(values, signs))
    return SignOutcome("UNKNOWN", enclosure, witness, tol, lat_ok,
                       "finite-exact", converged=not (stuck and not open_neg))


@dataclass
class _PairCoset:
    """Closed-form data for one coset: the dominant value ranges exactly
    over [S - 2|w|, S + 2|w|] as the free angle sweeps the circle."""

    S: ExactReal
    s_rat: Optional[Fraction]
    mag2: Optional[Fraction]        # |w|^2 exact, when available
    coset: int
    witness_turn: Fraction
    alpha: AlgebraicNumber          # w's coefficient, for |w| when mag2 is None

    def lo_ival(self, bits: int) -> Ival:
        return self.S.ival(bits) - self._two_mag(bits)

    def hi_ival(self, bits: int) -> Ival:
        return self.S.ival(bits) + self._two_mag(bits)

    def _two_mag(self, bits: int) -> Ival:
        if self.mag2 is not None:
            if is_perfect_square(self.mag2):
                return Ival.point(2 * exact_sqrt(self.mag2))
            return Ival.point(self.mag2).sqrt(bits) * 2
        return self.alpha.box(bits).abs_sq().sqrt(bits) * 2

    def exact_min_sign(self) -> Optional[int]:
        """Sign of S - 2|w| decided exactly when S, |w|^2 are rational."""
        if self.s_rat is None or self.mag2 is None:
            return None
        d = self.s_rat * self.s_rat - 4 * self.mag2
        if self.s_rat < 0:
            return -1
        return (d > 0) - (d < 0)

    def exact_zero_in_range(self) -> Optional[bool]:
        """Whether 0 lies in [S - 2|w|, S + 2|w|], exactly: S^2 <= 4|w|^2."""
        if self.s_rat is None or self.mag2 is None:
            return None
        return self.s_rat * self.s_rat <= 4 * self.mag2


def _pair_closed_form(form, torus, tol, absolute: bool):
    pair = _pair_structure(form, torus)
    if pair is None:
        return None
    a, b = pair
    alpha = form.terms[a][0]
    fixed_idx = [j for j in range(torus.k) if j not in (a, b)]
    mag2 = _abs_sq_exact(alpha)
    e_mult = torus.embedding[a][0]
    cosets = []
    for coset in range(len(torus.finite_part)):
        turns = torus.coset_turns[coset]
        S = _exact_combo([(form.terms[j][0], form.terms[j][1], turns[j])
                          for j in fixed_idx], getattr(form, "rho", None))
        iv = S.ival(96)
        s_rat = iv.lo if iv.lo == iv.hi else None
        pc = _PairCoset(S=S, s_rat=s_rat, mag2=mag2, coset=coset,
                        witness_turn=_minimizer_turn(alpha, turns[a], e_mult),
                        alpha=alpha)
        cosets.append(pc)
    lat_ok = torus.lattice.complete
    bits = max(128, _work_bits(tol))
    if absolute:
        return _pair_nu(cosets, bits, tol, lat_ok)
    return _pair_mu(cosets, bits, tol, lat_ok)


def _pair_mu(cosets: list[_PairCoset], bits, tol, lat_ok) -> SignOutcome:
    los = [pc.lo_ival(bits) for pc in cosets]
    encl = Ival(min(v.lo for v in los), min(v.hi for v in los))
    best = min(range(len(cosets)), key=lambda i: (los[i].lo, i))
    witness = TorusPoint(cosets[best].coset, (cosets[best].witness_turn,))
    if encl.hi < 0:
        return SignOutcome("NEGATIVE", encl, witness, tol, lat_ok,
                           "pair-closed-form")
    if encl.lo > 0:
        return SignOutcome("POSITIVE", encl, witness, tol, lat_ok,
                           "pair-closed-form")
    signs = [pc.exact_min_sign() for pc in cosets]
    if all(s is not None for s in signs):
        m = min(signs)
        # exact verdict: refine the enclosure until it matches the sign
        b = bits
        while b <= _MAX_BITS:
            los = [pc.lo_ival(b) for pc in cosets]
            encl = Ival(min(v.lo for v in los), min(v.hi for v in los))
            if m > 0 and encl.lo > 0:
                return SignOutcome("POSITIVE", encl, witness, tol, lat_ok,
                                   "pair-closed-form")
            if m < 0 and encl.hi < 0:
                return SignOutcome("NEGATIVE", encl, witness, tol, lat_ok,
                                   "pair-closed-form")
            if m == 0:
                zi = signs.index(0)
                return SignOutcome("ZERO", Ival.point(0),
                                   TorusPoint(cosets[zi].coset,
                                              (cosets[zi].witness_turn,)),
                                   tol, lat_ok, "pair-closed-form")
            b *= 2
    return SignOutcome("UNKNOWN", encl, witness, tol, lat_ok,
                       "pair-closed-form")


def _pair_nu(cosets: list[_PairCoset], bits, tol, lat_ok) -> SignOutcome:
    per = []
    for pc in cosets:
        lo_iv, hi_iv = pc.lo_ival(bits), pc.hi_ival(bits)
        zero_in = pc.exact_zero_in_range()
        if lo_iv.hi <= 0 and hi_iv.lo >= 0:
            zero_in = True  # certified: the continuous range brackets 0
        if zero_in:
            per.append((Ival.point(0), True, pc))
        elif lo_iv.lo > 0:
            per.append((lo_iv, False, pc))
        elif hi_iv.hi < 0:
            per.append((-hi_iv, False, pc))
        elif zero_in is False:
            # 0 certainly outside the range but the endpoint enclosures
            # straddle: |min| = min(|S - 2w|, |S + 2w|) via the hull
            per.append((Ival(ZERO, min(lo_iv.abs().hi, hi_iv.abs().hi)),
                        False, pc))
        else:
            per.append((Ival(ZERO, min(lo_iv.abs().hi, hi_iv.abs().hi)),
                        None, pc))
    encl = Ival(min(c.lo for c, _, _ in per), min(c.hi for c, _, _ in per))
    best = min(range(len(per)), key=lambda i: (per[i][0].lo, i))
    witness = TorusPoint(per[best][2].coset, (per[best][2].witness_turn,))
    if any(flag is True for _, flag, _ in per):
        return SignOutcome("ZERO", Ival.point(0), witness, tol, lat_ok,
                           "pair-closed-form")
    if encl.lo > 0:
        return SignOutcome("POSITIVE", encl, witness, tol, lat_ok,
                           "pair-closed-form")
    return SignOutcome("UNKNOWN", encl, witness, tol, lat_ok,
                       "pair-closed-form")


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
