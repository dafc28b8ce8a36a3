"""Certified minimization of the dominant form over the closure torus.

Replaces quantifier elimination with three routes, chosen by structure:

* finite torus (free rank 0): exact algebraic evaluation at every coset.
  When rho is rational and every root a root of unity, the form is
  written once in cyclotomic fields (`_CycloForm`: root-of-unity
  indices, the generator check, each coefficient as integers over one
  denominator), and a coset's value is an index shift plus one integer
  sum over the integer cos endpoints of the `trig.unit_ends` table;
* a single free conjugate pair: the closed-form range
  S + [-2|w|, +2|w|] of S + w z + conj(w z), |z| = 1, with S, the sum of
  the fixed terms, on the finite-torus route;
* general: deterministic interval branch-and-bound over the free angles.
  Each box costs one cos/sin pass over its angles and one over its
  midpoint; the plain enclosure, the first-order centered (mean-value)
  form and the midpoint upper bound all come from those two passes.
  `min_over_ball` runs the same objective and the same per-coset loop.
  The search and the objective run on integers at power-of-two scales:
  box endpoints and turn sums over the box's 2^d, weights over 2^bits,
  cos/sin on the 2^-(bits + 2) grid, products exact over 2^(2 bits + 2)
  (`interval.mul_ends`), sums rounded out to `bits` by shifts, and the
  centered form exact.
  `min_over_ball`'s norm term squares and sums those integers and takes
  `math.isqrt` floors and ceilings.  Only the enclosures the objective
  returns, the heap keys and the witness are `Fraction`s, with the
  endpoints the same operations on `Fraction` intervals give.

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
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional

from .qmath import Q, ZERO, is_perfect_square, exact_sqrt, ceil_frac
from .interval import Ival, Box, box_ends, isq, mul_ends, round_ends
from .trig import unit_box, unit_ends, cos_turn, sin_turn, pi_ival
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


class _CycloForm:
    """A form's terms (alpha_j, s_j) written in cyclotomic fields, found
    once and read at every coset of a finite torus.

    With rho = r rational, each s_j a root of unity zeta_n^k and r zeta_n^k
    the generator of alpha_j's field, alpha_j = sum_i a_i r^i zeta_n^(k i)
    is a vector over Q(zeta_n), indexed by k i mod n.  `vectors` holds
    these as integers over one denominator D, or None when the form is not
    of this kind; it is found on first use, since a form whose cosets are
    all rational never needs it."""

    def __init__(self, terms: list[tuple[AlgebraicNumber, AlgebraicNumber]],
                 rho: AlgebraicNumber | None):
        self.terms = terms
        self.rho = rho

    @cached_property
    def vectors(self) -> tuple[int, list[tuple[int, list]]] | None:
        """(D, [(n_j, [(index, numerator), ...]) per term])."""
        rho = self.rho
        if rho is None or not rho.is_rational:
            return None
        r = rho.as_rational()
        rous = []
        for _alpha, s in self.terms:
            rou = identify_root_of_unity(s)
            if rou is None:
                return None
            rous.append(rou)
        rows = []
        for (alpha, _s), (k, n) in zip(self.terms, rous):
            if alpha.is_rational:
                rows.append((n, [(0, alpha.as_rational())]))
                continue
            # gamma = r * zeta_n^k must be the field generator of alpha
            gb = alpha.elem.field.root_box(96)
            if gb.disjoint(unit_box(Q(k, n), 96) * r):
                return None
            rows.append((n, [((k * i) % n, a * r**i)
                             for i, a in enumerate(alpha.elem.coeffs) if a]))
        D = math.lcm(*(a.denominator for _, vec in rows for _, a in vec))
        return D, [(n, [(i, a.numerator * (D // a.denominator))
                        for i, a in vec]) for n, vec in rows]

    def value(self, turns: list[Fraction]) -> ExactReal | None:
        """Re sum alpha_j zeta_j at the coset's turns, zeta_j = e^(2 pi i
        turns[j]), as an element of Q(zeta_N): the coefficient of zeta_N^t
        is an integer over D, and the refiner sums the integer cos
        endpoints that `unit_ends` reads at t/N."""
        if self.vectors is None:
            return None
        D, rows = self.vectors
        N = math.lcm(*(n for n, _ in rows), *(t.denominator for t in turns))
        coeffs = [0] * N
        for (n, vec), t in zip(rows, turns):
            shift, step = t.numerator * (N // t.denominator), N // n
            for i, a in vec:
                coeffs[(shift + step * i) % N] += a
        nonzero = [(Q(t, N), c) for t, c in enumerate(coeffs) if c]

        def is_zero() -> bool:
            _, rem = pdivmod(pnorm([Q(c, D) for c in coeffs]),
                             [Q(c) for c in cyclotomic(N)])
            return not rem

        def refiner(bits: int) -> Ival:
            lo = hi = 0
            for t, c in nonzero:
                a, b, _, _ = unit_ends(t, bits)[0]
                lo, hi = (lo + c * a, hi + c * b) if c > 0 else \
                    (lo + c * b, hi + c * a)
            return Ival(Q(lo, D << (bits + 2)), Q(hi, D << (bits + 2)))

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
    for elem, sign in parts:
        if elem.field is base_field:
            e = elem
        elif elem.field.minpoly == base_field.minpoly:
            e = elem.root_exchanged(base_field)
        else:
            return None
        total = total + (e if sign == 1 else -e)
    # a zero total is rational, so its box is the point 0: no zero test
    return ExactReal(lambda bits: total.box(bits).re)


def _exact_combo(form: _CycloForm, turns: list[Fraction]) -> ExactReal:
    """Re sum alpha_j * zeta_j over the form's terms at the coset's turns,
    as exact as achievable: rational, then cyclotomic, then one quadratic
    field, else a certified refiner with no exact zero test."""
    terms = [(a, s, t) for (a, s), t in zip(form.terms, turns)]
    if all(a.is_rational and t.denominator <= 2 for a, _, t in terms):
        return ExactReal.of_rational(sum(
            (a.as_rational() * (1 if t == 0 else -1) for a, _, t in terms),
            ZERO))
    got = form.value(turns) or _quadratic_combo(terms)
    if got is not None:
        return got

    def refiner(bits: int) -> Ival:
        acc = Box.point(0)
        for a, _, t in terms:
            acc = acc + a.box(bits) * unit_box(t, bits)
        return acc.re

    return ExactReal(refiner)


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


class _Objective:
    """Interval objective over the free angles for one torsion coset.

    `evaluate` costs one cos/sin pass over a box's angles and one over its
    midpoint, whatever the number of forms.  It reads the branch and
    bound's integer box, and up to its `Ival` output everything runs on
    integers at power-of-two scales:

    * box endpoints over 2^d, midpoints over 2^(d + 1), and the turn sums
      phi_j = sum_b e_jb s_b over the same;
    * each weight w_j = alpha_j zeta_j as (re lo, re hi, im lo, im hi)
      over 2^bits, and `cos_turn`/`sin_turn` over 2^(bits + 2), so each
      w_j e^{2 pi i phi_j} (`interval.mul_ends`) and the sums of their real
      parts are exact over 2^(2 bits + 2), then rounded out to `bits` by
      shifts;
    * the centered form over 2^(3 bits + 5 + d).

    The endpoints are those the same operations on `Fraction` intervals
    give."""

    def __init__(self, alpha_boxes: list[list[Box]], torus: TorusParam,
                 coset: int, bits: int):
        """`alpha_boxes[f][j]` is `alpha.box(bits)` of form f's term j,
        built once for all cosets."""
        self.bits = bits
        self.k = torus.k
        self.embed = torus.embedding
        self.free = torus.free_rank
        # per form, per coordinate: w_j = alpha_j * zeta_j rounded out to
        # the 2^-bits grid, one floor or ceiling per endpoint
        zetas = [unit_ends(t, bits) for t in torus.coset_turns[coset]]
        self.weights = []
        for boxes in alpha_boxes:
            row = []
            for ab, (z, zden) in zip(boxes, zetas):
                a, aden = box_ends(ab)
                row.append(round_ends(mul_ends(a, z), aden * zden, bits))
            self.weights.append(row)
        # upper end of 2 pi over 2^(bits + 2); pi_ival rounds to that grid
        self.two_pi_hi = ceil_frac(pi_ival(bits).hi * (1 << (bits + 3)))

    def _terms(self, los: list[int], his: list[int],
               d: int) -> list[list[tuple]]:
        """w_j e^{2 pi i phi_j} per form and coordinate over the box
        [los, his] / 2^d, as (re lo, re hi, im lo, im hi) over
        2^(2 bits + 2): one cos/sin pass over the angles phi_j."""
        zs = []
        for row in self.embed:
            lo = hi = 0
            for e, a, b in zip(row, los, his):
                if e > 0:
                    lo, hi = lo + e * a, hi + e * b
                elif e < 0:
                    lo, hi = lo + e * b, hi + e * a
            zs.append(cos_turn(lo, hi, d, self.bits)
                      + sin_turn(lo, hi, d, self.bits))
        return [[mul_ends(w, z) for w, z in zip(row, zs)]
                for row in self.weights]

    def _values(self, terms: list[list[tuple]]) -> list[tuple[int, int]]:
        """Sum of the real parts per form, rounded out to `bits`."""
        shift = self.bits + 2
        return [(sum(p[0] for p in row) >> shift,
                 -(-sum(p[1] for p in row) >> shift)) for row in terms]

    def evaluate(self, box: tuple) -> tuple[list[Ival], list[Ival]]:
        """`ends` as `Ival`s."""
        return tuple([Ival(Q(lo, 1 << e), Q(hi, 1 << e)) for lo, hi, e in part]
                     for part in self.ends(box))

    def ends(self, box: tuple) -> tuple[list[tuple], list[tuple]]:
        """(enclosures over the box, enclosures at its midpoint), one per
        form, each as integers (lo, hi, e) for [lo, hi] / 2^e; e is `bits`
        except for a centered form 0.

        The box is the branch and bound's (los, his, d): angle b spans
        [los[b], his[b]] / 2^d.  Form 0's box enclosure is the plain one
        intersected with the centered form f(m) + f'(box) 2 pi (box - m),
        whose derivative reuses the box's trig pass.  Both hold f(m), so
        two that miss each other are an internal fault (RuntimeError)."""
        bits = self.bits
        los, his, d = box
        terms = self._terms(los, his, d)
        plain = self._values(terms)
        mids = [lo + hi for lo, hi in zip(los, his)]
        at_mid = self._values(self._terms(mids, mids, d + 1))
        # d/ds_b sum Re(w e^{2 pi i phi}) = -2 pi sum e_jb Im(w e^{..}).
        # box_b - m_b is [-h, h] with h = (hi - lo) / 2^(d + 1), so the
        # term of angle b is [-r, r], r = h max|f'_b| (2 pi).hi, over
        # 2^s with s = (2 bits + 2) + (bits + 2) + (d + 1).
        r = 0
        for b in range(self.free):
            lo = hi = 0
            for j in range(self.k):
                e = self.embed[j][b]
                if e:
                    im_lo, im_hi = terms[0][j][2:]
                    lo, hi = ((lo - e * im_hi, hi - e * im_lo) if e > 0 else
                              (lo - e * im_lo, hi - e * im_hi))
            r += (his[b] - los[b]) * max(-lo, hi)
        r *= self.two_pi_hi
        s, up = 3 * bits + 5 + d, 2 * bits + 5 + d
        acc_lo, acc_hi = (at_mid[0][0] << up) - r, (at_mid[0][1] << up) + r
        p_lo, p_hi = plain[0][0] << up, plain[0][1] << up
        if acc_lo > p_hi or p_lo > acc_hi:
            raise RuntimeError("plain and centered enclosures are disjoint")
        centered = (max(acc_lo, p_lo), min(acc_hi, p_hi), s)
        return ([centered] + [(lo, hi, bits) for lo, hi in plain[1:]],
                [(lo, hi, bits) for lo, hi in at_mid])


def _branch_and_bound(value_fn, free: int, tol: Fraction,
                      max_boxes: int = _MAX_BOXES, sign_exit: bool = False):
    """Minimize a certified interval objective over [0,1)^free.

    A box is (los, his, d), angle b spanning [los[b], his[b]] / 2^d; a
    split doubles every endpoint and cuts the widest angle at the sum of
    its old ends.  `value_fn(box)` returns (enclosure over the box,
    enclosure at its midpoint); the midpoint's upper end bounds the
    minimum from above, and the witness is the midpoint that set it.
    Returns (enclosure, witness_angles, converged).  Deterministic: boxes
    are ordered by (lower bound, insertion counter).  With `sign_exit` the
    search stops as soon as the sign of the minimum is certified, even if
    the enclosure is wider than tol."""
    if free == 0:
        return value_fn(((), (), 0))[0], (), True
    start = best = ([0] * free, [1] * free, 0)
    counter = itertools.count()
    iv0 = value_fn(start)[0]
    heap = [(iv0.lo, next(counter), start)]
    upper = iv0.hi
    boxes_done = 0
    converged = True
    while heap:
        lo, _, box = heapq.heappop(heap)
        done = upper - lo <= tol or (sign_exit and (upper < 0 or lo > 0))
        if done or boxes_done >= max_boxes:
            heapq.heappush(heap, (lo, next(counter), box))
            converged = done
            break
        boxes_done += 1
        los, his, d = box
        widths = [b - a for a, b in zip(los, his)]
        dim = widths.index(max(widths))
        mid = los[dim] + his[dim]
        los, his = [a << 1 for a in los], [b << 1 for b in his]
        for child in ((los, his[:dim] + [mid] + his[dim + 1:], d + 1),
                      (los[:dim] + [mid] + los[dim + 1:], his, d + 1)):
            iv, at_mid = value_fn(child)
            if at_mid.hi < upper:
                upper, best = at_mid.hi, child
            if iv.lo <= upper:
                heapq.heappush(heap, (iv.lo, next(counter), child))
    global_lo = min((item[0] for item in heap), default=upper)
    los, his, d = best
    best_mid = tuple(Q(a + b, 2 << d) for a, b in zip(los, his))
    return Ival(min(global_lo, upper), upper), best_mid, converged


def _bb_min(forms, torus, tol, value_of, method: str, **bnb) -> SignOutcome:
    """Branch and bound of `value_of(objective, box)` on every torsion
    coset; the least enclosure decides the sign."""
    bits = max(96, _work_bits(tol))
    alpha_boxes = [[alpha.box(bits) for alpha, _s in form.terms]
                   for form in forms]
    best = None
    all_converged = True
    for coset in range(len(torus.coset_turns)):
        obj = _Objective(alpha_boxes, torus, coset, bits)
        encl, mids, conv = _branch_and_bound(
            lambda box, obj=obj: value_of(obj, box), torus.free_rank, tol,
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
    cyclo = _CycloForm(form.terms, form.rho)
    values = [_exact_combo(cyclo, turns) for turns in torus.coset_turns]
    first = [v.ival_width(tol / 2) for v in values]
    if absolute:
        values, first = [v.abs() for v in values], [iv.abs() for iv in first]
    return _exact_min(values, first,
                      [TorusPoint(i, ()) for i in range(len(values))], tol,
                      torus.lattice.complete, "finite-exact")


def _pair_closed_form(form, torus, tol, absolute: bool):
    """On each coset the value S + w z + conj(w z) sweeps exactly
    [S - 2|w|, S + 2|w|] as the free angle turns z, so its least value is
    S - 2|w| and its least |value| max(|S| - 2|w|, 0).  The witness is the
    angle of S - 2|w|, or for |value| with S + 2|w| < 0 the opposite angle,
    where S + 2|w| is attained."""
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

    bits = max(128, _work_bits(tol))
    fixed = _CycloForm([form.terms[j] for j in fixed_idx], form.rho)
    values, witnesses = [], []
    for coset, turns in enumerate(torus.coset_turns):
        S = _exact_combo(fixed, [turns[j] for j in fixed_idx])
        values.append(_pair_value(S, two_mag, mag2, absolute))
        t = _minimizer_turn(alpha, turns[a], e_mult)
        if absolute and (S.ival(bits) + two_mag(bits)).hi < 0:
            t += Q(1, 2 * e_mult)
            t -= t.numerator // t.denominator
        witnesses.append(TorusPoint(coset, (t,)))
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


def _minimize(form, torus, tol, absolute: bool):
    if torus.free_rank == 0:
        return _finite_torus_min(form, torus, tol, absolute)
    got = _pair_closed_form(form, torus, tol, absolute)
    if got is not None:
        return got

    def value_of(obj, box):
        (iv,), (at_mid,) = obj.evaluate(box)
        return (iv.abs(), at_mid.abs()) if absolute else (iv, at_mid)

    return _bb_min([form], torus, tol, value_of, "branch-and-bound")


def _with_escalation(run, tol):
    """run(tol) for a positive tol, rerun at tighter tolerances down to
    `TOL_FLOOR` while a converged run stays UNKNOWN."""
    t = Q(tol)
    if t <= 0:
        raise ValueError("tol must be positive")
    out = run(t)
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
    return _with_escalation(lambda t: _minimize(form, torus, t, False), tol)


def nu(form: DominantForm, torus: TorusParam,
       tol: Fraction = DEFAULT_TOL) -> SignOutcome:
    """Certified min over the torus of |dominant(c, t)| (never NEGATIVE)."""
    return _with_escalation(lambda t: _minimize(form, torus, t, True), tol)


@dataclass
class DominantFamily:
    """Affine family d -> dominant form of (c + d): the center form plus one
    form per coordinate direction (alpha is linear in c)."""

    center: DominantForm
    basis: list[DominantForm]


def _ball_value(ends: list[tuple], bits: int, radius: Fraction) -> Ival:
    """value - radius * ||g|| from `_Objective.ends`: the center form's
    value and the basis forms' gradient entries, the latter over 2^bits.
    ||g||^2 is an integer over 2^(2 bits) whose square root is floored
    (lower end) and ceiled (upper end) to 2^-bits, so the endpoints equal
    those of `Ival.sq`, `Ival.sqrt(bits)` and the radius product on
    `Fraction`s."""
    sq_lo = sq_hi = 0
    for lo, hi, _ in ends[1:]:
        s_lo, s_hi = isq(lo, hi)
        sq_lo, sq_hi = sq_lo + s_lo, sq_hi + s_hi
    r_lo, r_hi = math.isqrt(sq_lo), math.isqrt(sq_hi)
    r_hi += r_hi * r_hi < sq_hi
    v_lo, v_hi, e = ends[0]
    p, q, sh = radius.numerator, radius.denominator, e - bits
    return Ival(Q(v_lo * q - (r_hi * p << sh), q << e),
                Q(v_hi * q - (r_lo * p << sh), q << e))


def min_over_ball(family: DominantFamily, radius: Fraction,
                  torus: TorusParam, tol: Fraction = DEFAULT_TOL) -> SignOutcome:
    """Enclosure of min over the closed ball x torus of dominant(c + d, t):
    at a fixed torus point the inner minimum is value(t) - radius * ||g(t)||
    with g the gradient of the value in the starting-configuration basis."""
    radius = Q(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")

    def value_of(obj, box):
        # the box, then its midpoint
        return tuple(_ball_value(part, obj.bits, radius)
                     for part in obj.ends(box))

    return _with_escalation(
        lambda t: _bb_min([family.center] + family.basis, torus, t, value_of,
                          "ball-bnb", max_boxes=20_000, sign_exit=True), tol)

