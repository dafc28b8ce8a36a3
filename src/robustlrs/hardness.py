"""Order-6 construction lab: cone geometry, the tangent ball/point gadget,
certified closed-form ball minima, and binary-search estimation of the
Diophantine type of the rotation angle.

The rotation point is p + qi on the unit circle.  Everything rational
stays rational: the gadget parameter ell is stored as the rational q'
with ell = q'/pi, so the recurring quantity 2*pi*ell equals 2 q' exactly.
The square-root term in the ball minimum is handled through the algebraic
bounds 1/(2n+1) < sqrt(n^2+1) - n < 1/(2n), so long scans need no
square-root extraction at all.

`lagrange_prefix` steps the rotation itself, on scaled integers whose
error after n steps is n + 1 ulps: the package's one dyadic rotation
walk.  It skips a step far from a return to 1 with one integer
comparison against a threshold that is sound over a block of `_BLOCK`
steps, and runs its full test on every other step, so it reports what a
plain per-step scan reports.  `scan_ball_terms`, which every probe of
`approximate_L` runs up to the horizon, steps nothing: a ball term can be
negative only at a near return of the rotation, where n ||n theta|| is
below a constant, and `_near_returns` lists those n by Euclid-style
searches on a dyadic enclosure of theta.  So a probe costs O(log horizon)
term evaluations, each read off that enclosure.

A single term reads cos and sin of n theta by one of two routes: the
exact Chebyshev pair of `trig.rotation_power` at n mod the order for a
root-of-unity angle, and `cos_turn`/`sin_turn` of n times the enclosure
of theta for an irrational one, whatever n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .qmath import (Q, ZERO, ONE, sqrt_down, sqrt_up, is_perfect_square,
                    exact_sqrt, floor_frac, ceil_frac)
from .interval import Ival
from .trig import (pi_ival, rotation_order, rotation_power,
                   angle_from_cos, cos_turn, sin_turn)
from .poly import pmul
from .lrs import Lrr, InitialConfig, mat_inv

@dataclass(frozen=True)
class CoefficientBasisPoint:
    z_dom: Fraction
    x_dom: Fraction
    y_dom: Fraction
    z_res: Fraction
    x_res: Fraction
    y_res: Fraction

    def as_tuple(self):
        return (self.z_dom, self.x_dom, self.y_dom,
                self.z_res, self.x_res, self.y_res)


def _check_circle(p: Fraction, q: Fraction):
    if p * p + q * q != 1:
        raise ValueError("(p, q) must lie exactly on the unit circle")


def _rotation_point(p, q):
    """(p, q) as Fractions: p is a cosine, in [-1, 1], and a given q must
    put p + qi on the unit circle."""
    p = Q(p)
    if not -1 <= p <= 1:
        raise ValueError(f"p = {p} is the cosine of the rotation: "
                         "-1 <= p <= 1 required")
    if q is None:
        return p, None
    q = Q(q)
    _check_circle(p, q)
    return p, q


def build_hardness_lrr(p, q=None) -> Lrr:
    """Order-6 relation with characteristic polynomial
    (x-1)^2 (x^2 - 2px + 1)^2, roots 1 and e^{+-i 2 pi theta} (cos = p),
    each of multiplicity 2 and modulus 1."""
    p, _ = _rotation_point(p, q)
    if not (-1 < p < 1):
        raise ValueError("p must satisfy -1 < p < 1 (three distinct roots)")
    char = pmul((ONE, Q(-2), ONE), pmul((ONE, -2 * p, ONE), (ONE, -2 * p, ONE)))
    return Lrr(tuple(-c for c in char[:6]))


def basis_change(p, q):
    """(C, C_inv) with C @ c = (z_dom, x_dom, y_dom, z_res, x_res, y_res).

    Sign convention: u_n = z n - x n cos(2 pi n theta) - y n sin(..)
    + z' - x' cos(..) - y' sin(..).  Exact for rational q."""
    p, q = Q(p), Q(q)
    _check_circle(p, q)
    if q == 0:
        raise ValueError("degenerate rotation: q must be nonzero")
    c_inv = []
    for j in range(6):
        cos_j, u_j = rotation_power(p, j)
        sin_j = q * u_j
        c_inv.append([Q(j), -j * cos_j, -j * sin_j, ONE, -cos_j, -sin_j])
    c_mat = mat_inv(c_inv)
    return c_mat, c_inv


def config_from_coeffs(p, q, pt: CoefficientBasisPoint) -> InitialConfig:
    _, c_inv = basis_change(p, q)
    vec = pt.as_tuple()
    return InitialConfig(tuple(sum((row[i] * vec[i] for i in range(6)), ZERO)
                               for row in c_inv))


def coeffs_from_config(p, q, c: InitialConfig) -> CoefficientBasisPoint:
    c_mat, _ = basis_change(p, q)
    vals = tuple(sum((row[i] * c.entries[i] for i in range(6)), ZERO)
                 for row in c_mat)
    return CoefficientBasisPoint(*vals)


def cone_contains(z, x, y) -> tuple[bool, Ival]:
    """Exact membership in {z >= sqrt(x^2 + y^2)} plus a margin enclosure."""
    z, x, y = Q(z), Q(x), Q(y)
    rad_sq = x * x + y * y
    inside = z >= 0 and z * z >= rad_sq
    if is_perfect_square(rad_sq):
        margin = Ival.point(z - exact_sqrt(rad_sq))
    else:
        margin = Ival(z - sqrt_up(rad_sq, 128), z - sqrt_down(rad_sq, 128))
    return inside, margin


# ---------------------------------------------------------------------------
# gadget parameters (tangent-ball constants, all exact rationals)


@dataclass(frozen=True)
class HardnessParams:
    """Gadget constants.  ell = ell_qprime / pi, so 2*pi*ell = 2*ell_qprime
    is exactly rational; eps compares against n*[2 pi n theta]."""

    p: Fraction
    q: Optional[Fraction]
    ell_qprime: Fraction
    eps: Fraction
    psi: Fraction
    alpha0: Fraction
    n1: int
    tau1: Fraction
    n2: int

    @property
    def two_pi_ell(self) -> Fraction:
        return 2 * self.ell_qprime

    def validate(self):
        lam = self.two_pi_ell
        checks = [
            ("psi < 1/3", self.psi < Q(1, 3)),
            ("psi < pi*ell", self.psi < self.ell_qprime),
            ("tau1 = 2pi ell/(2pi ell + eps/3)",
             self.tau1 == lam / (lam + self.eps / 3)),
            ("psi <= 2 - 2 tau1", self.psi <= 2 - 2 * self.tau1),
            ("psi < 2 tau1 pi ell eps / 3",
             self.psi < self.tau1 * lam * self.eps / 3),
            ("psi <= 1", self.psi <= 1),
            ("n2 > n1", self.n2 > self.n1),
            ("(36 pi / n2)^3 n2 <= 4 eps",
             (36 * pi_ival(96).hi) ** 3 / Q(self.n2) ** 2 <= 4 * self.eps),
        ]
        for name, ok in checks:
            if not ok:
                raise ValueError(f"gadget constraint violated: {name}")


def compute_params(ell, eps, p, q=None) -> HardnessParams:
    """Derive (alpha0, n1, tau1, psi, n2) from ell = ell/pi (given as the
    rational q') and eps, per the tangent-ball construction.

    alpha0 instantiates the Taylor bookkeeping: with f(a) = 2(1-cos a)-a^2
    one has, for 0 < a <= alpha0 <= 1, both 2(1-cos a) <= a^2 and
    sin a >= a(1 - a^2/6), whence a nonneg gadget term forces
    n a > 2 pi ell (1 - a^2/6) > 2 pi ell - eps once a^2 <= 3 eps/(pi ell).
    """
    p, q = _rotation_point(p, q)
    qprime = Q(ell)
    eps = Q(eps)
    if qprime <= 0 or eps <= 0:
        raise ValueError("ell and eps must be positive")
    lam = 2 * qprime                       # 2 pi ell, exactly
    alpha0 = min(ONE, sqrt_down(3 * eps / qprime, 64))
    n1 = max(1, floor_frac((lam - eps) / alpha0) + 1) if lam > eps else 1
    tau1 = lam / (lam + eps / 3)
    psi = min(Q(1, 3), qprime, 2 - 2 * tau1, tau1 * lam * eps / 3, ONE) / 2
    pi_hi = pi_ival(96).hi
    n2_bound = sqrt_up((36 * pi_hi) ** 3 / (4 * eps), 32)
    n2 = max(n1 + 1, ceil_frac(n2_bound))
    while (36 * pi_hi) ** 3 / Q(n2) ** 2 > 4 * eps:
        n2 += 1
    params = HardnessParams(p=p, q=q, ell_qprime=qprime, eps=eps, psi=psi,
                            alpha0=alpha0, n1=n1, tau1=tau1, n2=n2)
    params.validate()
    return params


# ---------------------------------------------------------------------------
# tangent ball gadget (exact coefficient-space checks)


@dataclass
class GadgetReport:
    center: tuple[Fraction, ...]
    point_d: tuple[Fraction, ...]
    radius_sq: Fraction             # = 2 psi^2, exact
    d_on_sphere: bool
    d_margin_zero: bool
    samples_checked: int
    all_samples_interior: bool
    first_bad_sample: Optional[tuple[Fraction, ...]] = None


def ball_gadget(params: HardnessParams, samples: int = 1000,
                seed: int = 0) -> GadgetReport:
    """Exact verification of the tangent-ball construction: the ball of
    radius sqrt(2) psi centred at (2+psi, 2-psi, 0, 0, 0, 2 pi ell) touches
    the dominant cone boundary exactly at d = (2, 2, 0, 0, 0, 2 pi ell);
    sampled ball points other than d are strictly interior."""
    params.validate()
    psi, lam = params.psi, params.two_pi_ell
    center = (2 + psi, 2 - psi, ZERO, ZERO, ZERO, lam)
    d = (Q(2), Q(2), ZERO, ZERO, ZERO, lam)
    dist_sq = sum((a - b) ** 2 for a, b in zip(center, d))
    on_sphere = dist_sq == 2 * psi * psi
    inside_d, margin_d = cone_contains(d[0], d[1], d[2])
    margin_zero = inside_d and margin_d.lo == margin_d.hi == 0

    rng = random.Random(seed)
    all_ok = True
    bad = None
    r_sq = 2 * psi * psi
    checked = 0
    D = 1 << 10
    while checked < samples:
        v = [rng.randint(-D, D) for _ in range(6)]
        nv2 = sum(x * x for x in v)
        if nv2 == 0 or nv2 > D * D:
            continue
        # scale so the point is strictly inside radius sqrt(2) psi
        lam_scale = sqrt_down(r_sq * Q(2**20 - 1, 2**20) / nv2, 48)
        pt = tuple(cj + lam_scale * vj for cj, vj in zip(center, v))
        if sum((a - b) ** 2 for a, b in zip(pt, center)) > r_sq:
            raise RuntimeError("sample point outside the ball")
        checked += 1
        z, x, y = pt[0], pt[1], pt[2]
        strict = (x < z) and (x * x + y * y < z * z)
        if not strict:
            all_ok = False
            bad = pt
            break
    return GadgetReport(center=center, point_d=d, radius_sq=dist_sq,
                        d_on_sphere=on_sphere, d_margin_zero=margin_zero,
                        samples_checked=checked, all_samples_interior=all_ok,
                        first_bad_sample=bad)


# ---------------------------------------------------------------------------
# the closed-form ball minimum and long certified scans

# Bits of the rotation enclosures in the ball-term scans and `min_ball_term`.
_SCAN_BITS = 160


def min_ball_term(n: int, params: HardnessParams) -> Ival:
    """Enclosure of the exact ball minimum at step n:
    n (2-psi)(1 - cos(2 pi n theta)) - 2 pi ell |sin(2 pi n theta)|
    - 2 psi (sqrt(n^2+1) - n)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    cos_iv, sin_iv = _rotation_ivals(params.p, params.q, n, _SCAN_BITS)
    return _ball_term(n, params, cos_iv, sin_iv, _root_tail(n, params.psi))


def _rotation_ivals(p, q, n: int, bits: int):
    """Enclosures of cos and sin of n*theta.  A root-of-unity angle takes
    the exact Chebyshev pair (c, u) at n mod its order: cos = c and
    sin = u q, or u times a `bits`-bit enclosure of sqrt(1 - p^2) when q is
    not given (then sin theta > 0).  An irrational angle, which needs q,
    takes `cos_turn` and `sin_turn` of n times an enclosure of theta fine
    enough for `bits`, whose endpoints lie on the 2^-(b + 4) grid of
    `_turn` at b bits."""
    order = rotation_order(p)
    if order is not None:
        c, u = rotation_power(p, n % order)
        if q is not None:
            return Ival.point(c), Ival.point(u * q)
        s2 = 1 - p * p
        return Ival.point(c), Ival(sqrt_down(s2, bits), sqrt_up(s2, bits)) * u
    if q is None:
        raise ValueError("irrational-angle scan needs the exact sine value q")
    b = bits + n.bit_length() + 8
    t, scale = _turn(p, q, b), 1 << (b + 4)
    lo, hi = floor_frac(t.lo * scale) * n, ceil_frac(t.hi * scale) * n
    one = 1 << (bits + 2)
    (c_lo, c_hi), (s_lo, s_hi) = (cos_turn(lo, hi, b + 4, bits),
                                  sin_turn(lo, hi, b + 4, bits))
    return (Ival(Q(c_lo, one), Q(c_hi, one)),
            Ival(Q(s_lo, one), Q(s_hi, one)))


@lru_cache(maxsize=64)
def _turn(p: Fraction, q: Fraction, bits: int) -> Ival:
    """Dyadic enclosure of theta in turns, e^(i theta) = p + qi with q
    nonzero, of width at most 2^-bits."""
    half = angle_from_cos(Ival.point(p), bits + 8) / (pi_ival(bits + 8) * 2)
    return (half if q > 0 else 1 - half).round_out(bits + 4)


def _root_tail(n: int, psi: Fraction) -> Ival:
    """2 psi (sqrt(n^2+1) - n), bracketed by 1/(2n+1) < sqrt(n^2+1)-n < 1/(2n)."""
    return Ival(Q(2 * psi, 2 * n + 1), Q(2 * psi, 2 * n))


def _ball_term(n: int, params: HardnessParams, cos_iv: Ival, sin_iv: Ival,
               tail: Ival) -> Ival:
    return (Ival.point(n * (2 - params.psi)) * (1 - cos_iv)
            - Ival.point(params.two_pi_ell) * sin_iv.abs() - tail)


# Steps per prefilter block: the skip threshold of `lagrange_prefix` is
# refreshed at least this often, from bounds on n and the error valid over
# the whole block.
_BLOCK = 1024


def _first_multiple_in(a: int, m: int, lo: int, hi: int) -> Optional[int]:
    """Least k >= 1 with lo <= (a k mod m) <= hi, for 0 < lo <= hi < m, or
    None.  Euclid-style: if the first multiple of a past lo overshoots hi,
    no multiple of a lies in [lo, hi], and the number j of wraps past m is
    the least with (m j mod a) in [a - hi mod a, a - lo mod a]: the same
    question modulo a."""
    a %= m
    if a == 0:
        return None
    k = -(-lo // a)
    if a * k <= hi:
        return k
    j = _first_multiple_in(m % a, a, a - hi % a, a - lo % a)
    return None if j is None else -(-(lo + m * j) // a)


def _near_returns(params: HardnessParams, n_from: int, n_to: int):
    """Yield, increasing, every n in (n_from, n_to] at which a ball term
    can be negative (see `scan_ball_terms`), and a few more.

    With alpha = A/2^b a dyadic point within w = 2^(1-b) of theta (turns),
    the n of a block (lo, hi] with n ||n theta|| < c satisfy
    ||n alpha|| <= c/(lo+1) + hi w, that is (A n + R) mod 2^b <= 2R for
    R = 2^b (c/(lo+1) + hi w); each next such n is one Euclid search."""
    a, lam, psi = 2 - params.psi, params.two_pi_ell, params.psi
    c = (lam + sqrt_up(lam * lam + 2 * a * psi, 64)) / (4 * a)
    b = 2 * n_to.bit_length() + 64
    m = 1 << b
    A = floor_frac(_turn(params.p, params.q, b).lo * m) % m
    lo = n_from
    while lo < n_to:
        hi = min(n_to, 2 * lo + 1)
        R = floor_frac(c * m / (lo + 1)) + 2 * hi
        h = min(2 * R, m - 1)
        n = lo + 1
        while n <= hi:
            B = (A * n + R) % m
            k = 0 if B <= h else _first_multiple_in(A, m, m - B, m - B + h)
            if k is None or n + k > hi:
                break
            yield n + k
            n += k + 1
        lo = hi


def scan_ball_terms(params: HardnessParams, n_from: int, n_to: int):
    """Certified signs of min_ball_term over (n_from, n_to]: returns
    ('clean',) when every term is certified >= 0, else
    ('violation', n, enclosure) at the first certified-negative term.
    Ambiguous terms are resolved at higher precision.

    Only a few terms are evaluated, each as `min_ball_term` does.  For an
    irrational angle they are the near returns of the rotation: with
    t = ||n theta|| (turns), u = sin(pi t), a = 2 - psi and
    lam = 2 pi ell, one has 1 - cos(2 pi n theta) = 2u^2,
    |sin(2 pi n theta)| <= 2u and 2 psi (sqrt(n^2+1) - n) < psi/n, so

        term(n) > 2 n a u^2 - 2 lam u - psi/n.

    A negative term thus forces n u < (lam + sqrt(lam^2 + 2 a psi))/(2a),
    and since u >= 2t, n ||n theta|| < c = (lam + sqrt(lam^2 + 2 a psi))
    / (4a).  `_near_returns` lists those n from a dyadic enclosure of theta,
    block by block over (M, 2M + 1], one Euclid search per candidate.

    Root-of-unity angles are periodic, and at every multiple of the order
    (cos = 1, sin = 0) the term is -2 psi (sqrt(n^2+1)-n), certified
    negative.  So only the at most `order` terms after n_from are
    evaluated, from the exact Chebyshev pair at n mod the order."""
    order = rotation_order(params.p)
    if order is not None:
        candidates = range(n_from + 1, min(n_to, n_from + order) + 1)
    else:
        candidates = _near_returns(params, n_from, n_to)
    ambiguous = []
    for n in candidates:
        iv = min_ball_term(n, params)
        if iv.lo >= 0:
            continue
        if iv.hi < 0:
            return ("violation", n, iv)
        ambiguous.append(n)
    return _resolve_ambiguous(ambiguous, params)


def _resolve_ambiguous(ambiguous: list[int], params: HardnessParams):
    for n in ambiguous:
        iv = _exact_ball_term(n, params)
        if iv.hi < 0:
            return ("violation", n, iv)
        if iv.lo < 0:
            raise RuntimeError(f"ball term sign unresolved at n={n}")
    return ("clean",)


def _exact_ball_term(n: int, params: HardnessParams) -> Ival:
    """High-precision resolution of one ball term.  The value can only be
    zero if sqrt(n^2+1) were rational, which it never is for n >= 1, so a
    finite precision always decides the sign."""
    bits = 512
    cos_iv, sin_iv = _rotation_ivals(params.p, params.q, n, bits)
    root = Ival.point(Q(n * n + 1)).sqrt(bits)
    return _ball_term(n, params, cos_iv, sin_iv,
                      (root - n) * (2 * params.psi))


# ---------------------------------------------------------------------------
# Diophantine-type estimation


def lagrange_prefix(p, q, N: int) -> Ival:
    """Enclosure of (1/2pi) min_{0 < n <= N} n [2 pi n theta].

    One certified scan of the rotation proposes candidates via the
    square-root bounds sqrt(2(1-c)) <= [x] <= pi sqrt((1-c)/2); candidates
    are then resolved with certified arccos enclosures.  The rotation by
    p + qi is stepped on integers: (cos, sin) of n theta is (C, S)/2^bits,
    each step rounded to nearest, so the Euclidean error after n steps is
    at most n + 1 ulps (a rotation is an isometry and adds none; naive
    interval iteration would grow exponentially).  The scan compares the
    *squares* n^2 * 2(1-cos), as integers over the one denominator
    kb * 2^bits, so the hot loop is integer-only.  Far from a return to 1 a
    step is skipped by one comparison C < thr: a step whose lower bound
    lo_sq exceeds the running bound `upper` can neither be a candidate nor
    lower `upper`, since hi_sq >= lo_sq.  thr is refreshed when `upper`
    falls and at least every `_BLOCK` steps; every other step runs the
    full test, so the candidates are exactly those of a plain scan.

    Root-of-unity angles are periodic: n = order brings the rotation back
    to 1, so the minimum is exactly 0 once N >= order, and below that it
    is the minimum over the at most 5 exact cosines `rotation_power`
    gives."""
    p, q = _rotation_point(p, q)
    if N < 1:
        raise ValueError("N >= 1 required")
    bits = 192
    pi_iv = pi_ival(bits)
    order = rotation_order(p)
    if order is not None:
        if N >= order:
            return Ival.point(0)
        final = [(n, Ival.point(rotation_power(p, n)[0]))
                 for n in range(1, N + 1)]
    else:
        if q is None:
            raise ValueError("irrational-angle scan needs the exact sine "
                             "value q")
        den = math.lcm(p.denominator, q.denominator)
        pn, qn, d2 = int(p * den), int(q * den), 2 * den
        scale = 1 << bits
        # pi^2/2 upper bound as an integer ratio (for the crude upper values)
        pi_sq_hi = (pi_iv.hi * pi_iv.hi / 2).limit_denominator(1 << 48)
        if pi_sq_hi < pi_iv.hi * pi_iv.hi / 2:
            pi_sq_hi += Q(1, 1 << 40)
        ka, kb = pi_sq_hi.numerator, pi_sq_hi.denominator
        # squared angle bounds times kb * scale:
        # 2(1-c) <= alpha^2 <= pi^2 (1-c)/2
        upper = None                       # bound on (min n [..])^2
        candidates = []
        C, S, n = scale, 0, 0
        while n < N:
            end = min(N, n + _BLOCK)
            # Prefilter: lo_sq > upper once scale - C - n - 1 exceeds
            # upper / (2 n^2 kb), and then hi_sq > upper too (ka >= 2 kb),
            # so the step changes nothing; C < thr gives that over the rest
            # of the block (n between its first index and end).
            thr = (-math.inf if upper is None else
                   scale - end - 1 - upper // (2 * (n + 1) ** 2 * kb))
            for n in range(n + 1, end + 1):
                # round to nearest: (2x + den) // (2 den) = floor(x/den + 1/2)
                C, S = ((2 * (pn * C - qn * S) + den) // d2,
                        (2 * (qn * C + pn * S) + den) // d2)
                if C < thr:
                    continue
                hi_sq = n * n * ka * (scale - C + n + 1)
                lo_sq = 2 * n * n * kb * max(scale - C - n - 1, 0)
                if upper is None or hi_sq < upper:
                    upper = hi_sq
                    thr = scale - end - 1 - upper // (2 * n * n * kb)
                if lo_sq <= upper:
                    candidates.append((lo_sq, n, C))
        # cos n theta within (n + 1)/2^bits of C/2^bits, clamped to [-1, 1]
        final = [(n, Ival(max(Q(C - n - 1, scale), Q(-1)),
                          min(Q(C + n + 1, scale), ONE)))
                 for lo_sq, n, C in candidates if lo_sq <= upper]
    best: Ival | None = None
    for n, cos_iv in final:
        precise = angle_from_cos(cos_iv, bits) * n
        best = precise if best is None else Ival(min(best.lo, precise.lo),
                                                 min(best.hi, precise.hi))
    out = best / (pi_iv * 2)
    if out.lo < 0:
        out = Ival(ZERO, max(out.hi, ZERO))
    return out


@dataclass
class LEstimate:
    interval: Ival
    horizon: int
    probes: int
    horizon_exhausted: bool
    note: str = ("upper-bounds the true Diophantine type: the scan covers "
                 "only indices up to the horizon")


def approximate_L(p, q, eps, horizon_cap: int = 10**6) -> LEstimate:
    """Binary search bracketing L_{<= horizon}(theta) within width 2*eps.

    Each probe ell (handled as the rational q' = pi*ell) is resolved by the
    tangent-ball machinery: a clean certified-nonnegative tail of ball
    minima forces n [2 pi n theta] > 2 pi ell - eps_a beyond the cutoff
    (and the prefix is scanned directly); a certified-negative ball term
    witnesses n [2 pi n theta] < 2 pi ell + eps_a.

    A probe's tail scan evaluates only the rotation's near returns, so it
    costs O(log horizon) terms; the prefix scan of each distinct n2 is
    computed once."""
    p, q = _rotation_point(p, q)
    eps = Q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if horizon_cap < 1:
        raise ValueError("horizon >= 1 required")
    pi_iv = pi_ival(96)
    # Lagrange-type values live in [0, 1/sqrt(5)]
    lo = ZERO
    hi = sqrt_up(Q(1, 5), 48)
    eps_a = pi_iv.lo * eps / 2      # angle-scale slack: eps_a/(2 pi) <= eps/4
    prefixes = {}
    probes = 0
    exhausted = False
    # aim for half the permitted width so the midpoint sits comfortably
    # within eps of anything the interval contains
    while hi - lo > eps and probes < 60:
        probes += 1
        before = (lo, hi)
        mid = (lo + hi) / 2
        qprime = _round_to(pi_iv.hi * mid, 1 << 24)
        if qprime <= 0:
            qprime = Q(1, 1 << 24)
        params = compute_params(qprime, eps_a, p, q)
        if params.n2 >= horizon_cap:
            exhausted = True
            break
        if params.n2 not in prefixes:
            prefixes[params.n2] = lagrange_prefix(p, q, params.n2)
        prefix = prefixes[params.n2]
        hi = min(hi, max(prefix.hi, ZERO))
        res = scan_ball_terms(params, params.n2, horizon_cap)
        clean = res[0] == "clean"
        if clean:
            # min over the tail of n[2 pi n theta] > 2 q' - eps_a
            tail_lo = (2 * qprime - eps_a) / (2 * pi_iv.hi)
            lo = max(lo, min(prefix.lo, max(tail_lo, ZERO)))
        else:
            hi = min(hi, (2 * qprime + eps_a) / (2 * pi_iv.lo))
        if hi < lo:   # both ends are certified
            raise RuntimeError(f"certified bounds crossed: [{lo}, {hi}]")
        # stop at the prefix minimum, or at the slack floor, where more
        # probes cannot tighten
        if (clean and prefix.hi <= lo + eps) or (lo, hi) == before:
            break
    return LEstimate(interval=Ival(lo, hi), horizon=horizon_cap,
                     probes=probes, horizon_exhausted=exhausted)


def _round_to(x: Fraction, denom: int) -> Fraction:
    return Q(round(x * denom), denom)
