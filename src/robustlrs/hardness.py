"""Order-6 construction lab: cone geometry, the tangent ball/point gadget,
certified closed-form ball minima, and binary-search estimation of the
Diophantine type of the rotation angle.

The rotation point is p + qi on the unit circle.  Everything rational
stays rational: the gadget parameter ell is stored as the rational q'
with ell = q'/pi, so the recurring quantity 2*pi*ell equals 2 q' exactly.
The square-root term in the ball minimum is handled through the algebraic
bounds 1/(2n+1) < sqrt(n^2+1) - n < 1/(2n), so long scans need no
square-root extraction at all.

The long scans step the rotation only through `trig.RotScan.walk`, on
scaled integers.  Both skip a step far from a return to 1 with one integer
comparison against a threshold that is sound over a block of `_BLOCK`
steps, and run their full test on every other step, so they report what a
plain per-step scan reports.  The probes of one `approximate_L` call share
one `_TailWalk`: the orbit past the prefix is walked once, and each probe
replays its exact test on the few steps a worst-case probe leaves
uncertified.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qmath import (Q, ZERO, ONE, sqrt_down, sqrt_up, is_perfect_square,
                    exact_sqrt, floor_frac, ceil_frac)
from .interval import Ival
from .trig import (pi_ival, RotScan, niven_rotation, rotation_order,
                   rotation_power, angle_from_cos)
from .poly import pmul
from .lrs import Lrr, InitialConfig, mat_inv

COEFF_AXES = ("z_dom", "x_dom", "y_dom", "z_res", "x_res", "y_res")


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
    """(p, q) as Fractions; a given q must put p + qi on the unit circle."""
    p = Q(p)
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
        cos_j, sin_j = rotation_power(p, q, j)
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

    p: Optional[Fraction]
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


def compute_params(ell, eps, p=None, q=None) -> HardnessParams:
    """Derive (alpha0, n1, tau1, psi, n2) from ell = ell/pi (given as the
    rational q') and eps, per the tangent-ball construction.

    alpha0 instantiates the Taylor bookkeeping: with f(a) = 2(1-cos a)-a^2
    one has, for 0 < a <= alpha0 <= 1, both 2(1-cos a) <= a^2 and
    sin a >= a(1 - a^2/6), whence a nonneg gadget term forces
    n a > 2 pi ell (1 - a^2/6) > 2 pi ell - eps once a^2 <= 3 eps/(pi ell).
    """
    if q is not None:
        _check_circle(Q(p), Q(q))
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
    params = HardnessParams(p=Q(p) if p is not None else None,
                            q=Q(q) if q is not None else None,
                            ell_qprime=qprime, eps=eps, psi=psi,
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

    import random
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

# Bits of the dyadic rotation in the ball-term scans and `min_ball_term`.
_SCAN_BITS = 160
# Up to this index one ball term takes exact rational rotation powers.
# Their numerators have O(n) digits, so past it a dyadic walk is cheaper.
_EXACT_POWERS_UP_TO = 4000


def min_ball_term(n: int, params: HardnessParams) -> Ival:
    """Enclosure of the exact ball minimum at step n:
    n (2-psi)(1 - cos(2 pi n theta)) - 2 pi ell |sin(2 pi n theta)|
    - 2 psi (sqrt(n^2+1) - n)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if params.p is None:
        raise ValueError("params carry no rotation point")
    cos_iv, sin_iv = _rotation_ivals(params.p, params.q, n, _SCAN_BITS)
    return _ball_term(n, params, cos_iv, sin_iv, _root_tail(n, params.psi))


def _rotation_ivals(p, q, n: int, bits: int):
    """Enclosures of cos and sin of n*theta: exact for a root-of-unity
    angle (`niven_rotation`); for an irrational one, exact rational powers
    when q is given and n <= _EXACT_POWERS_UP_TO, otherwise a dyadic scan
    of `bits` bits."""
    if rotation_order(p) is not None:
        return niven_rotation(p, q, n, bits)
    if n <= _EXACT_POWERS_UP_TO and q is not None:
        c, s = rotation_power(p, q, n)
        return Ival.point(c), Ival.point(s)
    sc = RotScan(p, q, bits)
    sc.advance(n)
    return sc.cos_ival(), sc.sin_ival()


def _root_tail(n: int, psi: Fraction) -> Ival:
    """2 psi (sqrt(n^2+1) - n), bracketed by 1/(2n+1) < sqrt(n^2+1)-n < 1/(2n)."""
    return Ival(Q(2 * psi, 2 * n + 1), Q(2 * psi, 2 * n))


def _ball_term(n: int, params: HardnessParams, cos_iv: Ival, sin_iv: Ival,
               tail: Ival) -> Ival:
    return (Ival.point(n * (2 - params.psi)) * (1 - cos_iv)
            - Ival.point(params.two_pi_ell) * sin_iv.abs() - tail)


# Steps per prefilter block: the skip threshold of both scan loops is
# refreshed at least this often, from bounds on n and the error valid over
# the whole block.
_BLOCK = 1024


class _TailWalk:
    """One dyadic walk of the rotation orbit past n_start, shared by the
    probes of one `approximate_L` call (a standalone `scan_ball_terms`
    builds its own).

    A step is kept when its ball term is not certified >= 0 under the worst
    case lam <= lam_max, psi <= psi_max.  That certificate covers every
    probe within those bounds: with X = scale - C - E - 1 >= 0, the scaled
    lower bound T_lo falls as lam and psi grow and rises as a = 2 - psi
    grows, and for X < 0 the worst case fails too, so the step is kept.
    A probe therefore only needs its exact test on the kept steps; the
    walk is extended lazily, as far as some probe needs it.
    """

    def __init__(self, p, q, n_start: int, lam_max: Fraction,
                 psi_max: Fraction):
        self.sc = RotScan(p, q, _SCAN_BITS)
        self.sc.advance(n_start)
        self.n_start = n_start
        self.lam_max, self.psi_max = lam_max, psi_max
        a = 2 - psi_max
        L = math.lcm(a.denominator, lam_max.denominator, psi_max.denominator)
        self._worst = (int(a * L), int(lam_max * L), int(psi_max * L))
        self.kept = []                  # (n, C, S, E), increasing n

    def steps(self, params: HardnessParams, n_from: int, n_to: int):
        """Yield the kept steps in (n_from, n_to], walking on as needed.
        Close the generator on an early exit so the walk's state is saved."""
        if (params.two_pi_ell > self.lam_max or params.psi > self.psi_max
                or n_from < self.n_start):
            raise RuntimeError("probe outside the shared tail walk's bounds")
        for step in self.kept:
            if step[0] > n_to:
                return
            if step[0] > n_from:
                yield step
        sc, kept = self.sc, self.kept
        scale = sc.scale
        aW, lamW, psiW = self._worst
        while sc.n < n_to:
            end = min(n_to, sc.n + _BLOCK)
            e_hi = sc.err + end - sc.n
            # Prefilter: |S| <= scale + E + 1, so X >= ceil((lamW (scale +
            # 2 e_hi + 2) + psiW scale) / (n aW)) certifies the worst case;
            # C < thr gives that X over the block (n > sc.n, E <= e_hi).
            need = -(-(lamW * (scale + 2 * e_hi + 2) + psiW * scale)
                     // ((sc.n + 1) * aW))
            thr = scale - e_hi - need
            with closing(sc.walk(end)) as walk:
                for n, C, S, E in walk:
                    if C < thr:
                        continue
                    if (2 * n * n * aW * (scale - C - E - 1)
                            - 2 * n * lamW * (abs(S) + E + 1)
                            - 2 * psiW * scale) >= 0:
                        continue
                    kept.append((n, C, S, E))
                    if n > n_from:
                        yield n, C, S, E


def scan_ball_terms(params: HardnessParams, n_from: int, n_to: int,
                    *, _tail: Optional[_TailWalk] = None):
    """Certified signs of min_ball_term over (n_from, n_to]: returns
    ('clean',) when every term is certified >= 0, else
    ('violation', n, enclosure) at the first certified-negative term.
    Ambiguous steps are resolved exactly via rational rotation powers.

    The steps come from a `_TailWalk` over `RotScan.walk` on scaled
    integers: with cos/sin tracked as a dyadic point + error ball, the
    inequality n(2-psi)(1-cos) - 2pi ell |sin| - 2 psi (sqrt(n^2+1)-n) >= 0
    is decided after clearing denominators (the root term is bracketed by
    1/(2n+1) < sqrt(n^2+1)-n < 1/(2n)).  The walk skips a step with one
    integer comparison C < thr when the term is certified >= 0 far from a
    return to 1, and keeps the few steps its worst-case test cannot
    certify; only those reach the exact test here.  `approximate_L` passes
    one walk to all its probes through `_tail`, so the orbit is walked once
    per call; without it the worst case is `params` itself.

    Root-of-unity angles are periodic, and at every multiple of the order
    (cos = 1, sin = 0) the term is -2 psi (sqrt(n^2+1)-n), certified
    negative.  So only the at most `order` terms after n_from are
    evaluated, exactly by `niven_rotation`, with no stepping."""
    psi, lam = params.psi, params.two_pi_ell
    ambiguous = []
    order = rotation_order(params.p)
    if order is not None:
        for n in range(n_from + 1, min(n_to, n_from + order) + 1):
            cos_iv, sin_iv = niven_rotation(params.p, params.q, n,
                                            _SCAN_BITS)
            iv = _ball_term(n, params, cos_iv, sin_iv, _root_tail(n, psi))
            if iv.lo >= 0:
                continue
            if iv.hi < 0:
                return ("violation", n, iv)
            ambiguous.append(n)
        return _resolve_ambiguous(ambiguous, params)
    tail = _tail or _TailWalk(params.p, params.q, n_from, lam, psi)
    scale = tail.sc.scale
    a = 2 - psi                      # Fractions
    L = math.lcm(a.denominator, lam.denominator, psi.denominator)
    aL, lamL, psiL = int(a * L), int(lam * L), int(psi * L)
    with closing(tail.steps(params, n_from, n_to)) as steps:
        for n, C, S, E in steps:
            Sa = abs(S)
            # term_lo * (2 n^2 scale L) >= T_lo with the worst-case rounding
            T_lo = (2 * n * n * aL * (scale - C - E - 1)
                    - 2 * n * lamL * (Sa + E + 1) - 2 * psiL * scale)
            if T_lo >= 0:
                continue
            T_hi = (2 * n * n * aL * (scale - C + E + 1)
                    - 2 * n * lamL * max(Sa - E - 1, 0)
                    - 4 * n * psiL * scale // (2 * n + 1))
            if T_hi < 0:
                f = 2 * n * scale * L
                lo, hi = Q(T_lo, f), Q(T_hi, f)
                return ("violation", n, Ival(min(lo, hi), max(lo, hi)))
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

    One certified scan over `RotScan.walk` proposes candidates via the
    square-root bounds sqrt(2(1-c)) <= [x] <= pi sqrt((1-c)/2); candidates
    are then resolved with certified arccos enclosures.  The scan compares
    the *squares* n^2 * 2(1-cos), as integers over the one denominator
    kb * 2^bits, so the hot loop is integer-only.  Far from a return to 1 a
    step is skipped by one comparison C < thr: a step whose lower bound
    lo_sq exceeds the running bound `upper` can neither be a candidate nor
    lower `upper`, since hi_sq >= lo_sq.  thr is refreshed when `upper`
    falls and at least every `_BLOCK` steps; every other step runs the
    full test, so the candidates are exactly those of a plain scan.

    Root-of-unity angles are periodic: n = order brings the rotation back
    to 1, so the minimum is exactly 0 once N >= order, and below that it
    is the minimum over the at most 5 exact `niven_rotation` values."""
    p, q = _rotation_point(p, q)
    if N < 1:
        raise ValueError("N >= 1 required")
    bits = 192
    pi_iv = pi_ival(bits)
    order = rotation_order(p)
    if order is not None:
        if N >= order:
            return Ival.point(0)
        final = [(n, niven_rotation(p, q, n, bits)[0])
                 for n in range(1, N + 1)]
    else:
        sc = RotScan(p, q, bits)
        # pi^2/2 upper bound as an integer ratio (for the crude upper values)
        pi_sq_hi = (pi_iv.hi * pi_iv.hi / 2).limit_denominator(1 << 48)
        if pi_sq_hi < pi_iv.hi * pi_iv.hi / 2:
            pi_sq_hi += Q(1, 1 << 40)
        ka, kb = pi_sq_hi.numerator, pi_sq_hi.denominator
        scale = sc.scale
        # squared angle bounds times kb * scale:
        # 2(1-c) <= alpha^2 <= pi^2 (1-c)/2
        upper = None                       # bound on (min n [..])^2
        candidates = []
        while sc.n < N:
            end = min(N, sc.n + _BLOCK)
            e_hi = sc.err + end - sc.n
            # Prefilter: lo_sq > upper once scale - C - E - 1 exceeds
            # upper / (2 n^2 kb), and then hi_sq > upper too (ka >= 2 kb),
            # so the step changes nothing; C < thr gives that over the rest
            # of the block (n >= its first index, E <= e_hi).
            thr = (-math.inf if upper is None else
                   scale - e_hi - 1 - upper // (2 * (sc.n + 1) ** 2 * kb))
            for n, C, _, E in sc.walk(end):
                if C < thr:
                    continue
                hi_sq = n * n * ka * (scale - C + E + 1)
                lo_sq = 2 * n * n * kb * max(scale - C - E - 1, 0)
                if upper is None or hi_sq < upper:
                    upper = hi_sq
                    thr = scale - e_hi - 1 - upper // (2 * n * n * kb)
                if lo_sq <= upper:
                    candidates.append((lo_sq, n, C, E))
        final = [(n, sc.ival(C, E)) for lo_sq, n, C, E in candidates
                 if lo_sq <= upper]
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

    The orbit is walked once per call: all probes share one `_TailWalk`,
    bounded by the largest 2 pi ell a probe can reach and psi <= 1/6, and
    the prefix scan of each distinct n2 is computed once."""
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
    # every probe has q' <= pi_hi * hi + 2^-24 (rounding) and psi <= 1/6
    lam_max = 2 * (pi_iv.hi * hi + Q(1, 1 << 24))
    tail = None
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
        if tail is None and rotation_order(p) is None:
            # the least q' gives the least n2, so the walk covers every probe
            n_start = compute_params(Q(1, 1 << 24), eps_a, p, q).n2
            tail = _TailWalk(p, q, n_start, lam_max, Q(1, 6))
        res = scan_ball_terms(params, params.n2, horizon_cap, _tail=tail)
        if res[0] == "clean":
            # min over the tail of n[2 pi n theta] > 2 q' - eps_a
            tail_lo = (2 * qprime - eps_a) / (2 * pi_iv.hi)
            lo = max(lo, min(prefix.lo, max(tail_lo, ZERO)))
            if prefix.hi <= lo + eps:
                break
        else:
            bound = (2 * qprime + eps_a) / (2 * pi_iv.lo)
            hi = min(hi, bound)
        if hi < lo:
            lo, hi = min(lo, hi), max(lo, hi)
        if (lo, hi) == before:
            break  # slack floor reached: more probes cannot tighten
    return LEstimate(interval=Ival(lo, max(hi, lo)), horizon=horizon_cap,
                     probes=probes, horizon_exhausted=exhausted)


def _round_to(x: Fraction, denom: int) -> Fraction:
    return Q(round(x * denom), denom)
