"""Reference routines that only the tests call.

The package runs none of these: a float-screen sampling oracle for the
decisions (`brute_force_check`), exact companion-matrix powers and
hyperplane distances, exact orbit points of the closure torus, and the
exact check of the order-6 rotation block.  The sampling screen is the
only user of numpy, which is a test dependency, not a runtime one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from robustlrs.qmath import Q, ZERO, ONE, is_perfect_square, exact_sqrt
from robustlrs.interval import Ival
from robustlrs.poly import int_normalize
from robustlrs.algebraic import AlgebraicNumber, NumberField, FieldElement
from robustlrs.lrs import (Lrr, InitialConfig, Ball, SpectralData, spectral,
                           term_sign, _check_config)
from robustlrs.trig import rotation_order


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
    for n in range(spec.order):
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
    confirmed violation is reported.  'none found' means every candidate
    was exactly refuted; terms the screen saw above its threshold are not
    checked exactly, so it is evidence, not a proof.  The screen stops
    early once it holds more than 50 000 candidates.  `min_scaled_value`
    is the screen's least float margin.
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
    for n, i in candidates:
        s = term_sign(lrr, InitialConfig(pts[i]), n)
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
