"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; tolerances are pinned here, nothing is calibrated
at runtime.
"""

import math
import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from robustlrs.interval import Ival, Box
from robustlrs.poly import PolyRat, pmul
from robustlrs.algebraic import isolate_roots, power_product_is_one
from robustlrs.lrs import (Lrr, InitialConfig, Ball, eval_terms, spectral,
                           exp_poly_solution, normalize)
from robustlrs.torus import relation_lattice, parametrize
from robustlrs.optimize import mu, nu, min_over_ball, DominantFamily
from robustlrs.decide import (exists_robust_positivity, exists_robust_skolem,
                              exists_robust_ultimate_positivity,
                              robust_nonuniform_ultpos_open_ball, Analysis)
from robustlrs.hardness import (build_hardness_lrr, compute_params,
                                HardnessParams, ball_gadget, min_ball_term,
                                scan_ball_terms, _exact_ball_term,
                                lagrange_prefix, approximate_L,
                                config_from_coeffs, CoefficientBasisPoint)

from oracles import brute_force_check, orbit_point, rotation_check

P35, Q45 = Q(3, 5), Q(4, 5)
FIB = Lrr((Q(1), Q(1)))
ALT = Lrr((Q(-1),))


def cfg(*vals):
    return InitialConfig(tuple(Q(v) for v in vals))


def family_config(z, x, y, zr=Q(0), xr=Q(0), yr=Q(0)):
    return config_from_coeffs(P35, Q45, CoefficientBasisPoint(z, x, y, zr, xr, yr))


HARD35 = build_hardness_lrr(P35, Q45)
SPEC35 = spectral(HARD35)


def torus_for(form):
    return parametrize(relation_lattice([s for _, s in form.terms]))


def test_01_order6_reproduction():
    t0 = time.time()
    lrr = build_hardness_lrr(Q(1, 2))
    assert lrr.coeffs == (Q(-1), Q(4), Q(-8), Q(10), Q(-8), Q(4))
    spec = spectral(lrr)
    assert spec.rho.is_rational and spec.rho.as_rational() == 1
    assert spec.m == 1
    assert len(spec.dominant_indices) == 3
    assert sorted(m for _, m in spec.roots) == [2, 2, 2]
    one = [a for a, m in spec.roots if a.is_rational]
    assert len(one) == 1 and one[0].as_rational() == 1
    pair = [a for a, m in spec.roots if not a.is_rational]
    for a in pair:
        b = a.refine(Q(1, 10**9))
        assert b.re.contains(Q(1, 2))       # e^{+-i pi/3}: real part 1/2
        assert a.is_unit_modulus()
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: order-6 family at p=1/2 reproduced exactly "
          f"({elapsed:.2f} s)")


def test_02_cone_formula_enclosures():
    t0 = time.time()
    rng = random.Random(42)
    torus = None
    for i in range(100):
        z = Q(rng.randint(-40, 60), rng.randint(1, 9))
        x = Q(rng.randint(-50, 50), rng.randint(1, 9))
        y = Q(rng.randint(-50, 50), rng.randint(1, 9))
        zr = Q(rng.randint(-10, 10), rng.randint(1, 5))
        c = family_config(z, x, y, zr)
        form, _ = normalize(HARD35, c, SPEC35)
        if torus is None:
            torus = torus_for(form)
        out = mu(form, torus)
        assert out.enclosure.width <= Q(1, 10**9), f"width at {(z, x, y)}"
        # independent oracle: z - sqrt(x^2 + y^2) by directed square roots
        target = Ival.point(x * x + y * y).sqrt(200)
        oracle_lo, oracle_hi = z - target.hi, z - target.lo
        assert out.enclosure.lo <= oracle_hi and oracle_lo <= out.enclosure.hi, \
            f"mismatch at {(z, x, y)}"
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\nACCEPTANCE 2 PASS: 100 dominant minima enclose "
          f"z - sqrt(x^2+y^2) at width <= 1e-9 ({_fmt_secs(elapsed)})")


def _fmt_secs(e):
    return f"{e:.1f} s"


def test_03_rotation_exactness():
    t0 = time.time()
    rep = rotation_check(P35, Q45)
    assert rep.is_rotation and rep.orthogonal and rep.determinant_one
    rep12 = rotation_check(Q(1, 2), None)
    assert rep12.is_rotation
    assert rep12.order == 6                  # six-fold composition = identity
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: rotation block exact (3/5, 4/5); p=1/2 "
          f"six-fold composition is the identity ({elapsed:.2f} s)")


def _random_lrr(rng):
    order = rng.randint(1, 6)
    while True:
        coeffs = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(order))
        if coeffs[0] != 0:
            return Lrr(coeffs)


def test_04_exp_poly_consistency():
    t0 = time.time()
    rng = random.Random(7)
    for trial in range(50):
        lrr = _random_lrr(rng)
        c = InitialConfig(tuple(Q(rng.randint(-5, 5), rng.randint(1, 3))
                                for _ in range(lrr.order)))
        sol = exp_poly_solution(lrr, c)
        terms = eval_terms(lrr, c, 500)
        # incremental powers: gamma^n boxes, widths grow only linearly
        powers = [Box.point(1) for _ in sol.roots]
        bases = [root.box(256) for root, _ in sol.roots]
        alphas = {key: a.box(256) for key, a in sol.alpha.items()}
        for n in range(501):
            acc_re, acc_im = Ival.point(0), Ival.point(0)
            for i, (root, mult) in enumerate(sol.roots):
                for j in range(mult):
                    t = alphas[(i, j)] * powers[i] * Q(n**j)
                    acc_re = acc_re + t.re
                    acc_im = acc_im + t.im
            assert acc_re.contains(terms[n]), f"trial {trial} n={n}"
            assert acc_im.contains(Q(0))
            if n < 500:
                powers = [(pw * b).round_out(320)
                          for pw, b in zip(powers, bases)]
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\nACCEPTANCE 4 PASS: 50 random recurrences, interval "
          f"reconstruction contains every exact term to n=500 "
          f"({_fmt_secs(elapsed)})")


def test_05_torus_correctness():
    t0 = time.time()
    from robustlrs.algebraic import AlgebraicNumber
    minus_one = [AlgebraicNumber.from_rational(Q(-1))]
    lat = relation_lattice(minus_one)
    assert lat.generators == [[2]] and lat.complete

    sixth = [a for a, _ in isolate_roots(PolyRat((Q(1), Q(-1), Q(1))))]
    lat6 = relation_lattice(sixth)
    assert lat6.generators == [[1, 1], [0, 6]] and lat6.complete

    pair = [a for a, _ in isolate_roots(PolyRat((Q(5), Q(-6), Q(5))))]
    latp = relation_lattice(pair)
    assert latp.generators == [[1, 1]] and latp.complete

    for gammas, lat_ in ((minus_one, lat), (sixth, lat6), (pair, latp)):
        for n in range(101):
            pt = orbit_point(list(gammas), n)
            for gen in lat_.generators:
                assert power_product_is_one(list(pt), list(gen)), \
                    f"n={n} gen={gen}"
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"\nACCEPTANCE 5 PASS: relation lattices exact; all orbit points "
          f"to n=100 satisfy the relations ({_fmt_secs(elapsed)})")


def test_06_decision_suite():
    t0 = time.time()
    results = []

    fib_a = Analysis.build(FIB, cfg(1, 1))
    d_pos = exists_robust_positivity(FIB, cfg(1, 1), analysis=fib_a)
    d_sko = exists_robust_skolem(FIB, cfg(1, 1), analysis=fib_a)
    d_ult = exists_robust_ultimate_positivity(FIB, cfg(1, 1), analysis=fib_a)
    assert (d_pos.verdict, d_sko.verdict, d_ult.verdict) == ("YES",) * 3
    results.append("fibonacci (1,1): YES/YES/YES")

    # validation: the certified-positive ball is clean under sampling
    rep = brute_force_check(FIB, Ball(cfg(1, 1), Q(1, 10)), horizon=10**4,
                            samples=10**3, mode="positivity", seed=0)
    assert rep.violation is None
    rep_sk = brute_force_check(FIB, Ball(cfg(1, 1), Q(1, 10)), horizon=10**4,
                               samples=256, mode="skolem", seed=1)
    assert rep_sk.violation is None
    results.append("fibonacci ball 1/10: no violation at horizon 1e4")

    d0 = exists_robust_positivity(FIB, cfg(0, 1))
    assert d0.verdict == "NO"
    assert d0.certificate.violating_index == 0
    assert eval_terms(FIB, cfg(0, 1), 0)[0] == 0   # exact confirmation
    results.append("fibonacci (0,1): positivity NO at n=0")

    d_alt_u = exists_robust_ultimate_positivity(ALT, cfg(1))
    d_alt_s = exists_robust_skolem(ALT, cfg(1))
    assert d_alt_u.verdict == "NO" and d_alt_s.verdict == "YES"
    rep_alt = brute_force_check(ALT, cfg(1), horizon=10**4, mode="positivity")
    assert rep_alt.violation is not None and rep_alt.violation[0] == 1
    rep_alt_sk = brute_force_check(ALT, cfg(1), horizon=10**4, mode="skolem")
    assert rep_alt_sk.violation is None
    results.append("alternating: ultpos NO, skolem YES (confirmed)")

    surface = family_config(Q(2), Q(2), Q(0))
    d_surf = exists_robust_ultimate_positivity(HARD35, surface)
    assert d_surf.verdict == "NO"
    assert d_surf.certificate.optimum.verdict == "ZERO"
    # exact certificate: z^2 = x^2 + y^2 on the nose
    assert Q(2) ** 2 == Q(2) ** 2 + Q(0) ** 2
    # a perturbed start with a strictly positive prefix exits the cone and
    # is violated at the first close angle alignment
    outside = family_config(Q(2) - Q(1, 50), Q(2), Q(0), zr=Q(1))
    rep_out = brute_force_check(HARD35, outside, horizon=10**4,
                                mode="positivity")
    assert rep_out.violation is not None
    assert rep_out.violation[0] > 0
    results.append("cone-surface point: exists-robust-ultpos NO (mu = 0 "
                   f"exact); perturbation violated at n={rep_out.violation[0]}")

    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\nACCEPTANCE 6 PASS: decision fixtures with validated "
          f"certificates ({_fmt_secs(elapsed)}):")
    for line in results:
        print(f"  - {line}")


def test_07_tangent_ball_gadget():
    t0 = time.time()
    # psi = 1/10, ell = 1/pi: eps chosen so the constraint system admits psi
    eps = Q(7, 20)
    base = compute_params(Q(1), eps, P35, Q45)
    params = HardnessParams(p=P35, q=Q45, ell_qprime=Q(1), eps=eps,
                            psi=Q(1, 10), alpha0=base.alpha0, n1=base.n1,
                            tau1=base.tau1, n2=base.n2)
    params.validate()
    rep = ball_gadget(params, samples=1000, seed=0)
    assert rep.point_d == (2, 2, 0, 0, 0, 2)       # rational, as promised
    assert rep.radius_sq == 2 * Q(1, 10) ** 2      # ||c - d|| = sqrt(2) psi
    assert rep.d_on_sphere
    assert rep.d_margin_zero
    assert rep.samples_checked == 1000
    assert rep.all_samples_interior
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"\nACCEPTANCE 7 PASS: tangent-ball gadget exact at psi=1/10, "
          f"ell=1/pi; 1000 samples strictly interior ({_fmt_secs(elapsed)})")


def test_08_ball_minimum_closed_form():
    t0 = time.time()
    params = compute_params(Q(1), Q(1, 20), P35, Q45)
    psi, lam = params.psi, params.two_pi_ell
    n_max = 10**5

    # float arrays for the sampled-ball screen (rotation is orthogonal, so
    # float drift stays ~ n * 1e-16)
    cos_a = np.empty(n_max + 1)
    sin_a = np.empty(n_max + 1)
    cth, sth = 1.0, 0.0
    pf, qf = float(P35), float(Q45)
    for n in range(n_max + 1):
        cos_a[n] = cth
        sin_a[n] = sth
        cth, sth = pf * cth - qf * sth, qf * cth + pf * sth
    narr = np.arange(n_max + 1, dtype=float)
    term = (narr * float(2 - psi) * (1 - cos_a) - float(lam) * np.abs(sin_a)
            - 2 * float(psi) * (np.sqrt(narr**2 + 1) - narr))

    # sampled ball minimum of u_n over the gadget ball, all n <= 1e5
    rng = random.Random(5)
    center = (2 + psi, 2 - psi, Q(0), Q(0), Q(0), lam)
    r_sq = 2 * psi * psi
    D = 1 << 10
    from robustlrs.qmath import sqrt_down
    samples = []
    while len(samples) < 1000:
        v = [rng.randint(-D, D) for _ in range(6)]
        nv2 = sum(t * t for t in v)
        if nv2 == 0 or nv2 > D * D:
            continue
        lam_s = sqrt_down(r_sq * Q(2**20 - 1, 2**20) / nv2, 48)
        samples.append(tuple(cj + lam_s * vj for cj, vj in zip(center, v)))
    min_u = np.full(n_max + 1, np.inf)
    for pt in samples:
        zf, xf, yf, zrf, xrf, yrf = map(float, pt)
        u = (zf * narr - xf * narr * cos_a - yf * narr * sin_a
             + zrf - xrf * cos_a - yrf * sin_a)
        np.minimum(min_u, u, out=min_u)
    gap = min_u[1:] - term[1:]
    assert float(np.min(gap)) >= -1e-9, \
        f"sampled minimum under closed form at n={int(np.argmin(gap)) + 1}"

    # exact spot confirmation at the tightest indices
    order = np.argsort(gap)[:5]
    for idx in order:
        n = int(idx) + 1
        iv = _exact_ball_term(n, params)
        exact_min = None
        for pt in samples[:50]:
            c, s = _exact_rot(n)
            u = (pt[0] * n - pt[1] * n * c - pt[2] * n * s
                 + pt[3] - pt[4] * c - pt[5] * s)
            exact_min = u if exact_min is None else min(exact_min, u)
        assert exact_min >= iv.lo - Q(1, 10**9)

    # sign agreement with the tangent bound: n > n2 and
    # n [2 pi n theta] >= 2 pi ell + eps imply the closed form >= 0
    checked = _tangent_bound_sign_agreement(params, n_max)
    assert checked > 1000   # the hypothesis holds on a large set
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\nACCEPTANCE 8 PASS: sampled ball minima dominate the closed "
          f"form for n <= 1e5; sign agreement verified on {checked} "
          f"certified indices ({_fmt_secs(elapsed)})")


def _exact_rot(n, _cache={}):
    if n in _cache:
        return _cache[n]
    c, s = Q(1), Q(0)
    bc, bs = P35, Q45
    m = n
    while m:
        if m & 1:
            c, s = c * bc - s * bs, c * bs + s * bc
        m >>= 1
        if m:
            bc, bs = bc * bc - bs * bs, 2 * bc * bs
    _cache[n] = (c, s)
    return c, s


def _tangent_bound_sign_agreement(params, n_max) -> int:
    """Count n in (n2, n_max] where the hypothesis n[..] >= 2pi ell + eps is
    interval-certified, asserting the closed form is nonnegative there."""
    import math as _math
    psi, lam, eps = params.psi, params.two_pi_ell, params.eps
    bits = 160
    scale = 1 << bits
    den = 5
    pn, qn = 3, 4
    C, S, E = scale, 0, 0
    a = 2 - psi
    L = math.lcm(a.denominator, lam.denominator, psi.denominator,
                 eps.denominator)
    aL, lamL, psiL = int(a * L), int(lam * L), int(psi * L)
    thr = lam + eps
    thr_sq = thr * thr
    checked = 0
    for n in range(1, n_max + 1):
        C, S = (2 * (pn * C - qn * S) + den) // (2 * den), \
               (2 * (qn * C + pn * S) + den) // (2 * den)
        E += 1
        if n <= params.n2:
            continue
        # alpha_lo^2 = 2 (1 - cos_hi): certify n^2 alpha_lo^2 >= thr^2
        one_minus_lo = scale - C - E - 1
        if one_minus_lo <= 0:
            continue
        if Q(2 * n * n * one_minus_lo, scale) < thr_sq:
            continue
        checked += 1
        Sa = abs(S)
        T_lo = (2 * n * n * aL * (scale - C - E - 1)
                - 2 * n * lamL * (Sa + E + 1) - 2 * psiL * scale)
        if T_lo < 0:
            iv = _exact_ball_term(n, params)
            assert iv.lo >= 0, f"closed form negative at certified n={n}"
    return checked


def test_09_l_estimation_coherence():
    t0 = time.time()
    est = approximate_L(P35, Q45, Q(1, 20), horizon_cap=10**6)
    direct = lagrange_prefix(P35, Q45, 10**6)
    assert abs(est.interval.mid - direct.mid) <= Q(1, 20)
    assert est.interval.lo <= direct.hi and direct.lo <= est.interval.hi
    est12 = approximate_L(Q(1, 2), None, Q(1, 20), horizon_cap=10**6)
    assert est12.interval.lo == 0
    assert est12.interval.hi <= Q(1, 10)
    elapsed = time.time() - t0
    assert elapsed < 900
    print(f"\nACCEPTANCE 9 PASS: bracket vs direct prefix midpoints differ "
          f"by {float(abs(est.interval.mid - direct.mid)):.4f} <= 1/20; "
          f"rational angle collapses to [0, {float(est12.interval.hi):.3f}] "
          f"({_fmt_secs(elapsed)})")


def test_10_kronecker_density():
    t0 = time.time()
    theta = math.atan2(0.8, 0.6) / (2 * math.pi)
    n_max = 10**6
    # orbit angles in turns: n*theta mod 1, float drift ~ 1e-10 at 1e6
    n_arr = np.arange(1, n_max + 1, dtype=np.float64)
    angles = (n_arr * theta) % 1.0
    rng = random.Random(11)
    eps = 1e-2
    # ||s^n - t||_2 in C^2 = sqrt(2) * |e^{i a} - e^{i b}|
    #                      = 2 sqrt(2) |sin(pi (a - b))| <= 2 sqrt(2) pi gap
    gap_needed = eps / (2 * math.sqrt(2) * math.pi) * 0.9
    hits = []
    for _ in range(20):
        target = rng.random()
        diff = np.abs(angles - target)
        diff = np.minimum(diff, 1.0 - diff)
        n_best = int(np.argmin(diff)) + 1
        assert diff[n_best - 1] < gap_needed, f"target {target} missed"
        hits.append(n_best)
    # exact anchor for the first hit: certified distance below eps
    from robustlrs.trig import RotScan
    sc = RotScan(P35, Q45, bits=96)
    n0 = hits[0]
    for _ in range(n0):
        sc.step()
    t_angle = (n0 * theta) % 1.0
    tx, ty = math.cos(2 * math.pi * t_angle), math.sin(2 * math.pi * t_angle)
    dist_sq = ((sc.cos_ival() - Q(tx).limit_denominator(10**12)).sq()
               + (sc.sin_ival() - Q(ty).limit_denominator(10**12)).sq()) * 2
    assert dist_sq.hi < Q(1, 10**4) * 2  # comfortably below eps^2 * 2
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\nACCEPTANCE 10 PASS: 20 torus targets approached within 1e-2 "
          f"by the orbit (max hit index {max(hits)}) "
          f"({_fmt_secs(elapsed)})")
