import math
import random
from fractions import Fraction as Q

import pytest

from robustlrs import hardness
from robustlrs.interval import Ival
from robustlrs.lrs import Lrr, InitialConfig, eval_terms, spectral
from robustlrs.hardness import (build_hardness_lrr, basis_change,
                                config_from_coeffs, coeffs_from_config,
                                CoefficientBasisPoint, cone_contains,
                                compute_params, HardnessParams,
                                ball_gadget, min_ball_term, scan_ball_terms,
                                lagrange_prefix, approximate_L)
from robustlrs.trig import RotScan

from oracles import ball_samples, rotation_check

P, QSIN = Q(3, 5), Q(4, 5)


def test_build_hardness_lrr_p_half():
    lrr = build_hardness_lrr(Q(1, 2))
    assert lrr.coeffs == (Q(-1), Q(4), Q(-8), Q(10), Q(-8), Q(4))


def test_build_hardness_lrr_p35():
    lrr = build_hardness_lrr(P, QSIN)
    # char = (x-1)^2 (x^2 - (6/5)x + 1)^2; verify by spectral structure
    spec = spectral(lrr)
    assert spec.m == 1
    assert spec.rho.as_rational() == 1
    assert len(spec.dominant_indices) == 3


def test_build_hardness_rejects():
    with pytest.raises(ValueError):
        build_hardness_lrr(Q(3, 5), Q(3, 5))   # off circle
    with pytest.raises(ValueError):
        build_hardness_lrr(Q(1))


def test_basis_change_reconstruction():
    rng = random.Random(9)
    lrr = build_hardness_lrr(P, QSIN)
    for _ in range(3):
        c = InitialConfig(tuple(Q(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(6)))
        pt = coeffs_from_config(P, QSIN, c)
        back = config_from_coeffs(P, QSIN, pt)
        assert back.entries == c.entries
        # reconstruction identity against direct recursion
        terms = eval_terms(lrr, c, 11)
        cos, sin = Q(1), Q(0)
        for n in range(12):
            expect = (pt.z_dom * n - pt.x_dom * n * cos - pt.y_dom * n * sin
                      + pt.z_res - pt.x_res * cos - pt.y_res * sin)
            assert expect == terms[n], f"n={n}"
            cos, sin = P * cos - QSIN * sin, QSIN * cos + P * sin


def test_basis_change_pure_components():
    # z_dom = 1 alone gives u_n = n; z_res = 1 alone gives u_n = 1
    c_lin = config_from_coeffs(P, QSIN, CoefficientBasisPoint(
        Q(1), Q(0), Q(0), Q(0), Q(0), Q(0)))
    lrr = build_hardness_lrr(P, QSIN)
    assert eval_terms(lrr, c_lin, 20) == [Q(n) for n in range(21)]
    c_one = config_from_coeffs(P, QSIN, CoefficientBasisPoint(
        Q(0), Q(0), Q(0), Q(1), Q(0), Q(0)))
    assert eval_terms(lrr, c_one, 10) == [Q(1)] * 11


def test_point_d_formula():
    # d = C^{-1} (2, 2, 0, 0, 0, 2 pi ell) with ell = 1/pi:
    # u_n(d) = 2n - 2n cos - 2 sin
    d = config_from_coeffs(P, QSIN, CoefficientBasisPoint(
        Q(2), Q(2), Q(0), Q(0), Q(0), Q(2)))
    lrr = build_hardness_lrr(P, QSIN)
    terms = eval_terms(lrr, d, 30)
    cos, sin = Q(1), Q(0)
    for n in range(31):
        assert terms[n] == 2 * n - 2 * n * cos - 2 * sin
        cos, sin = P * cos - QSIN * sin, QSIN * cos + P * sin


def test_cone_contains():
    inside, margin = cone_contains(1, 1, 0)
    assert inside and margin.lo == margin.hi == 0
    inside, margin = cone_contains(2, 1, 1)
    assert inside and margin.lo > Q(1, 2)
    inside, _ = cone_contains(1, 1, 1)
    assert not inside
    inside, _ = cone_contains(-1, 0, 0)
    assert not inside


def test_rotation_check_rational():
    rep = rotation_check(P, QSIN)
    assert rep.is_rotation and rep.orthogonal and rep.determinant_one
    assert rep.order is None  # irrational angle


def test_rotation_check_sixth_order():
    rep = rotation_check(Q(1, 2), None)
    assert rep.is_rotation
    assert rep.order == 6


def test_rotation_check_identity():
    rep = rotation_check(Q(1), Q(0))
    assert rep.is_rotation
    assert rep.order == 1


def test_compute_params_constraints():
    params = compute_params(Q(1), Q(1, 20), P, QSIN)  # ell = 1/pi
    params.validate()
    assert params.psi < Q(1, 3)
    assert params.n2 > params.n1
    # monotonicity: smaller eps -> larger n2 and smaller psi
    tighter = compute_params(Q(1), Q(1, 200), P, QSIN)
    assert tighter.n2 > params.n2
    assert tighter.psi <= params.psi


def test_ball_gadget_exact_checks():
    params = compute_params(Q(1), Q(1, 20), P, QSIN)
    psi = Q(1, 10)
    if params.psi > psi:
        params = HardnessParams(p=P, q=QSIN, ell_qprime=Q(1), eps=Q(1, 20),
                                psi=psi, alpha0=params.alpha0, n1=params.n1,
                                tau1=params.tau1, n2=params.n2)
    report = ball_gadget(params, samples=200, seed=1)
    assert report.d_on_sphere
    assert report.d_margin_zero
    assert report.all_samples_interior
    assert report.point_d == (2, 2, 0, 0, 0, 2)


def test_min_ball_term_period_hit():
    # p = 1/2: at n = 6 the angle returns to 0: term = -2 psi (sqrt(37) - 6)
    params = compute_params(Q(1), Q(1, 20), Q(1, 2), None)
    iv = min_ball_term(6, params)
    expect = Ival.point(Q(37)).sqrt(96)
    target_lo = -2 * params.psi * (expect.hi - 6)
    target_hi = -2 * params.psi * (expect.lo - 6)
    assert iv.lo <= target_hi and target_lo <= iv.hi
    assert iv.hi < 0


def test_min_ball_term_exact_vs_scan():
    params = compute_params(Q(1), Q(1, 20), P, QSIN)
    for n in (1, 7, 100, 999):
        exact = min_ball_term(n, params)          # rational powers
        sc = RotScan(P, QSIN, 200)                # the dyadic scan
        sc.advance(n)
        cos_iv, sin_iv = sc.cos_ival(), sc.sin_ival()
        scan = hardness._ball_term(n, params, cos_iv, sin_iv,
                                   hardness._root_tail(n, params.psi))
        assert exact.overlaps(scan)


def test_exact_ball_term_takes_no_exact_powers_past_4000(monkeypatch):
    """Past n = 4000 the one-term resolution walks the dyadic rotation: the
    exact rational powers would have numerators of O(n) digits."""
    p, q = Q(29, 421), Q(420, 421)
    params = compute_params(Q(1), Q(1, 20), p, q)
    n = 4500
    c, s = hardness.rotation_power(p, q, n)      # the exact reference
    cos_iv, sin_iv = Ival.point(c), Ival.point(s)
    root = Ival.point(Q(n * n + 1)).sqrt(512)
    exact = hardness._ball_term(n, params, cos_iv, sin_iv,
                                (root - n) * (2 * params.psi))
    real = hardness.rotation_power

    def bounded(p, q, n):
        if n > 4000:
            raise AssertionError(f"exact rotation power at n = {n}")
        return real(p, q, n)

    monkeypatch.setattr(hardness, "rotation_power", bounded)
    got = hardness._exact_ball_term(n, params)
    assert got.overlaps(exact)
    assert got.width < Q(1, 1 << 400)


def test_scan_ball_terms_finds_violation_for_p12():
    # rational angle: every sixth step dips negative
    params = compute_params(Q(1), Q(1, 20), Q(1, 2), None)
    res = scan_ball_terms(params, params.n2, params.n2 + 12)
    assert res[0] == "violation"
    assert res[1] % 6 == 0


def test_lagrange_prefix_rational_angle():
    out = lagrange_prefix(Q(1, 2), None, 10)
    assert out.lo == out.hi == 0


def test_lagrange_prefix_p35():
    out = lagrange_prefix(P, QSIN, 1000)
    assert out.width <= Q(1, 10**6)
    # independent float oracle
    theta = math.atan2(0.8, 0.6)
    best = min(n * abs(math.remainder(n * theta, 2 * math.pi))
               for n in range(1, 1001))
    val = best / (2 * math.pi)
    assert out.lo - 1e-9 <= val <= out.hi + 1e-9


def test_lagrange_prefix_monotone_in_n():
    a = lagrange_prefix(P, QSIN, 100)
    b = lagrange_prefix(P, QSIN, 2000)
    assert b.lo <= a.hi + Q(1, 10**9)
    assert b.hi <= a.hi + Q(1, 10**9)
    assert a.lo >= 0 and b.lo >= 0


def test_approximate_L_rational_angle_collapses():
    est = approximate_L(Q(1, 2), None, Q(1, 20), horizon_cap=10**5)
    assert est.interval.hi <= Q(1, 10)
    assert est.interval.lo == 0


def test_approximate_L_p35_coherent():
    est = approximate_L(P, QSIN, Q(1, 20), horizon_cap=10**5)
    direct = lagrange_prefix(P, QSIN, 10**5)
    mid_est = est.interval.mid
    mid_direct = direct.mid
    assert abs(mid_est - mid_direct) <= Q(1, 20)
    # the estimate interval must contain the directly-computed value
    assert est.interval.lo - Q(1, 10**6) <= direct.hi
    assert direct.lo <= est.interval.hi + Q(1, 10**6)


def test_nonneg_gadget_forces_diophantine_bound():
    """Nonnegative gadget values at half-circle angles force the
    Diophantine quantity n [2 pi n theta] above 2 pi ell - eps."""
    params = compute_params(Q(1), Q(1, 20), P, QSIN)
    lam, eps = params.two_pi_ell, params.eps
    from robustlrs.trig import RotScan, pi_ival
    from robustlrs.qmath import sqrt_up
    sc = RotScan(P, QSIN, bits=128)
    pi_hi = pi_ival(64).hi
    checked = 0
    for n in range(1, 10**5 + 1):
        sc.advance(n)
        if n <= params.n1:
            continue
        cos_iv, sin_iv = sc.cos_ival(), sc.sin_ival()
        if sin_iv.lo < 0:
            continue                     # need the [0, pi] half certified
        # u_n(d) = 2n(1-cos) - 2 pi ell sin
        u_lo = 2 * n * (1 - cos_iv.hi) - lam * sin_iv.hi
        if u_lo < 0:
            continue                     # hypothesis not certified
        checked += 1
        # arccos(c) <= pi sqrt((1 - c) / 2)
        alpha_hi = pi_hi * sqrt_up((1 - cos_iv.lo) / 2, 64)
        assert n * alpha_hi > lam - eps, f"implication failed at n={n}"
    assert checked > 10**4


def test_long_positive_prefix_implies_near_cone():
    """Starts that stay nonnegative for a long prefix have dominant
    coordinates at worst marginally outside the cone."""
    import random
    rng = random.Random(3)
    lrr = build_hardness_lrr(P, QSIN)
    from robustlrs.lrs import InitialConfig, eval_terms
    from robustlrs.hardness import coeffs_from_config
    survivors = 0
    for _ in range(100):
        z = Q(rng.randint(0, 6), rng.randint(1, 3))
        x = Q(rng.randint(-4, 4), rng.randint(1, 3))
        y = Q(rng.randint(-4, 4), rng.randint(1, 3))
        zr = Q(rng.randint(-3, 3), rng.randint(1, 2))
        c = config_from_coeffs(P, QSIN, CoefficientBasisPoint(
            z, x, y, zr, Q(0), Q(0)))
        terms = eval_terms(lrr, c, 600)
        if all(t >= 0 for t in terms):
            survivors += 1
            _, margin = cone_contains(z, x, y)
            assert margin.hi >= -Q(1, 20), f"survivor far outside cone: " \
                f"{(z, x, y)}"
    assert survivors > 3


def test_hyperplane_offset_decay():
    """The parallel-hyperplane offset constant shrinks as O(1/n) with the
    derived numerator -z_res + x_res cos + y_res sin."""
    zr, xr, yr = Q(2), Q(1), Q(-1)
    cos, sin = Q(1), Q(0)
    bound = abs(zr) + abs(xr) + abs(yr)
    for n in range(1, 400):
        cos, sin = P * cos - QSIN * sin, QSIN * cos + P * sin
        K = (-zr + xr * cos + yr * sin) / n
        assert abs(K) <= bound / n
    # the dominant-part identity: v_n = (z - x cos - y sin) + K_n holds
    c = config_from_coeffs(P, QSIN, CoefficientBasisPoint(
        Q(3), Q(1), Q(0), zr, xr, yr))
    lrr = build_hardness_lrr(P, QSIN)
    terms = eval_terms(lrr, c, 50)
    cos, sin = Q(1), Q(0)
    for n in range(1, 51):
        cos, sin = P * cos - QSIN * sin, QSIN * cos + P * sin
        v_n = Q(terms[n], n)
        dom = Q(3) - cos
        K = (zr - xr * cos - yr * sin) / n
        assert v_n == dom + K


def test_interior_ball_verdict_flavors_coincide():
    """On an interior ball the three verdict flavors coincide after the
    threshold: strictly positive terms, hence positive, hence nonzero."""
    import random
    rng = random.Random(8)
    lrr = build_hardness_lrr(P, QSIN)
    center = config_from_coeffs(P, QSIN, CoefficientBasisPoint(
        Q(3), Q(1), Q(0), Q(1), Q(0), Q(0)))
    from robustlrs.lrs import Ball, eval_terms, InitialConfig
    ball = Ball(center, Q(1, 20))
    for pt in ball_samples(ball, 40, seed=2):
        terms = eval_terms(lrr, InitialConfig(pt), 400)
        for n in range(1, 401):
            assert terms[n] > 0   # strict positivity == positivity == nonzero


def test_cone_membership_vs_orbit_sign():
    """Empirical two-way check: comfortable cone margin keeps the dominant
    orbit up; comfortably outside produces a negative witness."""
    bits = 96
    scale = 1 << bits

    def orbit_min(z, x, y, n_max):
        import math as _m
        L = _m.lcm(z.denominator, x.denominator, y.denominator)
        zL, xL, yL = int(z * L), int(x * L), int(y * L)
        C, S, E = scale, 0, 0
        lo_min = hi_min = None
        for n in range(1, n_max + 1):
            C, S = (2 * (3 * C - 4 * S) + 5) // 10, \
                   (2 * (4 * C + 3 * S) + 5) // 10
            E += 1
            slack = (abs(xL) + abs(yL)) * (E + 1)
            val = zL * scale - xL * C - yL * S
            if lo_min is None or val - slack < lo_min:
                lo_min = val - slack
            if hi_min is None or val + slack < hi_min:
                hi_min = val + slack
        return Q(lo_min, scale * L), Q(hi_min, scale * L)

    # margin = 3 - sqrt(2.89^2) hmm: use x,y with rational norm: (z,x,y)
    inside = (Q(3), Q(29, 10), Q(0))     # margin 1/10
    lo, _ = orbit_min(*inside, 10**5)
    assert lo >= Q(1, 10) - Q(1, 10**9)
    outside = (Q(28, 10), Q(29, 10), Q(0))  # margin -1/10
    _, hi = orbit_min(*outside, 10**5)
    assert hi < 0


@pytest.mark.parametrize("call", [
    lambda: compute_params(Q(1), Q(1, 20), Q(3, 5), Q(1, 2)),
    lambda: lagrange_prefix(Q(3, 5), Q(1, 2), 50),
    lambda: lagrange_prefix(Q(1, 2), Q(1, 2), 3),   # root of unity, bad q
    lambda: approximate_L(Q(3, 5), Q(1, 2), Q(1, 20), horizon_cap=2000),
    lambda: approximate_L(Q(3, 5), Q(1, 2), Q(1), horizon_cap=2000),
], ids=["compute_params", "lagrange_prefix", "lagrange_prefix_rou",
        "approximate_L", "approximate_L_no_probe"])
def test_off_circle_point_rejected(call):
    with pytest.raises(ValueError, match="unit circle"):
        call()
