import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from robustlrs import lrs, qmath
from robustlrs.interval import Box, Ival
from robustlrs.lrs import (Lrr, InitialConfig, Ball, eval_terms, spectral,
                           exp_poly_solution, normalize, residual_threshold,
                           OrbitScanner, exact_zeros_up_to, term_sign,
                           scaled_term, _scaled_integer_recurrence,
                           EXACT_TERMS)

from oracles import (companion_matrix, mat_mul, mat_pow, hyperplane_distance,
                     hyperplane_constant, residual_box, fraction_enclosure,
                     clear_analysis_memos)

FIB = Lrr((Q(1), Q(1)))
ALT = Lrr((Q(-1),))
HARD6 = Lrr((Q(-1), Q(4), Q(-8), Q(10), Q(-8), Q(4)))


def cfg(*vals):
    return InitialConfig(tuple(Q(v) for v in vals))


def test_lrr_validation():
    with pytest.raises(ValueError):
        Lrr((Q(0), Q(1)))
    with pytest.raises(ValueError):
        Lrr(())
    with pytest.raises(ValueError):
        Ball(cfg(1, 1), Q(-1, 2))
    with pytest.raises(ValueError):
        Ball(cfg(1, 1), Q(1, 2), "clopen")


def test_eval_terms_fibonacci():
    assert eval_terms(FIB, cfg(1, 1), 6) == [1, 1, 2, 3, 5, 8, 13]


def test_eval_terms_alternating():
    assert eval_terms(ALT, cfg(1), 4) == [1, -1, 1, -1, 1]


def test_eval_terms_order6_matches_naive():
    c = cfg(1, 0, 0, 0, 0, 0)
    got = eval_terms(HARD6, c, 7)
    # independent naive recursion
    a = [Q(-1), Q(4), Q(-8), Q(10), Q(-8), Q(4)]
    u = [Q(1), Q(0), Q(0), Q(0), Q(0), Q(0)]
    for n in range(2):
        u.append(sum(a[j] * u[n + j] for j in range(6)))
    assert got == u


def _fraction_terms(lrr, c, n_max):
    """u_0 .. u_{n_max} by the `Fraction` recursion: the reference for
    `eval_terms` on the scaled integer recurrence."""
    k = lrr.order
    terms = list(c.entries)
    for n in range(len(terms), n_max + 1):
        terms.append(sum((a * terms[n - k + j]
                          for j, a in enumerate(lrr.coeffs)), Q(0)))
    return terms[:n_max + 1]


def test_eval_terms_matches_fraction_recursion():
    rng = random.Random(9)
    cases = [(FIB, cfg(0, 1)), (ALT, cfg(Q(-2, 3))),
             (HARD6, cfg(1, -2, Q(3, 2), 0, 5, Q(-1, 3))),
             (Lrr((Q(-1), Q(22, 5), Q(-231, 25), Q(292, 25), Q(-231, 25),
                   Q(22, 5))), cfg(2, 0, -1, Q(7, 4), 1, 3))]
    for _ in range(20):
        k = rng.randint(1, 5)
        coeffs = [Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                  for _ in range(k)]
        init = [Q(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(k)]
        cases.append((Lrr(tuple(coeffs)), InitialConfig(tuple(init))))
    for lrr, c in cases:
        for n_max in (-3, -1):
            with pytest.raises(ValueError):
                eval_terms(lrr, c, n_max)
        for n_max in (0, max(lrr.order - 2, 0), 60):
            got = eval_terms(lrr, c, n_max)
            assert got == _fraction_terms(lrr, c, n_max)
            assert all(type(v) is Q for v in got)


def test_companion_consistency():
    rng = random.Random(3)
    for lrr, c in [(FIB, cfg(1, 1)), (ALT, cfg(1)),
                   (HARD6, cfg(*[Q(rng.randint(-3, 3), rng.randint(1, 4))
                                 for _ in range(6)]))]:
        terms = eval_terms(lrr, c, 500)
        m = companion_matrix(lrr)
        # incremental exact powering for every n <= 500
        acc = [[Q(1) if i == j else Q(0) for j in range(lrr.order)]
               for i in range(lrr.order)]
        for n in range(501):
            first = sum(acc[0][j] * c.entries[j] for j in range(lrr.order))
            assert first == terms[n], f"n={n}"
            acc = mat_mul(acc, m)
        # spot-check binary powering agrees with the incremental route
        for n in (7, 63, 500):
            mp = mat_pow(m, n)
            first = sum(mp[0][j] * c.entries[j] for j in range(lrr.order))
            assert first == terms[n]


def test_spectral_fibonacci():
    s = spectral(FIB)
    assert s.m == 0
    assert len(s.dominant_indices) == 1
    phi = s.roots[s.dominant_indices[0]][0]
    b = phi.refine(Q(1, 10**12))
    assert abs(float(b.re.mid) - 1.618033988749895) < 1e-9
    rb = s.rho.refine(Q(1, 10**12))
    assert abs(float(rb.re.mid) - 1.618033988749895) < 1e-9


def test_spectral_order6():
    s = spectral(HARD6)
    assert s.m == 1
    assert len(s.dominant_indices) == 3
    assert s.rho.is_rational and s.rho.as_rational() == 1
    mults = sorted(m for _, m in s.roots)
    assert mults == [2, 2, 2]


def test_spectral_order1():
    s = spectral(Lrr((Q(2),)))
    assert s.rho.is_rational and s.rho.as_rational() == 2
    assert s.m == 0


def test_exp_poly_fibonacci_binet():
    sol = exp_poly_solution(FIB, cfg(1, 1))
    # alpha_phi = phi/sqrt5 ~ 0.72360679, alpha_psi = -psi/sqrt5 ~ 0.2763932
    vals = sorted(float(sol.alpha[i][0].box(96).re.mid) for i in range(2))
    assert abs(vals[0] - 0.27639320225) < 1e-12
    assert abs(vals[1] - 0.72360679775) < 1e-12


def test_exp_poly_alternating():
    sol = exp_poly_solution(ALT, cfg(1))
    a = sol.alpha[0][0]
    assert a.is_rational and a.as_rational() == 1


def test_exp_poly_reconstruction_interval():
    rng = random.Random(11)
    c = cfg(*[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
    sol = exp_poly_solution(HARD6, c)
    terms = eval_terms(HARD6, c, 11)
    spec = spectral(HARD6)
    for n in range(12):
        acc_re = Ival.point(0)
        acc_im = Ival.point(0)
        for i, (root, mult) in enumerate(spec.roots):
            gb = root.box(160).pow(n, 200)
            for j in range(mult):
                t = sol.alpha[i][j].box(160) * gb * Q(n**j)
                acc_re = acc_re + t.re
                acc_im = acc_im + t.im
        assert acc_re.contains(terms[n]), f"n={n}"
        assert acc_im.contains(Q(0))


def test_normalize_alternating():
    form, res = normalize(ALT, cfg(1))
    assert not res
    assert len(form.terms) == 1
    alpha, gamma = form.terms[0]
    assert alpha.as_rational() == 1 and gamma.as_rational() == -1


def test_normalize_fibonacci():
    form, res = normalize(FIB, cfg(1, 1))
    assert len(form.terms) == 1
    alpha, gamma = form.terms[0]
    assert gamma.is_rational and gamma.as_rational() == 1
    assert abs(float(alpha.box(96).re.mid) - 0.72360679775) < 1e-10
    # residual term (-psi/sqrt5)(psi/phi)^n -> 0
    assert res
    v5 = residual_box(res, 5).re
    assert abs(float(v5.mid)) < 0.05
    v50 = residual_box(res, 50).re
    assert abs(float(v50.mid)) < 1e-10


def test_normalize_identity_v_eq_dom_plus_res():
    rng = random.Random(5)
    c = cfg(*[Q(rng.randint(-4, 4)) for _ in range(6)])
    spec = spectral(HARD6)
    form, res = normalize(HARD6, c)
    terms = eval_terms(HARD6, c, 30)
    for n in (1, 3, 10, 30):
        vb = residual_box(res, n, 192)
        dom = Box.point(0)
        for a, g in form.terms:
            dom = (dom + a.box(192) * g.box(192).pow(n, 224)).round_out(208)
        total = dom + vb
        v_n = terms[n] / (Q(n) ** spec.m * 1)  # rho = 1
        assert total.re.contains(v_n), f"n={n}"


def test_residual_threshold_zero_residual():
    _, res = normalize(ALT, cfg(1))
    assert residual_threshold(res, Q(1, 1000)) == 0


def test_residual_threshold_fibonacci():
    _, res = normalize(FIB, cfg(1, 1))
    n0 = residual_threshold(res, Q(1, 1000))
    assert 0 < n0 < 40
    for n in range(n0 + 1, n0 + 60):
        assert abs(residual_box(res, n, 160).re.mid) < Q(1, 1000)


def test_residual_threshold_one_over_n_family():
    # order-6: residual is O(1/n), threshold scales like 1/eps
    c = cfg(1, 0, 0, 0, 0, 0)
    _, res = normalize(HARD6, c)
    assert res
    n_small = residual_threshold(res, Q(1, 10))
    n_big = residual_threshold(res, Q(1, 100))
    assert n_big >= 5 * max(n_small, 1)
    for n in range(n_small + 1, n_small + 50):
        assert abs(residual_box(res, n, 192).re.mid) < Q(1, 10)


def test_residual_zero_for_linear_orbit():
    # c = (0..5) gives u_n = n exactly: the residual vanishes identically
    _, res = normalize(HARD6, cfg(0, 1, 2, 3, 4, 5))
    assert not res
    assert residual_threshold(res, Q(1, 100)) == 0


def test_hyperplane_distance_exact_zero():
    # u_0 = 0 for c = (0, 1): distance to H_0 is 0
    d = hyperplane_distance(FIB, cfg(0, 1), 0)
    assert d.lo == 0 and d.hi == 0


def test_hyperplane_distance_fibonacci_n3():
    # u_3(c') = c'_0 + 2 c'_1, so the first row of M^3 is (1, 2) and the
    # distance from (1,1) to H_3 is |3| / sqrt(5)
    d = hyperplane_distance(FIB, cfg(1, 1), 3)
    sq = d.sq()
    assert sq.lo <= Q(9, 5) <= sq.hi


def test_hyperplane_claim_constant():
    # distance(c, H_n) <= C |v_n(c)| for n = 1..1000 (m = 0, so
    # v_n = u_n / rho^n); checked against incremental exact row norms
    C = hyperplane_constant(FIB)
    terms = eval_terms(FIB, cfg(1, 1), 1000)
    spec = spectral(FIB)
    rho_lo = spec.rho.box(256).re.lo
    m = companion_matrix(FIB)
    start = cfg(1, 1)
    row = [Q(1), Q(0)]
    rho_pow = Q(1)
    for n in range(1, 1001):
        row = [row[0] * m[0][j] + row[1] * m[1][j] for j in range(2)]
        rho_pow *= rho_lo
        norm_sq = row[0] ** 2 + row[1] ** 2
        u_n = row[0] * start.entries[0] + row[1] * start.entries[1]
        assert u_n == terms[n]
        # distance^2 = u_n^2 / ||row||^2 <= (C |v_n|)^2
        dist_sq = Q(u_n * u_n, norm_sq)
        v_hi = abs(terms[n]) / rho_pow
        assert dist_sq <= (C * v_hi) ** 2, f"n={n}"


def test_orbit_scanner_matches_exact():
    c = cfg(1, 1)
    sc = OrbitScanner(normalize(FIB, c), 160)
    terms = eval_terms(FIB, c, 300)
    rho = spectral(FIB).rho
    for n in range(1, 300):
        lo, hi, den = sc.step()
        vb = Ival(Q(lo, den), Q(hi, den))
        # v_n = u_n / rho^n: check containment via rho box powering
        rb = rho.box(200).pow(n, 224)
        prod = vb * rb.re
        assert prod.lo <= terms[n] <= prod.hi, f"n={n}"
    assert vb.width < Q(1, 1 << 130)


def test_exact_zeros():
    assert exact_zeros_up_to(FIB, cfg(0, 1), 10) == [0]
    assert exact_zeros_up_to(FIB, cfg(1, 1), 50) == []
    # u_n = n - 3 style zero inside: c = (-3,-2): u = -3,-2,-5,... no zero
    z = exact_zeros_up_to(Lrr((Q(-1), Q(2))), cfg(-1, 0), 10)
    # u_{n+2} = 2u_{n+1} - u_n: arithmetic progression -1,0,1,2,...: zero at 1
    assert z == [1]


def _crt_zeros(lrr, c, n_max):
    """Reference: the zeros of w_n = E D^n u_n by CRT over as many primes
    (the sympy.prevprime chain below 2^62) as the magnitude bound of w_n
    needs, each pass over the whole range."""
    import sympy
    coeffs, init, _, _ = _scaled_integer_recurrence(lrr, c)
    k = lrr.order
    growth = max(2, sum(abs(x) for x in coeffs))
    base_bits = max((abs(v).bit_length() for v in init), default=1) + 1
    need_bits = base_bits + (n_max + k) * (growth.bit_length() + 1)
    p, candidate = 1 << 62, None
    for _ in range(need_bits // 61 + 2):
        p = sympy.prevprime(p)
        seq = [v % p for v in init]
        for n in range(k, n_max + 1):
            seq.append(sum(coeffs[j] * seq[n - k + j] for j in range(k)) % p)
        zeros = {n for n in range(min(n_max + 1, len(seq))) if seq[n] == 0}
        candidate = zeros if candidate is None else candidate & zeros
    return sorted(candidate)


def test_exact_zeros_match_crt_reference():
    """One prime pass and an exact confirmation give the zeros the full CRT
    scan gives, also where every term is a candidate modulo the prime."""
    from robustlrs.lrs import _FILTER_PRIME
    p = _FILTER_PRIME
    cases = [
        (Lrr((Q(-1), Q(2))), cfg(-5, -4)),              # n - 5: zero at 5
        (Lrr((Q(-1, 2), Q(3, 2))), cfg(-7, -3)),       # 1 - 8/2^n: zero at 3
        (Lrr((Q(-1), Q(0))), cfg(0, Q(1, 3))),          # zero at every even n
        (Lrr((Q(-1), Q(2))), cfg(-3 * p, -2 * p)),      # p (n - 3): zero at 3
        (Lrr((Q(1),)), cfg(p)),                         # p: no zero
        (FIB, cfg(1, 1)),
        (Lrr((Q(1, 2), Q(-2), Q(5, 2))), cfg(-40, -39, -38)),  # n - 40
    ]
    for lrr, c in cases:
        for n_max in (0, 1, 2, 5, 40, 90):
            assert exact_zeros_up_to(lrr, c, n_max) == _crt_zeros(lrr, c, n_max)
    assert exact_zeros_up_to(*cases[2], 90) == list(range(0, 91, 2))
    # (x - 1)^2 (x - 1/2), u_n = n - 1300: one zero far into the range
    assert exact_zeros_up_to(cases[-1][0], cfg(-1300, -1299, -1298),
                             6000) == [1300]


def test_term_sign():
    assert term_sign(FIB, cfg(1, 1), 10) == 1
    assert term_sign(ALT, cfg(1), 7) == -1
    assert term_sign(FIB, cfg(0, 1), 0) == 0
    assert term_sign(Lrr((Q(-1), Q(2))), cfg(-5, -4), 5) == 0  # -5,-4,...,0 at n=5


def test_term_sign_matches_eval_terms():
    """The integer recurrence gives the sign of every term up to the 4096
    cut-off: rational coefficients and starts, and exact zeros."""
    cases = [
        (Lrr((Q(-1), Q(2))), cfg(-5, -4)),              # n - 5: zero at 5
        (Lrr((Q(-1, 2), Q(3, 2))), cfg(-7, -3)),       # 1 - 8/2^n: zero at 3
        (Lrr((Q(-1), Q(0))), cfg(0, Q(1, 3))),          # zero at every even n
        (Lrr((Q(-2, 3),)), cfg(Q(5, 7))),               # alternating signs
        (Lrr((Q(-1), Q(6, 5))), cfg(1, Q(3, 5))),       # rotation by 3/5
    ]
    rng = random.Random(11)
    for _ in range(6):
        coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
        coeffs[0] = coeffs[0] or Q(1, 3)
        cases.append((Lrr(tuple(coeffs)),
                      cfg(*[Q(rng.randint(-5, 5), rng.randint(1, 5))
                            for _ in range(3)])))
    for lrr, c in cases:
        terms = eval_terms(lrr, c, 120)
        signs = [term_sign(lrr, c, n) for n in range(121)]
        assert signs == [(v > 0) - (v < 0) for v in terms], lrr
        assert [Q(*scaled_term(lrr, c, n)) for n in range(121)] == terms
    assert [term_sign(*cases[i], n) for i, n in ((0, 5), (1, 3), (2, 80))] \
        == [0, 0, 0]


def test_term_sign_past_the_exact_prefix(monkeypatch):
    """Past EXACT_TERMS the sign comes from the orbit scan on the precision
    ladder, an exact zero from the zero scan; a sign that never separates
    ends in PrecisionExhausted, after one zero scan."""
    n = EXACT_TERMS + 4
    lin = Lrr((Q(-1), Q(2)))                    # u_t = t - n: zero at n
    c = cfg(-n, 1 - n)
    assert [term_sign(lin, c, t) for t in (n - 1, n, n + 1)] == [-1, 0, 1]
    monkeypatch.setattr(OrbitScanner, "step", lambda self: (-1, 1, 1))
    monkeypatch.setattr(qmath, "MAX_BITS", 384)
    scans = []
    real = lrs.exact_zeros_up_to
    monkeypatch.setattr(lrs, "exact_zeros_up_to",
                        lambda *a: scans.append(a) or real(*a))
    with pytest.raises(qmath.PrecisionExhausted, match="term sign"):
        term_sign(lin, c, n + 1)
    assert len(scans) == 1


def test_exact_sign_ladder_climbs_from_the_scan_precision(monkeypatch):
    """An enclosure holding 0 at the scan's 192 bits goes on at 384, 768,
    ...: no rung repeats a precision already scanned."""
    n = EXACT_TERMS + 4
    lin = Lrr((Q(-1), Q(2)))
    c = cfg(-n, 1 - n)
    monkeypatch.setattr(OrbitScanner, "step", lambda self: (-1, 1, 1))
    monkeypatch.setattr(qmath, "MAX_BITS", 768)
    scanned = []
    real = OrbitScanner.__init__
    monkeypatch.setattr(OrbitScanner, "__init__", lambda self, normal, bits:
                        scanned.append(bits) or real(self, normal, bits))
    with pytest.raises(qmath.PrecisionExhausted, match="term sign"):
        term_sign(lin, c, n + 1)
    assert scanned == [192, 384, 768]


def test_filter_prime():
    import sympy
    from robustlrs.lrs import _FILTER_PRIME
    assert _FILTER_PRIME == sympy.prevprime(sympy.prevprime(1 << 62))
    assert sympy.isprime(_FILTER_PRIME)


def test_alpha_linearity():
    rng = random.Random(23)
    for _ in range(5):
        c1 = cfg(*[Q(rng.randint(-3, 3)) for _ in range(2)])
        c2 = cfg(*[Q(rng.randint(-3, 3)) for _ in range(2)])
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        combo = cfg(*[lam * a + mu * b
                      for a, b in zip(c1.entries, c2.entries)])
        s1 = exp_poly_solution(FIB, c1)
        s2 = exp_poly_solution(FIB, c2)
        sc = exp_poly_solution(FIB, combo)
        for i in range(2):
            a1 = s1.alpha[i][0]
            a2 = s2.alpha[i][0]
            ac = sc.alpha[i][0]
            if a1.is_rational and a2.is_rational:
                assert ac.as_rational() == lam * a1.as_rational() + mu * a2.as_rational()
            else:
                lin = a1.elem * lam + a2.elem * mu
                assert lin == ac.elem


def test_one_inverse_serves_every_start():
    """The recurrence's one inverse gives each start the coefficients that
    a record built afresh for that start gives."""
    for lrr in (FIB, HARD6):
        k = lrr.order
        starts = [cfg(*[int(i == j) for j in range(k)]) for i in range(k)]
        starts.append(cfg(*range(3, 3 + k)))
        shared = [exp_poly_solution(lrr, c) for c in starts]
        for c, got in zip(starts, shared):
            clear_analysis_memos()
            want = exp_poly_solution(lrr, c).alpha
            assert list(map(len, got.alpha)) == list(map(len, want))
            for a, b in zip(itertools.chain(*want), itertools.chain(*got.alpha)):
                if a.is_rational:
                    assert b.as_rational() == a.as_rational()
                else:
                    assert b.elem.field is a.elem.field and b.elem == a.elem


def _resultant_oracle(root, rho):
    """Res_y(P_rho(y), M(x y)), built by hand in sympy: its roots include
    root/rho."""
    import sympy
    from robustlrs.poly import from_sympy, int_normalize
    x, y = sympy.symbols("x y")
    p_rho = sum(c * y ** i for i, c in enumerate(rho._defining_ints()))
    m = sum(c * (x * y) ** i for i, c in enumerate(root._defining_ints()))
    res = sympy.Poly(sympy.expand(sympy.resultant(p_rho, m, y)), x)
    return int_normalize(from_sympy(res))


@pytest.mark.parametrize("coeffs", [(1, 1), (-3, 2), (-2, 0, 1), (-3, -1, 0)])
def test_ratio_to_rho_candidates_match_resultant(monkeypatch, coeffs):
    """With an irrational dominant modulus, a root outside rho's field takes
    the general path: its unit-ratio candidates are the composed product of
    M with reversed P_rho, equal after normalization to the hand-built
    resultant.  Roots that rho's field holds (both roots of x^2 - x - 1, the
    root -1 of x^3 - x^2 + 2) build no candidates."""
    from robustlrs import lrs
    from robustlrs.poly import int_normalize
    spec = spectral(Lrr(tuple(Q(a) for a in coeffs)))
    assert not spec.rho.is_rational
    built = []
    monkeypatch.setattr(lrs, "locate_root",
                        lambda cands, refiner, what: built.append(cands))
    general = 0
    for root, _ in spec.roots:
        before = len(built)
        lrs._ratio_to_rho(root, spec.rho)
        if root.is_rational or root.elem.field.minpoly == spec.rho.elem.field.minpoly:
            assert len(built) == before
            continue
        general += 1
        assert int_normalize(built[-1]) == _resultant_oracle(root, spec.rho)
    assert general == len(built) == {(1, 1): 0, (-3, 2): 2, (-2, 0, 1): 2,
                                     (-3, -1, 0): 3}[coeffs]


def _composed_product_ratio(root, rho):
    """root/rho as the one root of the composed product of M with reversed
    P_rho whose box meets root's box over rho's: the general path of
    `_ratio_to_rho`, the reference for the quotient in rho's field."""
    from robustlrs.algebraic import locate_root
    from robustlrs.poly import composed_product, preverse
    cands = composed_product([Q(v) for v in root._defining_ints()],
                             preverse([Q(v) for v in rho._defining_ints()]))
    return locate_root(
        cands, lambda bits: root.box(bits) * rho.box(bits).re.inverse(),
        "unit ratio reference")


@pytest.mark.parametrize("coeffs", [
    (1, 1),       # x^2 - x - 1
    (1, -1),      # x^2 + x - 1, negative dominant root
    (2, 0),       # x^2 - 2, both +-sqrt(2) dominant
    (-1, 3),      # x^2 - 3x + 1
    (-2, 0, 1),   # x^3 - x^2 + 2, root -1 under rho = sqrt(2)
])
def test_ratio_to_rho_in_field_matches_composed_product(coeffs):
    """Every root that rho's field holds is divided by rho inside that
    field, and the quotient is the number the composed product names."""
    from robustlrs import lrs
    spec = spectral(Lrr(tuple(Q(a) for a in coeffs)))
    rho = spec.rho
    assert not rho.is_rational
    for root, _ in spec.roots:
        if not root.is_rational and root.elem.field.minpoly != rho.elem.field.minpoly:
            continue
        got = lrs._ratio_to_rho(root, rho)
        assert got.is_rational or got.elem.field is rho.elem.field
        want = _composed_product_ratio(root, rho)
        assert got.equals(want) and want.equals(got)
        assert not got.box(128).disjoint(want.box(128))


def test_normalize_fibonacci_builds_no_composed_product(monkeypatch):
    """Both roots of x^2 - x - 1 lie in rho's field, so normalizing builds
    no composed product."""
    from robustlrs import poly
    built = []
    real = poly.composed_product
    monkeypatch.setattr(poly, "composed_product",
                        lambda p, q: built.append((p, q)) or real(p, q))
    form, res = normalize(FIB, cfg(0, 1))
    assert not built
    assert [g.as_rational() for _, g in form.terms] == [1]
    (term,) = res
    assert not term.base.is_rational
    b = term.base.box(128).re          # -1/phi^2 = -0.3819...
    assert Q(-382, 1000) < b.lo <= b.hi < Q(-381, 1000)


def test_conjugate_closure_imaginary_part():
    """Dominant terms pair into conjugates: the dominant-part enclosure has
    imaginary part containing 0 at every tested step."""
    rng = random.Random(19)
    c = cfg(*[Q(rng.randint(-4, 4)) for _ in range(6)])
    normal = normalize(HARD6, c)
    form = normal[0]
    sc = OrbitScanner(normal, 160)
    for _ in range(200):
        sc.step()
        vd = fraction_enclosure(sc, normal, dominant_only=True)
        assert vd.im.contains(Q(0))
    # pairing is structural: non-real unit roots come in conjugate fields
    non_real = [(a, g) for a, g in form.terms if not g.is_rational]
    assert len(non_real) % 2 == 0


def test_mixed_multiplicity_dominance():
    """(x-1)^2 (x+1): both 1 and -1 dominant, but only the double root
    reaches the top multiplicity; the simple -1 contributes a decaying
    unit-base residual term."""
    lrr = Lrr((Q(-1), Q(1), Q(1)))  # char x^3 - x^2 - x + 1
    spec = spectral(lrr)
    assert spec.m == 1
    assert spec.rho.as_rational() == 1
    assert len(spec.dominant_indices) == 2
    c = cfg(1, 0, 0)
    form, res = normalize(lrr, c)
    assert len(form.terms) == 1        # only the multiplicity-2 root 1
    assert form.terms[0][1].as_rational() == 1
    assert res
    # u_n = a + b n + d (-1)^n reconstructs exactly
    terms = eval_terms(lrr, c, 30)
    sol = exp_poly_solution(lrr, c)
    for n in range(10):
        total = Q(0)
        for i, (root, mult) in enumerate(spec.roots):
            g = root.as_rational()
            for j in range(mult):
                a = sol.alpha[i][j]
                total += a.as_rational() * n**j * g**n
        assert total == terms[n]
    n0 = residual_threshold(res, Q(1, 100))
    for n in range(n0 + 1, n0 + 40):
        assert abs(residual_box(res, n, 160).re.mid) < Q(1, 100)


@pytest.mark.parametrize("n", [3, EXACT_TERMS, EXACT_TERMS + 1, 5000])
@pytest.mark.parametrize("start", [(1,), (1, 2, 3)], ids=["short", "long"])
def test_start_length_checked_for_every_n(start, n):
    """A start whose length is not the order is refused the same way on
    the exact prefix and past it: before, the prefix returned a sign (or
    an IndexError) for a start of the wrong length."""
    c = cfg(*start)
    for call in (lambda: term_sign(FIB, c, n),
                 lambda: scaled_term(FIB, c, n),
                 lambda: exact_zeros_up_to(FIB, c, n)):
        with pytest.raises(ValueError, match="initial configuration length"):
            call()


def _solution_coords(system, sol):
    """The coordinates of `sol` in the order of the trace system's
    unknowns: per factor, per power of n, the field coordinates of its
    first root's coefficient."""
    out, row = [], 0
    for fac, mult in system.factors:
        d = len(fac) - 1
        for alpha in sol.alpha[row]:
            coeffs = ([alpha.as_rational()] if alpha.is_rational
                      else list(alpha.elem.coeffs))
            out += coeffs + [Q(0)] * (d - len(coeffs))
        row += d
    return out


@pytest.mark.parametrize("coeffs", [
    (Q(3, 2),),                                   # order 1
    (Q(1), Q(1)),                                 # Fibonacci
    (Q(1), Q(1), Q(0)),                           # x^3 - x - 1, irreducible
    (Q(-1), Q(0), Q(-2), Q(0)),                   # (x^2 + 1)^2
    (Q(-9, 4), Q(3), Q(-4), Q(3)),                # (x - 3/2)^2 (x^2 + 1)
    (Q(-1), Q(4), Q(-8), Q(10), Q(-8), Q(4)),     # (x - 1)^2 (x^2 - x + 1)^2
], ids=["order1", "order2", "order3", "order4", "order4-mixed", "order6"])
def test_solve_matches_fraction_oracle(coeffs):
    """The integer solve gives the coordinates of the `Fraction` solve,
    exactly, on non-dyadic starts with zero and negative entries."""
    from oracles import solve_coords_ref
    lrr = Lrr(coeffs)
    system = lrs.trace_system(lrr)
    k = lrr.order
    rng = random.Random(30 + k)
    starts = [cfg(*[int(i == j) for j in range(k)]) for i in range(k)]
    starts += [cfg(*[Q(rng.randint(-9, 9), rng.choice((1, 3, 5, 7, 12)))
                     for _ in range(k)]) for _ in range(8)]
    starts.append(cfg(*[0] * k))
    for c in starts:
        got = _solution_coords(system, lrs._solve(system, c))
        assert got == solve_coords_ref(system, c), c
