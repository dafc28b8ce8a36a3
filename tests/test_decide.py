import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs.lrs import Lrr, InitialConfig, Ball, eval_terms
from robustlrs.decide import (exists_robust_ultimate_positivity,
                              exists_robust_positivity, exists_robust_skolem,
                              robust_nonuniform_ultpos_open_ball,
                              Analysis, Certificate, Decision)
from robustlrs.interval import Ival
from robustlrs.optimize import SignOutcome

from oracles import brute_force_check

FIB = Lrr((Q(1), Q(1)))
ALT = Lrr((Q(-1),))
DOUBLE = Lrr((Q(2),))


def cfg(*vals):
    return InitialConfig(tuple(Q(v) for v in vals))


def hard_lrr(p: Q) -> Lrr:
    from robustlrs.poly import pmul
    char = pmul((Q(1), Q(-2), Q(1)), pmul((Q(1), -2 * p, Q(1)),
                                          (Q(1), -2 * p, Q(1))))
    return Lrr(tuple(-c for c in char[:6]))


def coeff_config(p, q, zdom, xdom, ydom, zres, xres, yres):
    cos, sin = Q(1), Q(0)
    entries = []
    for j in range(6):
        entries.append(zdom * j - xdom * j * cos - ydom * j * sin
                       + zres - xres * cos - yres * sin)
        cos, sin = p * cos - q * sin, q * cos + p * sin
    return InitialConfig(tuple(entries))


def test_ultpos_fibonacci_yes():
    d = exists_robust_ultimate_positivity(FIB, cfg(1, 1))
    assert d.verdict == "YES"
    assert d.certificate.optimum.verdict == "POSITIVE"


def test_ultpos_alternating_no():
    d = exists_robust_ultimate_positivity(ALT, cfg(1))
    assert d.verdict == "NO"
    assert d.certificate.optimum.verdict == "NEGATIVE"


def test_ultpos_surface_point_no():
    lrr = hard_lrr(Q(3, 5))
    c = coeff_config(Q(3, 5), Q(4, 5), Q(2), Q(2), Q(0), Q(0), Q(0), Q(0))
    d = exists_robust_ultimate_positivity(lrr, c)
    assert d.verdict == "NO"
    assert d.certificate.optimum.verdict == "ZERO"


def test_positivity_fibonacci_yes():
    d = exists_robust_positivity(FIB, cfg(1, 1))
    assert d.verdict == "YES"
    cert = d.certificate
    assert cert.kind == "tail"
    assert cert.threshold is not None
    assert cert.prefix_margin is not None and cert.prefix_margin > 0


def test_positivity_zero_start_no():
    d = exists_robust_positivity(FIB, cfg(0, 1))
    assert d.verdict == "NO"
    assert d.certificate.kind == "violation"
    assert d.certificate.violating_index == 0
    assert d.certificate.violating_value == 0


def test_positivity_alternating_no_at_mu():
    d = exists_robust_positivity(ALT, cfg(1))
    assert d.verdict == "NO"
    assert d.certificate.kind == "optimum"


def test_skolem_powers_of_two_yes():
    d = exists_robust_skolem(DOUBLE, cfg(1))
    assert d.verdict == "YES"


def test_skolem_zero_vector_no():
    # algorithm order: the all-zero start already has nu = 0, so the NO
    # certificate is the optimum (u_0 = 0 follows a fortiori)
    d = exists_robust_skolem(FIB, cfg(0, 0))
    assert d.verdict == "NO"
    cert = d.certificate
    assert cert.violating_index == 0 or cert.optimum.verdict == "ZERO"
    assert eval_terms(FIB, cfg(0, 0), 0)[0] == 0


def test_skolem_alternating_yes():
    d = exists_robust_skolem(ALT, cfg(1))
    assert d.verdict == "YES"
    # nu = 1 on the finite torus {1, -1}
    assert d.certificate.optimum.enclosure.contains(Q(1))


def test_open_ball_ultpos_fibonacci_yes():
    d = robust_nonuniform_ultpos_open_ball(FIB, Ball(cfg(1, 1), Q(1, 10)))
    assert d.verdict == "YES"


def test_open_ball_ultpos_alternating_no():
    d = robust_nonuniform_ultpos_open_ball(ALT, Ball(cfg(1), Q(1, 4)))
    assert d.verdict == "NO"


def test_open_ball_rejects_closed():
    with pytest.raises(ValueError):
        robust_nonuniform_ultpos_open_ball(
            FIB, Ball(cfg(1, 1), Q(1, 10), "closed"))


def test_open_ball_surface_center_no():
    lrr = hard_lrr(Q(3, 5))
    c = coeff_config(Q(3, 5), Q(4, 5), Q(2), Q(2), Q(0), Q(0), Q(0), Q(0))
    d = robust_nonuniform_ultpos_open_ball(lrr, Ball(c, Q(1, 100)))
    assert d.verdict == "NO"


def test_open_ball_inverts_the_trace_form_matrix_at_most_twice(monkeypatch):
    """The centre and the k unit starts of an order-6 ball share the
    trace-form matrix: one inverse for the centre's analysis and one for
    the unit starts."""
    from robustlrs import lrs
    calls = []
    real = lrs.mat_inv

    def counting(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(lrs, "mat_inv", counting)
    lrr = hard_lrr(Q(3, 5))
    c = coeff_config(Q(3, 5), Q(4, 5), Q(3), Q(1), Q(0), Q(0), Q(0), Q(0))
    d = robust_nonuniform_ultpos_open_ball(lrr, Ball(c, Q(1, 100)))
    assert d.verdict in ("YES", "NO")
    assert 1 <= len(calls) <= 2


def test_open_ball_factors_the_characteristic_polynomial_once(monkeypatch):
    """`spectral` factors the characteristic polynomial and its analysis,
    exp-poly solves and the unit starts all read that one factor list."""
    from robustlrs import poly
    factored = []
    real = poly.factor_int

    def counting(p):
        factored.append(tuple(p))
        return real(p)

    monkeypatch.setattr(poly, "factor_int", counting)
    lrr = hard_lrr(Q(3, 5))
    c = coeff_config(Q(3, 5), Q(4, 5), Q(3), Q(1), Q(0), Q(0), Q(0), Q(0))
    d = robust_nonuniform_ultpos_open_ball(lrr, Ball(c, Q(1, 100)))
    assert d.verdict in ("YES", "NO")
    assert factored.count(lrr.char_poly()) == 1


def test_prefix_margin_zero_after_exact_confirmation(monkeypatch):
    """A term whose scan bound is not positive is confirmed by term_sign;
    its value may lie below every earlier bound, so the margin is 0."""
    from robustlrs.lrs import OrbitScanner
    r = 1 - Q(1, 1301)
    lrr = Lrr((-r, 1 + r))                      # roots 1 and r
    c = cfg(1 + Q(1, 21), r + Q(1, 21))         # u_n = 1/21 + r^n
    real = OrbitScanner.enclosure

    def no_bound_at_3000(self):
        out = real(self)
        return (0,) + out[1:] if self.n == 3000 else out

    assert exists_robust_positivity(lrr, c).certificate.prefix_margin > 0
    monkeypatch.setattr(OrbitScanner, "enclosure", no_bound_at_3000)
    d = exists_robust_positivity(lrr, c)
    assert d.verdict == "YES" and d.certificate.threshold > 4096
    assert d.certificate.prefix_margin == 0


def test_brute_force_alternating_violation():
    rep = brute_force_check(ALT, cfg(1), horizon=10, samples=1)
    assert rep.violation is not None
    n, pt = rep.violation
    assert n == 1
    assert rep.violation_sign == -1


def test_brute_force_fibonacci_ball_clean():
    rep = brute_force_check(FIB, Ball(cfg(1, 1), Q(1, 10)), horizon=2000,
                            samples=100)
    assert rep.violation is None


def test_brute_force_skolem_zero():
    # arithmetic progression hitting zero at n=5: u = -5,-4,...,0,...
    lrr = Lrr((Q(-1), Q(2)))
    rep = brute_force_check(lrr, cfg(-5, -4), horizon=10, samples=1,
                            mode="skolem")
    assert rep.violation is not None
    assert rep.violation[0] == 5
    assert rep.violation_sign == 0


def test_brute_force_deterministic():
    b = Ball(cfg(1, 1), Q(1, 2))
    r1 = brute_force_check(FIB, b, horizon=200, samples=50, seed=3)
    r2 = brute_force_check(FIB, b, horizon=200, samples=50, seed=3)
    assert r1.violation == r2.violation
    assert r1.min_scaled_value == r2.min_scaled_value


def test_trichotomy_exercised():
    """One instance per dominant-minimum sign, certificates match."""
    lrr = hard_lrr(Q(3, 5))
    pos = coeff_config(Q(3, 5), Q(4, 5), Q(3), Q(1), Q(0), Q(0), Q(0), Q(0))
    zero = coeff_config(Q(3, 5), Q(4, 5), Q(2), Q(2), Q(0), Q(0), Q(0), Q(0))
    neg = coeff_config(Q(3, 5), Q(4, 5), Q(1), Q(2), Q(0), Q(0), Q(0), Q(0))
    d_pos = exists_robust_ultimate_positivity(lrr, pos)
    d_zero = exists_robust_ultimate_positivity(lrr, zero)
    d_neg = exists_robust_ultimate_positivity(lrr, neg)
    assert d_pos.verdict == "YES"
    assert d_pos.certificate.optimum.verdict == "POSITIVE"
    assert d_zero.verdict == "NO"
    assert d_zero.certificate.optimum.verdict == "ZERO"
    assert d_neg.verdict == "NO"
    assert d_neg.certificate.optimum.verdict == "NEGATIVE"


def test_shared_analysis_reuse():
    a = Analysis.build(FIB, cfg(1, 1))
    d1 = exists_robust_positivity(FIB, cfg(1, 1), analysis=a)
    d2 = exists_robust_skolem(FIB, cfg(1, 1), analysis=a)
    assert d1.verdict == "YES" and d2.verdict == "YES"


def test_open_closed_coherence_enclosure():
    """The open-ball decision consumes the closed-ball minimum: the
    enclosure in its certificate equals a directly computed ball minimum
    (identical inputs, deterministic optimizer)."""
    from robustlrs.lrs import spectral, normalize, InitialConfig
    from robustlrs.torus import relation_lattice, parametrize
    from robustlrs.optimize import min_over_ball, DominantFamily
    from robustlrs.qmath import Q as QQ

    ball = Ball(cfg(1, 1), Q(1, 10))
    d = robust_nonuniform_ultpos_open_ball(FIB, ball)
    assert d.verdict == "YES"
    spec = spectral(FIB)
    center_form, _ = normalize(FIB, cfg(1, 1), spec)
    basis = [normalize(FIB, cfg(1, 0), spec)[0],
             normalize(FIB, cfg(0, 1), spec)[0]]
    torus = parametrize(relation_lattice([s for _, s in center_form.terms]))
    direct = min_over_ball(DominantFamily(center_form, basis), Q(1, 10), torus)
    got = d.certificate.optimum
    assert got.enclosure.lo == direct.enclosure.lo
    assert got.enclosure.hi == direct.enclosure.hi


def test_positivity_yes_survives_smaller_ball():
    """Monotonicity spot check: a certified-positive start stays clean under
    sampling on a smaller ball."""
    d = exists_robust_positivity(FIB, cfg(1, 1))
    assert d.verdict == "YES"
    rep = brute_force_check(FIB, Ball(cfg(1, 1), Q(1, 50)), horizon=3000,
                            samples=200, seed=9)
    assert rep.violation is None


def test_incomplete_lattice_downgrades_no_to_unknown():
    """Two multiplicatively independent non-root-of-unity pairs: the
    bounded relation search cannot certify completeness, so the torus is a
    superset and NO-leaning verdicts must become UNKNOWN."""
    from robustlrs.poly import pmul
    char = pmul((Q(1), Q(-6, 5), Q(1)), (Q(1), Q(-10, 13), Q(1)))
    lrr = Lrr(tuple(-c for c in char[:4]))
    a = Analysis.build(lrr, cfg(1, 0, 0, 0))
    assert not a.torus.lattice.complete
    # sound sub-relations were still found and verified exactly
    assert a.torus.lattice.generators == [[1, 1, 0, 0], [0, 0, 1, 1]]
    verdicts = []
    for c in (cfg(1, 0, 0, 0), cfg(-1, 0, 0, 0)):
        d = exists_robust_ultimate_positivity(lrr, c, tol=Q(1, 1 << 8))
        verdicts.append(d.verdict)
        assert d.verdict != "NO"   # never an unsound NO on a coarse lattice
        if d.verdict == "UNKNOWN":
            assert "incomplete" in (d.certificate.reason or "")
    assert "UNKNOWN" in verdicts


def test_soundness_invariants_raise_runtime_error():
    with pytest.raises(RuntimeError):
        Decision("YES", Certificate(kind="cap"))
    with pytest.raises(RuntimeError):
        Decision("UNKNOWN", Certificate(kind="violation"))
    with pytest.raises(RuntimeError):
        SignOutcome("POSITIVE", Ival(Q(-1), Q(1)))
    with pytest.raises(RuntimeError):
        SignOutcome("NEGATIVE", Ival(Q(0), Q(1)))


def test_decision_invariant_holds_under_python_O():
    # `python -O` strips asserts; the invariant must still raise, and as a
    # RuntimeError (the CLI maps ValueError to the usage exit code 3)
    code = ("from robustlrs.decide import Decision, Certificate\n"
            "assert False\n"
            "try:\n"
            "    Decision('YES', Certificate(kind='cap'))\n"
            "except RuntimeError:\n"
            "    print('RuntimeError')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    p = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                       text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "RuntimeError"


def _prefix_scan_ref(lrr, c, n_thr, want_zero):
    """The short prefix scan on `eval_terms`' exact Fraction terms."""
    margin = None
    for n, v in enumerate(eval_terms(lrr, c, n_thr)):
        if (v == 0) if want_zero else (v <= 0):
            return n, v, None
        if not want_zero:
            margin = v if margin is None else min(margin, v)
    return None, None, margin


def test_short_prefix_scan_matches_fraction_terms():
    """The integer prefix scan gives the violation index, its value and
    the margin of the Fraction recursion; the first zero of
    `exact_zeros_up_to` (Skolem's prefix) is the Fraction recursion's."""
    import random
    from robustlrs.decide import _prefix_scan
    from robustlrs.lrs import exact_zeros_up_to
    rng = random.Random(11)
    rat = lambda: Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10)))
    cases = [(Lrr((Q(-1), Q(2))), InitialConfig((Q(-5), Q(-4))), 12),
             (Lrr((Q(-1), Q(2))), InitialConfig((Q(5), Q(9, 2))), 12)]
    for _ in range(120):
        k = rng.randint(1, 3)
        coeffs = tuple(rat() for _ in range(k))
        if coeffs[0] == 0:
            continue
        cases.append((Lrr(coeffs), InitialConfig(tuple(
            rat() if rng.random() < 0.8 else abs(rat()) + 1
            for _ in range(k))), rng.randint(0, 60)))
    seen = set()
    for lrr, c, n_thr in cases:
        got = _prefix_scan(lrr, c, n_thr, None)
        assert got == _prefix_scan_ref(lrr, c, n_thr, False), \
            (lrr.coeffs, c.entries, n_thr)
        zeros = exact_zeros_up_to(lrr, c, n_thr)
        first_zero = zeros[0] if zeros else None
        assert first_zero == _prefix_scan_ref(lrr, c, n_thr, True)[0], \
            (lrr.coeffs, c.entries, n_thr)
        for want_zero, n in ((False, got[0]), (True, first_zero)):
            seen.add((want_zero, n is None, n is not None
                      and n >= lrr.order))
    # violations past the initial values and clean scans, for both questions
    assert {(False, True, False), (True, True, False), (False, False, True),
            (True, False, True)} <= seen
