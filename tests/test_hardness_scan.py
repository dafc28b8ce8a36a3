"""The hardness lab's scan loops against their per-step reference loops.

`lagrange_prefix` and `scan_ball_terms` skip most steps with one integer
comparison, and the probes of one `approximate_L` call share one walk of
the orbit.  The reference loops below are the plain per-step scans those
replace: every step runs the full test.  Enclosures, violation indices and
the candidate list must come out identical.
"""

import math
from collections import Counter
from contextlib import closing
from fractions import Fraction as Q

import pytest

from robustlrs import hardness
from robustlrs.hardness import (approximate_L, compute_params,
                                lagrange_prefix, scan_ball_terms, _TailWalk)
from robustlrs.interval import Ival
from robustlrs.trig import RotScan, pi_ival


def _pyth(m, n):
    return Q(m * m - n * n, m * m + n * n), Q(2 * m * n, m * m + n * n)


POINTS = [_pyth(2, 1), _pyth(3, 2), _pyth(12, 11), _pyth(7, 4), _pyth(5, 2)]


def _scan_ball_terms_ref(params, n_from, n_to, bits=160):
    """Every step of (n_from, n_to] through the exact T_lo / T_hi test."""
    psi, lam = params.psi, params.two_pi_ell
    sc = RotScan(params.p, params.q, bits)
    scale = sc.scale
    a = 2 - psi
    L = math.lcm(a.denominator, lam.denominator, psi.denominator)
    aL, lamL, psiL = int(a * L), int(lam * L), int(psi * L)
    ambiguous = []
    sc.advance(n_from)
    with closing(sc.walk(n_to)) as walk:
        for n, C, S, E in walk:
            Sa = abs(S)
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
    return hardness._resolve_ambiguous(ambiguous, params)


def _lagrange_prefix_ref(p, q, N, bits=192):
    """Every step of (0, N] through the squared-angle bounds."""
    pi_iv = pi_ival(bits)
    sc = RotScan(p, q, bits)
    pi_sq_hi = (pi_iv.hi * pi_iv.hi / 2).limit_denominator(1 << 48)
    if pi_sq_hi < pi_iv.hi * pi_iv.hi / 2:
        pi_sq_hi += Q(1, 1 << 40)
    ka, kb = pi_sq_hi.numerator, pi_sq_hi.denominator
    scale = sc.scale
    upper = None
    candidates = []
    for n, C, _, E in sc.walk(N):
        hi_sq = n * n * ka * (scale - C + E + 1)
        lo_sq = 2 * n * n * kb * max(scale - C - E - 1, 0)
        if upper is None or hi_sq < upper:
            upper = hi_sq
        if lo_sq <= upper:
            candidates.append((lo_sq, n, C, E))
    best = None
    for lo_sq, n, C, E in candidates:
        if lo_sq <= upper:
            precise = hardness.angle_from_cos(sc.ival(C, E), bits) * n
            best = precise if best is None else Ival(min(best.lo, precise.lo),
                                                     min(best.hi, precise.hi))
    out = best / (pi_iv * 2)
    if out.lo < 0:
        out = Ival(Q(0), max(out.hi, Q(0)))
    return out


def _key(res):
    """A scan or estimate result with its enclosures as endpoint pairs."""
    if isinstance(res, hardness.LEstimate):
        return (_key(res.interval), res.horizon, res.probes,
                res.horizon_exhausted)
    if isinstance(res, Ival):
        return res.lo, res.hi
    return tuple(_key(v) for v in res) if isinstance(res, tuple) else res


def _recorded_candidates(monkeypatch, call):
    """(result, cos enclosures passed to angle_from_cos) of one call."""
    seen = []
    real = hardness.angle_from_cos

    def spy(cos_iv, bits=64):
        seen.append((cos_iv.lo, cos_iv.hi))
        return real(cos_iv, bits)

    monkeypatch.setattr(hardness, "angle_from_cos", spy)
    out = call()
    monkeypatch.setattr(hardness, "angle_from_cos", real)
    return out, seen


@pytest.mark.parametrize("p,q", POINTS)
@pytest.mark.parametrize("N", [1, 2, 1023, 1025, 5000, 30000])
def test_lagrange_prefix_matches_per_step_scan(monkeypatch, p, q, N):
    new, new_cands = _recorded_candidates(
        monkeypatch, lambda: lagrange_prefix(p, q, N))
    ref, ref_cands = _recorded_candidates(
        monkeypatch, lambda: _lagrange_prefix_ref(p, q, N))
    assert _key(new) == _key(ref)
    assert new_cands == ref_cands


def _windows(params):
    n2 = params.n2
    return [(0, 3000), (n2, n2 + 20000), (n2 + 777, n2 + 9000),
            (n2, n2 + 1), (5000, 40000)]


@pytest.mark.parametrize("p,q", POINTS)
@pytest.mark.parametrize("ell", [Q(1, 4), Q(1, 2), Q(1), Q(3, 2), Q(3)])
def test_scan_ball_terms_matches_per_step_scan(p, q, ell):
    params = compute_params(ell, Q(1, 20), p, q)
    for n_from, n_to in _windows(params):
        assert (_key(scan_ball_terms(params, n_from, n_to))
                == _key(_scan_ball_terms_ref(params, n_from, n_to))), \
            (n_from, n_to)


def test_scan_ball_terms_cases_cover_clean_and_violation():
    outcomes = Counter()
    for p, q in POINTS:
        for ell in (Q(1, 4), Q(1), Q(3)):
            params = compute_params(ell, Q(1, 20), p, q)
            for n_from, n_to in _windows(params):
                outcomes[scan_ball_terms(params, n_from, n_to)[0]] += 1
    assert outcomes["clean"] >= 5 and outcomes["violation"] >= 5


@pytest.mark.parametrize("p,q", POINTS[:3])
def test_shared_tail_walk_serves_probes_in_any_order(p, q):
    """One walk, probes of growing and shrinking ell over shifting windows:
    kept steps are replayed, the walk is extended lazily."""
    eps = Q(1, 20)
    first = compute_params(Q(1, 4), eps, p, q)
    tail = _TailWalk(p, q, first.n2, Q(7), Q(1, 6))
    plan = [(Q(1, 4), 0, 30000), (Q(3), 0, 30000), (Q(1), 500, 30000),
            (Q(3, 2), 0, 10000), (Q(2), 12000, 60000), (Q(1, 2), 0, 60000),
            (Q(3), 40000, 60000)]
    for ell, off, to in plan:
        params = compute_params(ell, eps, p, q)
        n_from = params.n2 + off
        assert (_key(scan_ball_terms(params, n_from, to, _tail=tail))
                == _key(_scan_ball_terms_ref(params, n_from, to))), \
            (ell, off, to)


@pytest.mark.parametrize("p,q", POINTS)
def test_approximate_L_shared_walk_matches_fresh_walks(monkeypatch, p, q):
    shared = approximate_L(p, q, Q(1, 20), 30000)

    def fresh(params, n_from, n_to, *, _tail=None):
        return _scan_ball_terms_ref(params, n_from, n_to)

    monkeypatch.setattr(hardness, "scan_ball_terms", fresh)
    monkeypatch.setattr(hardness, "lagrange_prefix", _lagrange_prefix_ref)
    ref = approximate_L(p, q, Q(1, 20), 30000)
    assert _key(shared) == _key(ref)


@pytest.mark.parametrize("p,q", POINTS[:3])
def test_approximate_L_steps_each_index_once(monkeypatch, p, q):
    stepped = Counter()
    real_walk = RotScan.walk

    def counted(self, n_to):
        with closing(real_walk(self, n_to)) as walk:
            for step in walk:
                stepped[self.bits, step[0]] += 1
                yield step

    monkeypatch.setattr(RotScan, "walk", counted)
    est = approximate_L(p, q, Q(1, 20), 30000)
    assert est.probes >= 1
    assert stepped and max(stepped.values()) == 1
    assert max(n for bits, n in stepped if bits == 160) <= 30000


def test_tail_walk_rejects_probe_beyond_its_bounds():
    p, q = POINTS[0]
    params = compute_params(Q(1), Q(1, 20), p, q)
    lam, n2 = params.two_pi_ell, params.n2
    for tail in (_TailWalk(p, q, n2, lam / 2, Q(1, 6)),        # lam too big
                 _TailWalk(p, q, n2, lam, params.psi / 2),     # psi too big
                 _TailWalk(p, q, n2 + 1, lam, Q(1, 6))):       # starts late
        with pytest.raises(RuntimeError, match="bounds"):
            scan_ball_terms(params, n2, n2 + 100, _tail=tail)
    ok = _TailWalk(p, q, n2, lam, params.psi)
    assert (_key(scan_ball_terms(params, n2, n2 + 100, _tail=ok))
            == _key(_scan_ball_terms_ref(params, n2, n2 + 100)))
