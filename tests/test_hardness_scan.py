"""The hardness lab's scans against their per-step reference scans.

`lagrange_prefix` skips most steps of its walk with one integer
comparison; its candidates and enclosure must equal those of the plain
per-step scan.  `scan_ball_terms` evaluates, for an irrational angle, only
the near returns of the rotation that `_near_returns` lists: every index at
which the per-step scan finds a ball term negative or ambiguous must be
among them, and the status and index of the first certified-negative term
must agree, with overlapping enclosures.  The reference scans live in
`oracles`.
"""

import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from robustlrs import hardness
from robustlrs.hardness import (approximate_L, compute_params,
                                lagrange_prefix, scan_ball_terms,
                                _near_returns)
from robustlrs.interval import Ival

from oracles import ball_term_steps, lagrange_prefix_ref, scan_ball_terms_ref


def _pyth(m, n):
    return Q(m * m - n * n, m * m + n * n), Q(2 * m * n, m * m + n * n)


POINTS = [_pyth(2, 1), _pyth(3, 2), _pyth(12, 11), _pyth(7, 4), _pyth(5, 2)]


def _key(res):
    """A scan or estimate result with its enclosures as endpoint pairs."""
    if isinstance(res, hardness.LEstimate):
        return (_key(res.interval), res.horizon, res.probes,
                res.horizon_exhausted)
    if isinstance(res, Ival):
        return res.lo, res.hi
    return tuple(_key(v) for v in res) if isinstance(res, tuple) else res


def _assert_agrees(new, ref, where):
    """Same status and index; the negative enclosures overlap."""
    assert new[:2] == ref[:2], where
    if new[0] == "violation":
        assert new[2].hi < 0 and new[2].overlaps(ref[2]), where


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
        monkeypatch, lambda: lagrange_prefix_ref(p, q, N))
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
        _assert_agrees(scan_ball_terms(params, n_from, n_to),
                       scan_ball_terms_ref(params, n_from, n_to),
                       (n_from, n_to))


def test_scan_ball_terms_cases_cover_clean_and_violation():
    outcomes = Counter()
    for p, q in POINTS:
        for ell in (Q(1, 4), Q(1), Q(3)):
            params = compute_params(ell, Q(1, 20), p, q)
            for n_from, n_to in _windows(params):
                outcomes[scan_ball_terms(params, n_from, n_to)[0]] += 1
    assert outcomes["clean"] >= 5 and outcomes["violation"] >= 5


def test_scan_resolves_ambiguous_terms_at_high_precision(monkeypatch):
    """With the scan's rotation enclosures cut to 12 bits, terms the
    160-bit scan certifies come out ambiguous; `_resolve_ambiguous` settles
    them at 512 bits, and the verdict and index are those of the 160-bit
    scan, which leaves none ambiguous on these windows."""
    resolved = []
    real = hardness._resolve_ambiguous

    def spy(ambiguous, params):
        resolved.append(list(ambiguous))
        return real(ambiguous, params)

    monkeypatch.setattr(hardness, "_resolve_ambiguous", spy)
    outcomes = Counter()
    for p, q in [_pyth(2, 1), _pyth(3, 2), _pyth(5, 2)]:
        for ell in (Q(1, 4), Q(1, 2), Q(1)):
            params = compute_params(ell, Q(1, 20), p, q)
            window = (params.n2, 20000)
            fine = scan_ball_terms(params, *window)
            assert not any(resolved)
            resolved.clear()
            monkeypatch.setattr(hardness, "_SCAN_BITS", 12)
            coarse = scan_ball_terms(params, *window)
            monkeypatch.setattr(hardness, "_SCAN_BITS", 160)
            outcomes[fine[0]] += 1
            outcomes["ambiguous"] += sum(map(len, resolved))
            resolved.clear()
            assert coarse[:2] == fine[:2], (p, q, ell)
            if fine[0] == "violation":
                assert coarse[2].hi < 0 and coarse[2].overlaps(fine[2])
    assert outcomes["clean"] >= 3 and outcomes["violation"] >= 3
    assert outcomes["ambiguous"] >= 10


def test_first_multiple_in_matches_brute_force():
    rng = random.Random(5)
    for _ in range(3000):
        m = rng.choice([rng.randint(2, 60), 1 << rng.randint(1, 9)])
        a = rng.randrange(m)
        lo = rng.randint(1, m - 1)
        hi = rng.randint(lo, m - 1)
        want = next((k for k in range(1, m + 1) if lo <= a * k % m <= hi),
                    None)
        assert hardness._first_multiple_in(a, m, lo, hi) == want, \
            (a, m, lo, hi)


def test_near_returns_cover_every_negative_or_ambiguous_term():
    """Seeded points, ell in [1/4, 8] (the bound c on n ||n theta|| goes
    past 1 at the top), windows from 0, one-step windows and long ones."""
    rng = random.Random(19)
    flagged = big_c = 0
    for _ in range(12):
        m = rng.randint(2, 24)
        n = rng.choice([k for k in range(1, m)
                        if (m - k) % 2 and Q(k, m).denominator == m])
        p, q = _pyth(m, n)
        if rng.random() < 0.5:
            q = -q
        ell = Q(rng.randint(8, 256), 32)
        params = compute_params(ell, Q(1, 20), p, q)
        a, lam = 2 - params.psi, params.two_pi_ell
        big_c += lam / (2 * a) > 1           # c > lam / (2a)
        ref_all = [k for k, _ in ball_term_steps(params, 0, 12000)]
        starts = [0, rng.randint(1, 6000), *rng.sample(ref_all or [1], 1)]
        windows = [(0, 12000), (0, rng.randint(1, 40))]
        windows += [(s - 1, s) for s in starts if s >= 1]
        windows += [(s, s + rng.randint(1, 6000)) for s in starts]
        for n_from, n_to in windows:
            near = list(_near_returns(params, n_from, n_to))
            assert near == sorted(set(near))
            assert all(n_from < k <= n_to for k in near)
            ref = [k for k in ref_all if n_from < k <= n_to]
            assert set(ref) <= set(near), (p, q, ell, n_from, n_to)
            flagged += len(ref)
            _assert_agrees(scan_ball_terms(params, n_from, n_to),
                           scan_ball_terms_ref(params, n_from, n_to),
                           (p, q, ell, n_from, n_to))
    assert flagged >= 20 and big_c >= 2


@pytest.mark.parametrize("p,q", POINTS)
def test_approximate_L_shared_walk_matches_fresh_walks(monkeypatch, p, q):
    """The estimate from near-return scans, which share one enclosure of
    the angle, equals the one from fresh per-step walks."""
    shared = approximate_L(p, q, Q(1, 20), 30000)
    monkeypatch.setattr(hardness, "scan_ball_terms", scan_ball_terms_ref)
    monkeypatch.setattr(hardness, "lagrange_prefix", lagrange_prefix_ref)
    ref = approximate_L(p, q, Q(1, 20), 30000)
    assert _key(shared) == _key(ref)


@pytest.mark.parametrize("p,q", POINTS[:3])
def test_approximate_L_steps_each_index_once(monkeypatch, p, q):
    """Only the prefix scan walks the orbit: one `lagrange_prefix` per
    distinct n2 of the probes, each below the horizon."""
    prefixes, n2s = Counter(), set()
    real_prefix, real_params = hardness.lagrange_prefix, hardness.compute_params

    def counted_prefix(p, q, N):
        prefixes[N] += 1
        return real_prefix(p, q, N)

    def recorded_params(*args):
        params = real_params(*args)
        n2s.add(params.n2)
        return params

    monkeypatch.setattr(hardness, "lagrange_prefix", counted_prefix)
    monkeypatch.setattr(hardness, "compute_params", recorded_params)
    est = approximate_L(p, q, Q(1, 20), 30000)
    assert est.probes >= 1
    assert prefixes and max(prefixes.values()) == 1
    assert set(prefixes) == {n2 for n2 in n2s if n2 < 30000}
