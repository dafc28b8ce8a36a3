"""The decision layer's long-prefix path, pinned and checked against the
`Fraction` formulas it replaced.

The golden values are the certificates that `exists_robust_positivity` /
`exists_robust_skolem` returned while the orbit scan built a `Fraction`
interval product per track and step and `residual_threshold` compared
`Fraction` powers beta^n: verdict, residual threshold, `prefix_margin`
and violating index on the shapes of the decide-prefix benchmark (dominant
root 1, subdominant roots 1 - 1/m and 1 - 2/m) and on a repeated dominant
root, which gives residual terms with negative powers of n.

The two oracle tests keep those `Fraction` formulas as references:
`_term_threshold` against a `Fraction` term a * n^t * beta^n, and the
integer orbit-scan enclosure of v_n against the real part of the
`Fraction` interval product alpha_box * (base^n box) * n^npow summed over
the terms (`oracles.fraction_enclosure`).
"""

import random
from fractions import Fraction as Q

import pytest

from robustlrs.decide import (Analysis, exists_robust_positivity,
                              exists_robust_skolem)
from robustlrs.lrs import (InitialConfig, Lrr, OrbitScanner, _term_threshold,
                           normalize)
from robustlrs.poly import pmul

from oracles import (OrbitScannerRef, clear_analysis_memos,
                     fraction_enclosure, scanner_powers)


def shape(terms):
    """(Lrr, start) with u_n = sum over (poly, root, mult) of
    poly(n) * root^n; the characteristic polynomial has each root with
    multiplicity mult."""
    char = [Q(1)]
    for _, root, mult in terms:
        for _ in range(mult):
            char = pmul(char, [-root, Q(1)])
    k = len(char) - 1

    def u(n):
        return sum(sum(cj * n ** j for j, cj in enumerate(poly)) * root ** n
                   for poly, root, _ in terms)

    return (Lrr(tuple(-c for c in char[:k])),
            InitialConfig(tuple(u(n) for n in range(k))))


# A + r^n, r = 1 - 1/1301 (the decide-prefix m~1300 band)
M1301 = shape([([Q(1, 21)], Q(1), 1), ([Q(1)], 1 - Q(1, 1301), 1)])
# 1/10 - r^n + 2 s^n, s = 1 - 2/4201: dips below zero after 4096 terms
M4201 = shape([([Q(1, 10)], Q(1), 1), ([Q(-1)], 1 - Q(1, 4201), 1),
               ([Q(2)], 1 - Q(2, 4201), 1)])
# (x - 1)^2 (x - 1/2): u_n = 1500 + n + 3/2^n, m = 1, npow = -1
REPEATED = shape([([Q(1500), Q(1)], Q(1), 2), ([Q(3)], Q(1, 2), 1)])

GOLDEN = [
    (M1301, exists_robust_positivity, "YES", 4860,
     "4708839144694723260600939791518783240806472333634984013025/"
     "65909568221560148020275788943680497369074732166872362385408", None),
    (M1301, exists_robust_skolem, "YES", 4860, None, None),
    (M4201, exists_robust_positivity, "NO", None, None, 4269),
    (REPEATED, exists_robust_positivity, "YES", 6000,
     "7846377169233350954794736779009583020127944305580043088596499/"
     "6277101735386680763835789423207666416102355444464034512896000", None),
    (REPEATED, exists_robust_skolem, "YES", 6000, None, None),
]


@pytest.mark.parametrize("case", GOLDEN, ids=[
    "m1301-positivity", "m1301-skolem", "m4201-positivity-no",
    "repeated-positivity", "repeated-skolem"])
def test_long_prefix_golden(case):
    (lrr, c), decide, verdict, threshold, margin, violation = case
    d = decide(Analysis.build(lrr, c))
    cert = d.certificate
    assert d.verdict == verdict
    assert cert.threshold == threshold
    assert cert.prefix_margin == (None if margin is None else Q(margin))
    assert cert.violating_index == violation


def test_long_prefix_violation_value():
    # a long scan (threshold > 4096) that fails at n <= 4096 reports the
    # exact term there: u_n = 1/10 - r^n + 2 s^n
    r, s = 1 - Q(1, 3900), 1 - Q(2, 3900)
    lrr, c = shape([([Q(1, 10)], Q(1), 1), ([Q(-1)], r, 1), ([Q(2)], s, 1)])
    cert = exists_robust_positivity(Analysis.build(lrr, c)).certificate
    assert cert.kind == "violation" and cert.violating_index == 3963
    assert cert.violating_value == Q(1, 10) - r ** 3963 + 2 * s ** 3963


@pytest.mark.parametrize("shape_, verdict", [(M4201, "NO"), (M1301, "YES")],
                         ids=["m4201", "m1301"])
def test_long_positivity_analyses_the_start_once(monkeypatch, shape_,
                                                 verdict):
    """One `spectral` per decision: the orbit scan is built from the
    decision's own normal form, and a term whose enclosure is below zero
    is a violation without an exact sign test."""
    from robustlrs import decide, lrs
    calls = {"spectral": 0, "_orbit_sign": 0}

    def counting(name):
        real = getattr(lrs, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name)
        monkeypatch.setattr(lrs, name, wrapped)
        if hasattr(decide, name):
            monkeypatch.setattr(decide, name, wrapped)
    lrr, c = shape_
    clear_analysis_memos()
    assert exists_robust_positivity(Analysis.build(lrr, c)).verdict == verdict
    assert calls["spectral"] == 1
    if shape_ is M4201:
        assert calls["_orbit_sign"] == 0


# (n - 5000)^2: u_5000 = 0 is the only term that is not positive
SQUARE = (Lrr((Q(1), Q(-3), Q(3))),
          InitialConfig((Q(25000000), Q(24990001), Q(24980004))))


def _count_scan_calls(monkeypatch):
    """Counts of `OrbitScanner.step` calls."""
    calls = {"step": 0}
    real = OrbitScanner.step

    def counting(self):
        calls["step"] += 1
        return real(self)
    monkeypatch.setattr(OrbitScanner, "step", counting)
    return calls


@pytest.mark.parametrize("shape_, steps", [(M1301, 4860), (M4201, 4269),
                                           (REPEATED, 6000)],
                         ids=["m1301", "m4201", "repeated"])
def test_long_positivity_scan_work(monkeypatch, shape_, steps):
    """One step, which returns the enclosure, per term scanned: the count
    of `OrbitScanner.step` calls is the benchmark's measure of this work."""
    calls = _count_scan_calls(monkeypatch)
    clear_analysis_memos()
    exists_robust_positivity(Analysis.build(*shape_))
    assert calls == {"step": steps}


def test_exact_sign_continues_from_the_prefix_scan(monkeypatch):
    """A term past `EXACT_TERMS` whose scan enclosure holds 0 goes from the
    scan straight to the zero scan, without scanning the same n steps
    again at the same precision."""
    calls = _count_scan_calls(monkeypatch)
    d = exists_robust_positivity(Analysis.build(*SQUARE))
    assert d.verdict == "NO" and d.certificate.violating_index == 5000
    assert calls["step"] == 5000


def test_shapes_as_built():
    # the golden values belong to exactly these recurrences
    assert M1301[0].coeffs == (Q(-1300, 1301), Q(2601, 1301))
    assert M1301[1].entries == (Q(22, 21), Q(28601, 27321))
    assert REPEATED[0].coeffs == (Q(1, 2), Q(-2), Q(5, 2))
    assert REPEATED[1].entries == (Q(1503), Q(3005, 2), Q(6011, 4))
    assert M4201[1].entries[0] == Q(11, 10)


# ---------------------------------------------------------------------------
# residual threshold against the Fraction term


def reference_term_threshold(a, t, beta, eps):
    """The doubling and bisection with an exact Fraction term
    a * n^t * beta^n."""
    n0 = 1
    if t > 0:
        while beta * Q(n0 + 1, n0) ** t >= 1:
            n0 *= 2

    def term_at(n):
        return a * Q(n) ** t * beta ** n

    if term_at(n0) < eps:
        return n0 - 1
    n = n0
    while term_at(n) >= eps:
        n *= 2
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if term_at(mid) >= eps:
            lo = mid
        else:
            hi = mid
    return lo


def random_case(rng, kind):
    a = Q(rng.randint(1, 10**6), rng.randint(1, 10**6))
    if kind == "near-one":
        # beta within 2^-20 of 1 (a 96-bit dyadic, as term_bounds gives);
        # a/eps just above N^|t| for a random N < 300, so the threshold
        # stays near N
        beta = Q((1 << 96) - rng.randint(1 << 75, 1 << 76), 1 << 96)
        t = rng.choice((-2, -1, 0))
        ratio = Q(rng.randint(1, 300)) ** -t + Q(rng.randint(1, 1 << 20),
                                                 1 << 32)
        return a, t, beta, a / ratio
    t = {"t>0": rng.randint(1, 3), "t=0": 0, "t<0": rng.randint(-3, -1)}[kind]
    pick = rng.randrange(3)
    if pick == 0:
        # 1 - 1/m rounded up to 96 bits: the decide-prefix bases (n^t
        # peaks near n = t m, so m stays small for t > 0)
        m = rng.randint(100, 200 if t > 0 else 2000)
        beta = Q(-(-(m - 1 << 96) // m), 1 << 96)
        return a, t, beta, a / Q(rng.randint(2, 16))
    if pick == 1:
        beta = Q(rng.randint(1 << 94, 15 << 92), 1 << 96)
    else:
        beta = Q(rng.randint(250, 999), rng.randint(1000, 1200))
    return a, t, beta, a / Q(rng.randint(1, 1 << 30), rng.randint(1, 1 << 10))


def test_residual_threshold_matches_fraction_term():
    rng = random.Random(6)
    kinds = ("t>0", "t=0", "t<0", "near-one")
    for i in range(240):
        a, t, beta, eps = random_case(rng, kinds[i % 4])
        assert _term_threshold(a, t, beta, eps) == \
            reference_term_threshold(a, t, beta, eps), (a, t, beta, eps)


def test_residual_threshold_unit_modulus():
    # beta = 1 leaves a * n^t with t < 0; a/eps up to 300^|t| and exact
    # ties n^|t| = a/eps among them
    rng = random.Random(8)
    for _ in range(60):
        a = Q(rng.randint(1, 10**6), rng.randint(1, 10**6))
        t = rng.randint(-3, -1)
        eps = a / Q(rng.randint(1, 300) ** -t, rng.choice((1, 1, 2, 7)))
        assert _term_threshold(a, t, Q(1), eps) == \
            reference_term_threshold(a, t, Q(1), eps), (a, t, eps)


def test_residual_threshold_exact_ties():
    # eps equal to the term at some n: the dyadic bounds of beta^n
    # straddle eps there, so the exact integer comparison decides
    rng = random.Random(7)
    for _ in range(40):
        a = Q(rng.randint(1, 1000), rng.randint(1, 1000))
        t = rng.randint(-2, 2)
        beta = Q(rng.randint(1 << 94, 1 << 95), 1 << 96) \
            if rng.random() < 0.5 else Q(rng.randint(50, 97), 100)
        n_tie = rng.randint(1, 300)
        eps = a * Q(n_tie) ** t * beta ** n_tie
        assert _term_threshold(a, t, beta, eps) == \
            reference_term_threshold(a, t, beta, eps)


# ---------------------------------------------------------------------------
# integer orbit-scan enclosure against the Fraction interval formula


SCAN_CASES = {
    "fibonacci": (Lrr((Q(1), Q(1))), InitialConfig((Q(1), Q(1)))),
    # (x^2 - 6/5 x + 1)(x - 1/2): a dominant complex pair, complex alphas
    "complex-pair": (Lrr((Q(1, 2), Q(-8, 5), Q(17, 10))),
                     InitialConfig((Q(1), Q(0), Q(-2, 3)))),
    "repeated-root": REPEATED,
    # (x - 1)(x - 1/2)^2: a residual term n * 2^-n, npow = +1
    "positive-npow": shape([([Q(1)], Q(1), 1), ([Q(2), Q(5)], Q(1, 2), 2)]),
    # alpha -1 on the base r = 1 - 1/4201
    "negative-alpha": M4201,
    # 2 - (-1)^n + 3 (-9/10)^n: alternating powers, dominant and residual
    "alternating": shape([([Q(2)], Q(1), 1), ([Q(-1)], Q(-1), 1),
                          ([Q(3)], Q(-9, 10), 1)]),
    # 1 - 3 (-1/4)^n + 2 (1/3)^n: powers that sink into the error band
    "sinking": shape([([Q(1)], Q(1), 1), ([Q(-3)], Q(-1, 4), 1),
                      ([Q(2)], Q(1, 3), 1)]),
    # 1 + (r^n - conj(r)^n)/(r - conj(r)), r = (1 + i)/4: alphas with real
    # part 0 on a sinking complex pair
    "sinking-complex": (Lrr((Q(1, 8), Q(-5, 8), Q(3, 2))),
                        InitialConfig((Q(1), Q(2), Q(3, 2)))),
}


@pytest.mark.parametrize("name", list(SCAN_CASES))
def test_scanner_enclosure_matches_fraction_formula(name):
    lrr, c = SCAN_CASES[name]
    normal = normalize(lrr, c)
    sc = OrbitScanner(normal, 160)
    for _ in range(300):
        lo, hi, den = sc.step()
        v = fraction_enclosure(sc, normal).re
        assert (Q(lo, den), Q(hi, den)) == (v.lo, v.hi), sc.n


def _sign_case(lo, hi):
    return "+" if lo >= 0 else "-" if hi <= 0 else "0"


def test_scan_cases_reach_every_sign_case():
    """Over the 300 steps above, the real products alpha_re * power_re of
    `SCAN_CASES` meet all nine sign cases of an interval product, written
    out or through `interval.imul`: alpha's real part >= 0, <= 0 or
    straddling 0, times a power box >= 0, <= 0 or straddling 0 (a power
    sunk into the error band)."""
    seen = set()
    for lrr, c in SCAN_CASES.values():
        sc = OrbitScanner(normalize(lrr, c), 160)
        for _ in range(300):
            sc.step()
            e = sc.err + 2
            for (ar_lo, ar_hi, *_), (vr, _) in zip(sc._terms,
                                                   scanner_powers(sc)):
                seen.add((_sign_case(ar_lo, ar_hi), _sign_case(vr - e, vr + e)))
    assert len(seen) == 9


# the shapes of `SCAN_CASES` and two more: 1 + 3/2^n, whose power sinks
# below the error count, and -1/10 + 1/2^n, a negative alpha on a base of 1
REF_CASES = {
    **SCAN_CASES,
    "half": shape([([Q(1)], Q(1), 1), ([Q(3)], Q(1, 2), 1)]),
    "negative-alpha-on-1": shape([([Q(-1, 10)], Q(1), 1),
                                  ([Q(1)], Q(1, 2), 1)]),
}


def test_scanner_steps_match_the_two_call_reference():
    """Every step of `OrbitScanner` gives the (lo, hi, den) of
    `oracles.OrbitScannerRef`'s step and enclosure, and leaves the same
    power points, error count and n, for n <= 3000 at the scan's 192 bits.
    Together the cases reach every path of a term: a base of 1, a real and
    a complex base; a real alpha of either sign over a power above the
    error band (written out) or sunk into it (`interval.imul`), and a
    complex alpha."""
    paths = set()
    for name, (lrr, c) in REF_CASES.items():
        normal = normalize(lrr, c)
        sc, ref = OrbitScanner(normal, 192), OrbitScannerRef(normal, 192)
        for _ in range(3000):
            out = sc.step()
            ref.step()
            assert out == ref.enclosure(), (name, sc.n)
            assert (scanner_powers(sc), sc.err, sc.n) == \
                (ref._power, ref.err, ref.n)
            e = sc.err + 2
            for ar_lo, ar_hi, ai_lo, ai_hi, br, bi, vr, *_ in sc._terms:
                paths.add(("base", "1" if (br, bi) == (1 << 192, 0)
                           else "complex" if bi else "real"))
                paths.add(("alpha", "complex" if ai_lo or ai_hi else
                           "+" if ar_lo >= 0 else "-" if ar_hi <= 0 else "0",
                           vr > e))
    assert paths == {("base", "1"), ("base", "real"), ("base", "complex"),
                     ("alpha", "+", True), ("alpha", "+", False),
                     ("alpha", "-", True), ("alpha", "-", False),
                     ("alpha", "complex", True), ("alpha", "complex", False)}
