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
integer orbit-scan enclosure against the `Fraction` interval product
alpha_box * (base^n box) * n^npow summed over the tracks.
"""

import random
from fractions import Fraction as Q

import pytest

from robustlrs.decide import exists_robust_positivity, exists_robust_skolem
from robustlrs.interval import Box, Ival
from robustlrs.lrs import InitialConfig, Lrr, OrbitScanner, _term_threshold
from robustlrs.poly import pmul

from oracles import dominant_box


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
    d = decide(lrr, c)
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
    cert = exists_robust_positivity(lrr, c).certificate
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
    calls = {"spectral": 0, "term_sign": 0}

    def counting(name):
        real = getattr(lrs, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name)
        monkeypatch.setattr(lrs, name, wrapped)
        monkeypatch.setattr(decide, name, wrapped)
    lrr, c = shape_
    assert exists_robust_positivity(lrr, c).verdict == verdict
    assert calls["spectral"] == 1
    if shape_ is M4201:
        assert calls["term_sign"] == 0


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


def fraction_enclosure(sc, dominant_only=False):
    n = max(sc.n, 1)
    triples = [(a, 0) for a, _ in sc.form.terms]
    if not dominant_only:
        triples += [(t.alpha, t.npow) for t in sc.res.terms]
    acc = Box.point(0)
    for (alpha, npow), tr in zip(triples, sc._track):
        ab = alpha.refine(Q(1, 1 << sc.bits))
        e = Q(tr.err + 2, tr.scale)
        pr, pi = Q(tr.vr, tr.scale), Q(tr.vi, tr.scale)
        pw = Box(Ival(pr - e, pr + e), Ival(pi - e, pi + e))
        acc = acc + ab * pw * (Q(n) ** npow)
    return acc


def same_box(x, y):
    return (x.re.lo, x.re.hi, x.im.lo, x.im.hi) == \
        (y.re.lo, y.re.hi, y.im.lo, y.im.hi)


SCAN_CASES = {
    "fibonacci": (Lrr((Q(1), Q(1))), InitialConfig((Q(1), Q(1)))),
    # (x^2 - 6/5 x + 1)(x - 1/2): a dominant complex pair, complex alphas
    "complex-pair": (Lrr((Q(1, 2), Q(-8, 5), Q(17, 10))),
                     InitialConfig((Q(1), Q(0), Q(-2, 3)))),
    "repeated-root": REPEATED,
    # (x - 1)(x - 1/2)^2: a residual term n * 2^-n, npow = +1
    "positive-npow": shape([([Q(1)], Q(1), 1), ([Q(2), Q(5)], Q(1, 2), 2)]),
}


@pytest.mark.parametrize("name", list(SCAN_CASES))
def test_scanner_enclosure_matches_fraction_formula(name):
    lrr, c = SCAN_CASES[name]
    sc = OrbitScanner(lrr, c, bits=160)
    assert same_box(dominant_box(sc), fraction_enclosure(sc, True))
    for _ in range(300):
        sc.step()
        assert same_box(sc.v_box(), fraction_enclosure(sc)), sc.n
        assert same_box(dominant_box(sc), fraction_enclosure(sc, True)), sc.n
