import itertools
import math
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from robustlrs import optimize
from robustlrs.interval import Box, Ival
from robustlrs.lrs import Lrr, InitialConfig, Ball, normalize
from robustlrs.poly import pmul
from robustlrs.torus import relation_lattice, parametrize, TorusPoint
from robustlrs.optimize import (mu, nu, min_over_ball,
                                DominantFamily, DEFAULT_TOL, ExactReal,
                                _Objective, _exact_min)
from robustlrs.trig import pi_ival, unit_box
from robustlrs.decide import Analysis, robust_nonuniform_ultpos_open_ball
from robustlrs.hardness import (build_hardness_lrr, config_from_coeffs,
                                CoefficientBasisPoint)

from oracles import (point_turns, point_values, residual_box,
                     fraction_enclosure, cos_turn_ival, sin_turn_ival,
                     has_point_mod1_ref, dyadic_box, branch_and_bound_ref)

FIB = Lrr((Q(1), Q(1)))
ALT = Lrr((Q(-1),))


def cfg(*vals):
    return InitialConfig(tuple(Q(v) for v in vals))


def hard_lrr(p: Q) -> Lrr:
    # (x-1)^2 (x^2 - 2px + 1)^2 expanded exactly
    from robustlrs.poly import pmul, pnorm
    lin = (Q(1), Q(-2), Q(1))
    quad = (Q(1), -2 * p, Q(1))
    quad2 = pmul(quad, quad)
    char = pmul(lin, quad2)
    # char = x^6 - sum a_j x^j: a_j = -char[j]
    return Lrr(tuple(-c for c in char[:6]))


def build_torus(lrr, c):
    form, res = normalize(lrr, c)
    lat = relation_lattice([s for _, s in form.terms])
    return form, parametrize(lat)


P35 = Q(3, 5)


def coeff_config(p: Q, zdom, xdom, ydom, zres, xres, yres):
    """Initial configuration whose coefficient-basis coordinates are given
    (requires rational sine q: u_j built from exact rotation powers)."""
    q = Q(4, 5) if p == P35 else None
    assert q is not None
    cos, sin = Q(1), Q(0)
    entries = []
    for j in range(6):
        entries.append(zdom * j - xdom * j * cos - ydom * j * sin
                       + zres - xres * cos - yres * sin)
        cos, sin = p * cos - q * sin, q * cos + p * sin
    return InitialConfig(tuple(entries))


def test_mu_alternating_sign():
    form, torus = build_torus(ALT, cfg(1))
    out = mu(form, torus)
    assert out.verdict == "NEGATIVE"
    assert out.enclosure.lo == out.enclosure.hi == -1
    assert out.witness is not None
    vals = point_values(torus, out.witness)
    assert vals[0].as_rational() == -1


def test_mu_fibonacci_positive():
    form, torus = build_torus(FIB, cfg(1, 1))
    out = mu(form, torus)
    assert out.verdict == "POSITIVE"
    # phi/sqrt5 ~ 0.7236067977
    assert abs(float(out.enclosure.mid) - 0.7236067977) < 1e-9


def test_nu_trivial_pm_one():
    form, torus = build_torus(ALT, cfg(1))
    out = nu(form, torus)
    assert out.verdict == "POSITIVE"
    assert out.enclosure.lo == out.enclosure.hi == 1


def test_nu_fibonacci():
    form, torus = build_torus(FIB, cfg(1, 1))
    out = nu(form, torus)
    assert out.verdict == "POSITIVE"
    assert abs(float(out.enclosure.mid) - 0.7236067977) < 1e-9


def test_mu_pair_zero_surface():
    # (z, x, y) = (2, 2, 0): mu = 2 - sqrt(4) = 0 exactly (cone surface)
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(2), Q(2), Q(0), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = mu(form, torus)
    assert out.verdict == "ZERO"
    assert out.enclosure.lo == out.enclosure.hi == 0


def test_mu_pair_positive_interior():
    # (z, x, y) = (2 + psi, 2 - psi, 0): mu = 2 psi exactly-signed
    psi = Q(1, 10)
    lrr = hard_lrr(P35)
    c = coeff_config(P35, 2 + psi, 2 - psi, Q(0), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = mu(form, torus)
    assert out.verdict == "POSITIVE"
    assert out.enclosure.contains(2 * psi) or \
        abs(float(out.enclosure.mid) - 0.2) < 1e-9


def test_mu_pair_negative_outside():
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(1), Q(2), Q(0), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = mu(form, torus)
    assert out.verdict == "NEGATIVE"
    # mu = 1 - 2 = -1
    assert out.enclosure.contains(Q(-1))


def test_mu_closed_form_agreement_width():
    # enclosure contains z - sqrt(x^2 + y^2) with width <= 1e-9
    rng = random.Random(17)
    lrr = hard_lrr(P35)
    for _ in range(5):
        z = Q(rng.randint(-4, 6), rng.randint(1, 3))
        x = Q(rng.randint(-5, 5), rng.randint(1, 3))
        y = Q(rng.randint(-5, 5), rng.randint(1, 3))
        c = coeff_config(P35, z, x, y, Q(0), Q(0), Q(0))
        form, torus = build_torus(lrr, c)
        out = mu(form, torus)
        encl = out.enclosure
        assert encl.width <= Q(1, 10**9)
        target = Ival.point(x * x + y * y).sqrt(160)
        lo = z - target.hi
        hi = z - target.lo
        assert encl.lo <= hi and lo <= encl.hi, f"{(z, x, y)}"


def test_nu_pair_zero_crossing():
    # (z, x, y) = (1, 2, 0): range [-1, 3] contains 0
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(1), Q(2), Q(0), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = nu(form, torus)
    assert out.verdict == "ZERO"


def test_nu_pair_positive():
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(3), Q(1), Q(0), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = nu(form, torus)
    assert out.verdict == "POSITIVE"
    # nu = 3 - 1 = 2
    assert out.enclosure.contains(Q(2))


@pytest.mark.parametrize("coeffs,init", [
    # (x - 1)(x^2 - 6/5 x + 1): S + 2|w| < 0, the least |value| is at the
    # angle where the value is largest
    (("1", "-11/5", "11/5"), (-2, "-12/5", "-68/25")),
    # (x + 1)(x^2 - 6/5 x + 1) and the p = 3/5 family: S - 2|w| > 0
    (("-1", "1/5", "1/5"), (4, "-12/5", "68/25")),
    (None, None),
], ids=["beside-1-negative", "beside-minus-1", "p35-family"])
def test_nu_pair_witness_attains_minimum(coeffs, init):
    if coeffs is None:
        lrr = hard_lrr(P35)
        c = coeff_config(P35, Q(3), Q(1), Q(0), Q(0), Q(0), Q(0))
    else:
        lrr, c = Lrr(tuple(Q(a) for a in coeffs)), cfg(*init)
    form, torus = build_torus(lrr, c)
    out = nu(form, torus)
    assert out.verdict == "POSITIVE" and out.method == "pair-closed-form"
    acc = Box.point(0)
    for (alpha, _), t in zip(form.terms, point_turns(torus, out.witness)):
        acc = acc + alpha.box(128) * unit_box(t, 128)
    at_witness = acc.re.abs()
    assert out.enclosure.lo - out.tol <= at_witness.lo
    assert at_witness.hi <= out.enclosure.hi + out.tol


def test_mu_finite_torus_six_cosets():
    # p = 1/2 member of the family: roots of unity, finite torus
    lrr = hard_lrr(Q(1, 2))
    c = cfg(1, 0, 0, 0, 0, 0)
    form, torus = build_torus(lrr, c)
    assert torus.free_rank == 0
    assert len(torus.coset_turns) == 6
    out = mu(form, torus)
    assert out.verdict in ("POSITIVE", "NEGATIVE", "ZERO")
    # orbit values v_n^dom must never dip below the certified minimum
    from robustlrs.lrs import OrbitScanner
    normal = normalize(lrr, c)
    sc = OrbitScanner(normal, 128)
    for _ in range(500):
        sc.step()
        vd = fraction_enclosure(sc, normal, dominant_only=True).re
        assert vd.hi >= out.enclosure.lo - Q(1, 10**9)


def test_min_over_ball_fibonacci():
    center_form, _ = normalize(FIB, cfg(1, 1))
    basis = [normalize(FIB, cfg(1, 0))[0], normalize(FIB, cfg(0, 1))[0]]
    lat = relation_lattice([s for _, s in center_form.terms])
    torus = parametrize(lat)
    fam = DominantFamily(center=center_form, basis=basis)
    out = min_over_ball(fam, Q(1, 10), torus)
    assert out.verdict == "POSITIVE"
    # shrinking the radius converges to mu
    out_small = min_over_ball(fam, Q(1, 10**6), torus)
    mu_out = mu(center_form, torus)
    assert abs(float(out_small.enclosure.mid) - float(mu_out.enclosure.mid)) < 1e-3


def test_min_over_ball_negative_center():
    center_form, _ = normalize(ALT, cfg(1))
    basis = [normalize(ALT, cfg(1))[0]]
    lat = relation_lattice([s for _, s in center_form.terms])
    torus = parametrize(lat)
    fam = DominantFamily(center=center_form, basis=basis)
    out = min_over_ball(fam, Q(1, 2), torus)
    assert out.verdict == "NEGATIVE"


@pytest.mark.parametrize("tol", [Q(0), Q(-1)])
def test_every_minimizer_refuses_nonpositive_tol(tol):
    """mu, nu and min_over_ball share one tolerance check: before it,
    min_over_ball returned POSITIVE with a tol of 0 or -1."""
    q = Q(4, 5)
    a = Analysis.build(build_hardness_lrr(P35, q), config_from_coeffs(
        P35, q, CoefficientBasisPoint(3, 1, 0, 0, 0, 0)))
    fam = DominantFamily(a.form, a.rec.units)
    for run in (lambda: mu(a.form, a.torus, tol),
                lambda: nu(a.form, a.torus, tol),
                lambda: min_over_ball(fam, Q(1, 20), a.torus, tol)):
        with pytest.raises(ValueError, match="tol must be positive"):
            run()


def test_monotone_refinement():
    form, torus = build_torus(FIB, cfg(1, 1))
    wide = mu(form, torus, Q(1, 1 << 20))
    tight = mu(form, torus, Q(1, 1 << 44))
    assert tight.enclosure.width <= wide.enclosure.width


def test_determinism():
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(3), Q(1), Q(1), Q(1), Q(0), Q(0))
    form1, torus1 = build_torus(lrr, c)
    form2, torus2 = build_torus(lrr, c)
    o1 = mu(form1, torus1)
    o2 = mu(form2, torus2)
    assert o1.enclosure.lo == o2.enclosure.lo
    assert o1.enclosure.hi == o2.enclosure.hi
    assert o1.verdict == o2.verdict


def _dyadic_orbit_min_vdom(z, x, y, n_max, bits=96):
    """min over 1..n_max of z - x cos(n theta) - y sin(n theta) for the
    p = 3/5 rotation, via the integer ball-error scan (certified lo, hi)."""
    scale = 1 << bits
    C, S, E = scale, 0, 0
    lo_min = hi_min = None
    import math
    L = math.lcm(z.denominator, x.denominator, y.denominator)
    zL, xL, yL = int(z * L), int(x * L), int(y * L)
    for n in range(1, n_max + 1):
        C, S = (2 * (3 * C - 4 * S) + 5) // 10, (2 * (4 * C + 3 * S) + 5) // 10
        E += 1
        slack = (abs(xL) + abs(yL)) * (E + 1)
        val = zL * scale - xL * C - yL * S
        lo, hi = val - slack, val + slack
        if lo_min is None or lo < lo_min:
            lo_min = lo
        if hi_min is None or hi < hi_min:
            hi_min = hi
    return Q(lo_min, scale * L), Q(hi_min, scale * L)


def test_mu_lower_bound_soundness_orbit():
    # the orbit of the dominant part never dips below the certified minimum
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(3), Q(1), Q(1), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = mu(form, torus)
    lo_min, hi_min = _dyadic_orbit_min_vdom(Q(3), Q(1), Q(1), 10**4)
    assert hi_min >= out.enclosure.lo - out.tol


def test_mu_density_sharpness():
    # the orbit comes within 1e-2 of the certified minimum by n = 1e6
    lrr = hard_lrr(P35)
    c = coeff_config(P35, Q(3), Q(1), Q(1), Q(0), Q(0), Q(0))
    form, torus = build_torus(lrr, c)
    out = mu(form, torus)
    lo_min, hi_min = _dyadic_orbit_min_vdom(Q(3), Q(1), Q(1), 10**6)
    assert hi_min <= out.enclosure.hi + Q(1, 100)
    assert lo_min >= out.enclosure.lo - Q(1, 10**6)


def test_finite_torus_exact_matches_orbit_cycle():
    """p = 1/2 family: the six exact coset values are exactly the six
    values of one orbit period of the dominant part (dual-route check)."""
    from robustlrs.lrs import eval_terms
    from robustlrs.optimize import _CycloForm, _exact_combo
    lrr = hard_lrr(Q(1, 2))
    c = cfg(1, 0, 0, 0, 0, 0)
    form, res = normalize(lrr, c)
    torus = parametrize(relation_lattice([s for _, s in form.terms]))
    assert len(torus.coset_turns) == 6
    cyclo = _CycloForm(form.terms, form.rho)
    coset_vals = sorted(
        _exact_combo(cyclo, turns).ival_width(Q(1, 10**15)).mid
        for turns in torus.coset_turns)
    terms = eval_terms(lrr, c, 6)
    orbit_vals = []
    for n in range(1, 7):
        vres = residual_box(res, n, 220).re
        v_dom = Q(terms[n], n) - vres.mid
        orbit_vals.append(v_dom)
    for a, b in zip(coset_vals, sorted(orbit_vals)):
        assert abs(a - b) < Q(1, 10**12)


def test_degenerate_all_ones_start():
    """u_n = 1 identically: every dominant coefficient vanishes, the
    dominant minimum is exactly zero, and both robustness questions
    answer NO (perturbations break constancy)."""
    from robustlrs.decide import (Analysis, exists_robust_skolem,
                                  exists_robust_ultimate_positivity)
    lrr = hard_lrr(Q(1, 2))
    c = cfg(1, 1, 1, 1, 1, 1)
    from robustlrs.lrs import eval_terms
    assert eval_terms(lrr, c, 10) == [Q(1)] * 11
    d_ult = exists_robust_ultimate_positivity(Analysis.build(lrr, c))
    assert d_ult.verdict == "NO"
    assert d_ult.certificate.optimum.verdict == "ZERO"
    d_sko = exists_robust_skolem(Analysis.build(lrr, c))
    assert d_sko.verdict == "NO"
    assert d_sko.certificate.optimum.verdict == "ZERO"



def test_nu_finite_zero_by_cyclotomic_test(monkeypatch):
    """x^2 + x + 1 from 0, 1: the orbit 0, 1, -1 repeats, so one coset value
    of the finite torus is exactly zero.  Cube roots of unity are
    irrational, so its enclosure straddles 0 at every precision and only
    the remainder modulo Phi_3 certifies the ZERO."""
    from robustlrs.decide import Analysis, exists_robust_skolem
    calls, real = [], optimize.pdivmod

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(optimize, "pdivmod", counted)
    lrr, c = Lrr((Q(-1), Q(-1))), cfg(0, 1)
    form, torus = build_torus(lrr, c)
    out = nu(form, torus)
    assert (out.verdict, out.method) == ("ZERO", "finite-exact")
    assert out.witness == TorusPoint(0, ())
    assert len(calls) == 1
    d = exists_robust_skolem(Analysis.build(lrr, c))
    assert d.verdict == "NO"
    assert d.certificate.optimum.verdict == "ZERO"


def _near(v, is_zero=None):
    """The exact real v, enclosed at `bits` with radius 2^-bits."""
    return ExactReal(lambda bits: Ival(v - Q(1, 1 << bits),
                                       v + Q(1, 1 << bits)), is_zero)


TINY = Q(1, 1 << 100)   # straddles 0 at 96 bits, not at 192


@pytest.mark.parametrize("values,verdict,converged", [
    # nonzero by its zero test, or unresolved at 96 bits: refined until
    # it separates from 0
    ([_near(TINY, lambda: False), _near(Q(1))], "POSITIVE", True),
    ([_near(Q(1)), _near(-TINY)], "NEGATIVE", True),
    # exactly 0 by its zero test, and no other value can lie below 0
    ([_near(Q(1)), _near(Q(0), lambda: True),
      ExactReal(lambda bits: Ival(Q(0), Q(1, 1 << bits)))], "ZERO", True),
    # no zero test: an exact 0 never separates, at any tolerance
    ([_near(Q(1)), _near(Q(0))], "UNKNOWN", False),
    # an exact 0 beside a value that may lie below it
    ([_near(Q(0), lambda: True), _near(Q(0))], "UNKNOWN", False),
])
def test_exact_min_climbs_straddling_values(values, verdict, converged):
    out = _exact_min(values, [v.ival(96) for v in values],
                     [TorusPoint(i, ()) for i in range(len(values))],
                     DEFAULT_TOL, True, "finite-exact")
    assert (out.verdict, out.converged) == (verdict, converged)
    if verdict == "ZERO":
        assert out.witness == TorusPoint(1, ())

class _FractionObjective:
    """The branch-and-bound objective on `Fraction` boxes, as it was before
    it moved to integers: the reference oracle of `optimize._Objective`."""

    def __init__(self, forms, torus, coset, bits):
        self.bits = bits
        self.k = torus.k
        self.embed = torus.embedding
        self.free = torus.free_rank
        self.weights = []
        for form in forms:
            row = []
            for j, (alpha, _s) in enumerate(form.terms):
                zb = unit_box(torus.coset_turns[coset][j], bits)
                row.append((alpha.box(bits) * zb).round_out(bits))
            self.weights.append(row)
        self.two_pi = pi_ival(bits) * 2

    def _terms(self, sbox):
        zbs = []
        for j in range(self.k):
            t = Ival.point(0)
            for b in range(self.free):
                e = self.embed[j][b]
                if e:
                    t = t + sbox[b] * e
            zbs.append(Box(cos_turn_ival(t, self.bits),
                           sin_turn_ival(t, self.bits)))
        return [[w * zb for w, zb in zip(row, zbs)] for row in self.weights]

    def _values(self, terms):
        out = []
        for row in terms:
            acc = Ival.point(0)
            for wz in row:
                acc = acc + wz.re
            out.append(acc.round_out(self.bits))
        return out

    def evaluate(self, sbox):
        mid = [Ival.point(s.mid) for s in sbox]
        terms = self._terms(sbox)
        plain = self._values(terms)
        at_mid = self._values(self._terms(mid))
        acc = at_mid[0]
        for b in range(self.free):
            deriv = Ival.point(0)
            for j in range(self.k):
                e = self.embed[j][b]
                if e:
                    deriv = deriv + terms[0][j].im * (-e)
            acc = acc + deriv * self.two_pi * (sbox[b] - mid[b])
        centered = (acc.intersect(plain[0]) if acc.overlaps(plain[0])
                    else plain[0])
        return [centered] + plain[1:], at_mid


def _random_subbox(rng, free, depth):
    """A box the branch and bound can reach, as it holds it: `depth`
    random halvings of [0, 1]^free, as (los, his, depth)."""
    los, his = [0] * free, [1] * free
    for _ in range(depth):
        dim = rng.randrange(free)
        los, his = [a << 1 for a in los], [b << 1 for b in his]
        mid = (los[dim] + his[dim]) >> 1
        if rng.random() < 0.5:
            his[dim] = mid
        else:
            los[dim] = mid
    return los, his, depth


def _ivals(box):
    """An integer box (los, his, d) as its `Ival` angles."""
    los, his, d = box
    return [Ival(Q(a, 1 << d), Q(b, 1 << d)) for a, b in zip(los, his)]


# (x^2 - 6/5 x + 1)(x^2 - 10/13 x + 1): two pairs at independent angles
TWO_PAIR = Lrr(tuple(-c for c in pmul((Q(1), Q(-6, 5), Q(1)),
                                      (Q(1), Q(-10, 13), Q(1)))[:4]))


def _two_pair_forms():
    form, torus = build_torus(TWO_PAIR, cfg(1, 0, 0, 0))
    return [form], torus


def _rho2_forms():
    form, torus = build_torus(Lrr((Q(-4), Q(-1, 2))), cfg(Q(-3, 2), Q(-5, 3)))
    return [form], torus


def _p35_ball_forms():
    """The center and basis forms of the open-ball objective at p = 3/5."""
    lrr = hard_lrr(P35)
    center, _ = normalize(lrr, cfg(3, 1, 0, 2, 1, 5))
    basis = [normalize(lrr, cfg(*(int(i == j) for j in range(6))))[0]
             for i in range(6)]
    torus = parametrize(relation_lattice([s for _, s in center.terms]))
    return [center] + basis, torus


@pytest.mark.parametrize("make,bits_list", [
    (_two_pair_forms, (96,)),
    (_rho2_forms, (96, 232, 320)),
    (_p35_ball_forms, (96,)),
], ids=["two-pair", "rho2", "p35-ball"])
def test_objective_matches_fraction_oracle(make, bits_list):
    """The integer objective gives the oracle's enclosures, endpoint for
    endpoint, on random boxes the branch and bound can reach."""
    forms, torus = make()
    assert torus.free_rank >= 1
    rng = random.Random(3)
    for bits in bits_list:
        for coset in range(len(torus.coset_turns)):
            alpha_boxes = [[alpha.box(bits) for alpha, _s in form.terms]
                           for form in forms]
            obj = _Objective(alpha_boxes, torus, coset, bits)
            ref = _FractionObjective(forms, torus, coset, bits)
            for _ in range(12):
                box = _random_subbox(rng, torus.free_rank,
                                     rng.randint(0, bits + 8))
                got, want = obj.evaluate(box), ref.evaluate(_ivals(box))
                assert [[(v.lo, v.hi) for v in part] for part in got] == \
                    [[(v.lo, v.hi) for v in part] for part in want], box


def _chosen_boxes(free):
    """Depth-0 boxes, the eighths of [0, 1]^free, and narrow boxes around
    the quarter turns, where cos or sin reaches -1, 0 or 1: narrow in one
    angle, and narrow in every angle, where the centered form is the
    tighter enclosure."""
    eighths = [Ival(Q(i, 8), Q(i + 1, 8)) for i in range(8)]
    narrow = [Ival(Q(q, 4) - Q(1, 1 << m), Q(q, 4) + Q(1, 1 << m))
              for q in (1, 2, 3) for m in (3, 40, 200)]
    narrow += [Ival(Q(0), Q(1, 1 << 60)), Ival(Q(1) - Q(1, 1 << 60), Q(1))]
    boxes = [[Ival(Q(0), Q(1))] * free]
    for b in range(free):
        for part in eighths + narrow:
            for other in (Ival(Q(0), Q(1)), Ival(Q(1, 2), Q(3, 4))):
                box = [other] * free
                box[b] = part
                boxes.append(box)
    boxes += [[part] * free for part in narrow]
    # every pair of quarter turns at width 2^-39
    boxes += [list(box) for box in itertools.product(narrow[1:9:3],
                                                     repeat=free)]
    return boxes


@pytest.mark.parametrize("bits", (96, 160, 232, 320))
def test_objective_matches_fraction_oracle_on_chosen_boxes(bits):
    """Endpoint for endpoint as above, on a torus whose embedding has
    entries of both signs, 0 and magnitude > 1, one coset at nonzero turns,
    and boxes whose turn sums cross 0, 1/4, 1/2 and 3/4 (mod 1)."""
    forms, real = _two_pair_forms()
    torus = SimpleNamespace(
        k=real.k, free_rank=2,
        embedding=[[2, -3], [0, 1], [-1, 0], [3, 2]],
        coset_turns=[real.coset_turns[0],
                     (Q(1, 3), Q(1, 4), Q(1, 2), Q(5, 6))])
    boxes = _chosen_boxes(torus.free_rank)
    crossed, tighter = set(), 0
    for box in boxes:
        for row in torus.embedding:
            t = Ival.point(0)
            for e, s in zip(row, box):
                t = t + s * e
            crossed |= {q for q in range(4)
                        if has_point_mod1_ref(t.lo, t.hi, Q(q, 4))}
    assert crossed == {0, 1, 2, 3}
    alpha_boxes = [[alpha.box(bits) for alpha, _s in form.terms]
                   for form in forms]
    for coset in range(len(torus.coset_turns)):
        obj = _Objective(alpha_boxes, torus, coset, bits)
        ref = _FractionObjective(forms, torus, coset, bits)
        for sbox in boxes:
            got, want = obj.evaluate(dyadic_box(sbox)), ref.evaluate(sbox)
            assert [[(v.lo, v.hi) for v in part] for part in got] == \
                [[(v.lo, v.hi) for v in part] for part in want], sbox
            plain = ref._values(ref._terms(sbox))[0]
            tighter += got[0][0].width < plain.width
    # the centered form sets endpoints, not only the plain enclosure
    assert tighter > 0


def test_objective_with_disjoint_forms_is_an_internal_fault(monkeypatch):
    """The plain and centered enclosures both hold f(m), so sound kernels
    never part them; when the midpoint pass is made to read far off the
    box's values, `ends` raises RuntimeError (exit 4) rather than fall back
    to the plain form."""
    forms, torus = _p35_ball_forms()
    alpha_boxes = [[alpha.box(96) for alpha, _s in form.terms]
                   for form in forms]
    obj = _Objective(alpha_boxes, torus, 0, 96)
    box = _random_subbox(random.Random(5), torus.free_rank, 6)
    obj.ends(box)
    real, calls = obj._values, []

    def midpoint_off(terms):
        calls.append(terms)
        vals = real(terms)
        if len(calls) % 2 == 0:     # `ends` reads the box, then the midpoint
            return [(lo + (1 << 120), hi + (1 << 120)) for lo, hi in vals]
        return vals

    monkeypatch.setattr(obj, "_values", midpoint_off)
    with pytest.raises(RuntimeError, match="plain and centered enclosures"):
        obj.ends(box)


def test_objective_on_no_free_angles():
    """With no free angle, as `min_over_ball` on a finite torus asks, the
    objective is the exact coset value's enclosure, as on the oracle."""
    forms, real = _p35_ball_forms()
    torus = SimpleNamespace(k=real.k, free_rank=0,
                            embedding=[[] for _ in range(real.k)],
                            coset_turns=[(Q(0), Q(1, 3), Q(2, 3))])
    alpha_boxes = [[alpha.box(96) for alpha, _s in form.terms]
                   for form in forms]
    got = _Objective(alpha_boxes, torus, 0, 96).evaluate(([], [], 0))
    want = _FractionObjective(forms, torus, 0, 96).evaluate([])
    assert [[(v.lo, v.hi) for v in part] for part in got] == \
        [[(v.lo, v.hi) for v in part] for part in want]


def _bnb_cases():
    """(name, thunk) pairs whose thunk returns a `SignOutcome` found by
    branch and bound: the optimizer golden cases that run it (`mu` on two
    pairs at tol 1/4, the Fibonacci balls, whose torus has no free angle,
    and the p = 3/5 open balls), and `mu` and one `nu` pass on random
    starts of the two-pair recurrence, whose torus has two free angles."""
    [form], torus = _two_pair_forms()
    yield "mu two-pair", lambda: mu(form, torus, Q(1, 4))
    for center, radius in (((1, 1), Q(1, 10)), ((1, 1), Q(1, 10**6)),
                           ((-1, -1), Q(1, 2))):
        def fib_ball(center=center, radius=radius):
            center_form, _ = normalize(FIB, cfg(*center))
            basis = [normalize(FIB, cfg(1, 0))[0],
                     normalize(FIB, cfg(0, 1))[0]]
            t = parametrize(relation_lattice([s for _, s in
                                              center_form.terms]))
            return min_over_ball(DominantFamily(center_form, basis), radius,
                                 t)
        yield f"fib ball {center} r={radius}", fib_ball
    for init in ((3, 1, 0, 2, 1, 5), (1, 0, 0, 0, 0, 0), (2, 1, 1, 1, 0, 0)):
        def p35_ball(init=init):
            a = Analysis.build(hard_lrr(P35), cfg(*init))
            return robust_nonuniform_ultpos_open_ball(
                a, Ball(cfg(*init), Q(1, 20))).certificate.optimum
        yield f"p=3/5 ball {init}", p35_ball
    rng = random.Random(33)
    for i in range(8):
        start = tuple(rng.randint(-3, 3) for _ in range(4))
        tol = rng.choice((Q(1, 4), Q(1, 16), Q(1, 1 << 10)))
        absolute = i % 3 == 2
        f, t = build_torus(TWO_PAIR, cfg(*start))
        yield (f"{'nu' if absolute else 'mu'} two-pair {start} tol={tol}",
               lambda f=f, t=t, tol=tol, absolute=absolute:
               optimize._minimize(f, t, tol, absolute))


def _searched(monkeypatch, search, thunk):
    """thunk's outcome when `_bb_min` searches with `search`, and per
    search its (enclosure, witness, converged) and its `value_fn` calls."""
    runs = []

    def counted(value_fn, free, tol, **bnb):
        calls = []

        def fn(box):
            calls.append(1)
            return value_fn(box)

        encl, wit, conv = search(fn, free, tol, **bnb)
        runs.append(((encl.lo, encl.hi), wit, conv, len(calls)))
        return encl, wit, conv

    monkeypatch.setattr(optimize, "_branch_and_bound", counted)
    out = thunk()
    return (out.verdict, out.enclosure.lo, out.enclosure.hi, out.witness,
            out.converged, out.method), runs


_BNB_CASES = list(_bnb_cases())


@pytest.mark.parametrize("name,thunk", _BNB_CASES,
                         ids=[name for name, _ in _BNB_CASES])
def test_branch_and_bound_matches_fraction_oracle(monkeypatch, name, thunk):
    """The integer branch and bound gives the `Fraction` one's enclosure,
    witness and `converged`, after the same number of objective calls."""
    integer = optimize._branch_and_bound
    got = _searched(monkeypatch, integer, thunk)
    want = _searched(monkeypatch, branch_and_bound_ref, thunk)
    assert got == want and got[1]


# -- the integer kernels of the finite torus and the open ball -------------


def _lrr_of_char(*factors):
    """The recurrence whose characteristic polynomial is the product of
    the monic `factors` (coefficients lowest degree first)."""
    from robustlrs.poly import pmul
    char = (Q(1),)
    for f in factors:
        char = pmul(char, tuple(Q(c) for c in f))
    return Lrr(tuple(-c for c in char[:-1]))


# every dominant root is rho times a root of unity: 2 zeta_n for n = 1, 4,
# 6; 3/2 zeta_n for n = 2, 3; zeta_8 (quartic fields); zeta_n for n = 1, 6
# with multiplicity 2
_CYCLO_LRRS = {
    "rho=2": _lrr_of_char((-2, 1), (4, 0, 1), (4, -2, 1)),
    "rho=3/2": _lrr_of_char((Q(3, 2), 1), (Q(9, 4), Q(3, 2), 1)),
    "zeta8": _lrr_of_char((-1, 1), (1, 0, 0, 0, 1)),
    "p=1/2": hard_lrr(Q(1, 2)),
}


def _random_turns(rng, k, ns):
    """k turns whose denominators keep N = lcm(ns, denominators) <= 60."""
    while True:
        turns = [Q(rng.randrange(d), d)
                 for d in (rng.randint(1, 60) for _ in range(k))]
        if math.lcm(*ns, *(t.denominator for t in turns)) <= 60:
            return turns


def _cyclo_cases(name):
    """(terms, rho, turns) triples: random non-dyadic starts with zero
    and negative entries and the all-zero start, at the torus's own coset
    turns and at random ones; the terms twice over at turns t and t + 1/2
    (an exact zero); and conjugate roots swapped (no generator)."""
    lrr = _CYCLO_LRRS[name]
    k = lrr.order
    rng = random.Random(name)
    starts = [cfg(*[Q(rng.randint(-9, 9), rng.choice((1, 3, 5, 7)))
                    for _ in range(k)]) for _ in range(3)]
    starts += [cfg(*[0] * k), cfg(*[int(j == 1) for j in range(k)])]
    for c in starts:
        form, _ = normalize(lrr, c)
        torus = parametrize(relation_lattice([s for _, s in form.terms]))
        ns = [optimize.identify_root_of_unity(s)[1] for _, s in form.terms]
        turn_sets = list(torus.coset_turns)
        turn_sets += [_random_turns(rng, len(form.terms), ns)
                      for _ in range(4)]
        for turns in turn_sets:
            yield form.terms, form.rho, list(turns)
        turns = turn_sets[-1]
        yield form.terms * 2, form.rho, turns + [t + Q(1, 2) for t in turns]
        irr = [j for j, (a, _) in enumerate(form.terms) if not a.is_rational]
        if len(irr) >= 2:
            i, j = irr[:2]
            swapped = list(form.terms)
            swapped[i] = (form.terms[i][0], form.terms[j][1])
            swapped[j] = (form.terms[j][0], form.terms[i][1])
            yield swapped, form.rho, turns


@pytest.mark.parametrize("name", sorted(_CYCLO_LRRS))
def test_cyclo_values_match_fraction_oracle(name):
    """The integer coset values give the endpoints and the zero test of
    the `Fraction` form, found once per form instead of once per coset."""
    from oracles import cyclo_combo_ref
    seen = {"none": 0, "zero": 0, "negative": 0}
    for terms, rho, turns in _cyclo_cases(name):
        got = optimize._CycloForm(terms, rho).value(turns)
        want = cyclo_combo_ref([(a, s, t) for (a, s), t in zip(terms, turns)],
                               rho)
        assert (got is None) == (want is None)
        if got is None:
            seen["none"] += 1
            continue
        for bits in (96, 160, 256, 384):
            g, w = got.ival(bits), want.ival(bits)
            assert (g.lo, g.hi) == (w.lo, w.hi), (turns, bits)
        assert got.is_zero() == want.is_zero()
        seen["zero"] += got.is_zero()
        seen["negative"] += got.ival(96).hi < 0
    assert all(seen.values()), seen


def test_finite_torus_setup_once_per_form(monkeypatch):
    """On the six cosets of the p = 1/2 torus, `mu` identifies each term's
    root of unity and checks its field generator once, not per coset."""
    from robustlrs.algebraic import NumberField
    lrr = hard_lrr(Q(1, 2))
    form, torus = build_torus(lrr, cfg(3, 1, 0, 2, 1, 5))
    assert torus.free_rank == 0 and len(torus.coset_turns) == 6
    irrational = sum(not a.is_rational for a, _ in form.terms)
    assert irrational >= 1
    calls = {"rou": 0, "root_box": 0}
    identify, root_box = optimize.identify_root_of_unity, NumberField.root_box

    def counting_identify(a):
        calls["rou"] += 1
        return identify(a)

    def counting_root_box(self, bits):
        calls["root_box"] += 1
        return root_box(self, bits)

    monkeypatch.setattr(optimize, "identify_root_of_unity", counting_identify)
    monkeypatch.setattr(NumberField, "root_box", counting_root_box)
    for _ in range(2):
        calls.update(rou=0, root_box=0)
        out = mu(form, torus)
        assert out.method == "finite-exact"
        assert calls == {"rou": len(form.terms), "root_box": irrational}


def _ends_to_ivals(part):
    return [Ival(Q(lo, 1 << e), Q(hi, 1 << e)) for lo, hi, e in part]


@pytest.mark.parametrize("bits", (96, 232))
def test_ball_value_matches_fraction_oracle_on_objective(bits):
    """The integer norm term gives the `Fraction` one's endpoints on the
    open-ball objective of p = 3/5, at the boxes and midpoints the branch
    and bound reads."""
    from oracles import ball_value_ref
    forms, torus = _p35_ball_forms()
    alpha_boxes = [[alpha.box(bits) for alpha, _s in form.terms]
                   for form in forms]
    rng = random.Random(bits)
    for coset in range(len(torus.coset_turns)):
        obj = _Objective(alpha_boxes, torus, coset, bits)
        for _ in range(10):
            box = _random_subbox(rng, torus.free_rank,
                                 rng.randint(0, bits + 8))
            for part in obj.ends(box):
                for radius in (Q(1, 20), Q(7, 3), Q(1, 10**6), Q(5)):
                    got = optimize._ball_value(part, bits, radius)
                    want = ball_value_ref(_ends_to_ivals(part), bits, radius)
                    assert (got.lo, got.hi) == (want.lo, want.hi)


@pytest.mark.parametrize("bits", (96, 160, 256, 384))
def test_ball_value_matches_fraction_oracle_on_random_ends(bits):
    """As above on drawn endpoints: gradient entries above, below and
    across 0, points, zeros, perfect and non-perfect squares, and a value
    over 2^bits or over a finer power of two."""
    from oracles import ball_value_ref
    rng = random.Random(bits)
    scale = 1 << bits
    for case in range(300):
        ends = []
        e0 = bits + rng.choice((0, 0, 5, 2 * bits + 9))
        v = rng.randint(-4 << e0, 4 << e0)
        width = rng.randint(0, 1 << (e0 - rng.randint(0, 40)))
        ends.append((v, v + width, e0))
        for _ in range(rng.randint(0, 6)):
            kind = rng.randrange(5)
            a = rng.randint(0, 3 * scale)
            b = a + rng.randint(0, scale >> rng.randint(0, bits))
            if kind == 0:
                ends.append((a, b, bits))
            elif kind == 1:
                ends.append((-b, -a, bits))
            elif kind == 2:
                ends.append((-a, b, bits))
            elif kind == 3:
                ends.append((a, a, bits))
            else:
                r = rng.randint(0, 1 << 40)
                ends.append((r << (bits // 2), r << (bits // 2), bits))
        radius = Q(rng.randint(1, 10**6), rng.randint(1, 10**6))
        got = optimize._ball_value(ends, bits, radius)
        want = ball_value_ref(_ends_to_ivals(ends), bits, radius)
        assert (got.lo, got.hi) == (want.lo, want.hi), (case, ends, radius)
