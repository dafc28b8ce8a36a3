import random
from fractions import Fraction as Q

import pytest

from robustlrs.interval import Box, Ival
from robustlrs.lrs import Lrr, InitialConfig, normalize, spectral
from robustlrs.torus import relation_lattice, parametrize, TorusPoint
from robustlrs.optimize import (mu, nu, min_over_ball,
                                DominantFamily, DEFAULT_TOL, _Objective,
                                _on_grid)
from robustlrs.trig import cos_turn, pi_ival, sin_turn, unit_box

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
    spec = spectral(lrr)
    form, res = normalize(lrr, c, spec)
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
    vals = torus.point_values(out.witness)
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


def test_mu_finite_torus_six_cosets():
    # p = 1/2 member of the family: roots of unity, finite torus
    lrr = hard_lrr(Q(1, 2))
    c = cfg(1, 0, 0, 0, 0, 0)
    form, torus = build_torus(lrr, c)
    assert torus.free_rank == 0
    assert len(torus.finite_part) == 6
    out = mu(form, torus)
    assert out.verdict in ("POSITIVE", "NEGATIVE", "ZERO")
    # orbit values v_n^dom must never dip below the certified minimum
    from robustlrs.lrs import OrbitScanner
    sc = OrbitScanner(lrr, c, bits=128)
    for _ in range(500):
        sc.step()
        vd = sc.v_dom_box().re
        assert vd.hi >= out.enclosure.lo - Q(1, 10**9)


def test_min_over_ball_fibonacci():
    spec = spectral(FIB)
    center_form, _ = normalize(FIB, cfg(1, 1), spec)
    basis = [normalize(FIB, cfg(1, 0), spec)[0], normalize(FIB, cfg(0, 1), spec)[0]]
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
    spec = spectral(ALT)
    center_form, _ = normalize(ALT, cfg(1), spec)
    basis = [normalize(ALT, cfg(1), spec)[0]]
    lat = relation_lattice([s for _, s in center_form.terms])
    torus = parametrize(lat)
    fam = DominantFamily(center=center_form, basis=basis)
    out = min_over_ball(fam, Q(1, 2), torus)
    assert out.verdict == "NEGATIVE"


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
    from robustlrs.optimize import _coset_exact_value
    lrr = hard_lrr(Q(1, 2))
    c = cfg(1, 0, 0, 0, 0, 0)
    spec = spectral(lrr)
    form, res = normalize(lrr, c, spec)
    torus = parametrize(relation_lattice([s for _, s in form.terms]))
    assert len(torus.finite_part) == 6
    coset_vals = sorted(
        _coset_exact_value(form, torus, i).ival_width(Q(1, 10**15)).mid
        for i in range(6))
    terms = eval_terms(lrr, c, 6)
    orbit_vals = []
    for n in range(1, 7):
        vres = res(n, 220)
        v_dom = Q(terms[n], n) - vres.mid
        orbit_vals.append(v_dom)
    for a, b in zip(coset_vals, sorted(orbit_vals)):
        assert abs(a - b) < Q(1, 10**12)


def test_degenerate_all_ones_start():
    """u_n = 1 identically: every dominant coefficient vanishes, the
    dominant minimum is exactly zero, and both robustness questions
    answer NO (perturbations break constancy)."""
    from robustlrs.decide import (exists_robust_ultimate_positivity,
                                  exists_robust_skolem)
    lrr = hard_lrr(Q(1, 2))
    c = cfg(1, 1, 1, 1, 1, 1)
    from robustlrs.lrs import eval_terms
    assert eval_terms(lrr, c, 10) == [Q(1)] * 11
    d_ult = exists_robust_ultimate_positivity(lrr, c)
    assert d_ult.verdict == "NO"
    assert d_ult.certificate.optimum.verdict == "ZERO"
    d_sko = exists_robust_skolem(lrr, c)
    assert d_sko.verdict == "NO"
    assert d_sko.certificate.optimum.verdict == "ZERO"


class _FractionObjective:
    """The branch-and-bound objective on `Fraction` boxes, as it was before
    its products and sums moved to integers: the reference oracle of
    `optimize._Objective`."""

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
            zbs.append(Box(cos_turn(t, self.bits), sin_turn(t, self.bits)))
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
    """A box the branch and bound can reach: `depth` random halvings of
    [0, 1]^free."""
    box = [Ival(Q(0), Q(1))] * free
    for _ in range(depth):
        dim = rng.randrange(free)
        lo, hi, mid = box[dim].lo, box[dim].hi, box[dim].mid
        box = box[:dim] + [Ival(lo, mid) if rng.random() < 0.5
                           else Ival(mid, hi)] + box[dim + 1:]
    return box


def _two_pair_forms():
    from robustlrs.poly import pmul
    lrr = Lrr(tuple(-c for c in pmul((Q(1), Q(-6, 5), Q(1)),
                                     (Q(1), Q(-10, 13), Q(1)))[:4]))
    form, torus = build_torus(lrr, cfg(1, 0, 0, 0))
    return [form], torus


def _rho2_forms():
    form, torus = build_torus(Lrr((Q(-4), Q(-1, 2))), cfg(Q(-3, 2), Q(-5, 3)))
    return [form], torus


def _p35_ball_forms():
    """The center and basis forms of the open-ball objective at p = 3/5."""
    lrr = hard_lrr(P35)
    spec = spectral(lrr)
    center, _ = normalize(lrr, cfg(3, 1, 0, 2, 1, 5), spec)
    basis = [normalize(lrr, cfg(*(int(i == j) for j in range(6))), spec)[0]
             for i in range(6)]
    torus = parametrize(relation_lattice([s for _, s in center.terms]))
    return [center] + basis, torus


@pytest.mark.parametrize("make,bits_list", [
    (_two_pair_forms, (96,)),
    (_rho2_forms, (96, 232)),
    (_p35_ball_forms, (96,)),
], ids=["two-pair", "rho2", "p35-ball"])
def test_objective_matches_fraction_oracle(make, bits_list):
    """The integer objective gives the oracle's enclosures, endpoint for
    endpoint, on random boxes the branch and bound can reach."""
    forms, torus = make()
    assert torus.free_rank >= 1
    rng = random.Random(3)
    for bits in bits_list:
        for coset in range(len(torus.finite_part)):
            obj = _Objective(forms, torus, coset, bits)
            ref = _FractionObjective(forms, torus, coset, bits)
            for _ in range(12):
                sbox = _random_subbox(rng, torus.free_rank,
                                      rng.randint(0, bits + 8))
                got, want = obj.evaluate(sbox), ref.evaluate(sbox)
                assert [[(v.lo, v.hi) for v in part] for part in got] == \
                    [[(v.lo, v.hi) for v in part] for part in want], sbox


def test_on_grid_rejects_off_grid_endpoints():
    """The objective maps dyadic endpoints to integers on the 2^-bits grid;
    an endpoint off that grid raises rather than being truncated."""
    assert _on_grid(Q(3, 8), 4) == 6
    assert _on_grid(Q(-5), 3) == -40
    assert _on_grid(Q(1, 1 << 64), 64) == 1
    for x, bits in ((Q(1, 3), 64), (Q(1, 1 << 65), 64), (Q(5, 12), 100)):
        with pytest.raises(RuntimeError, match="grid"):
            _on_grid(x, bits)
