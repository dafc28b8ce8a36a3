from fractions import Fraction as Q

import itertools

import pytest

from robustlrs import torus
from robustlrs.algebraic import AlgebraicNumber, isolate_roots, power_product_is_one
from robustlrs.torus import (relation_lattice, parametrize, TorusPoint,
                             root_of_unity_alg)

from oracles import orbit_point, point_values, contains_values


def poly(*coeffs):
    return tuple(Q(c) for c in coeffs)


def sixth_roots():
    return [a for a, _ in isolate_roots(poly(1, -1, 1))]  # e^{+-i pi/3}


def pair_3_4_5():
    roots = isolate_roots(poly(5, -6, 5))
    a = next(r for r, _ in roots if r.box(64).im.lo > 0)
    b = next(r for r, _ in roots if r.box(64).im.hi < 0)
    return [a, b]


def test_lattice_minus_one():
    lat = relation_lattice([AlgebraicNumber.from_rational(Q(-1))])
    assert lat.generators == [[2]]
    assert lat.complete


def test_lattice_sixth_root_pair():
    lat = relation_lattice(sixth_roots())
    assert lat.generators == [[1, 1], [0, 6]]
    assert lat.complete


def test_lattice_non_rou_pair():
    lat = relation_lattice(pair_3_4_5())
    assert lat.generators == [[1, 1]]
    assert lat.complete
    # no (m, 0) relation for small m: implied by the basis shape
    for m in range(1, 8):
        assert not power_product_is_one(pair_3_4_5(), [m, 0])


def test_lattice_single_non_rou():
    g = pair_3_4_5()[0]
    lat = relation_lattice([g])
    assert lat.generators == []
    assert lat.complete


def test_lattice_order6_dominants():
    # the hardness family at p=1/2: dominant unit roots {1, e^{i pi/3}, e^{-i pi/3}}
    gammas = [AlgebraicNumber.from_rational(Q(1))] + sixth_roots()
    lat = relation_lattice(gammas)
    assert lat.complete
    assert lat.generators == [[1, 0, 0], [0, 1, 1], [0, 0, 6]]


def test_lattice_mixed_pair_with_one():
    gammas = [AlgebraicNumber.from_rational(Q(1))] + pair_3_4_5()
    lat = relation_lattice(gammas)
    assert lat.complete
    assert lat.generators == [[1, 0, 0], [0, 1, 1]]


def test_lattice_rejects_bad_input():
    phi = next(a for a, _ in isolate_roots(poly(-1, -1, 1))
               if a.box(32).re.lo > 0)
    with pytest.raises(RuntimeError, match="unit-modulus"):
        relation_lattice([phi])
    one = AlgebraicNumber.from_rational(Q(1))
    with pytest.raises(RuntimeError, match="pairwise distinct"):
        relation_lattice([one, one])


def test_lattice_unsound_generator_raises_runtime_error(monkeypatch):
    """A generator that is not a relation is a broken invariant: the final
    exact check raises RuntimeError (an internal error, exit 4), also under
    `python -O`."""
    monkeypatch.setattr(torus, "hnf_rows", lambda rows: [[1, 0]])
    with pytest.raises(RuntimeError, match="unsound relation generated"):
        relation_lattice(pair_3_4_5())


def test_parametrize_pm_one():
    lat = relation_lattice([AlgebraicNumber.from_rational(Q(-1))])
    par = parametrize(lat)
    assert par.free_rank == 0
    assert sorted(t[0] for t in par.coset_turns) == [Q(0), Q(1, 2)]
    vals = sorted(point_values(par, TorusPoint(c, ()))[0].as_rational()
                  for c in range(len(par.coset_turns)))
    assert vals == [Q(-1), Q(1)]


def test_parametrize_free_circle():
    par = parametrize(relation_lattice(pair_3_4_5()))
    assert par.free_rank == 1
    assert len(par.coset_turns) == 1
    # embedding maps the free angle to opposite coordinates
    col = [par.embedding[0][0], par.embedding[1][0]]
    assert sorted(col) == [-1, 1]
    # points satisfy the relation exactly
    pt = TorusPoint(0, (Q(1, 3),))
    vals = point_values(par, pt)
    assert power_product_is_one(list(vals), [1, 1])
    assert contains_values(par, vals)


def test_parametrize_six_cosets():
    par = parametrize(relation_lattice(sixth_roots()))
    assert par.free_rank == 0
    assert len(par.coset_turns) == 6
    for c in range(6):
        coset = point_values(par, TorusPoint(c, ()))
        assert power_product_is_one(list(coset), [1, 1])
        # conjugate-paired coordinates
        prod = coset[0].box(96) * coset[1].box(96)
        assert prod.re.contains(Q(1)) and prod.im.contains(Q(0))


def test_orbit_points_satisfy_relations():
    gammas = pair_3_4_5()
    lat = relation_lattice(gammas)
    for n in (0, 1, 2, 7, 50, 100):
        pt = orbit_point(gammas, n)
        for gen in lat.generators:
            assert power_product_is_one(list(pt), list(gen))


def test_orbit_point_exact_square():
    gammas = pair_3_4_5()
    pt = orbit_point(gammas, 2)
    b = pt[0].box(96)
    assert b.contains(Q(-7, 25), Q(24, 25))


def test_orbit_point_n0():
    pt = orbit_point(pair_3_4_5(), 0)
    assert all(v.is_rational and v.as_rational() == 1 for v in pt)


def test_root_of_unity_alg():
    z = root_of_unity_alg(1, 6)
    b = z.box(96)
    assert b.re.contains(Q(1, 2))
    assert b.im.lo > 0
    assert root_of_unity_alg(3, 6).as_rational() == -1
    assert root_of_unity_alg(0, 5).as_rational() == 1
    z5 = root_of_unity_alg(2, 5)
    assert power_product_is_one([z5], [5])
    assert not power_product_is_one([z5], [3])


def test_decisions_build_no_coset_values(monkeypatch):
    """The torus holds its cosets as turns: building the analysis and
    minimizing over a finite torus of six cosets computes no algebraic
    root of unity."""
    from robustlrs.decide import Analysis
    from robustlrs.hardness import build_hardness_lrr
    from robustlrs.lrs import InitialConfig
    from robustlrs.optimize import mu, nu

    def refuse(k, n):
        raise AssertionError(f"root of unity {k}/{n} built")

    monkeypatch.setattr(torus, "root_of_unity_alg", refuse)
    init = InitialConfig((Q(1),) + (Q(0),) * 5)
    a = Analysis.build(build_hardness_lrr(Q(1, 2)), init)
    assert a.torus.free_rank == 0 and len(a.torus.coset_turns) == 6
    assert mu(a.form, a.torus).method == "finite-exact"
    assert nu(a.form, a.torus).method == "finite-exact"


def test_lattice_tests_each_inverse_pair_once(monkeypatch):
    """Two irrational unit roots of x^2 - x + 4: the inverse-pair pass
    tests (1, 1), and neither the completeness case nor the relation search
    tests it again."""
    from robustlrs.lrs import Lrr, InitialConfig, normalize
    form, _ = normalize(Lrr((Q(-4), Q(1))), InitialConfig((Q(1), Q(1))))
    gammas = [g for _, g in form.terms]
    assert len(gammas) == 2
    tested = []
    real = torus.power_product_is_one
    monkeypatch.setattr(torus, "power_product_is_one",
                        lambda g, e: tested.append(tuple(e)) or real(g, e))
    relation_lattice(gammas)
    assert tested.count((1, 1)) + tested.count((-1, -1)) == 1


def _x2_x_4_pair():
    from robustlrs.lrs import Lrr, InitialConfig, normalize
    form, _ = normalize(Lrr((Q(-4), Q(1))), InitialConfig((Q(1), Q(1))))
    return [g for _, g in form.terms]


def _i_minus_one_zeta6():
    i = next(a for a, _ in isolate_roots(poly(1, 0, 1)) if a.box(64).im.lo > 0)
    zeta6 = next(a for a in sixth_roots() if a.box(64).im.lo > 0)
    return [i, AlgebraicNumber.from_rational(Q(-1)), zeta6]


def _double_angle():
    """gamma_1 = (3 + 4i)/5, its conjugate, and gamma_2 = gamma_1^2."""
    a, b = pair_3_4_5()
    return [a, b, AlgebraicNumber.from_element(a.elem.pow(2))]


@pytest.mark.parametrize("make", [
    _i_minus_one_zeta6,
    lambda: pair_3_4_5() + [AlgebraicNumber.from_rational(Q(-1))],
    _double_angle,
], ids=["i,-1,zeta6", "unit pair of x^2-6/5x+1, -1", "double angle"])
def test_product_screen_passes_every_true_relation(make):
    """Every candidate of the net [-3, 3]^k that `power_product_is_one`
    accepts passes the integer box screen, and on these gammas the screen
    turns away every other one."""
    gammas = make()
    may_be_one = torus._product_screen(
        [g.box(torus._SEARCH_BITS) for g in gammas], torus._SEARCH_BITS)
    true = false_passed = 0
    for cand in itertools.product(range(-3, 4), repeat=len(gammas)):
        if not any(cand):
            continue
        if power_product_is_one(gammas, list(cand)):
            true += 1
            assert may_be_one(cand), cand
        else:
            false_passed += may_be_one(cand)
    assert true >= 2
    assert false_passed == 0


def test_search_adds_the_double_angle_relation(monkeypatch):
    """The normalized dominant roots of the double-angle recurrence (coeffs
    -1, 16/25, -166/125, 16/25 from 1, 0, 0, 1) are gamma_1, gamma_2 =
    gamma_1^2 and their conjugates.  The inverse pairs give two relations;
    the search adds the third, which ties gamma_2 to gamma_1, and the
    lattice stays flagged incomplete."""
    from robustlrs.lrs import Lrr, InitialConfig, normalize
    form, _ = normalize(Lrr((Q(-1), Q(16, 25), Q(-166, 125), Q(16, 25))),
                        InitialConfig((Q(1), Q(0), Q(0), Q(1))))
    gammas = [g for _, g in form.terms]
    found = []
    real = torus._search_relations
    monkeypatch.setattr(torus, "_search_relations",
                        lambda *args: found.append(real(*args)) or found[-1])
    lat = relation_lattice(gammas)
    assert len(found) == 1 and found[0]
    assert all(power_product_is_one(gammas, rel) for rel in found[0])
    assert lat.generators == [[1, 1, 0, 0], [0, 2, 0, -1], [0, 0, 1, 1]]
    assert not lat.complete


def test_search_runs_the_exact_test_only_past_the_screen(monkeypatch):
    """On the normalized roots of x^2 - x + 4, with (1, 1) already tested,
    the search calls `power_product_is_one` twice, on (-3, -3) and
    (-2, -2), whose boxes hold 1 (the pair is conjugate; the exact test
    rejects them through the conjugate mapping of ROADMAP item 1).  With
    every candidate tested exactly it made 23 calls."""
    gammas = _x2_x_4_pair()
    tested = []
    real = torus.power_product_is_one
    monkeypatch.setattr(torus, "power_product_is_one",
                        lambda g, e: tested.append(tuple(e)) or real(g, e))
    assert torus._search_relations(gammas, [[1, 1]], 64) == []
    assert tested == [(-3, -3), (-2, -2)]
