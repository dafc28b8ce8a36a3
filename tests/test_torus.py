from fractions import Fraction as Q

import pytest

from robustlrs.poly import PolyRat
from robustlrs.algebraic import AlgebraicNumber, isolate_roots, power_product_is_one
from robustlrs.torus import (relation_lattice, parametrize, TorusPoint,
                             root_of_unity_alg)

from oracles import orbit_point


def poly(*coeffs):
    return PolyRat(tuple(Q(c) for c in coeffs))


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
    with pytest.raises(ValueError):
        relation_lattice([phi])
    one = AlgebraicNumber.from_rational(Q(1))
    with pytest.raises(ValueError):
        relation_lattice([one, one])


def test_parametrize_pm_one():
    lat = relation_lattice([AlgebraicNumber.from_rational(Q(-1))])
    par = parametrize(lat)
    assert par.free_rank == 0
    vals = sorted(v[0].as_rational() for v in par.finite_part)
    assert vals == [Q(-1), Q(1)]


def test_parametrize_free_circle():
    par = parametrize(relation_lattice(pair_3_4_5()))
    assert par.free_rank == 1
    assert len(par.finite_part) == 1
    # embedding maps the free angle to opposite coordinates
    col = [par.embedding[0][0], par.embedding[1][0]]
    assert sorted(col) == [-1, 1]
    # points satisfy the relation exactly
    pt = TorusPoint(0, (Q(1, 3),))
    vals = par.point_values(pt)
    assert power_product_is_one(list(vals), [1, 1])
    assert par.contains_values(vals)


def test_parametrize_six_cosets():
    par = parametrize(relation_lattice(sixth_roots()))
    assert par.free_rank == 0
    assert len(par.finite_part) == 6
    for coset in par.finite_part:
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
