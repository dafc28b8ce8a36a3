"""Exact outputs of the certified optimizer, pinned byte for byte.

`optimize_golden.json` holds the `SignOutcome`s these calls returned
before the branch and bound was changed to evaluate each box once (one
cos/sin pass over its angles, one over its midpoint).  The optimizer is
exact `Fraction` interval arithmetic with a fixed sequence of operations,
so a refactor that performs the same operations on the same values must
reproduce every enclosure endpoint, witness angle, tolerance, method and
convergence flag exactly.  The finite-torus `mu` cases at p = 1/2 were
recorded before root-of-unity enclosures were read from a table.

The two-pair nu case calls `optimize._minimize` (one pass, no
escalation): nu on two independent unit-modulus pairs has an exact zero,
so the public `nu` escalates until it reaches the box cap, which takes
minutes.  The rho = 2 nu case runs the public `nu` through its whole
escalation, 17 passes from tol 2^-40 to 2^-200, on a torus with two free
angles (the relation lattice of its conjugate pair is incomplete); it was
recorded before the optimizer's products and Taylor series moved to
integers.

The pair cases run the closed form of one free conjugate pair: beside the
torsion root -1 it takes the least of two cosets, and beside the root 1
one start puts S + 2|w| below zero, so the least |value| is -(S + 2|w|).
"""

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs.decide import Analysis, robust_nonuniform_ultpos_open_ball
from robustlrs.lrs import Ball, InitialConfig, Lrr, normalize, spectral
from robustlrs.optimize import (DominantFamily, _minimize, min_over_ball, mu,
                                nu)
from robustlrs.poly import pmul
from robustlrs.torus import parametrize, relation_lattice

GOLDEN = json.loads((Path(__file__).with_name("optimize_golden.json"))
                    .read_text(encoding="utf-8"))

FIB = Lrr((Q(1), Q(1)))
# (x^2 - 6/5 x + 1)(x^2 - 10/13 x + 1): two pairs at independent angles,
# so the torus has two free angles and the optimizer branches and bounds
TWO_PAIR = Lrr(tuple(-c for c in pmul((Q(1), Q(-6, 5), Q(1)),
                                      (Q(1), Q(-10, 13), Q(1)))[:4]))
# (x - 1)^2 (x^2 - 6/5 x + 1)^2, the order-6 family at p = 3/5
P35 = Lrr((Q(-1), Q(22, 5), Q(-231, 25), Q(292, 25), Q(-231, 25),
           Q(22, 5)))
TWO_PAIR_TOL = Q(1, 4)
# (x - 1)^2 (x^2 - x + 1)^2, the order-6 family at p = 1/2: the dominant
# unit roots are sixth roots of unity, so the torus is finite (six cosets)
P12 = Lrr((Q(-1), Q(4), Q(-8), Q(10), Q(-8), Q(4)))
RHO2 = Lrr((Q(-4), Q(-1, 2)))
# (x + 1)(x^2 - 6/5 x + 1) and (x - 1)(x^2 - 6/5 x + 1)
PAIR_M1 = Lrr((Q(-1), Q(1, 5), Q(1, 5)))
PAIR_P1 = Lrr((Q(1), Q(-11, 5), Q(11, 5)))


def cfg(*vals):
    return InitialConfig(tuple(Q(v) for v in vals))


def _outcome(out):
    return {"verdict": out.verdict,
            "enclosure": [str(out.enclosure.lo), str(out.enclosure.hi)],
            "witness": None if out.witness is None else
            [out.witness.coset, [str(a) for a in out.witness.angles]],
            "tol": str(out.tol), "method": out.method,
            "converged": out.converged}


def _two_pair(absolute):
    a = Analysis.build(TWO_PAIR, cfg(1, 0, 0, 0))
    if absolute:
        return _minimize([a.form], a.torus, TWO_PAIR_TOL, True)
    return mu(a.form, a.torus, TWO_PAIR_TOL)


def _fib_ball(center, radius):
    spec = spectral(FIB)
    center_form, _ = normalize(FIB, cfg(*center), spec)
    basis = [normalize(FIB, cfg(1, 0), spec)[0],
             normalize(FIB, cfg(0, 1), spec)[0]]
    torus = parametrize(relation_lattice([s for _, s in center_form.terms]))
    return min_over_ball(DominantFamily(center_form, basis), radius, torus)


def _rho2_nu():
    # u_{n+2} = -1/2 u_{n+1} - 4 u_n: a conjugate pair of modulus 2
    a = Analysis.build(RHO2, cfg(Q(-3, 2), Q(-5, 3)))
    return nu(a.form, a.torus)


def _p12_mu(init):
    a = Analysis.build(P12, cfg(*init))
    return mu(a.form, a.torus)


def _pair(lrr, init, absolute):
    a = Analysis.build(lrr, cfg(*init))
    return (nu if absolute else mu)(a.form, a.torus)


def _p35_ball(init):
    d = robust_nonuniform_ultpos_open_ball(P35, Ball(cfg(*init), Q(1, 20)))
    return d.certificate.optimum


def _cases():
    """(key, thunk) pairs; each thunk returns a SignOutcome."""
    yield "mu two-pair 1,0,0,0", lambda: _two_pair(False)
    yield "nu two-pair 1,0,0,0 one pass", lambda: _two_pair(True)
    yield "nu rho=2 -4,-1/2 init -3/2,-5/3 escalated", _rho2_nu
    for center, radius in (((1, 1), Q(1, 10)), ((1, 1), Q(1, 10**6)),
                           ((-1, -1), Q(1, 2))):
        yield (f"min_over_ball fib {center} r={radius}",
               lambda c=center, r=radius: _fib_ball(c, r))
    for init in ((3, 1, 0, 2, 1, 5), (1, 0, 0, 0, 0, 0), (2, 1, 1, 1, 0, 0)):
        yield (f"open ball p=3/5 {init} r=1/20",
               lambda i=init: _p35_ball(i))
    for init in ((3, 1, 0, 2, 1, 5), (5, -3, 2, 0, 1, -1), (0, 1, 0, 0, 0, 0)):
        yield f"mu p=1/2 {init} finite", lambda i=init: _p12_mu(i)
    for root, lrr, init in ((-1, PAIR_M1, (4, "-12/5", "68/25")),
                            (-1, PAIR_M1, (1, 0, 0)),
                            (1, PAIR_P1, (-2, "-12/5", "-68/25"))):
        start = ",".join(map(str, init))
        for absolute in (False, True):
            name = "nu" if absolute else "mu"
            yield (f"{name} pair beside {root} init {start}",
                   lambda a=(lrr, init, absolute): _pair(*a))


@pytest.mark.parametrize("key,thunk", list(_cases()),
                         ids=[k for k, _ in _cases()])
def test_golden_outcome(key, thunk):
    assert _outcome(thunk()) == GOLDEN[key]
