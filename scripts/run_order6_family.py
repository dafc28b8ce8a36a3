#!/usr/bin/env python3
"""End-to-end walk through the order-6 construction.

Builds the relation at p = 1/2 (rational angle: finite torus with six
cosets) and at p = 3/5 (irrational angle: one free torus circle), prints
the spectral data, the dominant minimum for a few starts, and the tangent
ball gadget checks.
"""

import sys
from fractions import Fraction as Q
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustlrs.lrs import InitialConfig, spectral, normalize
from robustlrs.torus import relation_lattice, parametrize
from robustlrs.optimize import mu, nu
from robustlrs.decide import (exists_robust_ultimate_positivity,
                              exists_robust_positivity, Analysis)
from robustlrs.hardness import (build_hardness_lrr, ball_gadget,
                                compute_params, config_from_coeffs,
                                CoefficientBasisPoint)
from robustlrs.serialize import decimal_str


def show(label, value):
    print(f"  {label:<34} {value}")


def main():
    print("== p = 1/2 (family member with a rational angle)")
    lrr = build_hardness_lrr(Q(1, 2))
    show("coefficients", [str(a) for a in lrr.coeffs])
    spec = spectral(lrr)
    show("dominant modulus rho", spec.rho.as_rational())
    show("max multiplicity - 1 (m)", spec.m)
    show("dominant roots", len(spec.dominant_indices))
    c = InitialConfig((Q(1), Q(0), Q(0), Q(0), Q(0), Q(0)))
    form, _ = normalize(lrr, c, spec)
    torus = parametrize(relation_lattice([s for _, s in form.terms]))
    show("torus", f"free rank {torus.free_rank}, "
         f"{len(torus.finite_part)} cosets")
    out = mu(form, torus)
    show("mu(c)", f"{out.verdict} in [{decimal_str(out.enclosure.lo, 12)}, "
         f"{decimal_str(out.enclosure.hi, 12)}]")

    print("\n== p = 3/5 (irrational angle, one free circle)")
    p, q = Q(3, 5), Q(4, 5)
    lrr = build_hardness_lrr(p, q)
    show("coefficients", [str(a) for a in lrr.coeffs])
    for zxy, label in [((Q(3), Q(1), Q(0)), "interior point"),
                       ((Q(2), Q(2), Q(0)), "cone surface point"),
                       ((Q(1), Q(2), Q(0)), "exterior point")]:
        c = config_from_coeffs(p, q, CoefficientBasisPoint(
            zxy[0], zxy[1], zxy[2], Q(0), Q(0), Q(0)))
        analysis = Analysis.build(lrr, c)
        m = mu(analysis.form, analysis.torus)
        d = exists_robust_ultimate_positivity(lrr, c, analysis=analysis)
        show(f"mu at {label} (z,x,y)={tuple(map(str, zxy))}",
             f"{m.verdict}; exists-robust-ultpos: {d.verdict}")

    print("\n== tangent ball gadget (ell = 1/pi, eps = 1/20)")
    params = compute_params(Q(1), Q(1, 20), p, q)
    show("psi / n1 / n2", f"{params.psi} / {params.n1} / {params.n2}")
    rep = ball_gadget(params, samples=300, seed=0)
    show("d on sphere & cone surface", f"{rep.d_on_sphere} & {rep.d_margin_zero}")
    show("sampled ball points interior", rep.all_samples_interior)


if __name__ == "__main__":
    main()
