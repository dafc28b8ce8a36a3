"""The four robustness decision procedures, with machine-checkable
certificates.

Each start is analysed once (`Analysis`: spectral data, exp-poly
solution, normal form, relation lattice) and every procedure runs the
same two stages on it.  The optimum stage reads the minimum of the
dominant form over the closure torus (over ball x torus for a given open
ball): it gives NO, YES or UNKNOWN from the optimizer's verdict alone.
When the lattice is incomplete the torus is a superset and the minimum a
lower bound, so a NO degrades to UNKNOWN rather than risk an unsound
certificate.  For positivity and Skolem a positive minimum goes on to the
tail stage: a certified residual threshold, the prefix cap, and an exact
scan of the finite prefix.

The float-screen sampling oracle that cross-checks these verdicts is not
part of the package; it lives with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qmath import Q, ZERO, ONE
from .lrs import (Lrr, InitialConfig, Ball, spectral, exp_poly_solutions,
                  normalize, residual_threshold, term_sign, scaled_term,
                  exact_zeros_up_to, OrbitScanner, DominantForm,
                  ResidualEvaluator, _scaled_integer_recurrence,
                  _scaled_terms, EXACT_TERMS)
from .torus import (DEFAULT_HEIGHT_BOUND, relation_lattice, parametrize,
                    TorusParam)
from .optimize import (mu, nu, min_over_ball, DominantFamily, SignOutcome,
                       DEFAULT_TOL)

DEFAULT_PREFIX_CAP = 10**6


@dataclass
class Certificate:
    kind: str                       # violation | tail | optimum | cap | lattice
    violating_index: Optional[int] = None
    violating_value: Optional[Fraction] = None
    optimum: Optional[SignOutcome] = None
    threshold: Optional[int] = None
    # least prefix value: min u_n over n <= threshold when the prefix is
    # evaluated exactly (threshold <= EXACT_TERMS); past that, the least
    # certified lower bound of v_n = u_n/(n^m rho^n) from the orbit scan,
    # or 0 once a term had to be confirmed positive by an exact sign test
    prefix_margin: Optional[Fraction] = None
    witness_radius: Optional[Fraction] = None
    reason: Optional[str] = None


@dataclass
class Decision:
    verdict: str                    # YES | NO | UNKNOWN
    certificate: Certificate

    def __post_init__(self):
        # checked under `python -O` too; RuntimeError, not a usage error
        if self.verdict in ("YES", "NO"):
            allowed = ("violation", "tail", "optimum")
        else:
            allowed = ("cap", "lattice", "optimum")
        if self.certificate.kind not in allowed:
            raise RuntimeError(f"{self.verdict} decision with a "
                               f"{self.certificate.kind!r} certificate")


@dataclass
class Analysis:
    """Shared pipeline data for one (lrr, c)."""

    lrr: Lrr
    c: InitialConfig
    spec: object
    form: DominantForm
    res: ResidualEvaluator
    torus: TorusParam

    @staticmethod
    def build(lrr: Lrr, c: InitialConfig,
              height_bound: int = DEFAULT_HEIGHT_BOUND) -> "Analysis":
        spec = spectral(lrr)
        form, res = normalize(lrr, c, spec)
        lat = relation_lattice([s for _, s in form.terms], height_bound)
        return Analysis(lrr=lrr, c=c, spec=spec, form=form, res=res,
                        torus=parametrize(lat))


def _optimum_stage(out: SignOutcome, no: tuple[str, ...], reason: str,
                   yes: tuple[str, ...] = ("POSITIVE",),
                   witness_radius: Fraction | None = None) -> Decision:
    """NO when the optimizer's verdict is in `no` (UNKNOWN on an
    incomplete lattice, where the minimum is merely a lower bound), YES
    on the optimum when it is in `yes`, UNKNOWN for `reason` otherwise."""
    if out.verdict in no:
        if not out.lattice_complete:
            return Decision("UNKNOWN", Certificate(
                kind="lattice", optimum=None,
                reason="relation lattice incomplete: minimum is a lower bound"))
        return Decision("NO", Certificate(kind="optimum", optimum=out))
    if out.verdict in yes:
        return Decision("YES", Certificate(kind="optimum", optimum=out,
                                           witness_radius=witness_radius))
    return Decision("UNKNOWN", Certificate(kind="optimum", optimum=out,
                                           reason=reason))


def _tail_stage(a: Analysis, out: SignOutcome, prefix_cap: int,
                skolem: bool) -> Decision:
    """A positive dominant minimum: certified residual threshold, prefix
    cap, then the exact prefix (the first zero for Skolem, the first
    nonpositive term for positivity)."""
    n_thr = residual_threshold(a.res, out.enclosure.lo / 2)
    if n_thr > prefix_cap:
        return Decision("UNKNOWN", Certificate(
            kind="cap", threshold=n_thr, optimum=out,
            reason=f"residual threshold {n_thr} exceeds prefix cap {prefix_cap}"))
    if skolem:
        zeros = exact_zeros_up_to(a.lrr, a.c, n_thr)
        viol, value, margin = (zeros[0], ZERO, None) if zeros else (None,) * 3
    else:
        viol, value, margin = _prefix_scan(a.lrr, a.c, n_thr, (a.form, a.res))
    if viol is not None:
        return Decision("NO", Certificate(kind="violation",
                                          violating_index=viol,
                                          violating_value=value))
    return Decision("YES", Certificate(kind="tail", optimum=out,
                                       threshold=n_thr,
                                       prefix_margin=margin))


def exists_robust_ultimate_positivity(lrr: Lrr, c: InitialConfig,
                                      tol: Fraction = DEFAULT_TOL,
                                      analysis: Analysis | None = None) -> Decision:
    """YES iff the dominant minimum is strictly positive."""
    a = analysis or Analysis.build(lrr, c)
    return _optimum_stage(mu(a.form, a.torus, tol), ("NEGATIVE", "ZERO"),
                          "optimizer tolerance exhausted without a sign")


def robust_nonuniform_ultpos_open_ball(lrr: Lrr, ball: Ball,
                                       tol: Fraction = DEFAULT_TOL,
                                       analysis: Analysis | None = None
                                       ) -> Decision:
    """Open-ball non-uniform ultimate positivity: ball inside the dominant
    nonnegativity set iff the closed-ball minimum is >= 0.  `analysis` is
    that of the centre; the unit starts' forms come from one solve."""
    if ball.topology == "closed":
        raise ValueError("closed given balls are out of scope "
                         "(Diophantine-hard); only open balls are decided")
    a = analysis or Analysis.build(lrr, ball.center)
    k = lrr.order
    units = [InitialConfig(tuple(ONE if j == i else ZERO for j in range(k)))
             for i in range(k)]
    basis = [normalize(lrr, e, a.spec, sol)[0]
             for e, sol in zip(units, exp_poly_solutions(lrr, units, a.spec))]
    out = min_over_ball(DominantFamily(center=a.form, basis=basis),
                        ball.radius, a.torus, tol)
    # closed-ball min >= 0 certifies the open ball is inside P_dom
    return _optimum_stage(out, ("NEGATIVE",),
                          "ball minimum straddles zero at tolerance",
                          yes=("POSITIVE", "ZERO"),
                          witness_radius=ball.radius)


def _prefix_scan(lrr: Lrr, c: InitialConfig, n_thr: int, normal):
    """Scan u_0..u_{n_thr} for a term u_n <= 0: returns (violation_n,
    value, margin); `normal` is the (form, residual) pair of the start.

    Up to EXACT_TERMS terms the scan runs on the scaled integer recurrence
    w_n = E * D^n * u_n, which has the signs of u_n.  The running minimum
    is kept as best = w_m * D^(n-m), so that comparing it with w_n compares
    u_m with u_n; it becomes a `Fraction` once, at the end.  Past that the
    certified orbit scan runs: an enclosure below zero is a violation, and
    only an enclosure holding 0 needs an exact sign test."""
    if n_thr <= EXACT_TERMS:
        coeffs, init, D, E = _scaled_integer_recurrence(lrr, c)
        best = None
        terms = itertools.islice(_scaled_terms(coeffs, init), n_thr + 1)
        for n, w in enumerate(terms):
            if w <= 0:
                return n, Q(w, E * D**n), None
            best = w if best is None else min(best * D, w)
        return None, None, None if best is None else Q(best, E * D**n_thr)
    v0 = c.entries[0]
    if v0 <= 0:
        return 0, v0, None
    # the least lower bound is kept as an integer pair (numerator, denominator)
    low = None
    sc = OrbitScanner(lrr, c, 192, normal)
    for n in range(1, n_thr + 1):
        sc.step()
        lo, hi, den = sc.enclosure()
        if lo > 0:
            if low is None or lo * low[1] < low[0] * den:
                low = (lo, den)
            continue
        if hi < 0 or term_sign(lrr, c, n) <= 0:
            val = Q(*scaled_term(lrr, c, n)) if n <= EXACT_TERMS else None
            return n, val, None
        # u_n > 0 exactly, but no positive lower bound of v_n is certified
        low = (0, 1)
    return None, None, None if low is None else Q(*low)


def exists_robust_positivity(lrr: Lrr, c: InitialConfig,
                             prefix_cap: int = DEFAULT_PREFIX_CAP,
                             tol: Fraction = DEFAULT_TOL,
                             analysis: Analysis | None = None) -> Decision:
    """Dominant minimum positive + exact strictly-positive prefix."""
    a = analysis or Analysis.build(lrr, c)
    out = mu(a.form, a.torus, tol)
    if out.verdict != "POSITIVE":
        return _optimum_stage(out, ("NEGATIVE", "ZERO"),
                              "dominant minimum sign unresolved")
    return _tail_stage(a, out, prefix_cap, skolem=False)


def exists_robust_skolem(lrr: Lrr, c: InitialConfig,
                         prefix_cap: int = DEFAULT_PREFIX_CAP,
                         tol: Fraction = DEFAULT_TOL,
                         analysis: Analysis | None = None) -> Decision:
    """Nonzero dominant minimum in absolute value + zero-free exact prefix."""
    a = analysis or Analysis.build(lrr, c)
    out = nu(a.form, a.torus, tol)
    if out.verdict != "POSITIVE":
        return _optimum_stage(out, ("ZERO",),
                              "absolute dominant minimum unresolved")
    return _tail_stage(a, out, prefix_cap, skolem=True)
