"""The four robustness decision procedures, with machine-checkable
certificates.

The analysis splits as the paper's objects do.  The closure torus and
the dominant ratios depend on the recurrence alone, and the start enters
only through the linear coefficients alpha(c).  So the recurrence half
(`lrs.trace_system`: factors, roots, the trace-form matrix and its
inverse; `lrs.recurrence`: spectral data, each root's ratio to rho, the
unit starts' dominant forms; and `closure_torus`: the relation lattice
and its parametrization at one height bound) is found once per
recurrence and shared by every start and question, and only the start
half (exp-poly solution and normal form) runs per start.
`Analysis` holds both halves for one start, and each procedure takes that
`Analysis` (of the ball's centre, for a given ball) and runs the same
two stages on it.  The optimum stage reads the minimum of the dominant
form over the closure torus (over ball x torus for a given open ball):
it gives NO, YES or UNKNOWN from the optimizer's verdict alone.  When
the lattice is incomplete the torus is a superset and the minimum a
lower bound, so a NO degrades to UNKNOWN rather than risk an unsound
certificate.  For positivity and Skolem a positive minimum goes on to
the tail stage: a certified residual threshold, the prefix cap, and an
exact scan of the finite prefix.  The scans are `lrs`'s:
`exact_zeros_up_to` for Skolem and `prefix_scan` for positivity, which
alone knows how the prefix is evaluated (the scaled integer recurrence,
then the certified orbit scan).

The float-screen sampling oracle that cross-checks these verdicts is not
part of the package; it lives with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .qmath import ZERO
from .lrs import (Lrr, InitialConfig, Ball, Recurrence, recurrence,
                  normalize, residual_threshold, exact_zeros_up_to,
                  prefix_scan, DominantForm, ResidualTerm)
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
    # the prefix margin of `lrs.prefix_scan`: min u_n over n <= threshold
    # for a prefix short enough to evaluate exactly, else the least
    # certified lower bound of v_n = u_n/(n^m rho^n) from the orbit scan
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


@lru_cache(maxsize=256)
def closure_torus(lrr: Lrr, height_bound: int) -> TorusParam:
    """The closure torus of the recurrence's dominant unit roots, from the
    relation lattice searched at `height_bound`; kept for the 256 pairs
    used last, since it depends on no start."""
    return parametrize(relation_lattice(recurrence(lrr).gammas,
                                        height_bound))


@dataclass
class Analysis:
    """Pipeline data for one (lrr, c): the recurrence half `rec` and
    `torus`, shared with every start of the recurrence, and the start's
    own normal form."""

    lrr: Lrr
    c: InitialConfig
    rec: Recurrence
    form: DominantForm
    res: list[ResidualTerm]
    torus: TorusParam

    @staticmethod
    def build(lrr: Lrr, c: InitialConfig,
              height_bound: int = DEFAULT_HEIGHT_BOUND) -> "Analysis":
        form, res = normalize(lrr, c)
        return Analysis(lrr=lrr, c=c, rec=recurrence(lrr), form=form,
                        res=res, torus=closure_torus(lrr, height_bound))


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
        viol, value, margin = prefix_scan(a.lrr, a.c, n_thr, (a.form, a.res))
    if viol is not None:
        return Decision("NO", Certificate(kind="violation",
                                          violating_index=viol,
                                          violating_value=value))
    return Decision("YES", Certificate(kind="tail", optimum=out,
                                       threshold=n_thr,
                                       prefix_margin=margin))


def exists_robust_ultimate_positivity(a: Analysis,
                                      tol: Fraction = DEFAULT_TOL
                                      ) -> Decision:
    """YES iff the dominant minimum is strictly positive."""
    return _optimum_stage(mu(a.form, a.torus, tol), ("NEGATIVE", "ZERO"),
                          "optimizer tolerance exhausted without a sign")


def robust_nonuniform_ultpos_open_ball(a: Analysis, ball: Ball,
                                       tol: Fraction = DEFAULT_TOL
                                       ) -> Decision:
    """Open-ball non-uniform ultimate positivity: ball inside the dominant
    nonnegativity set iff the closed-ball minimum is >= 0.  `a` is the
    analysis of the ball's centre, and `ball` gives the radius; the basis
    of directions is the recurrence's unit starts' forms."""
    if ball.topology == "closed":
        raise ValueError("closed given balls are out of scope "
                         "(Diophantine-hard); only open balls are decided")
    out = min_over_ball(DominantFamily(center=a.form, basis=a.rec.units),
                        ball.radius, a.torus, tol)
    # closed-ball min >= 0 certifies the open ball is inside P_dom
    return _optimum_stage(out, ("NEGATIVE",),
                          "ball minimum straddles zero at tolerance",
                          yes=("POSITIVE", "ZERO"),
                          witness_radius=ball.radius)


def exists_robust_positivity(a: Analysis,
                             prefix_cap: int = DEFAULT_PREFIX_CAP,
                             tol: Fraction = DEFAULT_TOL) -> Decision:
    """Dominant minimum positive + exact strictly-positive prefix."""
    out = mu(a.form, a.torus, tol)
    if out.verdict != "POSITIVE":
        return _optimum_stage(out, ("NEGATIVE", "ZERO"),
                              "dominant minimum sign unresolved")
    return _tail_stage(a, out, prefix_cap, skolem=False)


def exists_robust_skolem(a: Analysis,
                         prefix_cap: int = DEFAULT_PREFIX_CAP,
                         tol: Fraction = DEFAULT_TOL) -> Decision:
    """Nonzero dominant minimum in absolute value + zero-free exact prefix."""
    out = nu(a.form, a.torus, tol)
    if out.verdict != "POSITIVE":
        return _optimum_stage(out, ("ZERO",),
                              "absolute dominant minimum unresolved")
    return _tail_stage(a, out, prefix_cap, skolem=True)
