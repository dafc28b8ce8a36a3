"""JSON serialization: problems in, reports out (`cli.emit_plot_data`
writes the plot data).

Rationals travel as canonical "p/q" strings; algebraic numbers as
{poly, re, im, radius} records (defining polynomial plus isolating disk).
Decimal renderings are display-only and computed with integer arithmetic
at a fixed precision, so reports are byte-deterministic; certificates
always carry the exact rationals alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qmath import Q, parse_rational, format_rational
from .interval import Ival
from .lrs import Lrr, InitialConfig, Ball
from .algebraic import AlgebraicNumber
from .torus import TorusPoint

DISPLAY_DIGITS = 30

QUESTIONS = ("exists-robust-positivity", "exists-robust-skolem",
             "exists-robust-ultpos", "robust-ultpos-open")
BALL_QUESTIONS = ("robust-ultpos-open",)


class ProblemError(ValueError):
    """Schema violation with a JSON-path position."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def decimal_str(x: Fraction, digits: int = DISPLAY_DIGITS) -> str:
    """Fixed-point decimal rendering by integer arithmetic (round toward
    zero; display only)."""
    x = Q(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = (x.numerator * 10**digits) // x.denominator
    int_part, frac_part = divmod(scaled, 10**digits)
    frac = str(frac_part).rjust(digits, "0").rstrip("0")
    return f"{sign}{int_part}.{frac}" if frac else f"{sign}{int_part}"


def ival_json(iv: Ival) -> dict:
    return {
        "lo": format_rational(iv.lo),
        "hi": format_rational(iv.hi),
        "lo_decimal": decimal_str(iv.lo),
        "hi_decimal": decimal_str(iv.hi),
    }


def algebraic_json(a: AlgebraicNumber) -> dict:
    cre, cim, rad = a.isolating_disk()
    return {
        "poly": [format_rational(c) for c in a.defining_poly],
        "re": format_rational(cre),
        "im": format_rational(cim),
        "radius": format_rational(rad),
    }


@dataclass
class ProblemSpec:
    lrr: Lrr
    init: InitialConfig
    ball: Optional[Ball]
    question: Optional[str]
    tol: Optional[Fraction] = None
    prefix_cap: Optional[int] = None
    height_bound: Optional[int] = None


def check_ball(question: str, ball: Optional[Ball]):
    """A ball is given exactly when the question is about a ball."""
    if question in BALL_QUESTIONS and ball is None:
        raise ProblemError("$.ball", f"{question} requires a ball")
    if question not in BALL_QUESTIONS and ball is not None:
        raise ProblemError("$.ball", f"{question} is an existential "
                           "variant: the ball must be omitted")


def parse_rat_at(value, path: str) -> Fraction:
    """A rational string p/q from a problem or defaults file; any fault is
    a usage error at `path`."""
    if not isinstance(value, str):
        raise ProblemError(path, f"must be a rational string p/q, "
                           f"got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ProblemError(path, str(exc)) from None


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemError("$", "top-level value must be an object")
    if "coeffs" not in doc:
        raise ProblemError("$.coeffs", "missing")
    if "init" not in doc:
        raise ProblemError("$.init", "missing")
    for key in ("coeffs", "init"):
        if not isinstance(doc[key], list):
            raise ProblemError(f"$.{key}", "must be an array of rational "
                               f"strings, got {doc[key]!r}")
    coeffs = [parse_rat_at(v, f"$.coeffs[{i}]")
              for i, v in enumerate(doc["coeffs"])]
    init = [parse_rat_at(v, f"$.init[{i}]") for i, v in enumerate(doc["init"])]
    if not coeffs:
        raise ProblemError("$.coeffs", "order must be at least 1")
    if coeffs[0] == 0:
        raise ProblemError("$.coeffs[0]", "a_0 must be nonzero "
                           "(standing assumption)")
    if len(init) != len(coeffs):
        raise ProblemError("$.init", f"length {len(init)} does not match "
                           f"order {len(coeffs)}")
    lrr = Lrr(tuple(coeffs))
    cfg = InitialConfig(tuple(init))
    ball = None
    if "ball" in doc and doc["ball"] is not None:
        b = doc["ball"]
        if not isinstance(b, dict):
            raise ProblemError("$.ball", "must be an object")
        radius = parse_rat_at(b.get("radius", "0"), "$.ball.radius")
        if radius <= 0:
            raise ProblemError("$.ball.radius", "radius > 0 required")
        topology = b.get("topology", "open")
        if topology not in ("open", "closed"):
            raise ProblemError("$.ball.topology", f"unknown {topology!r}")
        ball = Ball(cfg, radius, topology)
    question = doc.get("question")
    if question is not None:
        if question not in QUESTIONS:
            raise ProblemError("$.question", f"unknown question {question!r}; "
                               f"expected one of {QUESTIONS}")
        check_ball(question, ball)
    tol = parse_rat_at(doc["tol"], "$.tol") if "tol" in doc else None
    if tol is not None and tol <= 0:
        raise ProblemError("$.tol", "tol > 0 required")
    prefix_cap = doc.get("prefix_cap")
    if prefix_cap is not None:
        check_count(prefix_cap, 0, "$.prefix_cap")
    height_bound = doc.get("height_bound")
    if height_bound is not None:
        check_count(height_bound, 1, "$.height_bound")
    return ProblemSpec(lrr=lrr, init=cfg, ball=ball, question=question,
                       tol=tol, prefix_cap=prefix_cap,
                       height_bound=height_bound)


def check_count(value, least: int, path: str):
    """A count setting (prefix cap, height bound) from a flag, a problem
    file or the defaults file: an integer >= least, returned.  JSON's true
    and false load as Python bools, which are ints, so they are refused by
    name."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ProblemError(path, f"must be an integer >= {least}, "
                           f"got {value!r}")
    return value


def sign_outcome_json(out) -> dict:
    doc = {
        "verdict": out.verdict,
        "enclosure": ival_json(out.enclosure),
        "tolerance": format_rational(out.tol),
        "lattice_complete": out.lattice_complete,
        "method": out.method,
    }
    if out.witness is not None:
        doc["witness"] = torus_point_json(out.witness)
    return doc


def torus_point_json(pt: TorusPoint) -> dict:
    return {"coset": pt.coset,
            "angles_turns": [format_rational(a) for a in pt.angles]}


def certificate_json(cert) -> dict:
    doc = {"kind": cert.kind}
    if cert.violating_index is not None:
        doc["violating_index"] = cert.violating_index
    if cert.violating_value is not None:
        doc["violating_value"] = format_rational(cert.violating_value)
    if cert.optimum is not None:
        doc["optimum"] = sign_outcome_json(cert.optimum)
    if cert.threshold is not None:
        doc["threshold"] = cert.threshold
    if cert.prefix_margin is not None:
        doc["prefix_margin"] = format_rational(cert.prefix_margin)
    if cert.witness_radius is not None:
        doc["witness_radius"] = format_rational(cert.witness_radius)
    if cert.reason is not None:
        doc["reason"] = cert.reason
    return doc


def report_json(verdict: str, certificate, provenance: dict,
                timing: float | None = None) -> str:
    doc = {
        "verdict": verdict,
        "certificate": certificate_json(certificate),
        "provenance": provenance,
    }
    if timing is not None:
        doc["timing_seconds"] = round(timing, 3)
    return json_text(doc)


def json_text(doc) -> str:
    """The one JSON writer: sorted keys, so its output is deterministic."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
