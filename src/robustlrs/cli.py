"""Command line interface: problem parsing, pipeline orchestration, report
emission and plot-data export.  The only module with side effects.

Each verb is declared once, by one `_verb` call in `_build_parser`: its own
arguments, --problem when it reads a problem file, the settings it reads
and --out.  Rational flags are parsed by argparse, which names the flag on
a malformed value.  `_dispatch` reads the problem, resolves exactly the
declared settings, runs the verb's handler, which returns (text, exit
code), and writes the text.

Exit codes: 0 = YES, 1 = NO, 2 = UNKNOWN, 3 = usage/schema error,
4 = internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .qmath import (Q, parse_rational, format_rational, is_perfect_square,
                    exact_sqrt)
from .algebraic import isolate_roots
from .lrs import eval_terms, normalize, OrbitScanner
from .torus import DEFAULT_HEIGHT_BOUND, root_of_unity_alg
from .trig import rotation_power
from .optimize import mu as mu_op, nu as nu_op, DEFAULT_TOL
from .decide import (exists_robust_positivity, exists_robust_skolem,
                     exists_robust_ultimate_positivity,
                     robust_nonuniform_ultpos_open_ball, Analysis,
                     closure_torus, DEFAULT_PREFIX_CAP)
from .hardness import (build_hardness_lrr, cone_contains, compute_params,
                       min_ball_term, approximate_L, lagrange_prefix,
                       coeffs_from_config)
from .serialize import (QUESTIONS, ProblemSpec, ProblemError, parse_problem,
                        report_json, sign_outcome_json, algebraic_json,
                        decimal_str, ival_json, check_ball, check_count,
                        parse_rat_at, json_text)

CONFIG_ENV = "ROBUSTLRS_CONFIG"

EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _load_defaults() -> dict:
    """The defaults file named by `ROBUSTLRS_CONFIG`: a JSON object, else
    a usage error.  Only an unset or empty variable means no file; a path
    that cannot be read fails in `open`, a usage error too."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemError(CONFIG_ENV, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemError(CONFIG_ENV, "top-level value must be an object")
    return doc


def _write_out(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(tol, prefix_cap, height_bound, lattice_complete) -> dict:
    return {
        "version": __version__,
        "tol": format_rational(tol),
        "prefix_cap": prefix_cap,
        "height_bound": height_bound,
        "lattice_complete": lattice_complete,
    }


def _read_problem(path: str) -> ProblemSpec:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_problem(text)


# The decision procedure of each question, on (analysis, ball, prefix cap, tol).
_DECIDE = {
    "exists-robust-positivity": lambda a, ball, cap, tol:
        exists_robust_positivity(a, cap, tol),
    "exists-robust-skolem": lambda a, ball, cap, tol:
        exists_robust_skolem(a, cap, tol),
    "exists-robust-ultpos": lambda a, ball, cap, tol:
        exists_robust_ultimate_positivity(a, tol),
    "robust-ultpos-open": lambda a, ball, cap, tol:
        robust_nonuniform_ultpos_open_ball(a, ball, tol),
}


def run(spec: ProblemSpec, question: str, tol: Fraction, prefix_cap: int,
        height_bound: int, timing: bool = False) -> tuple[str, int]:
    """Dispatch one decision problem; returns (report text, exit code)."""
    t0 = time.monotonic()
    decide = _DECIDE.get(question)
    if decide is None:
        raise ProblemError("$.question", f"unknown question {question!r}")
    check_ball(question, spec.ball)
    analysis = Analysis.build(spec.lrr, spec.init, height_bound)
    decision = decide(analysis, spec.ball, prefix_cap, tol)
    elapsed = time.monotonic() - t0
    text = report_json(decision.verdict, decision.certificate,
                       _provenance(tol, prefix_cap, height_bound,
                                   analysis.torus.lattice.complete),
                       elapsed if timing else None)
    code = {"YES": EXIT_YES, "NO": EXIT_NO,
            "UNKNOWN": EXIT_UNKNOWN}[decision.verdict]
    return text, code


def emit_plot_data(spec: ProblemSpec, kind: str, count: int) -> str:
    """Deterministic CSV for the geometric figures: orbit values, cone
    sections (tangency directions), hyperplane-trace offsets."""
    if count < 0:
        raise ValueError(f"plot range must be >= 0, got {count}")
    buf = io.StringIO()
    if kind == "orbit":
        terms = eval_terms(spec.lrr, spec.init, count)
        buf.write("n,u_n,v_n\n")
        sc = OrbitScanner(normalize(spec.lrr, spec.init), 128)
        for n, u in enumerate(terms):
            if n == 0:
                buf.write(f"0,{format_rational(u)},{decimal_str(u, 12)}\n")
                continue
            lo, hi, den = sc.step()
            v_mid = Q(lo + hi, 2 * den)
            buf.write(f"{n},{format_rational(u)},{decimal_str(v_mid, 12)}\n")
        return buf.getvalue()
    # cone kinds need the order-6 family: recover p from a_1 = 4p + 2
    a = spec.lrr.coeffs
    if len(a) != 6:
        raise ProblemError("$.coeffs", f"{kind} export needs the order-6 family")
    p = (a[1] - 2) / 4
    probe = build_hardness_lrr(p) if -1 < p < 1 else None
    if probe is None or probe.coeffs != a:
        raise ProblemError("$.coeffs", f"{kind} export needs the order-6 "
                           "family (x-1)^2 (x^2-2px+1)^2")
    q_sq = 1 - p * p
    if not is_perfect_square(q_sq):
        raise ProblemError("$.coeffs", "plot export needs rational sine "
                           "(p, q) on the unit circle")
    q = exact_sqrt(q_sq)
    pt = coeffs_from_config(p, q, spec.init)
    if kind == "cone-section":
        z = pt.z_dom
        buf.write("n,angle_turns,x,y,margin\n")
        for n in range(count + 1):
            cos, u = rotation_power(p, n)
            sin = u * q
            x, y = z * cos, z * sin
            _, margin = cone_contains(z, x, y)
            angle = _angle_turns(cos, sin)
            buf.write(f"{n},{decimal_str(angle, 12)},{decimal_str(x, 12)},"
                      f"{decimal_str(y, 12)},{decimal_str(margin.mid, 12)}\n")
        return buf.getvalue()
    if kind == "hyperplane-trace":
        buf.write("n,angle_turns,offset\n")
        for n in range(1, count + 1):
            cos, u = rotation_power(p, n)
            sin = u * q
            offset = (pt.z_res + pt.x_res * cos + pt.y_res * sin) / n
            angle = _angle_turns(cos, sin)
            buf.write(f"{n},{decimal_str(angle, 12)},"
                      f"{decimal_str(offset, 12)}\n")
        return buf.getvalue()
    raise ProblemError("$", f"unknown plot kind {kind!r}")


def _angle_turns(cos: Fraction, sin: Fraction) -> Fraction:
    t = math.atan2(float(sin), float(cos)) / (2 * math.pi)
    if t < 0:
        t += 1.0
    return Q(t).limit_denominator(10**12)


def _tol(value) -> Fraction:
    """A flag's or problem file's tol is parsed already; the defaults
    file's is the JSON value, parsed here."""
    tol = value if isinstance(value, Fraction) else parse_rat_at(value, "tol")
    if tol <= 0:
        raise ProblemError("tol", f"must be > 0, got {format_rational(tol)}")
    return tol


# The settings a verb may read: the flag's options, the built-in default
# and the check of a resolved value.
_SETTINGS = {
    "tol": (dict(type=parse_rational, help="optimizer tolerance p/q"),
            DEFAULT_TOL, _tol),
    "prefix_cap": (dict(type=int), DEFAULT_PREFIX_CAP,
                   lambda cap: check_count(cap, 0, "prefix cap")),
    "height_bound": (dict(type=int), DEFAULT_HEIGHT_BOUND,
                     lambda hb: check_count(hb, 1, "height bound")),
}


def _resolve(args, spec, defaults) -> list:
    """The verb's declared settings, in their declared order: the flag,
    else the problem file, else the defaults file, else the built-in
    default.  A given 0 is a value, not a missing one.  Only the declared
    settings are read and checked, so a verb is not refused for a setting
    it does not take."""
    values = []
    for name in args.settings:
        _, fallback, check = _SETTINGS[name]
        value = next((v for v in (getattr(args, name), getattr(spec, name),
                                  defaults.get(name)) if v is not None),
                     fallback)
        values.append(check(value))
    return values


def _decide(args, spec, tol, prefix_cap, height_bound):
    if spec.question is not None and spec.question != args.question:
        raise ProblemError("$.question", f"file says {spec.question!r} "
                           f"but the command asked {args.question!r}")
    return run(spec, args.question, tol, prefix_cap, height_bound,
               args.timing)


def _eval(args, spec):
    terms = eval_terms(spec.lrr, spec.init, args.n_max)
    return "n,u_n\n" + "".join(f"{n},{format_rational(u)}\n"
                               for n, u in enumerate(terms)), EXIT_YES


def _roots(args, spec):
    roots = isolate_roots(spec.lrr.char_poly())
    return json_text([dict(algebraic_json(a), multiplicity=m)
                      for a, m in roots]), EXIT_YES


def _torus(args, spec, height_bound):
    par = closure_torus(spec.lrr, height_bound)
    lat = par.lattice
    return json_text({
        "k": lat.k,
        "generators": lat.generators,
        "complete": lat.complete,
        "height_bound": lat.height_bound,
        "free_rank": par.free_rank,
        "embedding": par.embedding,
        "finite_part": [[algebraic_json(root_of_unity_alg(
            t.numerator, t.denominator)) for t in turns]
            for turns in par.coset_turns],
    }), EXIT_YES


def _mu(args, spec, tol, height_bound):
    analysis = Analysis.build(spec.lrr, spec.init, height_bound)
    out = (nu_op if args.absolute else mu_op)(analysis.form,
                                              analysis.torus, tol)
    return json_text(sign_outcome_json(out)), EXIT_YES


def _plot(args, spec):
    return emit_plot_data(spec, args.kind, args.range), EXIT_YES


def _lab_build(args):
    lrr = build_hardness_lrr(args.p, args.q)
    return json_text({"coeffs": [format_rational(a) for a in lrr.coeffs],
                      "char_poly_factored": "(x-1)^2 (x^2 - 2px + 1)^2",
                      "p": format_rational(args.p)}), EXIT_YES


def _lab_cone(args):
    inside, margin = cone_contains(args.z, args.x, args.y)
    return (json_text({"inside": inside, "margin": ival_json(margin)}),
            EXIT_YES if inside else EXIT_NO)


def _lab_ball_term(args):
    params = compute_params(args.ell, args.eps, args.p, args.q)
    iv = min_ball_term(args.n, params)
    return json_text({"n": args.n, "term": ival_json(iv),
                      "psi": format_rational(params.psi),
                      "n2": params.n2}), EXIT_YES


def _lab_approx_L(args):
    est = approximate_L(args.p, args.q, args.eps, args.horizon)
    return json_text({"interval": ival_json(est.interval),
                      "horizon": est.horizon, "probes": est.probes,
                      "horizon_exhausted": est.horizon_exhausted,
                      "note": est.note}), EXIT_YES


def _lab_prefix_L(args):
    iv = lagrange_prefix(args.p, args.q, args.n)
    return json_text({"interval": ival_json(iv), "n": args.n}), EXIT_YES


def _verb(parent, name, help, handler, *arguments, problem=True,
          settings=()):
    """Declare one verb: its own `arguments` as (flag, options) pairs,
    --problem when it reads a problem file, the `settings` it reads and
    --out.  `_dispatch` runs `handler`."""
    verb = parent.add_parser(name, help=help)
    for flag, options in arguments:
        verb.add_argument(flag, **options)
    if problem:
        verb.add_argument("--problem", required=True,
                          help="problem JSON file ('-' for stdin)")
    for setting in settings:
        verb.add_argument("--" + setting.replace("_", "-"),
                          **_SETTINGS[setting][0])
    verb.add_argument("--out", default=None,
                      help="output file (default stdout)")
    verb.set_defaults(handler=handler, settings=settings)


_RATIONAL = dict(type=parse_rational, required=True)
# the rotation of a lab verb: its cosine p, and its sine q when given
_ROTATION = (("--p", _RATIONAL),
             ("--q", dict(type=parse_rational, default=None)))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="robustlrs",
        description="Certified decision procedures for robust Skolem and "
                    "(ultimate) positivity of rational linear recurrences")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    _verb(sub, "decide", "run a robustness decision procedure", _decide,
          ("question", dict(choices=QUESTIONS)),
          ("--timing", dict(action="store_true",
                            help="include wall-clock timing in the report")),
          settings=("tol", "prefix_cap", "height_bound"))
    _verb(sub, "eval", "dump exact terms as CSV", _eval,
          ("--n-max", dict(type=int, default=20)))
    _verb(sub, "roots", "isolate the characteristic roots", _roots)
    _verb(sub, "torus", "relation lattice and parametrization", _torus,
          settings=("height_bound",))
    _verb(sub, "mu", "certified dominant minimum over the torus", _mu,
          ("--absolute", dict(action="store_true", help="minimize "
                              "|dominant| (the Skolem objective)")),
          settings=("tol", "height_bound"))
    _verb(sub, "plot", "CSV export of figure data", _plot,
          ("--kind", dict(required=True, choices=[
              "orbit", "cone-section", "hyperplane-trace"])),
          ("--range", dict(type=int, default=100)))

    lab = sub.add_parser("lab", help="order-6 construction lab")
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)
    _verb(lab_sub, "build", "emit the order-6 relation for p", _lab_build,
          *_ROTATION, problem=False)
    _verb(lab_sub, "cone", "exact cone membership and margin", _lab_cone,
          ("--z", _RATIONAL), ("--x", _RATIONAL), ("--y", _RATIONAL),
          problem=False)
    _verb(lab_sub, "ball-term", "closed-form ball minimum at n",
          _lab_ball_term, ("--n", dict(type=int, required=True)), *_ROTATION,
          ("--ell", dict(_RATIONAL, help="rational q' with ell = q'/pi")),
          ("--eps", _RATIONAL), problem=False)
    _verb(lab_sub, "approx-L", "bracket the Diophantine type",
          _lab_approx_L, *_ROTATION, ("--eps", _RATIONAL),
          ("--horizon", dict(type=int, default=10**6)), problem=False)
    _verb(lab_sub, "prefix-L", "direct prefix minimum", _lab_prefix_L,
          *_ROTATION, ("--n", dict(type=int, required=True)), problem=False)
    return ap


def main(argv=None) -> int:
    # exact certificates and terms print integers of any length
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is UNKNOWN here;
        # --help and --version exit 0
        if exc.code == 2:
            return EXIT_USAGE
        raise
    try:
        return _dispatch(args, _load_defaults())
    except (ProblemError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def _dispatch(args, defaults) -> int:
    """Read the verb's problem and settings, run its handler and write its
    text."""
    inputs = []
    if "problem" in args:
        spec = _read_problem(args.problem)
        inputs = [spec, *_resolve(args, spec, defaults)]
    text, code = args.handler(args, *inputs)
    _write_out(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
