"""Command line interface: problem parsing, pipeline orchestration, report
emission and plot-data export.  The only module with side effects.

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
from .optimize import mu as mu_op, nu as nu_op, DEFAULT_TOL
from .decide import (exists_robust_positivity, exists_robust_skolem,
                     exists_robust_ultimate_positivity,
                     robust_nonuniform_ultpos_open_ball, Analysis,
                     DEFAULT_PREFIX_CAP)
from .hardness import (build_hardness_lrr, cone_contains, compute_params,
                       min_ball_term, approximate_L, lagrange_prefix,
                       coeffs_from_config)
from .serialize import (QUESTIONS, ProblemSpec, ProblemError, parse_problem,
                        report_json, sign_outcome_json, algebraic_json,
                        decimal_str, ival_json, check_ball, check_count)

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


def _write_json(doc, out_path: str | None):
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _provenance(tol, prefix_cap, height_bound, lattice_complete) -> dict:
    return {
        "version": __version__,
        "tol": format_rational(tol),
        "prefix_cap": prefix_cap,
        "height_bound": height_bound,
        "lattice_complete": lattice_complete,
    }


def _read_problem(args) -> ProblemSpec:
    if args.problem == "-":
        text = sys.stdin.read()
    else:
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_problem(text)


def run(spec: ProblemSpec, question: str, tol: Fraction, prefix_cap: int,
        height_bound: int, timing: bool = False) -> tuple[str, int]:
    """Dispatch one decision problem; returns (report text, exit code)."""
    t0 = time.monotonic()
    decide = {
        "exists-robust-positivity": lambda a: exists_robust_positivity(
            a, prefix_cap, tol),
        "exists-robust-skolem": lambda a: exists_robust_skolem(
            a, prefix_cap, tol),
        "exists-robust-ultpos": lambda a: exists_robust_ultimate_positivity(
            a, tol),
        "robust-ultpos-open": lambda a: robust_nonuniform_ultpos_open_ball(
            a, spec.ball, tol),
    }.get(question)
    if decide is None:
        raise ProblemError("$.question", f"unknown question {question!r}")
    check_ball(question, spec.ball)
    analysis = Analysis.build(spec.lrr, spec.init, height_bound)
    decision = decide(analysis)
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
            sc.step()
            lo, hi, den = sc.enclosure()
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
    cos, sin = Q(1), Q(0)
    if kind == "cone-section":
        z = pt.z_dom
        buf.write("n,angle_turns,x,y,margin\n")
        for n in range(count + 1):
            x, y = z * cos, z * sin
            _, margin = cone_contains(z, x, y)
            angle = _angle_turns(cos, sin)
            buf.write(f"{n},{decimal_str(angle, 12)},{decimal_str(x, 12)},"
                      f"{decimal_str(y, 12)},{decimal_str(margin.mid, 12)}\n")
            cos, sin = p * cos - q * sin, q * cos + p * sin
        return buf.getvalue()
    if kind == "hyperplane-trace":
        buf.write("n,angle_turns,offset\n")
        for n in range(1, count + 1):
            cos, sin = p * cos - q * sin, q * cos + p * sin
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


# The settings a verb may read, each declared only on the verbs that read it.
_SETTINGS = {
    "tol": dict(default=None, help="optimizer tolerance p/q"),
    "prefix-cap": dict(type=int, default=None),
    "height-bound": dict(type=int, default=None),
    "timing": dict(action="store_true",
                   help="include wall-clock timing in the report"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="robustlrs",
        description="Certified decision procedures for robust Skolem and "
                    "(ultimate) positivity of rational linear recurrences")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, *settings):
        p.add_argument("--problem", required=True,
                       help="problem JSON file ('-' for stdin)")
        for name in settings:
            p.add_argument(f"--{name}", **_SETTINGS[name])
        p.add_argument("--out", default=None, help="output file (default stdout)")

    dec = sub.add_parser("decide", help="run a robustness decision procedure")
    dec.add_argument("question", choices=QUESTIONS)
    add_common(dec, *_SETTINGS)

    ev = sub.add_parser("eval", help="dump exact terms as CSV")
    ev.add_argument("--n-max", type=int, default=20)
    add_common(ev)

    rt = sub.add_parser("roots", help="isolate the characteristic roots")
    add_common(rt)

    tor = sub.add_parser("torus", help="relation lattice and parametrization")
    add_common(tor, "height-bound")

    muv = sub.add_parser("mu", help="certified dominant minimum over the torus")
    muv.add_argument("--absolute", action="store_true",
                     help="minimize |dominant| (the Skolem objective)")
    add_common(muv, "tol", "height-bound")

    pl = sub.add_parser("plot", help="CSV export of figure data")
    pl.add_argument("--kind", required=True,
                    choices=["orbit", "cone-section", "hyperplane-trace"])
    pl.add_argument("--range", type=int, default=100)
    add_common(pl)

    lab = sub.add_parser("lab", help="order-6 construction lab")
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    lb = lab_sub.add_parser("build", help="emit the order-6 relation for p")
    lb.add_argument("--p", required=True)
    lb.add_argument("--q", default=None)
    lb.add_argument("--out", default=None)

    lc = lab_sub.add_parser("cone", help="exact cone membership and margin")
    lc.add_argument("--z", required=True)
    lc.add_argument("--x", required=True)
    lc.add_argument("--y", required=True)
    lc.add_argument("--out", default=None)

    lt = lab_sub.add_parser("ball-term", help="closed-form ball minimum at n")
    lt.add_argument("--n", type=int, required=True)
    lt.add_argument("--p", required=True)
    lt.add_argument("--q", default=None)
    lt.add_argument("--ell", required=True,
                    help="rational q' with ell = q'/pi")
    lt.add_argument("--eps", required=True)
    lt.add_argument("--out", default=None)

    la = lab_sub.add_parser("approx-L", help="bracket the Diophantine type")
    la.add_argument("--p", required=True)
    la.add_argument("--q", default=None)
    la.add_argument("--eps", required=True)
    la.add_argument("--horizon", type=int, default=10**6)
    la.add_argument("--out", default=None)

    lp = lab_sub.add_parser("prefix-L", help="direct prefix minimum")
    lp.add_argument("--p", required=True)
    lp.add_argument("--q", default=None)
    lp.add_argument("--n", type=int, required=True)
    lp.add_argument("--out", default=None)
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


def _resolve(args, spec, defaults, *names):
    """The settings `names` (of "tol", "prefix_cap", "height_bound"), in
    that order: the flag, else the problem file, else the defaults file,
    else the built-in default.  A given 0 is a value, not a missing one.
    Only the settings named are read and checked, so a verb is not refused
    for a setting it does not take."""
    def pick(name, fallback):
        for value in (getattr(args, name, None), getattr(spec, name),
                      defaults.get(name)):
            if value is not None:
                return value
        return fallback

    out = []
    if "tol" in names:
        tol = pick("tol", DEFAULT_TOL)  # a problem file's tol is parsed
        if isinstance(tol, str):
            tol = parse_rational(tol)
        elif not isinstance(tol, Fraction):
            raise ValueError(f"tol must be a rational string p/q, got {tol!r}")
        if tol <= 0:
            raise ProblemError("tol", f"must be > 0, got {format_rational(tol)}")
        out.append(tol)
    if "prefix_cap" in names:
        cap = pick("prefix_cap", DEFAULT_PREFIX_CAP)
        check_count(cap, 0, "prefix cap")
        out.append(cap)
    if "height_bound" in names:
        hb = pick("height_bound", DEFAULT_HEIGHT_BOUND)
        check_count(hb, 1, "height bound")
        out.append(hb)
    return out


def _dispatch(args, defaults) -> int:
    if args.command == "decide":
        spec = _read_problem(args)
        tol, cap, hb = _resolve(args, spec, defaults, "tol", "prefix_cap",
                                "height_bound")
        question = args.question
        if spec.question is not None and spec.question != question:
            raise ProblemError("$.question", f"file says {spec.question!r} "
                               f"but the command asked {question!r}")
        text, code = run(spec, question, tol, cap, hb, args.timing)
        _write_out(text, args.out)
        return code

    if args.command == "eval":
        spec = _read_problem(args)
        terms = eval_terms(spec.lrr, spec.init, args.n_max)
        csv = "n,u_n\n" + "".join(f"{n},{format_rational(u)}\n"
                                  for n, u in enumerate(terms))
        _write_out(csv, args.out)
        return EXIT_YES

    if args.command == "roots":
        spec = _read_problem(args)
        roots = isolate_roots(spec.lrr.char_poly())
        doc = [dict(algebraic_json(a), multiplicity=m) for a, m in roots]
        _write_json(doc, args.out)
        return EXIT_YES

    if args.command == "torus":
        spec = _read_problem(args)
        hb, = _resolve(args, spec, defaults, "height_bound")
        par = Analysis.build(spec.lrr, spec.init, hb).torus
        lat = par.lattice
        doc = {
            "k": lat.k,
            "generators": lat.generators,
            "complete": lat.complete,
            "height_bound": lat.height_bound,
            "free_rank": par.free_rank,
            "embedding": par.embedding,
            "finite_part": [[algebraic_json(root_of_unity_alg(
                t.numerator, t.denominator)) for t in turns]
                for turns in par.coset_turns],
        }
        _write_json(doc, args.out)
        return EXIT_YES

    if args.command == "mu":
        spec = _read_problem(args)
        tol, hb = _resolve(args, spec, defaults, "tol", "height_bound")
        analysis = Analysis.build(spec.lrr, spec.init, hb)
        out = (nu_op if args.absolute else mu_op)(analysis.form,
                                                  analysis.torus, tol)
        _write_json(sign_outcome_json(out), args.out)
        return EXIT_YES

    if args.command == "plot":
        spec = _read_problem(args)
        _write_out(emit_plot_data(spec, args.kind, args.range), args.out)
        return EXIT_YES

    if args.command == "lab":
        return _dispatch_lab(args)
    raise RuntimeError(f"unhandled command {args.command}")


def _rotation_args(args):
    """The rotation point of a lab command: --p, and --q when given."""
    return (parse_rational(args.p),
            parse_rational(args.q) if args.q else None)


def _dispatch_lab(args) -> int:
    if args.lab_command == "build":
        p, q = _rotation_args(args)
        lrr = build_hardness_lrr(p, q)
        doc = {"coeffs": [format_rational(a) for a in lrr.coeffs],
               "char_poly_factored": "(x-1)^2 (x^2 - 2px + 1)^2",
               "p": format_rational(p)}
        _write_json(doc, args.out)
        return EXIT_YES
    if args.lab_command == "cone":
        z, x, y = (parse_rational(args.z), parse_rational(args.x),
                   parse_rational(args.y))
        inside, margin = cone_contains(z, x, y)
        doc = {"inside": inside, "margin": ival_json(margin)}
        _write_json(doc, args.out)
        return EXIT_YES if inside else EXIT_NO
    if args.lab_command == "ball-term":
        p, q = _rotation_args(args)
        params = compute_params(parse_rational(args.ell),
                                parse_rational(args.eps), p, q)
        iv = min_ball_term(args.n, params)
        doc = {"n": args.n, "term": ival_json(iv),
               "psi": format_rational(params.psi),
               "n2": params.n2}
        _write_json(doc, args.out)
        return EXIT_YES
    if args.lab_command == "approx-L":
        p, q = _rotation_args(args)
        est = approximate_L(p, q, parse_rational(args.eps), args.horizon)
        doc = {"interval": ival_json(est.interval), "horizon": est.horizon,
               "probes": est.probes, "horizon_exhausted": est.horizon_exhausted,
               "note": est.note}
        _write_json(doc, args.out)
        return EXIT_YES
    if args.lab_command == "prefix-L":
        p, q = _rotation_args(args)
        iv = lagrange_prefix(p, q, args.n)
        doc = {"interval": ival_json(iv), "n": args.n}
        _write_json(doc, args.out)
        return EXIT_YES
    raise RuntimeError(f"unhandled lab command {args.lab_command}")


if __name__ == "__main__":
    sys.exit(main())
