"""Seeded workload generators, the operations they run and their output checks.

An operation (`Op`) is what one closed-loop client sends: a problem JSON
document for `cli.run`, or one point for the hardness lab.  The generators
depend only on the workload name and the seed; the program sees only the
generated JSON (decide) or the rational arguments (lab).  Operations are
generated in rounds of a fixed composition, so that every seed draws the
same mix of problem kinds and the op list for fewer rounds is a prefix of
the list for more rounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q

from robustlrs import cli, serialize, lrs, hardness
from robustlrs.decide import DEFAULT_PREFIX_CAP
from robustlrs.optimize import DEFAULT_TOL

# The checks below must not show up in a traced run: keep the unwrapped
# functions, bound before the tracer patches the modules.
_eval_terms = lrs.eval_terms
_term_sign = lrs.term_sign
_ival_json = serialize.ival_json

DECIDE_QUESTIONS = ("exists-robust-positivity", "exists-robust-skolem",
                    "exists-robust-ultpos")
HEIGHT_BOUND = 64           # cli default
LAB_EPS = Q(1, 20)
LAB_HORIZON = 2 * 10**5


def fmt(x) -> str:
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def pmul(a, b):
    """Product of coefficient lists, lowest degree first."""
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def coeffs_of(char):
    """Recurrence coefficients a_0..a_{k-1} of a monic characteristic
    polynomial x^k - sum a_j x^j (lowest degree first)."""
    return [-c for c in char[:-1]]


@dataclass
class Op:
    kind: str               # decide | lab
    label: str              # problem class, for the per-op listing
    budget_s: float         # over this wall time the op counts as failed
    question: str = ""
    problem: str = ""       # JSON document for decide ops
    args: tuple = ()        # (p, q, horizon) for lab ops


@dataclass
class Outcome:
    text: str               # report bytes (decide) or lab JSON
    verdict: str            # YES / NO / UNKNOWN, or OK / UNKNOWN for lab
    value: object = None    # lab: (lagrange_prefix, approximate_L) intervals


def _problem(coeffs, init, question, **extra) -> str:
    doc = {"coeffs": [fmt(a) for a in coeffs],
           "init": [fmt(v) for v in init], "question": question}
    doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def _acc4_coeff(rng):
    """A coefficient drawn as in acceptance criterion 4."""
    return Q(rng.randint(-4, 4), rng.randint(1, 3))


def _acc4_init(rng, k):
    return [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]


# ---------------------------------------------------------------------------
# decide-random

def _quadratic(rng, want):
    """x^2 - a1 x - a0 with acceptance-4 coefficients, of the class `want`:
    real roots, "rational" or "irrational"; a complex pair of irrational
    modulus whose angle is not that of a root of unity ("complex": cold
    root seeding dominates) or is one ("rou"); a complex pair on the unit
    circle ("unit", a0 = -1); or a complex pair of modulus 2 that is not 2
    times a root of unity ("rho2": a0 = -4, a1 not in {0, +-2}), whose
    relation lattice is left incomplete.  Drawing each class separately
    gives every seed the same mix."""
    while True:
        a0, a1 = _acc4_coeff(rng), _acc4_coeff(rng)
        if want == "unit":
            a0 = Q(-1)
        elif want == "rho2":
            a0 = Q(-4)
        if a0 == 0:
            continue
        disc = a1 * a1 + 4 * a0
        if want in ("rational", "irrational"):
            ok = disc >= 0 and _is_square(disc) == (want == "rational")
        elif want in ("complex", "rou"):
            ok = (disc < 0 and a1 != 0 and not _is_square(-a0)
                  and (a1 * a1 / (-4 * a0) in _ROU_COS_SQ) == (want == "rou"))
        else:
            ok = disc < 0 and a1 not in (0, 2, -2)
        if ok:
            return [-a0, -a1, Q(1)]


# cos^2 of the angle of a root of unity of order 3, 4, 6, 8 or 12.
_ROU_COS_SQ = (Q(1, 4), Q(1, 2), Q(3, 4))
_ROU_MAX_ORDER = 12


def _zero_coset(char, quad, init) -> bool:
    """Whether the complex pair with factor `quad` = x^2 + c1 x + c0 has
    irrational modulus and the angle of a root of unity, and its part of
    the sequence has a zero term within one period: a coset value of the
    normalised pair is then exactly zero.  exists-robust-skolem does not
    finish on such a start (optimize._finite_torus_min keeps refining the
    exact sign of that zero; e.g. coeffs -4/3, 2 with init -5/2, 0), a
    defect of the program that is reported, not drawn.  The pair's other
    starts are drawn."""
    c0, c1 = quad[0], quad[1]
    if (c1 * c1 >= 4 * c0 or c1 == 0 or _is_square(c0)
            or c1 * c1 / (4 * c0) not in _ROU_COS_SQ):
        return False
    u = list(init)
    while len(u) < _ROU_MAX_ORDER + 2:
        u.append(sum(a * x for a, x in zip(coeffs_of(char), u[-len(init):])))
    if len(char) > 3:       # (x - r) quad: take away the r^n part
        r = c1 - char[2]
        k = (u[2] + c1 * u[1] + c0 * u[0]) / (r * r + c1 * r + c0)
        u = [x - k * r ** n for n, x in enumerate(u)]
    return 0 in u[:_ROU_MAX_ORDER]


def _is_square(x: Q) -> bool:
    return (math.isqrt(x.numerator) ** 2 == x.numerator
            and math.isqrt(x.denominator) ** 2 == x.denominator)


def _keys(char, quad, modulus):
    """What two recurrences of one run must not share, so that the root
    fields of each are seeded cold: the characteristic polynomial, the field
    of the normalised root of the quadratic factor x^2 + c1 x + c0 (it
    depends on c0 and c1^2 only) and, with `modulus`, the field of the
    modulus sqrt(c0)."""
    keys = {("poly", tuple(char)), ("unit-root", quad[0], quad[1] ** 2)}
    if modulus:
        keys.add(("modulus", quad[0]))
    return char, quad, keys


def _quadratic_of(want, modulus=False):
    def make(rng):
        quad = _quadratic(rng, want)
        return _keys(quad, quad, modulus)
    return make


def _split_cubic(rng):
    """(x - r)(complex quadratic) with the pair dominant: 0 < |r| < rho."""
    quad = _quadratic(rng, "complex")
    while True:
        r = _acc4_coeff(rng)
        if r != 0 and r * r < quad[0]:
            return _keys(pmul([-r, Q(1)], quad), quad, True)


# One round: (label, recurrence maker, questions).  Within a run no two
# recurrences share a root field while an unshared one can be drawn, so the
# first question of each is cold and the next two run warm.  The rho = 2
# pairs run only exists-robust-skolem: their positivity and
# ultimate-positivity questions start a 2^-40 two-angle branch and bound of
# 23-28 s each on this code, longer than a whole run.
#
# A round: two cold seedings of an irrational pair that is not at a
# root-of-unity angle (0.4-2.7 s), one root-of-unity pair (one in five of
# the irrational pairs, about their share of the acceptance-4 draws: 26 of
# 144) whose cold positivity takes 0.1-3 s, all fourteen rho = 2 pairs
# (seven fields, each with a1 and -a1; 0.8-1.45 s a Skolem op, set by the
# field: cold seeding of a modulus-2 field, an incomplete lattice and a
# branch and bound), and about 160 ops under 0.85 s.  Real-root
# recurrences, a fifth of them rational-root (the draws: 74 of 398), make
# up most of the recurrences, as they do among the draws (398 of 648).
# The ten ops beyond latency_tail_s are the cold seedings, at times the
# root-of-unity pair, and the slower half of the rho = 2 ops, so the tail
# reads the middle of the rho = 2 ops; the median falls at about the 70th
# percentile of the 80 warm ops of the irrational real-root recurrences.
_RHO2 = ("order2-rho2-pair", _quadratic_of("rho2"), ("exists-robust-skolem",))
_REAL = ("order2-real", _quadratic_of("irrational"), DECIDE_QUESTIONS)
_RATIONAL = ("order2-rational", _quadratic_of("rational"), DECIDE_QUESTIONS)


def _half_round(cold):
    """One cold irrational pair, seven rho = 2 pairs, twenty irrational and
    five rational real-root recurrences and one unit pair."""
    return ((cold,) + (_RHO2, _REAL, _REAL, _REAL, _RATIONAL) * 5
            + (_RHO2, _REAL, _REAL, _REAL, _REAL, _RHO2, _REAL,
               ("order2-unit-pair", _quadratic_of("unit"), DECIDE_QUESTIONS)))


_RANDOM_ROUND = (
    (("order2-rou-pair", _quadratic_of("rou", True), DECIDE_QUESTIONS),)
    + _half_round(("order2-complex", _quadratic_of("complex", True),
                   DECIDE_QUESTIONS))
    + _half_round(("order3-split", _split_cubic, DECIDE_QUESTIONS)))


def _gen_random(rng, rounds, seen):
    ops = []
    for _ in range(rounds):
        for label, make, questions in _RANDOM_ROUND:
            for _attempt in range(200):
                char, quad, keys = make(rng)
                if not keys & seen:
                    break
            else:       # every field of this class is taken: a new poly, or
                for _attempt in range(200):     # at last a new start
                    if ("poly", tuple(char)) not in seen:
                        break
                    char, quad, keys = make(rng)
            seen |= keys
            init = _acc4_init(rng, len(char) - 1)
            while _zero_coset(char, quad, init):
                init = _acc4_init(rng, len(char) - 1)
            for qn in questions:
                ops.append(Op("decide", label, 60.0, qn,
                              _problem(coeffs_of(char), init, qn)))
    return ops


# ---------------------------------------------------------------------------
# decide-torus

def _family_init(p, s2, coords):
    """Start vector of the order-6 family with cone coordinates
    (z, x, y, z', x', y'): u_j = z j - x j cos(j th) - y j sin(j th)/sin(th)
    + z' - x' cos(j th) - y' sin(j th)/sin(th).  `s2` is sin(theta)^2, so
    the table stays rational also when sin(theta) is irrational."""
    z, x, y, zr, xr, yr = coords
    out = []
    c, t = Q(1), Q(0)           # cos(j th), sin(j th)/sin(th)
    for j in range(6):
        out.append(z * j - x * j * c - y * j * t + zr - xr * c - yr * t)
        c, t = p * c - s2 * t, c + p * t
    return out


def _family_coeffs(p):
    circle = [Q(1), -2 * p, Q(1)]
    return coeffs_of(pmul([Q(1), Q(-2), Q(1)], pmul(circle, circle)))


def _cone_coords(rng, outside=False):
    """Seeded cone coordinates, drawn as in acceptance criterion 2; with
    `outside`, redrawn until (z, x, y) is outside the cone z > |(x, y)|."""
    while True:
        z, x, y = (Q(rng.randint(-40, 60), rng.randint(1, 9)),
                   Q(rng.randint(-50, 50), rng.randint(1, 9)),
                   Q(rng.randint(-50, 50), rng.randint(1, 9)))
        zr = Q(rng.randint(-10, 10), rng.randint(1, 5))
        if not (outside and z > 0 and z * z > x * x + y * y):
            return z, x, y, zr, Q(0), Q(0)


P35, S2_35 = Q(3, 5), Q(16, 25)
P12, S2_12 = Q(1, 2), Q(3, 4)
# Ball centres lie outside the cone: such a ball is NO after 0.06-0.5 s
# (about one in eight over 0.2 s).  A centre inside gives YES after
# 0.05-5 s, the more the nearer the ball comes to the cone, too
# heavy-tailed to give a steady figure.
#
# One round: one start at p = 3/5 and two at p = 1/2, each through both
# exists-* questions, and one ball.  The median then falls among the
# finite-torus ops (0.06-0.1 s), and the ten ops beyond latency_tail_s are
# the two cold first ops and the slowest balls, inside the dense part of
# the ball times rather than on the edge of their slow eighth.
TORUS_ROUND = ((P35, S2_35, "order6-p3/5-pair"),
               (P12, S2_12, "order6-p1/2-finite"),
               (P12, S2_12, "order6-p1/2-finite"))


def _gen_torus(rng, rounds, seen):
    """The order-6 family: exists-* at p = 3/5 (one free angle, pair closed
    form) and at p = 1/2 (finite torus), and robust-ultpos-open balls at
    p = 3/5 (certified branch and bound over the ball and the angle).

    Left out: the two-angle branch and bound, exists-robust-ultpos on
    (x^2 - 6/5 x + 1)(x^2 - 10/13 x + 1) at tol 1/256.  One such op takes
    8-16 s warm, plus cold root seeding, depending on the start (even
    starts 1/1000 apart differ by half), so it would fill most of a run and
    its spread across seeds alone would exceed the wall-time bound."""
    ops = []
    family = {p: _family_coeffs(p) for p in (P35, P12)}
    for _ in range(rounds):
        for p, s2, label in TORUS_ROUND:
            init = _family_init(p, s2, _cone_coords(rng))
            for qn in ("exists-robust-ultpos", "exists-robust-positivity"):
                ops.append(Op("decide", label, 30.0, qn,
                              _problem(family[p], init, qn)))
        center = _family_init(P35, S2_35, _cone_coords(rng, outside=True))
        radius = Q(rng.randint(1, 20), 100)
        ops.append(Op("decide", "order6-p3/5-ball", 30.0,
                      "robust-ultpos-open",
                      _problem(family[P35], center, "robust-ultpos-open",
                               ball={"radius": fmt(radius),
                                     "topology": "open"})))
    return ops


# ---------------------------------------------------------------------------
# decide-prefix

_POS_SKOLEM = ("exists-robust-positivity", "exists-robust-skolem")
# One round: (band of m, questions).  Sorted by latency a round reads
# Skolem m~1300 (0.65 s) x2, Skolem m~1700 (0.95 s), positivity m~1300
# (1.45 s) x4, positivity m~1700 (2 s), positivity m~4200 (3.5 s) x2, so
# the median lies between two of the four m~1300 scans and the tail is the
# slower m~4200 scan.
PREFIX_ROUND = ((1300, _POS_SKOLEM), (1300, _POS_SKOLEM),
                (1300, _POS_SKOLEM[:1]), (1300, _POS_SKOLEM[:1]),
                (1700, _POS_SKOLEM), (4200, _POS_SKOLEM[:1]),
                (4200, _POS_SKOLEM[:1]))


def _gen_prefix(rng, rounds, seen):
    """Dominant root 1 with a small constant part A and subdominant roots
    1 - 1/m (and 1 - 2/m).  The residual threshold, about m log(2B/A), is
    above the 4096-term exact-evaluation limit, so the certified orbit scan
    (positivity) and the CRT zero scan (Skolem) do nearly all the work.
    The m~4200 recurrences, A + B r^n + C t^n with B < 0, dip below zero
    after about 1.02 m > 4096 terms: their positivity scan ends in a
    violation that `term_sign` confirms."""
    ops = []
    for _ in range(rounds):
        for band, questions in PREFIX_ROUND:
            while True:
                m = band + rng.randint(0, 60)
                if m not in seen:
                    break
            seen.add(m)
            r = 1 - Q(1, m)
            if band < 4000:
                A, B = Q(1, rng.randint(20, 24)), Q(1)
                terms = ((A, Q(1)), (B, r))
            else:
                A, B, C = Q(1, 10), Q(-1), Q(2)
                terms = ((A, Q(1)), (B, r), (C, 1 - Q(2, m)))
            char = [Q(1)]
            for _, root in terms:
                char = pmul(char, [-root, Q(1)])
            init = [sum(c * root ** n for c, root in terms)
                    for n in range(len(terms))]
            for qn in questions:
                ops.append(Op("decide", f"prefix-m~{band}", 60.0, qn,
                              _problem(coeffs_of(char), init, qn)))
    return ops


# ---------------------------------------------------------------------------
# lab-diophantine

def pythagorean(m, n):
    return Q(m * m - n * n, m * m + n * n), Q(2 * m * n, m * m + n * n)


# Pythagorean points (m, n), 2 <= n < m <= 16, coprime, m - n odd, by the
# time of approximate_L(eps 1/20, horizon 2*10^5) at the defining commit,
# at reference speed: under 0.07 s; 0.23-0.47 s; 0.8-1.2 s.
# lagrange_prefix takes about 1.6 s at every point.  Each round draws one
# fast point, two middle ones and one slow one, so every seed runs the
# same mix: the median falls between two middle points and the tail is
# the slower of two slow ones.  Left out, so that no class straddles the
# median: (11, 6) and (11, 8) (0.12-0.17 s) and (5, 2), (8, 3), (11, 10),
# (13, 8), (16, 9), (16, 13), (16, 15) (0.45-0.8 s).
_LAB_FAST = ((3, 2), (4, 1), (5, 4), (6, 1), (7, 6), (8, 7), (10, 9), (11, 4),
             (12, 1), (12, 5), (13, 2), (13, 12), (14, 1), (14, 9), (15, 2),
             (15, 4), (15, 8), (16, 1))
_LAB_MIDDLE = ((4, 3), (6, 5), (7, 2), (7, 4), (8, 1), (8, 5), (9, 2), (9, 4),
               (9, 8), (10, 1), (10, 3), (10, 7), (11, 2), (12, 7), (13, 6),
               (14, 3), (14, 13), (16, 3), (16, 5), (16, 7), (16, 11))
_LAB_SLOW = ((2, 1), (12, 11), (13, 10), (14, 5), (14, 11), (15, 14))
LAB_ROUND = (("fast", _LAB_FAST), ("middle", _LAB_MIDDLE),
             ("middle", _LAB_MIDDLE), ("slow", _LAB_SLOW))


def _gen_lab(rng, rounds, seen):
    """One op per point: lagrange_prefix and approximate_L at the same
    horizon, whose intervals must agree (acceptance criterion 9).  The two
    calls form one op because apart their latencies (1.6 s against
    0.02-1.2 s) would put the median and the tail percentile of a
    ten-point run on the edge between the two kinds."""
    ops = []
    for _ in range(rounds):
        for name, cls in LAB_ROUND:
            fresh = [pt for pt in cls if pt not in seen] or list(cls)
            m, n = rng.choice(fresh)
            seen.add((m, n))
            ops.append(Op("lab", f"lab-{name}", 60.0,
                          args=(*pythagorean(m, n), LAB_HORIZON)))
    return ops


@dataclass(frozen=True)
class Workload:
    generate: object
    round_s: float          # wall time of one round at the defining commit
    warmup: tuple           # ops run before timing; never generated
    never: tuple            # generator keys of the warm-up inputs


_TORUS_WARMUP = _problem(
    _family_coeffs(Q(5, 13)),
    _family_init(Q(5, 13), Q(144, 169), (Q(3), Q(1), Q(1), Q(1), Q(0), Q(0))),
    "exists-robust-ultpos")
WORKLOADS = {
    "decide-random": Workload(
        _gen_random, 20.0,
        tuple(Op("decide", "warmup", 60.0, qn, _problem([1, 1], [1, 1], qn))
              for qn in DECIDE_QUESTIONS),
        (("poly", (Q(-1), Q(-1), Q(1))),)),
    "decide-torus": Workload(
        _gen_torus, 0.75,
        (Op("decide", "warmup", 60.0, "exists-robust-ultpos", _TORUS_WARMUP),),
        ()),
    "decide-prefix": Workload(
        _gen_prefix, 20.0,
        tuple(Op("decide", "warmup", 60.0, qn,
                 _problem([Q(-9, 10), Q(19, 10)], [Q(2), Q(19, 10)], qn))
              for qn in ("exists-robust-positivity", "exists-robust-skolem")),
        ()),
    "lab-diophantine": Workload(
        _gen_lab, 10.0,
        (Op("lab", "warmup", 60.0, args=(*pythagorean(20, 1), 2000)),),
        ()),
}


def generate(name: str, seed: int, rounds: int) -> list[Op]:
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return wl.generate(rng, rounds, set(wl.never))


# ---------------------------------------------------------------------------
# running one op and checking it

def _resolve(spec):
    """tol / prefix cap / height bound as `robustlrs decide` resolves them
    for a problem file and no flags."""
    tol = spec.tol if spec.tol is not None else DEFAULT_TOL
    cap = (spec.prefix_cap if spec.prefix_cap is not None
           else DEFAULT_PREFIX_CAP)
    hb = spec.height_bound if spec.height_bound is not None else HEIGHT_BOUND
    return tol, cap, hb


def execute(op: Op) -> Outcome:
    """The timed part of one op: module attributes are looked up at call
    time so a traced run sees the wrapped functions."""
    if op.kind == "decide":
        spec = serialize.parse_problem(op.problem)
        text, code = cli.run(spec, op.question, *_resolve(spec))
        if code not in (0, 1, 2):
            raise RuntimeError(f"exit code {code}")
        return Outcome(text, ("YES", "NO", "UNKNOWN")[code])
    p, q, horizon = op.args
    direct = hardness.lagrange_prefix(p, q, horizon)
    est = hardness.approximate_L(p, q, LAB_EPS, horizon)
    doc = {"lagrange_prefix": {"interval": _ival_json(direct), "n": horizon},
           "approximate_L": {"interval": _ival_json(est.interval),
                             "horizon": est.horizon, "probes": est.probes,
                             "horizon_exhausted": est.horizon_exhausted,
                             "note": est.note}}
    return Outcome(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   "UNKNOWN" if est.horizon_exhausted else "OK",
                   (direct, est.interval))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(op: Op, out: Outcome) -> str | None:
    """Seed-independent correctness checks; returns a failure reason.

    A `violation` certificate must be confirmed exactly; a lab estimate
    must overlap the direct prefix enclosure of the same point and, unless
    the horizon ran out, have a midpoint within eps of it (acceptance
    criterion 9)."""
    if op.kind == "decide":
        doc = json.loads(out.text)
        if doc["verdict"] != out.verdict:
            return "verdict differs from exit code"
        cert = doc["certificate"]
        if cert["kind"] == "violation":
            spec = serialize.parse_problem(op.problem)
            n = cert["violating_index"]
            sign = _term_sign(spec.lrr, spec.init, n)
            if op.question == "exists-robust-skolem":
                if sign != 0:
                    return f"claimed zero at n={n} has sign {sign}"
            elif sign > 0:
                return f"claimed violation at n={n} is positive"
            if cert.get("violating_value") is not None and n <= 4096:
                exact = _eval_terms(spec.lrr, spec.init, n)[n]
                if Q(cert["violating_value"]) != exact:
                    return f"violating value at n={n} differs from u_n"
        return None
    direct, est = out.value
    if not (est.lo <= direct.hi and direct.lo <= est.hi):
        return "approximate_L and lagrange_prefix intervals are disjoint"
    if out.verdict == "OK" and abs(est.mid - direct.mid) > LAB_EPS:
        return "approximate_L midpoint is more than eps from the prefix"
    return None
