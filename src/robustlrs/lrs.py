"""Recurrence engine: exact evaluation, spectral data, exponential
polynomial solutions, normalization into dominant + residual parts.

The exponential polynomial coefficients live in each root's own number
field Q[x]/(M), and conjugate roots share one coefficient polynomial, so
    u_n = sum over factors of Trace( A_f(n) * root^n ).
Written in trace form, the first k terms give one rational linear system
in the coordinates of the A_f; the solve hands each root its coefficients
as an element of its own field (`ExpPolySolution`).

The work splits in two halves.  What depends on the recurrence alone is
found once per recurrence and kept in two bounded memos.
`trace_system` factors the characteristic polynomial once, isolates its
roots, forms the system's matrix M, checked once against a table of
traces of powers formed by field multiplication, and inverts it
(`mat_inv`, fraction-free Gauss-Jordan on integers), keeping M and its
inverse as integers over one denominator each.  `recurrence` adds the
spectral data, each root's exact ratio to rho and the dominant forms of
the unit starts.  A start enters only through its coefficients:
`exp_poly_solution` multiplies out the inverse and checks M a = u
exactly on integers, reading the trace system alone, and `normalize`
gives the start's normal form, the dominant form and the list of
residual terms (`ResidualTerm`), empty when v_n is its dominant part.
`residual_threshold` reads that list, and the orbit scan is built from
the pair, which its caller computes once per start.

Terms up to `EXACT_TERMS` are exact, on the scaled integer recurrence
w_n = E * D^n * u_n.  Past it, the sign of a term comes from
`OrbitScanner`, a certified scan of the real number v_n = u_n/(n^m
rho^n), one call of `step` per n: per term it holds one integer record of
the alpha endpoints, the base point, the power point and the exponent of
n, updated in place, one error count serves them all, each term does only
the integer work its shape needs (its products by `interval.imul`), and a
base of 1 is never stepped.  Both
representations stay in this module: `term_sign` gives one exact sign,
`prefix_scan` the positivity check of a whole prefix, and an orbit
enclosure that holds 0 is settled for both by one exact zero scan and
the precision ladder above the scan's own precision, from the start's
normal form.  The zero scan `exact_zeros_up_to` filters modulo a prime
on a window of the last k terms.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qmath import Q, ZERO, ONE, precisions, is_perfect_square, exact_sqrt
from .interval import Ival, Box, imul
from . import poly as P
from .poly import pnorm
from .algebraic import (AlgebraicNumber, FieldElement, NumberField,
                        isolate_roots, locate_root)


@dataclass(frozen=True)
class Lrr:
    """Linear recurrence relation u_{n+k} = sum a_j u_{n+j}."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Q(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("order must be at least 1")
        if self.coeffs[0] == 0:
            raise ValueError("a_0 must be nonzero (standing assumption)")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def char_poly(self) -> tuple[Fraction, ...]:
        """x^k - sum a_j x^j, lowest degree first."""
        return pnorm([-c for c in self.coeffs] + [ONE])


@dataclass(frozen=True)
class InitialConfig:
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(Q(c) for c in self.entries))

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class Ball:
    center: InitialConfig
    radius: Fraction
    topology: str = "open"

    def __post_init__(self):
        object.__setattr__(self, "radius", Q(self.radius))
        if self.radius <= 0:
            raise ValueError("radius > 0 required")
        if self.topology not in ("open", "closed"):
            raise ValueError("topology must be 'open' or 'closed'")


def _check_config(lrr: Lrr, c: InitialConfig):
    if len(c) != lrr.order:
        raise ValueError(f"initial configuration length {len(c)} != order {lrr.order}")


def eval_terms(lrr: Lrr, c: InitialConfig, n_max: int) -> list[Fraction]:
    """Exact terms u_0 .. u_{n_max}: w_n / (E * D^n) on the scaled integer
    recurrence."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    coeffs, init, D, E = _scaled_integer_recurrence(lrr, c)
    terms, scale = [], E
    for w in itertools.islice(_scaled_terms(coeffs, init), n_max + 1):
        terms.append(Q(w, scale))
        scale *= D
    return terms


def mat_inv(m):
    """Exact inverse of a square rational matrix.

    Row i of [M | I] is scaled by the lcm s_i of its denominators, so the
    rows are integers [DM | D].  A fraction-free Gauss-Jordan elimination
    (pivot p, row r <- p * r - f * pivot row, then r divided by the gcd of
    its entries) leaves [Delta | X] with Delta diagonal and X = L D, where
    L (DM) = Delta; so M^-1 = (DM)^-1 D = Delta^-1 X, whose entries are
    the only `Fraction`s formed.  Every caller's matrix is nonsingular by
    construction, so a singular one is an internal fault."""
    n = len(m)
    a = []
    for i, row in enumerate(m):
        q = [Q(v) for v in row]
        s = math.lcm(*(v.denominator for v in q))
        a.append([v.numerator * (s // v.denominator) for v in q]
                 + [s if j == i else 0 for j in range(n)])
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise RuntimeError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        p = prow[col]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                row = [p * v - f * w for v, w in zip(a[r], prow)]
                g = math.gcd(*row)
                a[r] = [v // g for v in row]
    return [[Q(v, row[i]) for v in row[n:]] for i, row in enumerate(a)]


# ---------------------------------------------------------------------------
# spectral data


@dataclass
class SpectralData:
    roots: list[tuple[AlgebraicNumber, int]]
    rho: AlgebraicNumber
    dominant_indices: list[int]
    m: int

    def __post_init__(self):
        if not self.dominant_indices:
            raise RuntimeError("dominant root set cannot be empty")
        if max(self.roots[i][1] for i in self.dominant_indices) != self.m + 1:
            raise RuntimeError("m + 1 is not the largest dominant multiplicity")
        if self.rho.is_rational:
            if not self.rho.as_rational() > 0:
                raise RuntimeError("dominant modulus is not positive")
        elif not self.rho.box(64).re.lo >= 0:
            raise RuntimeError("dominant modulus enclosure is not nonnegative")


def _alg_sqrt(t: AlgebraicNumber, refiner) -> AlgebraicNumber:
    """Positive square root of a positive real algebraic number; `refiner`
    maps a bit count to a box enclosing the root."""
    if t.is_rational:
        v = t.as_rational()
        if is_perfect_square(v):
            return AlgebraicNumber.from_rational(exact_sqrt(v))
        coeffs = (-v, ZERO, ONE)
    else:
        poly = t.defining_poly
        coeffs = [ZERO] * (2 * len(poly) - 1)
        for i, co in enumerate(poly):
            coeffs[2 * i] = co
    return locate_root(coeffs, refiner, "square root identification")


def _conjugate_partners(roots) -> list[int]:
    """partner[i] = j with root_j the complex conjugate of root_i (i when
    real/rational); conjugates share a minimal polynomial and equal modulus
    for free."""
    partner = list(range(len(roots)))
    for i, (a, _) in enumerate(roots):
        if a.is_rational or a.elem.field.is_real_root:
            continue
        fa = a.elem.field
        cf = fa.conjugate_field()
        for j, (b, _) in enumerate(roots):
            if j != i and not b.is_rational and b.elem.field is cf:
                partner[i] = j
                break
    return partner


def _abs_sq_alg(a: AlgebraicNumber) -> AlgebraicNumber:
    """|a|^2 as an exact algebraic number."""
    if a.is_rational:
        return AlgebraicNumber.from_rational(a.as_rational() ** 2)
    cj = a.elem.conj_in_field()
    if cj is not None:
        return AlgebraicNumber.from_element(a.elem * cj)
    mp = [Q(c) for c in a.elem.field.minpoly]
    return locate_root(P.composed_product(mp, mp),
                       lambda bits: Box(a.box(bits).abs_sq(), Ival.point(0)),
                       "squared modulus identification")


def _same_modulus_exact(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    ua, ub = a.is_unit_modulus(), b.is_unit_modulus()
    if ua or ub:
        return ua and ub
    if a.is_rational and b.is_rational:
        return abs(a.as_rational()) == abs(b.as_rational())
    return _abs_sq_alg(a).equals(_abs_sq_alg(b))


def spectral(lrr: Lrr) -> SpectralData:
    """Exact characteristic roots, dominant modulus and m.

    Dominance classes are built by refining |root|^2 enclosures; pairs
    that refuse to separate are resolved by an exact equal-modulus test
    (conjugates and unit-modulus roots are cheap; the general case goes
    through a composed-product polynomial).  The roots are those of the
    recurrence's `trace_system`."""
    roots = trace_system(lrr).roots
    r = len(roots)
    parent = list(range(r))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for i, j in enumerate(_conjugate_partners(roots)):
        union(i, j)
    tested: set[tuple[int, int]] = set()
    for bits in precisions(96, "modulus separation"):
        sqs = [a.box(bits).abs_sq() for a, _ in roots]
        pending = [(i, j) for i in range(r) for j in range(i + 1, r)
                   if find(i) != find(j) and sqs[i].overlaps(sqs[j])]
        for i, j in pending:
            if (i, j) in tested:
                continue
            tested.add((i, j))
            if _same_modulus_exact(roots[i][0], roots[j][0]):
                union(i, j)
        if all(find(i) == find(j) for i, j in pending):
            break
    top = max(range(r), key=lambda i: (sqs[i].lo, i))
    dominant = sorted(i for i in range(r) if find(i) == find(top))
    m = max(roots[i][1] for i in dominant) - 1
    rho = _rho_of(roots[dominant[0]][0])
    return SpectralData(roots=roots, rho=rho, dominant_indices=dominant, m=m)


def _rho_of(rep: AlgebraicNumber) -> AlgebraicNumber:
    if rep.is_rational:
        return AlgebraicNumber.from_rational(abs(rep.as_rational()))
    if rep.is_unit_modulus():
        return AlgebraicNumber.from_rational(ONE)
    if rep.elem.field.is_real_root:
        # |real root|: flip the sign when the embedding is negative; roots
        # are nonzero (a_0 != 0), so the sign is found
        for bits in precisions(64, "sign of a real root"):
            s = rep.box(bits).re.sign()
            if s is not None:
                break
        return rep if s > 0 else AlgebraicNumber.from_element(rep.elem * Q(-1))

    def rho_box(bits):
        return Box(rep.box(bits).abs_sq().sqrt(bits), Ival.point(0))

    return _alg_sqrt(_abs_sq_alg(rep), rho_box)


# ---------------------------------------------------------------------------
# exponential polynomial solution (one rational linear solve in trace form)


@dataclass
class ExpPolySolution:
    """The exponential polynomial u_n = sum over i, j of alpha[i][j] *
    n^j * gamma_i^n, gamma_i the i-th root of the recurrence's
    `trace_system`.  alpha[i] has one entry per power of n below the
    root's multiplicity; an irrational entry is an element of gamma_i's
    own field."""

    alpha: list[list[AlgebraicNumber]]


@dataclass
class TraceSystem:
    """The initial-terms system M a = u of a recurrence in trace form, with
    the factors and roots it is written in and its inverse; found once
    per `Lrr` by `trace_system`, shared by every start, and never changed
    after it is built."""

    factors: list[tuple[tuple[int, ...], int]]  # factor_int(char poly)
    roots: list[tuple[AlgebraicNumber, int]]
    mat: list[list[int]]            # M = mat / mat_den
    mat_den: int
    inv: list[list[int]]            # M^-1 = inv / inv_den
    inv_den: int


@lru_cache(maxsize=256)
def trace_system(lrr: Lrr) -> TraceSystem:
    """The recurrence's `TraceSystem`, kept for the 256 recurrences used
    last.

    The unknowns are the rational coordinates a_{f,j,i} of each
    alpha_{f,j} = sum_i a_{f,j,i} xi_f^i (j < mult f, i < deg f), k of
    them in all.  Tr(alpha_{f,j} n^j xi_f^n) = n^j sum_i a_{f,j,i}
    p_f(n + i), with p_f the power sums of the roots of f, so the terms
    u_0 .. u_{k-1} give a k x k rational system M a = u (a confluent
    Vandermonde system in trace form).  It is nonsingular: the k initial
    terms determine the sequence, and distinct coefficients give distinct
    sequences.  M's power sums are checked here, once, against the traces
    of xi_f^t formed by field multiplication."""
    char = lrr.char_poly()
    factors = P.factor_int(char)
    roots = isolate_roots(char, factors)
    k = lrr.order
    columns = []  # per unknown, in the order (f, j, i): its k coefficients
    for fac, mult in factors:
        d = len(fac) - 1
        ps = P.power_sums(fac, k + d - 1)
        if d > 1 and ps != _trace_table(NumberField.get(fac, 0), k + d - 1):
            raise RuntimeError("power sums differ from the traces of "
                               "the generator's powers")
        for j in range(mult):
            for i in range(d):
                columns.append([n ** j * ps[n + i] for n in range(k)])
    mat = [list(row) for row in zip(*columns)]
    mat_int, mat_den = _over_one_den(mat)
    inv_int, inv_den = _over_one_den(mat_inv(mat))
    return TraceSystem(factors=factors, roots=roots, mat=mat_int,
                       mat_den=mat_den, inv=inv_int, inv_den=inv_den)


def _over_one_den(m: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """A rational matrix as integers over the lcm of its denominators."""
    den = math.lcm(*(v.denominator for row in m for v in row))
    return [[v.numerator * (den // v.denominator) for v in row]
            for row in m], den


@dataclass
class Recurrence:
    """What the analysis of a start reads of its recurrence beyond its
    `TraceSystem`: found once per `Lrr` by `recurrence`, shared by every
    start and question, and never changed after it is built.

    `bases[i]` is root i over rho, exact: of modulus 1 for a dominant
    root.  `units[i]` is the dominant form of the unit start e_i; the
    dominant form is linear in the start, so these are its basis."""

    spec: SpectralData
    bases: list[AlgebraicNumber]
    units: list[DominantForm]

    @property
    def gammas(self) -> list[AlgebraicNumber]:
        """The dominant unit roots s_j of every start's dominant form, in
        its order."""
        spec = self.spec
        return [self.bases[i] for i in spec.dominant_indices
                if spec.roots[i][1] == spec.m + 1]


@lru_cache(maxsize=256)
def recurrence(lrr: Lrr) -> Recurrence:
    """The recurrence's `Recurrence` record, kept for the 256 recurrences
    used last."""
    spec = spectral(lrr)
    rho = spec.rho
    bases = [_unit_ratio(root, rho) if i in spec.dominant_indices
             else _ratio_to_rho(root, rho)
             for i, (root, _) in enumerate(spec.roots)]
    rec = Recurrence(spec=spec, bases=bases, units=[])
    system, k = trace_system(lrr), lrr.order
    for i in range(k):
        e = InitialConfig(tuple(ONE if j == i else ZERO for j in range(k)))
        rec.units.append(_normal(rec, _solve(system, e))[0])
    return rec


def exp_poly_solution(lrr: Lrr, c: InitialConfig) -> ExpPolySolution:
    """u_n = sum over irreducible factors f of Tr(A_f(n) xi_f^n): the
    coordinates of the A_f are inv u, from the recurrence's one inverse
    (`trace_system`)."""
    _check_config(lrr, c)
    return _solve(trace_system(lrr), c)


def _solve(system: TraceSystem, c: InitialConfig) -> ExpPolySolution:
    """The solution a = inv u of one start, checked exactly: M a = u, which
    by linearity of the trace is the identity u_n = sum over f of
    Tr(A_f(n) xi_f^n) for n < k.  With u = U / E over the start's common
    denominator, a = A / (inv_den E) for the integer vector A = inv U, and
    the check is mat A = mat_den inv_den U, all on integers; only the
    coordinates become `Fraction`s."""
    E = math.lcm(*(u.denominator for u in c.entries))
    U = [u.numerator * (E // u.denominator) for u in c.entries]
    A = [sum(a * u for a, u in zip(row, U)) for row in system.inv]
    scale = system.mat_den * system.inv_den
    if any(sum(m * x for m, x in zip(row, A)) != scale * u
           for row, u in zip(system.mat, U)):
        raise RuntimeError("exponential polynomial reconstruction failed")
    den = system.inv_den * E
    coords = [Q(x, den) for x in A]
    # conjugate roots share one coordinate vector per power of n, and
    # `isolate_roots` lists each factor's roots in turn, in factor order
    it, roots, alpha = iter(coords), iter(system.roots), []
    for fac, mult in system.factors:
        d = len(fac) - 1
        vectors = [[next(it) for _ in range(d)] for _ in range(mult)]
        for root, _ in itertools.islice(roots, d):
            alpha.append([AlgebraicNumber.from_rational(v[0]) if d == 1
                          else AlgebraicNumber.from_element(
                              FieldElement(root.elem.field, v))
                          for v in vectors])
    return ExpPolySolution(alpha=alpha)


def _trace_table(fld: NumberField, count: int) -> list[Fraction]:
    """Tr(xi^t) for t < count, xi^t by field multiplication."""
    xi = FieldElement.generator(fld)
    power, out = FieldElement.const(fld, ONE), []
    for _ in range(count):
        out.append(power.trace())
        power = power * xi
    return out


# ---------------------------------------------------------------------------
# normalization: dominant form + residual terms


@dataclass
class DominantForm:
    """v_n^dom = sum alpha_j * s_j^n with s_j the dominant unit roots."""

    terms: list[tuple[AlgebraicNumber, AlgebraicNumber]]  # (alpha_j, s_j)
    rho: AlgebraicNumber | None = None  # dominant modulus (exactness helper)


@dataclass
class ResidualTerm:
    """One term alpha * n^npow * base^n of v_n^res."""

    alpha: AlgebraicNumber
    npow: int                      # exponent of n (negative or zero here)
    base: AlgebraicNumber          # (gamma/rho), modulus <= 1
    base_is_unit: bool


def normalize(lrr: Lrr, c: InitialConfig
              ) -> tuple[DominantForm, list[ResidualTerm]]:
    """Split v_n = u_n/(n^m rho^n) into the dominant form and the list of
    residual terms (empty when v_n is its dominant part)."""
    sol = exp_poly_solution(lrr, c)
    return _normal(recurrence(lrr), sol)


def _normal(rec: Recurrence, sol: ExpPolySolution
            ) -> tuple[DominantForm, list[ResidualTerm]]:
    spec = rec.spec
    m = spec.m
    dom_terms = []
    res_terms = []
    for i, alphas in enumerate(sol.alpha):
        is_dom = i in spec.dominant_indices
        for j, alpha in enumerate(alphas):
            if is_dom and j == m:
                dom_terms.append((alpha, rec.bases[i]))
                continue
            if alpha.is_rational and alpha.as_rational() == 0:
                continue
            res_terms.append(ResidualTerm(alpha=alpha, npow=j - m,
                                          base=rec.bases[i],
                                          base_is_unit=is_dom))
    return DominantForm(terms=dom_terms, rho=spec.rho), res_terms


def _unit_ratio(root: AlgebraicNumber, rho: AlgebraicNumber) -> AlgebraicNumber:
    s = _ratio_to_rho(root, rho)
    if not s.is_unit_modulus():
        raise RuntimeError("dominant ratio is not unit modulus")
    return s


def _ratio_to_rho(root: AlgebraicNumber, rho: AlgebraicNumber) -> AlgebraicNumber:
    """gamma = root/rho, exact.  When the root can be written in rho's field
    (a rational root, the same field, or the other root of rho's real
    quadratic minimal polynomial) this is one field inverse; only a root of
    another field goes through the composed product and root isolation."""
    if rho.is_rational:
        r = rho.as_rational()
        if root.is_rational:
            return AlgebraicNumber.from_rational(root.as_rational() / r)
        return AlgebraicNumber.from_element(root.elem * (1 / r))
    f = rho.elem.field
    if root.is_rational:
        num = FieldElement.const(f, root.as_rational())
    elif root.elem.field is f:
        num = root.elem
    elif (f.degree == 2 and f.is_real_root
          and root.elem.field.minpoly == f.minpoly):
        num = root.elem.root_exchanged(f)
    else:
        num = None
    if num is not None:
        return AlgebraicNumber.from_element(num / rho.elem)
    # the composed product of M and reversed P_rho has the roots root_i/rho_j
    cands = P.composed_product(root.defining_poly,
                               P.preverse(rho.defining_poly))
    return locate_root(cands,
                       lambda bits: root.box(bits) * rho.box(bits).re.inverse(),
                       "unit ratio identification")


def residual_threshold(res: list[ResidualTerm], eps: Fraction) -> int:
    """Certified N with |v_n^res| < eps for all n > N.

    eps is split evenly over the residual terms, and each term's bound
    A * n^t * beta^n (`_term_bound`) is pushed below its share by doubling
    then bisection (`_term_threshold`); N is the largest per-term index.
    A probe compares floor/ceiling 128-bit dyadic bounds of beta^n with
    the share and multiplies out the exact integer powers only when they
    straddle it, so N is exactly the index the rational comparison
    gives.  Its caller passes half of a certified positive bound, so
    eps <= 0 is an internal fault (`RuntimeError`)."""
    eps = Q(eps)
    if eps <= 0:
        raise RuntimeError("eps must be positive")
    if not res:
        return 0
    per_term = eps / len(res)
    return max((_term_threshold(a_hi, t, beta, per_term)
                for a_hi, t, beta in map(_term_bound, res) if a_hi != 0),
               default=0)


def _term_bound(t: ResidualTerm) -> tuple[Fraction, int, Fraction]:
    """(A, t, beta) with |term(n)| <= A * n^t * beta^n: A and beta rational
    upper bounds (96-bit enclosures), beta < 1 unless the base is unit
    modulus."""
    a_hi = t.alpha.box(96).abs(96).hi
    if t.base_is_unit:
        return a_hi, t.npow, ONE
    for b in precisions(96, "certifying |base| < 1"):
        beta = t.base.box(b).abs(b).hi
        if beta < 1:
            return a_hi, t.npow, beta


def _term_threshold(a: Fraction, t: int, beta: Fraction,
                    eps: Fraction) -> int:
    """N with a * n^t * beta^n < eps for every n > N: doubling then
    bisection, from the n0 where the bound starts to decrease."""
    if beta == 1 and t >= 0:
        raise RuntimeError("unit-modulus residual term must decay")
    # the term decreases for n >= n0, where beta * ((n+1)/n)^t < 1
    n0 = 1
    if t > 0:
        while beta * Q(n0 + 1, n0) ** t >= 1:
            n0 *= 2
    # a * n^t * beta^n >= eps  <=>  x * beta^n >= y over the integers
    x = a.numerator * eps.denominator
    y = eps.numerator * a.denominator
    bn, bd = beta.numerator, beta.denominator

    def above(n):
        if t >= 0:
            return _pow_ge(x * n ** t, y, bn, bd, n)
        return _pow_ge(x, y * n ** -t, bn, bd, n)

    lo, hi = n0 - 1, n0     # term(lo) >= eps > term(hi), or lo = n0 - 1
    while above(hi):
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo


_POW_BITS = 128


def _pow_ge(x: int, y: int, bn: int, bd: int, n: int) -> bool:
    """x * (bn/bd)^n >= y for integers x, y, bn >= 0, bd >= bn, n >= 1.

    Decided from floor/ceiling dyadic bounds of (bn/bd)^n with
    `_POW_BITS`-bit mantissas; only when they straddle y does the exact
    integer comparison run (the powers there are n * log2(bd) bits).  Each
    bound m * 2^e is at most 1 with m >= 2^127 or m = 0, so e < 0."""
    (m_lo, e_lo), (m_hi, e_hi) = _dyadic_pow(bn, bd, n)
    if x * m_lo >= y << -e_lo:
        return True
    if x * m_hi < y << -e_hi:
        return False
    return x * bn ** n >= y * bd ** n


def _dyadic_pow(bn: int, bd: int, n: int):
    """(m, e) pairs lo, hi with lo <= (bn/bd)^n <= hi, value m * 2^e; every
    product is floored (lo) or ceiled (hi) back to `_POW_BITS` bits."""

    def mul(a, b, up):
        m, e = a[0] * b[0], a[1] + b[1]
        sh = m.bit_length() - _POW_BITS
        if sh > 0:
            m = -(-m >> sh) if up else m >> sh
            e += sh
        return m, e

    s = _POW_BITS + bd.bit_length() - bn.bit_length()  # > 0: bn <= bd
    blo = ((bn << s) // bd, -s)
    bhi = (-(-(bn << s) // bd), -s)
    lo = hi = (1, 0)
    while n:
        if n & 1:
            lo, hi = mul(lo, blo, False), mul(hi, bhi, True)
        n >>= 1
        if n:
            blo, bhi = mul(blo, blo, False), mul(bhi, bhi, True)
    return lo, hi


# ---------------------------------------------------------------------------
# certified orbit scanning and exact sign / zero tests


class OrbitScanner:
    """Sequential certified enclosures of the real number
    v_n = v_n^dom + v_n^res, one call of `step` per n.

    Each term's base^n is tracked as a dyadic point (c + d i)/2^bits with
    additive error: multiplication by a unit-modulus number is an isometry
    up to the approximation of the base itself, so enclosure widths grow
    only linearly in n.  Every term starts from the same point 1 and steps
    with the same `bits` and the same base error, so one error count, in
    ulps of 2^-bits, serves them all.  Every term's alpha enclosure is held
    as integer endpoints over one common denominator, so the enclosure of
    v_n is computed on integers, over `den * 2^bits * n^P` with P the
    largest -npow.  v_n is real, so only the real part of each
    alpha * base^n is summed.  `normal` is the start's (form, residual
    terms) pair from `normalize`.

    Each term is one mutable integer record, built once with its shape,
    and `step` updates it in place and does only the work the shape needs:
    a base of exactly 1 is never multiplied; a real base (its point has
    imaginary part 0) keeps a real power, stepped with one product; a real
    alpha forms no imaginary product, and when its sign is fixed and the
    power lies above the error band its two end products are written out;
    only the other products of two integer intervals go through
    `interval.imul`, which takes the two end products the factors' signs
    pick; and n^0 is
    never formed: a term whose power of n over the common denominator is 0
    is summed as it is, and a scan without negative powers of n keeps one
    denominator.
    """

    def __init__(self, normal: tuple[DominantForm, list[ResidualTerm]],
                 bits: int):
        self.bits = bits
        form, res = normal
        triples = [(a, b, 0) for a, b in form.terms] + \
                  [(t.alpha, t.base, t.npow) for t in res]
        # every alpha is refined before any base: root boxes are cached at
        # the deepest precision asked for, so the order fixes the boxes
        ends = []
        for a, _, _ in triples:
            ab = a.refine(Q(1, 1 << bits))
            ends.append((ab.re.lo, ab.re.hi, ab.im.lo, ab.im.hi))
        den = math.lcm(*(x.denominator for e in ends for x in e))
        scale = 1 << bits
        npow_max = max([0] + [-npow for _, _, npow in triples])
        # one record per term: alpha ends (re lo, re hi, im lo, im hi) over
        # den, base point, power point, the power of n that scales the term
        # over the common denominator, whether the base moves the power,
        # and the sign of a real alpha (0 for a complex or straddling one)
        self._terms = []
        for e, (_, b, npow) in zip(ends, triples):
            ar_lo, ar_hi, ai_lo, ai_hi = (x.numerator * (den // x.denominator)
                                          for x in e)
            bb = b.refine(Q(1, scale * 4))
            br, bi = int(bb.re.mid * scale), int(bb.im.mid * scale)
            sign = 0 if ai_lo or ai_hi else \
                1 if ar_lo >= 0 else -1 if ar_hi <= 0 else 0
            self._terms.append([ar_lo, ar_hi, ai_lo, ai_hi, br, bi, scale, 0,
                                npow + npow_max, (br, bi) != (scale, 0), sign])
        self.err = 0  # ulps of euclidean error on every base^n
        self._den = den << bits
        self._npow_max = npow_max
        self.n = 0

    def step(self) -> tuple[int, int, int]:
        """Advance every power to the next n and return (lo, hi, den):
        integers with lo/den <= v_n <= hi/den, den > 0."""
        s = self.bits
        # |v| <= 1 + err; multiplying by the approximate base adds its own
        # error (3 ulps: box mid to true value) plus truncation; keep an
        # integral, safely-rounded-up bound
        err = self.err = self.err + 7 + (self.err >> (s - 8))
        n = self.n = self.n + 1
        e = err + 2
        lo = hi = 0
        for t in self._terms:
            ar_lo, ar_hi, ai_lo, ai_hi, br, bi, vr, vi, k, moves, sign = t
            if moves:
                if bi:
                    vr, vi = (vr * br - vi * bi) >> s, (vr * bi + vi * br) >> s
                    t[7] = vi
                else:
                    vr = (vr * br) >> s
                t[6] = vr
            # re(alpha box * power box) = ar pr - ai pi
            if sign and vr > e:
                if sign > 0:
                    re_lo, re_hi = ar_lo * (vr - e), ar_hi * (vr + e)
                else:
                    re_lo, re_hi = ar_lo * (vr + e), ar_hi * (vr - e)
            else:
                re_lo, re_hi = imul(ar_lo, ar_hi, vr - e, vr + e)
                if ai_lo or ai_hi:  # else the ai product is the point 0
                    b_lo, b_hi = imul(ai_lo, ai_hi, vi - e, vi + e)
                    re_lo, re_hi = re_lo - b_hi, re_hi - b_lo
            if k:
                m = n ** k
                re_lo, re_hi = re_lo * m, re_hi * m
            lo += re_lo
            hi += re_hi
        if self._npow_max:
            return lo, hi, self._den * n ** self._npow_max
        return lo, hi, self._den


def _scaled_integer_recurrence(lrr: Lrr, c: InitialConfig):
    """Integer sequence w_n = E * D^n * u_n with sign(w_n) = sign(u_n):
    its coefficients, its first k terms, D and E.  A start whose length is
    not the order raises `ValueError`."""
    _check_config(lrr, c)
    D = math.lcm(*[a.denominator for a in lrr.coeffs])
    E = math.lcm(*[v.denominator for v in c.entries])
    k = lrr.order
    coeffs = [int(lrr.coeffs[j] * D ** (k - j)) for j in range(k)]
    init = [int(v * E * D**n) for n, v in enumerate(c.entries)]
    return coeffs, init, D, E


def _scaled_terms(coeffs: list[int], init: list[int]):
    """w_0, w_1, ... of the scaled integer recurrence, without end."""
    w = list(init)
    yield from w
    while True:
        w = w[1:] + [sum(a * x for a, x in zip(coeffs, w))]
        yield w[-1]


def scaled_term(lrr: Lrr, c: InitialConfig, n: int) -> tuple[int, int]:
    """(w, s) with u_n = w / s and s = E * D^n > 0, by integer recursion."""
    coeffs, init, D, E = _scaled_integer_recurrence(lrr, c)
    return next(itertools.islice(_scaled_terms(coeffs, init), n, None)), E * D**n


# The second largest prime below 2^62.  Any modulus is sound, since the
# candidates it leaves are confirmed exactly; a large prime leaves few.
_FILTER_PRIME = (1 << 62) - 87


def exact_zeros_up_to(lrr: Lrr, c: InitialConfig, n_max: int) -> list[int]:
    """All n <= n_max with u_n = 0 exactly.  One pass of the scaled integer
    recurrence modulo a 62-bit prime leaves the candidates, every true zero
    among them (usually none); one exact pass up to the largest candidate
    keeps the true ones."""
    coeffs, init, _, _ = _scaled_integer_recurrence(lrr, c)
    p = _FILTER_PRIME
    window = collections.deque((v % p for v in init), maxlen=len(init))
    candidates = [n for n, v in enumerate(window) if v == 0 and n <= n_max]
    for n in range(len(init), n_max + 1):
        v = sum(map(operator.mul, coeffs, window)) % p
        if v == 0:
            candidates.append(n)
        window.append(v)
    if not candidates:
        return []
    exact = itertools.islice(_scaled_terms(coeffs, init), candidates[-1] + 1)
    return [n for n, w in enumerate(exact) if w == 0]


# Terms u_n with n <= EXACT_TERMS are evaluated exactly on the scaled
# integer recurrence; past it, signs come from the certified orbit scan at
# _SCAN_BITS, and up the precision ladder where its enclosure holds 0.
EXACT_TERMS = 4096
_SCAN_BITS = 192


def term_sign(lrr: Lrr, c: InitialConfig, n: int) -> int:
    """Exact sign of u_n(c): -1, 0, or +1."""
    if n <= EXACT_TERMS:
        w, _ = scaled_term(lrr, c, n)
        return (w > 0) - (w < 0)
    normal = normalize(lrr, c)
    sign = _scan_sign(normal, n, _SCAN_BITS)
    return _orbit_sign(lrr, c, n, normal) if sign is None else sign


def _scan_sign(normal, n: int, bits: int) -> int | None:
    """The sign of v_n from one orbit scan of n steps at `bits`, or None
    when its enclosure holds 0."""
    sc = OrbitScanner(normal, bits)
    for _ in range(n):
        lo, hi, _ = sc.step()
    return 1 if lo > 0 else -1 if hi < 0 else None


def _orbit_sign(lrr: Lrr, c: InitialConfig, n: int,
                normal: tuple[DominantForm, list[ResidualTerm]]) -> int:
    """Exact sign of u_n past `EXACT_TERMS` once its orbit enclosure at
    `_SCAN_BITS` holds 0: the exact zero scan, then the orbit scan from the
    start's normal form on the precision ladder from 2 * `_SCAN_BITS`."""
    if n in exact_zeros_up_to(lrr, c, n):
        return 0
    for bits in precisions(2 * _SCAN_BITS, "term sign"):
        sign = _scan_sign(normal, n, bits)
        if sign is not None:
            return sign


def prefix_scan(lrr: Lrr, c: InitialConfig, n_thr: int, normal):
    """Scan u_0..u_{n_thr} for a term u_n <= 0: returns (violation_n,
    value, margin); `normal` is the start's (form, residual terms) pair
    from `normalize`.

    Up to `EXACT_TERMS` terms the scan runs on the scaled integer
    recurrence w_n = E * D^n * u_n, which has the signs of u_n.  The
    running minimum is kept as best = w_m * D^(n-m), so that comparing it
    with w_n compares u_m with u_n; it becomes a `Fraction` once, at the
    end, and is the margin.  Past that the certified orbit scan of
    v_n = u_n/(n^m rho^n) runs: an enclosure below zero is a violation,
    and only an enclosure holding 0 needs an exact sign test.  The margin
    is then the least certified lower bound of v_n, or 0 once a term had
    to be confirmed positive exactly; the value of a violation past
    `EXACT_TERMS` is not formed (None)."""
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
    # the least lower bound is kept as an integer pair (numerator,
    # denominator); while the denominator stays the same, the numerators
    # alone are compared
    low = None
    step = OrbitScanner(normal, _SCAN_BITS).step
    for n in range(1, n_thr + 1):
        lo, hi, den = step()
        if lo > 0:
            if low is None or (lo < low[0] if den == low[1]
                               else lo * low[1] < low[0] * den):
                low = (lo, den)
            continue
        if n <= EXACT_TERMS:
            w, s = scaled_term(lrr, c, n)
            if w <= 0:
                return n, Q(w, s), None
        elif hi < 0 or _orbit_sign(lrr, c, n, normal) <= 0:
            return n, None, None
        # u_n > 0 exactly, but no positive lower bound of v_n is certified
        low = (0, 1)
    return None, None, None if low is None else Q(*low)
