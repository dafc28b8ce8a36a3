"""Recurrence engine: exact evaluation, spectral data, exponential
polynomial solutions, normalization into dominant + residual parts.

The exponential polynomial coefficients live in each root's own number
field Q[x]/(M), and conjugate roots share one coefficient polynomial, so
    u_n = sum over factors of Trace( A_f(n) * root^n ).
Written in trace form, the first k terms give one rational linear system
in the coordinates of the A_f.  The characteristic polynomial is factored
once, by `spectral`, and `SpectralData.factors` serves the solve; the
system is inverted on integers (`mat_inv`, fraction-free Gauss-Jordan).
Its exact check uses one table of traces of powers per factor, formed by
field multiplication, against which every start is checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .qmath import Q, ZERO, ONE, precisions
from .interval import Ival, Box
from . import poly as P
from .poly import pnorm, PolyRat
from .algebraic import (AlgebraicNumber, FieldElement, NumberField,
                        isolate_roots)


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
    _check_config(lrr, c)
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
    factors: list[tuple[tuple[int, ...], int]]  # factor_int(char poly)

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

    @property
    def order(self) -> int:
        return sum(mult for _, mult in self.roots)


def _alg_sqrt(t: AlgebraicNumber, refiner) -> AlgebraicNumber:
    """Positive square root of a positive real algebraic number; `refiner`
    maps a bit count to a box enclosing the root."""
    if t.is_rational:
        v = t.as_rational()
        from .qmath import is_perfect_square, exact_sqrt
        if is_perfect_square(v):
            return AlgebraicNumber.from_rational(exact_sqrt(v))
        coeffs = (-v, ZERO, ONE)
    else:
        ints = t._defining_ints()
        coeffs = [ZERO] * (2 * len(ints) - 1)
        for i, co in enumerate(ints):
            coeffs[2 * i] = Q(co)
    return _locate_as_root(coeffs, refiner, "square root identification")


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
    return _locate_as_root(P.composed_product(mp, mp),
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
    through a composed-product polynomial)."""
    char = lrr.char_poly()
    factors = P.factor_int(char)
    roots = isolate_roots(PolyRat(char), factors)
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
    return SpectralData(roots=roots, rho=rho, dominant_indices=dominant, m=m,
                        factors=factors)


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


def _locate_as_root(coeffs, refiner, what: str) -> AlgebraicNumber:
    """The one root of the polynomial `coeffs` whose box meets the box
    `refiner(bits)` enclosing the wanted number, refined until one does."""
    cands = isolate_roots(coeffs)
    for bits in precisions(64, what):
        b = refiner(bits)
        alive = [a for a, _ in cands if not a.box(bits).disjoint(b)]
        if len(alive) == 1:
            return alive[0]


# ---------------------------------------------------------------------------
# exponential polynomial solution (one rational linear solve in trace form)


@dataclass
class _FactorSolution:
    """Per irreducible factor: shared coefficient polynomials A_j in K_f."""

    minpoly: tuple[int, ...]
    mult: int
    alphas: list  # alphas[j] is Fraction (degree-1 factor) or FieldElement


@dataclass
class ExpPolySolution:
    """alpha table: per root embedding i and power j, the coefficient of
    n^j gamma_i^n in u_n."""

    factors: list[_FactorSolution]
    roots: list[tuple[AlgebraicNumber, int]]
    alpha: dict  # (root_index, j) -> AlgebraicNumber


def exp_poly_solution(lrr: Lrr, c: InitialConfig,
                      spec: SpectralData | None = None) -> ExpPolySolution:
    """u_n = sum over irreducible factors f of Tr(A_f(n) xi_f^n): the
    one-start case of `exp_poly_solutions`."""
    return exp_poly_solutions(lrr, [c], spec)[0]


def exp_poly_solutions(lrr: Lrr, starts: list[InitialConfig],
                       spec: SpectralData | None = None
                       ) -> list[ExpPolySolution]:
    """The exponential polynomial solution of each start, from one inverse.

    The unknowns are the rational coordinates a_{f,j,i} of each
    alpha_{f,j} = sum_i a_{f,j,i} xi_f^i (j < mult f, i < deg f), k of
    them in all.  Tr(alpha_{f,j} n^j xi_f^n) = n^j sum_i a_{f,j,i}
    p_f(n + i), with p_f the power sums of the roots of f, so the terms
    u_0 .. u_{k-1} give a k x k rational system M a = u (a confluent
    Vandermonde system in trace form).  It is nonsingular: the k initial
    terms determine the sequence, and distinct coefficients give distinct
    sequences.  The matrix depends on the recurrence only, so one inverse
    serves every start.

    The check is exact and runs for every start: M's power sums are the
    traces of xi_f^t formed by field multiplication (once per call), and
    then M a = u, which by linearity of the trace is the identity
    u_n = sum over f of Tr(A_f(n) xi_f^n) for n < k."""
    for c in starts:
        _check_config(lrr, c)
    if spec is None:
        char = lrr.char_poly()
        factors = P.factor_int(char)
        roots = isolate_roots(PolyRat(char), factors)
    else:
        factors, roots = spec.factors, spec.roots
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
    inv = mat_inv(mat)
    solutions = []
    for c in starts:
        coords = [sum((a * u for a, u in zip(row, c.entries)), ZERO)
                  for row in inv]
        if any(sum((a * x for a, x in zip(row, coords)), ZERO) != u
               for row, u in zip(mat, c.entries)):
            raise RuntimeError("exponential polynomial reconstruction failed")
        it = iter(coords)
        factor_solutions = []
        for fac, mult in factors:
            d = len(fac) - 1
            if d == 1:
                alphas = [next(it) for _ in range(mult)]
            else:
                fld = NumberField.get(fac, 0)
                alphas = [FieldElement(fld, [next(it) for _ in range(d)])
                          for _ in range(mult)]
            factor_solutions.append(_FactorSolution(minpoly=fac, mult=mult,
                                                    alphas=alphas))
        solutions.append(ExpPolySolution(
            factors=factor_solutions, roots=roots,
            alpha=_alpha_per_embedding(factor_solutions, roots)))
    return solutions


def _trace_table(fld: NumberField, count: int) -> list[Fraction]:
    """Tr(xi^t) for t < count, xi^t by field multiplication."""
    xi = FieldElement.generator(fld)
    power, out = FieldElement.const(fld, ONE), []
    for _ in range(count):
        out.append(power.trace())
        power = power * xi
    return out


def _alpha_per_embedding(factor_solutions, roots) -> dict:
    """Map (root_index, power) to the embedded coefficient value."""
    table = {}
    for i, (root, mult) in enumerate(roots):
        fs = next(f for f in factor_solutions
                  if _root_matches_factor(root, f.minpoly))
        for j in range(mult):
            a = fs.alphas[j]
            if isinstance(a, Fraction):
                table[(i, j)] = AlgebraicNumber.from_rational(a)
            elif root.is_rational:
                table[(i, j)] = AlgebraicNumber.from_rational(a.as_rational())
            else:
                emb_field = root.elem.field
                table[(i, j)] = AlgebraicNumber.from_element(
                    FieldElement(emb_field, a.coeffs))
    return table


def _root_matches_factor(root: AlgebraicNumber, minpoly: tuple[int, ...]) -> bool:
    if root.is_rational:
        return len(minpoly) == 2 and Q(-minpoly[0], minpoly[1]) == root.as_rational()
    return root.elem.field.minpoly == tuple(minpoly)


# ---------------------------------------------------------------------------
# normalization: dominant form + residual evaluator


@dataclass
class DominantForm:
    """v_n^dom = sum alpha_j * s_j^n with s_j the dominant unit roots."""

    terms: list[tuple[AlgebraicNumber, AlgebraicNumber]]  # (alpha_j, s_j)
    conjugate_closed: bool = True
    rho: AlgebraicNumber | None = None  # dominant modulus (exactness helper)


@dataclass
class _ResidualTerm:
    alpha: AlgebraicNumber
    npow: int                      # exponent of n (negative or zero here)
    base: AlgebraicNumber          # (gamma/rho), modulus <= 1
    base_is_unit: bool


class ResidualEvaluator:
    """Certified enclosures of v_n^res and per-term decay bookkeeping."""

    def __init__(self, terms: list[_ResidualTerm]):
        self.terms = terms

    def __call__(self, n: int, bits: int = 128) -> Ival:
        return self.box(n, bits).re

    def box(self, n: int, bits: int = 128) -> Box:
        if n < 1:
            raise ValueError("residual evaluation starts at n = 1")
        acc = Box.point(0)
        for t in self.terms:
            npow = Q(n) ** t.npow
            term = t.alpha.box(bits) * t.base.box(bits).pow(n, bits + 32) * npow
            acc = (acc + term).round_out(bits + 16)
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def term_bounds(self, bits: int = 96) -> list[tuple[Fraction, int, Fraction]]:
        """Per term (A, t, beta): |term(n)| <= A * n^t * beta^n with A, beta
        rational upper bounds and beta < 1 unless the base is unit modulus."""
        out = []
        for t in self.terms:
            a_hi = t.alpha.box(bits).abs(bits).hi
            if t.base_is_unit:
                beta = ONE
            else:
                for b in precisions(bits, "certifying |base| < 1"):
                    beta = t.base.box(b).abs(b).hi
                    if beta < 1:
                        break
            out.append((a_hi, t.npow, beta))
        return out


def normalize(lrr: Lrr, c: InitialConfig,
              spec: SpectralData | None = None,
              sol: ExpPolySolution | None = None
              ) -> tuple[DominantForm, ResidualEvaluator]:
    """Split v_n = u_n/(n^m rho^n) into dominant and residual parts."""
    if spec is None:
        spec = spectral(lrr)
    if sol is None:
        sol = exp_poly_solution(lrr, c, spec)
    m = spec.m
    rho = spec.rho
    dom_terms = []
    res_terms = []
    for i, (root, mult) in enumerate(spec.roots):
        is_dom = i in spec.dominant_indices
        unit = _unit_ratio(root, rho) if is_dom else None
        for j in range(mult):
            alpha = sol.alpha[(i, j)]
            if is_dom and j == m:
                dom_terms.append((alpha, unit))
                continue
            if alpha.is_rational and alpha.as_rational() == 0:
                continue
            base = unit if is_dom else _ratio_to_rho(root, rho)
            res_terms.append(_ResidualTerm(alpha=alpha, npow=j - m, base=base,
                                           base_is_unit=is_dom))
    form = DominantForm(terms=dom_terms, rho=rho)
    return form, ResidualEvaluator(res_terms)


def _unit_ratio(root: AlgebraicNumber, rho: AlgebraicNumber) -> AlgebraicNumber:
    s = _ratio_to_rho(root, rho)
    if not s.is_unit_modulus():
        raise AssertionError("dominant ratio is not unit modulus")
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
    cands = P.composed_product([Q(v) for v in root._defining_ints()],
                               P.preverse([Q(v) for v in rho._defining_ints()]))
    return _locate_as_root(cands,
                           lambda bits: root.box(bits) * rho.box(bits).re.inverse(),
                           "unit ratio identification")


def residual_threshold(res: ResidualEvaluator, eps: Fraction,
                       bits: int = 96) -> int:
    """Certified N with |v_n^res| < eps for all n > N.

    eps is split evenly over the residual terms, and each term's bound
    A * n^t * beta^n is pushed below its share by doubling then bisection
    (`_term_threshold`); N is the largest per-term index.  A probe
    compares floor/ceiling 128-bit dyadic bounds of beta^n with the share
    and multiplies out the exact integer powers only when they straddle
    it, so N is exactly the index the rational comparison gives."""
    eps = Q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if res.is_zero():
        return 0
    bounds = res.term_bounds(bits)
    per_term = eps / len(bounds)
    return max((_term_threshold(a_hi, t, beta, per_term)
                for a_hi, t, beta in bounds if a_hi != 0), default=0)


def _term_threshold(a: Fraction, t: int, beta: Fraction,
                    eps: Fraction) -> int:
    """N with a * n^t * beta^n < eps for every n > N: doubling then
    bisection, from the n0 where the bound starts to decrease."""
    if beta == 1:
        # a * n^t with t <= -1: need n^|t| > a/eps
        if t >= 0:
            raise AssertionError("unit-modulus residual term must decay")
        target = a / eps
        n = 1
        while Q(n) ** (-t) <= target:
            n *= 2
        lo, hi = n // 2, n
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if Q(mid) ** (-t) <= target:
                lo = mid
            else:
                hi = mid
        return lo
    # geometric decay: find n0 from which the term decreases, i.e.
    # beta * ((n+1)/n)^t < 1 for n >= n0, then push below eps
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

    if not above(n0):
        return n0 - 1
    n = n0
    while above(n):
        n *= 2
    lo, hi = n // 2, n  # term(lo) >= eps > term(hi), lo >= n0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo


_POW_BITS = 128


def _pow_ge(x: int, y: int, bn: int, bd: int, n: int) -> bool:
    """x * (bn/bd)^n >= y for integers x, y, bn >= 0, bd > bn, n >= 1.

    Decided from floor/ceiling dyadic bounds of (bn/bd)^n with
    `_POW_BITS`-bit mantissas; only when they straddle y does the exact
    integer comparison run (the powers there are n * log2(bd) bits)."""
    lo, hi = _dyadic_pow(bn, bd, n)
    if _dyadic_ge(x, lo, y):
        return True
    if not _dyadic_ge(x, hi, y):
        return False
    return x * bn ** n >= y * bd ** n


def _dyadic_ge(x: int, d: tuple[int, int], y: int) -> bool:
    m, e = d
    if e >= 0:
        return (x * m) << e >= y
    return x * m >= y << -e


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

    s = _POW_BITS + bd.bit_length() - bn.bit_length()  # > 0: bn < bd
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
    """Sequential certified enclosures of v_n = v_n^dom + v_n^res.

    Unit-root powers are tracked as dyadic points with additive error
    (multiplication by a unit-modulus number is an isometry up to the
    approximation of the base itself), so enclosure widths grow only
    linearly in n.  Every track's alpha enclosure is held as integer
    endpoints over one common denominator, so the enclosure of v_n is
    computed on integers, over `den * 2^bits * n^P` with P the largest
    -npow (`enclosure`); `v_box` turns it into a `Box` of `Fraction`s.
    `normal` is the start's (form, residual) pair from `normalize`; it is
    computed here when the caller holds none.
    """

    def __init__(self, lrr: Lrr, c: InitialConfig, bits: int = 160,
                 normal: tuple[DominantForm, ResidualEvaluator] | None = None):
        self.bits = bits
        form, res = normal or normalize(lrr, c)
        self.form, self.res = form, res
        triples = [(a, b, 0) for a, b in form.terms] + \
                  [(t.alpha, t.base, t.npow) for t in res.terms]
        ends = []
        for a, _, _ in triples:
            ab = a.refine(Q(1, 1 << bits))
            ends.append((ab.re.lo, ab.re.hi, ab.im.lo, ab.im.hi))
        den = math.lcm(*(x.denominator for e in ends for x in e))
        self._track = [
            _PowerTrack(tuple(x.numerator * (den // x.denominator) for x in e),
                        b, npow, bits)
            for e, (_, b, npow) in zip(ends, triples)]
        self._den = den << bits
        self._npow_max = max([0] + [-t.npow for t in self._track])
        self.n = 0

    def step(self):
        for t in self._track:
            t.step()
        self.n += 1

    def enclosure(self) -> tuple[int, int, int, int, int]:
        """(re_lo, re_hi, im_lo, im_hi, den): integers with v_n in
        [re_lo, re_hi]/den + i [im_lo, im_hi]/den, den > 0."""
        if self.n < 1:
            raise ValueError("scan value defined for n >= 1")
        return self._sum(self._track, self.n)

    def v_box(self) -> Box:
        return _box_of(*self.enclosure())

    def v_dom_box(self) -> Box:
        return _box_of(*self._sum(self._track[:len(self.form.terms)],
                                  max(self.n, 1)))

    def _sum(self, tracks, n: int):
        rl = rh = il = ih = 0
        for t in tracks:
            e = t.err + 2
            pr_lo, pr_hi, pi_lo, pi_hi = t.vr - e, t.vr + e, t.vi - e, t.vi + e
            ar_lo, ar_hi, ai_lo, ai_hi = t.alpha
            # (alpha box) * (power box): re = ar pr - ai pi, im = ar pi + ai pr
            re_lo, re_hi = _imul(ar_lo, ar_hi, pr_lo, pr_hi)
            im_lo, im_hi = _imul(ar_lo, ar_hi, pi_lo, pi_hi)
            if ai_lo or ai_hi:  # else both ai products are the point 0
                b_lo, b_hi = _imul(ai_lo, ai_hi, pi_lo, pi_hi)
                d_lo, d_hi = _imul(ai_lo, ai_hi, pr_lo, pr_hi)
                re_lo, re_hi = re_lo - b_hi, re_hi - b_lo
                im_lo, im_hi = im_lo + d_lo, im_hi + d_hi
            s = n ** (t.npow + self._npow_max)
            rl += re_lo * s
            rh += re_hi * s
            il += im_lo * s
            ih += im_hi * s
        return rl, rh, il, ih, self._den * n ** self._npow_max


def _imul(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    p = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(p), max(p)


def _box_of(rl: int, rh: int, il: int, ih: int, den: int) -> Box:
    return Box(Ival(Q(rl, den), Q(rh, den)), Ival(Q(il, den), Q(ih, den)))


class _PowerTrack:
    """base^n as a dyadic point with certified error; `alpha` holds the
    integer numerators (re_lo, re_hi, im_lo, im_hi) of the coefficient's
    enclosure over the scanner's common denominator."""

    __slots__ = ("alpha", "npow", "bits", "scale", "br", "bi", "berr",
                 "vr", "vi", "err")

    def __init__(self, alpha: tuple[int, int, int, int],
                 base: AlgebraicNumber, npow: int, bits: int):
        self.bits = bits
        self.scale = 1 << bits
        self.npow = npow
        self.alpha = alpha
        bb = base.refine(Q(1, self.scale * 4))
        self.br = int(bb.re.mid * self.scale)
        self.bi = int(bb.im.mid * self.scale)
        self.berr = 3  # ulps: box mid to true value
        self.vr, self.vi = self.scale, 0
        self.err = 0  # ulps of euclidean error on base^n

    def step(self):
        s = self.bits
        vr, vi, br, bi = self.vr, self.vi, self.br, self.bi
        self.vr = (vr * br - vi * bi) >> s
        self.vi = (vr * bi + vi * br) >> s
        # |v| <= 1 + err; multiplying by the approximate base adds its own
        # error plus truncation; keep an integral, safely-rounded-up bound
        self.err = self.err + self.berr + 4 + (self.err >> (s - 8))


def _scaled_integer_recurrence(lrr: Lrr, c: InitialConfig):
    """Integer sequence w_n = E * D^n * u_n with sign(w_n) = sign(u_n):
    its coefficients, its first k terms, D and E."""
    D = math.lcm(*[a.denominator for a in lrr.coeffs])
    E = math.lcm(*[v.denominator for v in c.entries]) if len(c) else 1
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
    k, p = lrr.order, _FILTER_PRIME
    seq = [v % p for v in init]
    for n in range(k, n_max + 1):
        seq.append(sum(coeffs[j] * seq[n - k + j] for j in range(k)) % p)
    candidates = [n for n in range(min(n_max + 1, len(seq))) if seq[n] == 0]
    if not candidates:
        return []
    exact = itertools.islice(_scaled_terms(coeffs, init), candidates[-1] + 1)
    return [n for n, w in enumerate(exact) if w == 0]


# Terms u_n with n <= EXACT_TERMS are evaluated exactly on the scaled
# integer recurrence; past it, signs come from the certified orbit scan.
EXACT_TERMS = 4096


def term_sign(lrr: Lrr, c: InitialConfig, n: int) -> int:
    """Exact sign of u_n(c): -1, 0, or +1."""
    if n < lrr.order:
        v = c.entries[n]
        return (v > 0) - (v < 0)
    if n <= EXACT_TERMS:
        w, _ = scaled_term(lrr, c, n)
        return (w > 0) - (w < 0)
    normal = normalize(lrr, c)
    for bits in precisions(192, "term sign"):
        sc = OrbitScanner(lrr, c, bits, normal)
        for _ in range(n):
            sc.step()
        s = sc.v_box().re.sign()
        if s is not None:
            return s
        if n in exact_zeros_up_to(lrr, c, n):
            return 0
