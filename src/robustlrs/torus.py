"""Multiplicative relation lattice of the dominant unit roots and the
constructive parametrization of the closure torus.

Soundness is unconditional: every emitted generator is verified by an
exact power-product identity.  Completeness is proved structurally in
three situations (all roots of unity; a single non-root-of-unity; one
inverse-conjugate pair plus roots of unity -- any extra relation would
force the base to be a root of unity).  Otherwise a bounded LLL-assisted
search runs and the lattice is flagged incomplete; a too-coarse lattice
only enlarges the torus, so downstream minima become sound lower bounds.

The search works from the boxes it already holds: the 96-bit boxes that
give the LLL basis its angles also screen every candidate on integers
(`_product_screen`), so the exact test runs only on a candidate whose
product box holds 1.  No box is requested deeper than the search's own
96 bits: a field keeps its deepest root box and hands it to every later,
shallower request, so a deeper box here could move enclosures that a
report prints.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qmath import Q, ZERO, precisions
from .trig import unit_box
from .interval import box_ends, mul_ends, round_ends
from .intmat import hnf_rows, snf, kernel_basis, lll_reduce
from .poly import cyclotomic
from .algebraic import (AlgebraicNumber, NumberField,
                        identify_root_of_unity, power_product_is_one)

_TORSION_CAP = 4096


@dataclass
class RelationLattice:
    k: int
    generators: list[list[int]]     # HNF rows, each an exact relation
    height_bound: int
    complete: bool


@dataclass(frozen=True)
class TorusPoint:
    """Point in parametrization coordinates: a torsion coset index plus
    free angles given as rational turns."""

    coset: int
    angles: tuple[Fraction, ...]


@dataclass
class TorusParam:
    """The closure torus as torsion cosets times free angles: the point
    of coset c at free angles a has turns coset_turns[c] + embedding * a
    (mod 1) in each coordinate."""

    free_rank: int
    embedding: list[list[int]]      # k x free_rank integer matrix
    coset_turns: list[tuple[Fraction, ...]]  # coset representatives
    lattice: RelationLattice

    @property
    def k(self) -> int:
        return self.lattice.k


@lru_cache(maxsize=None)
def root_of_unity_alg(k: int, n: int) -> AlgebraicNumber:
    """The exact algebraic number e^(2 pi i k/n).

    Distinct primitive n-th roots are at least 2 sin(pi/n) >= 4/n apart
    (sin x >= 2x/pi on [0, pi/2]).  A root box that meets the target box,
    with the two diameters summing to less than 4/n, holds the target root
    itself, so the first such conjugate field is the answer and the fields
    after it are never seeded."""
    k %= n
    g = math.gcd(k, n)
    k, n = k // g, n // g
    if n == 1:
        return AlgebraicNumber.from_rational(Q(1))
    if n == 2:
        return AlgebraicNumber.from_rational(Q(-1))
    cyc = cyclotomic(n)
    for bits in precisions(96, "root of unity identification"):
        target = unit_box(Q(k, n), bits)
        for idx in range(len(cyc) - 1):
            f = NumberField.get(cyc, idx)
            box = f.root_box(bits)
            # a box's diameter is at most twice its larger side
            if not box.disjoint(target) and \
               2 * (box.width + target.width) < Q(4, n):
                return AlgebraicNumber.from_root(f)


def _rou_congruence_lattice(rous: list[tuple[int, int]]) -> list[list[int]]:
    """Relation lattice of roots of unity e^(2 pi i k_j/n_j):
    {lambda : sum lambda_j k_j/n_j in Z}."""
    if not rous:
        return []
    N = math.lcm(*[n for _, n in rous])
    w = [k * (N // n) for k, n in rous]
    ker = kernel_basis([w + [N]])
    return [vec[:-1] for vec in ker]


# Bound on the height of the relations `relation_lattice` searches for,
# when neither a flag nor a problem file gives one.
DEFAULT_HEIGHT_BOUND = 64


def relation_lattice(gammas: list[AlgebraicNumber],
                     height_bound: int = DEFAULT_HEIGHT_BOUND) -> RelationLattice:
    """Generators of {lambda in Z^k : prod gamma_j^lambda_j = 1}.

    The gammas are pairwise distinct and of modulus 1, as the normalized
    dominant roots `decide.closure_torus` passes are; input that breaks
    this is a broken invariant, so the guards raise RuntimeError (an
    internal error, exit 4), not a usage error."""
    k = len(gammas)
    for g in gammas:
        if not g.is_unit_modulus():
            raise RuntimeError("relation lattice requires unit-modulus inputs")
    for i in range(k):
        for j in range(i + 1, k):
            if gammas[i].equals(gammas[j]):
                raise RuntimeError("gammas must be pairwise distinct")

    rous = [identify_root_of_unity(g) for g in gammas]
    rou_idx = [j for j, r in enumerate(rous) if r is not None]
    irr_idx = [j for j, r in enumerate(rous) if r is None]

    rows: list[list[int]] = []
    # congruence relations among the root-of-unity block
    for vec in _rou_congruence_lattice([rous[j] for j in rou_idx]):
        row = [0] * k
        for pos, j in enumerate(rou_idx):
            row[j] = vec[pos]
        rows.append(row)

    # provable sub-relations: inverse pairs among the irrational block,
    # each pair tested once; a miss is passed on so the search skips it
    used, misses = set(), []
    for ai in range(len(irr_idx)):
        for bi in range(ai + 1, len(irr_idx)):
            a, b = irr_idx[ai], irr_idx[bi]
            if a in used or b in used:
                continue
            row = [0] * k
            row[a] = row[b] = 1
            if power_product_is_one([gammas[a], gammas[b]], [1, 1]):
                rows.append(row)
                used.update((a, b))
            else:
                misses.append(row)
    # complete with no irrational root, with one (gamma^m * zeta = 1
    # forces gamma^m to be a root of unity, hence m = 0), or with one
    # inverse pair (any further relation would make the base a root of
    # unity)
    complete = len(irr_idx) <= 1 or (len(irr_idx) == 2 and bool(used))
    if not complete:
        rows.extend(_search_relations(gammas, rows + misses, height_bound))

    gens = hnf_rows(rows)
    for gen in gens:
        if not power_product_is_one(list(gammas), list(gen)):
            raise RuntimeError("unsound relation generated")
    return RelationLattice(k=k, generators=gens, height_bound=height_bound,
                           complete=complete)


# Precision of the boxes behind the search's angles and its screen.
_SEARCH_BITS = 96


def _search_relations(gammas, tested, height_bound) -> list[list[int]]:
    """LLL-assisted bounded search for extra relations; exact verification.

    The candidates are the rows of an LLL-reduced basis built from the
    gammas' angles, then, for k <= 3, the net [-3, 3]^k.  A candidate in
    `tested`, or its negative, is not tested again.  Every other one must
    pass `_product_screen` on the same 96-bit boxes the angles come from
    before the exact `power_product_is_one` runs."""
    k = len(gammas)
    boxes = [g.box(_SEARCH_BITS) for g in gammas]
    angles = [cmath.phase(complex(float(b.re.mid), float(b.im.mid)))
              / (2 * math.pi) for b in boxes]
    may_be_one = _product_screen(boxes, _SEARCH_BITS)
    out = []
    seen = {tuple(r) for r in tested}

    def try_candidate(cand):
        cand = list(cand)
        if not any(cand) or max(abs(v) for v in cand) > height_bound:
            return
        key = tuple(cand)
        negkey = tuple(-v for v in cand)
        if key in seen or negkey in seen:
            return
        seen.add(key)
        if may_be_one(cand) and power_product_is_one(list(gammas), cand):
            out.append(cand)

    scale = 10 ** 12
    basis = [[0] * i + [1] + [0] * (k - i - 1) + [round(scale * angles[i])]
             for i in range(k)]
    basis.append([0] * k + [scale])
    for row in lll_reduce(basis):
        try_candidate(row[:k])
    # small exhaustive net as a safety margin
    span = range(-3, 4)
    if k <= 3:
        for cand in itertools.product(span, repeat=k):
            try_candidate(cand)
    return out


def _product_screen(boxes, bits: int):
    """A test `may_be_one(exponents)` that is False only when the product
    of gamma_j^exponents_j, with gamma_j of modulus 1 in boxes[j], is not 1.

    Each box becomes integer endpoints over 2^bits, rounded outward.  A
    negative power is the conjugate of the positive one (1/gamma is
    conj(gamma) on the unit circle); positive powers are formed by squaring
    and cached per (j, exponent); every product is `interval.mul_ends`,
    exact over 2^(2 bits), rounded outward back onto the 2^-bits grid
    (`interval.round_ends`).  So the integer box encloses the product, and
    a box that misses 1 proves it is not 1."""
    powers = {(j, 1): round_ends(*box_ends(b), bits)
              for j, b in enumerate(boxes)}
    den = 1 << (2 * bits)     # of a product of two such boxes

    def power(j, lam):
        p = powers.get((j, lam))
        if p is None:
            p = power(j, lam >> 1)
            p = round_ends(mul_ends(p, p), den, bits)
            if lam & 1:
                p = round_ends(mul_ends(p, powers[j, 1]), den, bits)
            powers[j, lam] = p
        return p

    one = 1 << bits

    def may_be_one(exponents) -> bool:
        acc = None
        for j, lam in enumerate(exponents):
            if lam:
                p = power(j, abs(lam))
                if lam < 0:
                    p = (p[0], p[1], -p[3], -p[2])
                acc = p if acc is None else round_ends(mul_ends(acc, p), den,
                                                       bits)
        re_lo, re_hi, im_lo, im_hi = acc
        return re_lo <= one <= re_hi and im_lo <= 0 <= im_hi

    return may_be_one


def parametrize(lat: RelationLattice) -> TorusParam:
    """Smith-normal-form parametrization of the solution torus."""
    k = lat.k
    if not lat.generators:
        return TorusParam(free_rank=k,
                          embedding=[[1 if i == j else 0 for j in range(k)]
                                     for i in range(k)],
                          coset_turns=[tuple(ZERO for _ in range(k))],
                          lattice=lat)
    d, v = snf(lat.generators)
    rank = sum(1 for i in range(min(len(d), k)) if d[i][i] != 0)
    divisors = [d[i][i] for i in range(rank)]
    free = k - rank
    count = math.prod(divisors)
    if count > _TORSION_CAP:
        raise ValueError(f"torsion part too large ({count} cosets)")

    # torsion combinations w_i in {0..d_i-1}/d_i, the first varying
    # fastest (coset indices appear in witnesses), then s = V w (mod 1)
    cosets: list[tuple[Fraction, ...]] = []
    for combo in itertools.product(*(range(dv) for dv in reversed(divisors))):
        w = [Q(a, dv) for a, dv in zip(reversed(combo), divisors)]
        s = []
        for j in range(k):
            t = sum((v[j][i] * w[i] for i in range(rank)), ZERO)
            s.append(t - (t.numerator // t.denominator))
        cosets.append(tuple(s))

    embedding = [[v[j][rank + b] for b in range(free)] for j in range(k)]

    # every parametrized point satisfies every generator:
    # torsion columns of l*V must be divisible by d_i, free columns zero
    for gen in lat.generators:
        lv = [sum(gen[j] * v[j][i] for j in range(k)) for i in range(k)]
        for i in range(rank):
            if lv[i] % divisors[i] != 0:
                raise RuntimeError("parametrization invariant broken")
        for i in range(rank, k):
            if lv[i] != 0:
                raise RuntimeError("parametrization invariant broken")

    return TorusParam(free_rank=free, embedding=embedding, coset_turns=cosets,
                      lattice=lat)
