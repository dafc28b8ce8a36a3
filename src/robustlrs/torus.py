"""Multiplicative relation lattice of the dominant unit roots and the
constructive parametrization of the closure torus.

Soundness is unconditional: every emitted generator is verified by an
exact power-product identity.  Completeness is proved structurally in
three situations (all roots of unity; a single non-root-of-unity; one
inverse-conjugate pair plus roots of unity -- any extra relation would
force the base to be a root of unity).  Otherwise a bounded LLL-assisted
search runs and the lattice is flagged incomplete; a too-coarse lattice
only enlarges the torus, so downstream minima become sound lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qmath import Q, ZERO, precisions
from .trig import unit_box
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
    gammas: tuple[AlgebraicNumber, ...]


@dataclass(frozen=True)
class TorusPoint:
    """Point in parametrization coordinates: a torsion coset index plus
    free angles given as rational turns."""

    coset: int
    angles: tuple[Fraction, ...]


@dataclass
class TorusParam:
    finite_part: list[tuple[AlgebraicNumber, ...]]  # coset representatives
    free_rank: int
    embedding: list[list[int]]      # k x free_rank integer matrix
    coset_turns: list[tuple[Fraction, ...]]
    lattice: RelationLattice

    @property
    def k(self) -> int:
        return self.lattice.k

    def point_turns(self, pt: TorusPoint) -> tuple[Fraction, ...]:
        base = self.coset_turns[pt.coset]
        out = []
        for j in range(self.k):
            t = base[j]
            for b, ang in enumerate(pt.angles):
                t += self.embedding[j][b] * ang
            out.append(t - (t.numerator // t.denominator))
        return tuple(out)

    def point_values(self, pt: TorusPoint) -> tuple[AlgebraicNumber, ...]:
        """Exact values (all parametrization points have rational turns)."""
        return tuple(root_of_unity_alg(t.numerator % t.denominator, t.denominator)
                     for t in self.point_turns(pt))

    def contains_values(self, values) -> bool:
        """Exact membership test of a tuple of unit algebraic numbers."""
        if len(values) != self.k:
            return False
        return all(power_product_is_one(list(values), list(gen))
                   for gen in self.lattice.generators)


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


def relation_lattice(gammas: list[AlgebraicNumber],
                     height_bound: int = 64) -> RelationLattice:
    """Generators of {lambda in Z^k : prod gamma_j^lambda_j = 1}."""
    k = len(gammas)
    for g in gammas:
        if not g.is_unit_modulus():
            raise ValueError("relation lattice requires unit-modulus inputs")
    for i in range(k):
        for j in range(i + 1, k):
            if gammas[i].equals(gammas[j]):
                raise ValueError("gammas must be pairwise distinct")

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

    complete = False
    if not irr_idx:
        complete = True
    elif len(irr_idx) == 1:
        # gamma^m * zeta = 1 forces gamma^m to be a root of unity, hence m=0
        complete = True
    elif len(irr_idx) == 2:
        a, b = irr_idx
        if power_product_is_one([gammas[a], gammas[b]], [1, 1]):
            row = [0] * k
            row[a] = row[b] = 1
            rows.append(row)
            complete = True

    if not complete:
        # provable sub-relations: inverse pairs among the irrational block
        used = set()
        for ai in range(len(irr_idx)):
            for bi in range(ai + 1, len(irr_idx)):
                a, b = irr_idx[ai], irr_idx[bi]
                if a in used or b in used:
                    continue
                if power_product_is_one([gammas[a], gammas[b]], [1, 1]):
                    row = [0] * k
                    row[a] = row[b] = 1
                    rows.append(row)
                    used.update((a, b))
        rows.extend(_search_relations(gammas, rows, height_bound))

    gens = hnf_rows(rows)
    for gen in gens:
        if not power_product_is_one(list(gammas), list(gen)):
            raise AssertionError("unsound relation generated")
    return RelationLattice(k=k, generators=gens, height_bound=height_bound,
                           complete=complete, gammas=tuple(gammas))


def _search_relations(gammas, known_rows, height_bound) -> list[list[int]]:
    """LLL-assisted bounded search for extra relations; exact verification."""
    k = len(gammas)
    import cmath
    angles = []
    for g in gammas:
        b = g.box(96)
        angles.append(cmath.phase(complex(float(b.re.mid), float(b.im.mid)))
                      / (2 * math.pi))
    out = []
    seen = {tuple(r) for r in known_rows}

    def try_candidate(cand):
        cand = list(cand)
        if not any(cand) or max(abs(v) for v in cand) > height_bound:
            return
        key = tuple(cand)
        negkey = tuple(-v for v in cand)
        if key in seen or negkey in seen:
            return
        seen.add(key)
        if power_product_is_one(list(gammas), cand):
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
        import itertools
        for cand in itertools.product(span, repeat=k):
            try_candidate(cand)
    return out


def parametrize(lat: RelationLattice) -> TorusParam:
    """Smith-normal-form parametrization of the solution torus."""
    k = lat.k
    if not lat.generators:
        return TorusParam(finite_part=[tuple(AlgebraicNumber.from_rational(Q(1))
                                              for _ in range(k))],
                          free_rank=k,
                          embedding=[[1 if i == j else 0 for j in range(k)]
                                     for i in range(k)],
                          coset_turns=[tuple(ZERO for _ in range(k))],
                          lattice=lat)
    d, u, v = snf(lat.generators)
    rank = sum(1 for i in range(min(len(d), k)) if d[i][i] != 0)
    divisors = [d[i][i] for i in range(rank)]
    free = k - rank
    count = 1
    for dv in divisors:
        count *= dv
    if count > _TORSION_CAP:
        raise ValueError(f"torsion part too large ({count} cosets)")

    # torsion combinations w_i in {0..d_i-1}/d_i, then s = V w (mod 1)
    cosets: list[tuple[Fraction, ...]] = []
    combo = [0] * rank

    def emit():
        w = [Q(combo[i], divisors[i]) for i in range(rank)]
        s = []
        for j in range(k):
            t = sum((v[j][i] * w[i] for i in range(rank)), ZERO)
            s.append(t - (t.numerator // t.denominator))
        cosets.append(tuple(s))

    if rank == 0:
        cosets.append(tuple(ZERO for _ in range(k)))
    else:
        while True:
            emit()
            pos = 0
            while pos < rank:
                combo[pos] += 1
                if combo[pos] < divisors[pos]:
                    break
                combo[pos] = 0
                pos += 1
            if pos == rank:
                break

    embedding = [[v[j][rank + b] for b in range(free)] for j in range(k)]

    # every parametrized point satisfies every generator:
    # torsion columns of l*V must be divisible by d_i, free columns zero
    for gen in lat.generators:
        lv = [sum(gen[j] * v[j][i] for j in range(k)) for i in range(k)]
        for i in range(rank):
            if lv[i] % divisors[i] != 0:
                raise AssertionError("parametrization invariant broken")
        for i in range(rank, k):
            if lv[i] != 0:
                raise AssertionError("parametrization invariant broken")

    finite = [tuple(root_of_unity_alg(t.numerator % t.denominator, t.denominator)
                    for t in coset) for coset in cosets]
    return TorusParam(finite_part=finite, free_rank=free, embedding=embedding,
                      coset_turns=cosets, lattice=lat)
