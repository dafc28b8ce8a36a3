"""Integer matrix normal forms: Hermite, Smith, kernels, and a small LLL.

Hermite normal form is the canonical representation for relation
lattices (row lattice, positive pivots, entries above a pivot reduced
into [0, pivot)).  Smith normal form drives the torus parametrization.
LLL is used only to *propose* integer relation candidates; every
candidate is verified exactly elsewhere, so the reduction itself is not
soundness critical.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]


def _swap_rows(m: Matrix, i: int, j: int):
    m[i], m[j] = m[j], m[i]


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the nonzero rows: pivots positive, zero entries below each
    pivot, entries above a pivot reduced into [0, pivot).
    """
    if not rows:
        return []
    m = [list(r) for r in rows]
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        _swap_rows(m, row, pivot)
        # gcd-eliminate below
        for r in range(row + 1, len(m)):
            while m[r][col] != 0:
                q = m[row][col] // m[r][col]
                m[row] = [a - q * b for a, b in zip(m[row], m[r])]
                _swap_rows(m, row, r)
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        for r in range(row):
            q = m[r][col] // m[row][col]
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[row])]
        row += 1
    return [r for r in m[:row]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Smith normal form: returns (D, V) with D = U * mat * V for some
    unimodular U (not formed: no caller reads it), V unimodular, D
    diagonal with d1 | d2 | ... positive.
    """
    a = [list(r) for r in mat]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    v = identity(ncols)

    def swap_cols(m, i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]

    def add_row(m, dst, src, q):  # row dst -= q * row src
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]

    def add_col(m, dst, src, q):
        for r in m:
            r[dst] -= q * r[src]

    t = 0
    while t < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        pr = pc = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        _swap_rows(a, t, pr)
        swap_cols(a, t, pc), swap_cols(v, t, pc)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(a, i, t, q)
                    if a[i][t] != 0:
                        _swap_rows(a, t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(a, j, t, q), add_col(v, j, t, q)
                    if a[t][j] != 0:
                        swap_cols(a, t, j), swap_cols(v, t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility: fold any non-multiple into the pivot position
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    add_row(a, t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            t += 1
    return a, v


def kernel_basis(mat: Matrix) -> list[list[int]]:
    """Basis of the right integer kernel {x : mat @ x = 0}."""
    if not mat:
        return []
    d, v = snf(mat)
    ncols = len(mat[0])
    rank = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    return [[v[r][j] for r in range(ncols)] for j in range(rank, ncols)]


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Lenstra-Lenstra-Lovasz reduction over exact rationals, with the
    Lovasz constant delta = 3/4.

    A size reduction b_k -= q b_j leaves every Gram-Schmidt vector and
    norm as it was and changes only row k of mu (mu[k][i] -= q mu[j][i]
    for i < j, mu[k][j] -= q), so it updates that row in place; only a
    swap rebuilds the Gram-Schmidt data.  A zero Gram-Schmidt norm (a
    rank-deficient basis) keeps its column of mu at 0, as the rebuild
    leaves it.

    Candidate-generation helper only: downstream callers verify any
    relation extracted from the output exactly.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0:
        return b

    def gram_schmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        star: list[list[Fraction]] = []
        for i in range(n):
            vec = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    continue
                mu[i][j] = sum(x * s for x, s in zip(b[i], star[j])) / norms[j]
                vec = [vk - mu[i][j] * sk for vk, sk in zip(vec, star[j])]
            star.append(vec)
            norms[i] = sum(x * x for x in vec)
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mk[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mj = mu[j]
                for i in range(j):
                    mk[i] -= q * mj[i]
                mk[j] -= q
        if norms[k] >= (Fraction(3, 4) - mk[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b
