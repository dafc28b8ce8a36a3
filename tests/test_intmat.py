import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from robustlrs.intmat import hnf_rows, snf, kernel_basis, lll_reduce

from oracles import mat_mul, lll_reduce_ref


def det_unimodular(m):
    """Determinant via fraction-free Gaussian elimination (Bareiss): the
    oracle for the unimodular transforms of `snf`."""
    a = [list(r) for r in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


small_mats = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=1, max_size=4)


def test_hnf_known_lattices():
    assert hnf_rows([[2]]) == [[2]]
    assert hnf_rows([[1, 1], [0, 6]]) == [[1, 1], [0, 6]]
    # same lattice from messier generators
    assert hnf_rows([[1, 7], [1, 1]]) == [[1, 1], [0, 6]]
    assert hnf_rows([[6, 6], [1, 1]]) == [[1, 1]]
    assert hnf_rows([[0, 0]]) == []


def test_hnf_canonical_under_generator_change():
    base = [[2, 1, 0], [0, 3, 1]]
    h1 = hnf_rows(base)
    # add integer combinations of rows
    messy = [base[0], [a + 5 * b for a, b in zip(base[1], base[0])],
             [3 * a - 2 * b for a, b in zip(base[0], base[1])]]
    assert hnf_rows(messy) == h1


@given(small_mats)
@settings(max_examples=80)
def test_snf_reconstruction(mat):
    # D = U mat V for a unimodular U exactly when mat V and D span the
    # same row lattice, which is when their Hermite forms agree
    d, v = snf(mat)
    assert hnf_rows(mat_mul(mat, v)) == hnf_rows(d)
    assert abs(det_unimodular(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # off-diagonal zero
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


def _snf_diagonal(mat):
    d = snf(mat)[0]
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def test_snf_known():
    assert _snf_diagonal([[1, 1], [0, 6]]) == [1, 6]
    assert _snf_diagonal([[1, 1]]) == [1]
    assert _snf_diagonal([[2]]) == [2]


@given(small_mats)
@settings(max_examples=60)
def test_kernel(mat):
    ker = kernel_basis(mat)
    for vec in ker:
        assert all(sum(row[i] * vec[i] for i in range(len(vec))) == 0
                   for row in mat)


def test_kernel_known():
    assert kernel_basis([[1, 1]]) in ([[-1, 1]], [[1, -1]])


def test_lll_finds_short_relation():
    # lattice containing the relation (1, 1) between angles t and -t
    rng = random.Random(7)
    scale = 10**8
    theta = 0.14758361765043326  # atan2(4,3)/(2 pi)
    rows = [[1, 0, round(scale * theta)],
            [0, 1, round(scale * -theta)],
            [0, 0, scale]]
    red = lll_reduce(rows)
    lengths = [sum(x * x for x in r) for r in red]
    best = red[lengths.index(min(lengths))]
    assert abs(best[0]) == 1 and best[0] == best[1]


def _lll_bases():
    """Seeded bases for `lll_reduce` against its rebuild-per-step
    reference: the relation search's shape (k <= 4 unit rows with a scaled
    angle column, and the scale row) at scales 1e3, 1e6 and 1e12; dense
    small bases; rank-deficient ones (a repeated, zero or combined row,
    so that a Gram-Schmidt norm is 0); and a size reduction at mu = 1/2
    and at mu = 5/2, where `round` goes to the even neighbour."""
    rng = random.Random(20261020)
    bases = []
    for scale in (10**3, 10**6, 10**12):
        for _ in range(50):
            k = rng.randint(1, 4)
            rows = [[0] * i + [1] + [0] * (k - i - 1)
                    + [round(scale * rng.uniform(-0.5, 0.5))]
                    for i in range(k)]
            bases.append(rows + [[0] * k + [scale]])
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(n, 6)
        bases.append([[rng.randint(-6, 6) for _ in range(m)]
                      for _ in range(n)])
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        kind = rng.randrange(3)
        extra = (list(rows[rng.randrange(n)]) if kind == 0
                 else [0] * m if kind == 1
                 else [x - 2 * y for x, y in zip(rows[0], rows[-1])])
        rows.insert(rng.randrange(n + 1), extra)
        bases.append(rows)
    bases += [[[2, 0], [1, 5]], [[2, 0], [5, 9]], [[2, 0, 0], [1, 7, 0], [5, 1, 9]]]
    return bases


def test_lll_matches_rebuild_per_step_reference():
    bases = _lll_bases()
    assert len(bases) >= 300
    for basis in bases:
        assert lll_reduce(basis) == lll_reduce_ref(basis), basis


def test_lll_half_integer_mu_rounds_to_even():
    """mu = 1/2 rounds to 0 (no reduction) and mu = 5/2 to 2."""
    assert lll_reduce([[2, 0], [1, 5]]) == [[2, 0], [1, 5]]
    assert lll_reduce([[2, 0], [5, 9]]) == [[2, 0], [1, 9]]
