"""`heckeo.block.linalg` against the all-`Fraction` routines in `_oracles`,
and the entry-type contract: every entry is an `int` or a `Fraction` whose
denominator is not 1."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from heckeo.block import linalg

from _oracles import FracMat, frac_inverse, frac_mmul, frac_nullspace_basis, frac_rref, frac_solve

INTS = st.integers(-4, 4)
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Rows of small integers (ints), or of small rationals (Fractions,
    some of them integral), of a drawn or given shape; 0 is a valid size."""
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    entries = draw(st.sampled_from([INTS, RATIONALS]))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)], ncols


def both(data):
    rows, ncols = data
    return linalg.from_rows(rows, ncols), FracMat(len(rows), ncols, rows)


def assert_normalised(m):
    for row in m.rows:
        for x in row:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def assert_same(m, f):
    assert (m.nrows, m.ncols) == (f.nrows, f.ncols)
    assert m.rows == f.rows
    assert_normalised(m)


@st.composite
def product_pairs(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@given(product_pairs())
def test_mmul_matches_fraction_oracle(pair):
    (a, fa), (b, fb) = both(pair[0]), both(pair[1])
    assert_same(linalg.mmul(a, b), frac_mmul(fa, fb))


@given(matrices())
def test_rref_and_nullspace_match_fraction_oracle(data):
    a, fa = both(data)
    red, pivots = linalg.rref(a)
    fred, fpivots = frac_rref(fa)
    assert pivots == fpivots
    assert_same(red, fred)
    assert_same(linalg.nullspace_basis(a), frac_nullspace_basis(fa))


@st.composite
def systems(draw):
    r, c, k = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(r, c)), draw(matrices(r, k))


@given(systems())
def test_solve_matches_fraction_oracle(system):
    (a, fa), (b, fb) = both(system[0]), both(system[1])
    x, fx = linalg.solve(a, b), frac_solve(fa, fb)
    assert (x is None) == (fx is None)
    if x is not None:
        assert_same(x, fx)


@st.composite
def squares(draw):
    n = draw(st.integers(0, 4))
    return draw(matrices(n, n))


@settings(max_examples=200)
@given(squares())
def test_inverse_matches_fraction_oracle(data):
    a, fa = both(data)
    try:
        expected = frac_inverse(fa)
    except ValueError:
        with pytest.raises(ValueError):
            linalg.inverse(a)
        return
    assert_same(linalg.inverse(a), expected)


def frac_rank(a: FracMat) -> int:
    return len(frac_rref(a)[1])


@settings(max_examples=200)
@given(matrices())
@example(([], 0)).via("the 0x0 matrix")
@example(([], 3)).via("no rows")
@example(([[], [], []], 0)).via("no columns")
def test_complement_matches_fraction_oracle(data):
    a, fa = both(data)
    n, k = fa.nrows, fa.ncols
    chosen, proj = linalg.complement(a)
    # the greedy choice: e_j is kept when it raises the rank of a and the
    # e_j kept before it
    want, cols, r = [], fa.rows, frac_rank(fa)
    for j in range(n):
        wider = [row + [Fraction(int(i == j))] for i, row in enumerate(cols)]
        if frac_rank(FracMat(n, len(wider[0]), wider)) > r:
            want, cols, r = want + [j], wider, r + 1
    assert chosen == want
    assert len(chosen) == n - frac_rank(fa)
    assert (proj.nrows, proj.ncols) == (len(chosen), n)
    assert_normalised(proj)
    fproj = FracMat(proj.nrows, n, proj.rows)
    assert frac_mmul(fproj, fa).rows == FracMat(len(chosen), k).rows
    assert [[row[j] for j in chosen] for row in proj.rows] == [
        [int(i == j) for j in range(len(chosen))] for i in range(len(chosen))]


@given(matrices(), st.one_of(INTS, RATIONALS))
def test_elementwise_operations_stay_normalised(data, c):
    a, fa = both(data)
    b = linalg.mneg(a)
    for m in (linalg.madd(a, b), linalg.mscale(c, a), linalg.kron(a, b), b,
              linalg.transpose(a)):
        assert_normalised(m)
    assert linalg.is_zero_mat(linalg.madd(a, b))
    assert linalg.mscale(c, a).rows == [[c * x for x in row] for row in fa.rows]


def test_mat_normalises_entries():
    whole = linalg.mat([[Fraction(4, 2)]])[0][0]
    assert whole == 2 and type(whole) is int
    half = linalg.mat([[Fraction(1, 2)]])[0][0]
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(linalg.solve(linalg.mat([[2]]), linalg.mat([[4]]))[0][0]) is int


@pytest.mark.parametrize("x", [0.1, 1.0, "1/3", True, None])
def test_mat_rejects_an_entry_that_is_not_exact(x):
    # 0.1 was taken at its binary value, "1/3" was parsed and True was 1
    with pytest.raises(TypeError):
        linalg.mat([[1, x]])
    with pytest.raises(TypeError):
        linalg.mscale(x, linalg.eye(1))


def test_block_matrix_places_blocks_and_checks_their_shapes():
    a = linalg.mat([[1, 2], [3, 4]])
    b = linalg.mat([[Fraction(1, 2)]])
    m = linalg.block_matrix({(0, 0): a, (1, 2): b}, [2, 1], [2, 0, 1])
    assert (m.nrows, m.ncols) == (3, 3)
    assert m.rows == [[1, 2, 0], [3, 4, 0], [0, 0, Fraction(1, 2)]]
    assert_normalised(m)
    assert linalg.mat_eq(linalg.hstack([a, linalg.zeros(2, 0), a]),
                         linalg.block_matrix({(0, 0): a, (0, 2): a}, [2], [2, 0, 2]))
    with pytest.raises(ValueError):
        linalg.block_matrix({(0, 0): b}, [2], [2])
    with pytest.raises(ValueError):
        linalg.hstack([a, b])
