"""Small exact linear algebra over the rationals.

A Mat carries its shape explicitly, so zero-row and zero-column matrices
compose correctly; with bare lists of lists the column count of an empty
matrix is lost, which silently corrupts the many genuinely zero-dimensional
corners of module categories.

Every entry is either an ``int`` or a ``Fraction`` whose denominator is not
1.  The rank-one block is defined over Z, so its matrices stay integral and
their products, sums and Kronecker products are plain integer arithmetic; a
``Fraction`` appears only where elimination divides by a pivot that does
not divide its row.  `_entry` is the one normalising step: it checks the
data callers hand to ``Mat``, raising ``TypeError`` for any other type (a
``bool``, a ``float`` or a string included), and turns every integral
``Fraction`` an operation produces back into an ``int``.  Equality between
an ``int`` and a ``Fraction`` is exact, so no comparison depends on which
type an entry has.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate


def _entry(x):
    """x as a matrix entry: an int, or a Fraction that is not an integer.
    Only an int or a Fraction is exact here: a bool is not taken for 0 or 1,
    a float is not read at its binary value, and a string is not parsed."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise TypeError(f"matrix entry {x!r} is not an int or a Fraction")
    return x.numerator if x.denominator == 1 else x


def _entries(row) -> list:
    return [x if type(x) is int else _entry(x) for x in row]


class Mat:
    """An exact matrix with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[0] * ncols for _ in range(nrows)]
        else:
            self.rows = [_entries(row) for row in rows]
            if len(self.rows) != nrows or any(len(r) != ncols for r in self.rows):
                raise ValueError("row data does not match the declared shape")

    def __getitem__(self, i: int) -> list:
        return self.rows[i]

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols})"

    def copy(self) -> "Mat":
        return _wrap(self.nrows, self.ncols, [row[:] for row in self.rows])


def _wrap(nrows: int, ncols: int, rows: list[list]) -> Mat:
    """A Mat around rows that already hold normalised entries (no copy)."""
    m = Mat.__new__(Mat)
    m.nrows, m.ncols, m.rows = nrows, ncols, rows
    return m


def mat(data) -> Mat:
    """Coerce a list of rows (or a Mat) to a Mat; [] becomes the 0x0 matrix."""
    if isinstance(data, Mat):
        return data
    rows = [list(r) for r in data]
    ncols = len(rows[0]) if rows else 0
    return Mat(len(rows), ncols, rows)


def from_rows(rows, ncols: int) -> Mat:
    return Mat(len(rows), ncols, rows)


def zeros(r: int, c: int) -> Mat:
    return Mat(r, c)


def eye(n: int) -> Mat:
    m = Mat(n, n)
    for i in range(n):
        m.rows[i][i] = 1
    return m


def col_vec(entries) -> Mat:
    entries = list(entries)
    return Mat(len(entries), 1, [[x] for x in entries])


def row_vec(entries) -> Mat:
    entries = list(entries)
    return Mat(1, len(entries), [entries])


def shape(a: Mat) -> tuple[int, int]:
    return (a.nrows, a.ncols)


def mat_eq(a: Mat, b: Mat) -> bool:
    return (
        shape(a) == shape(b)
        and all(x == y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
    )


def is_zero_mat(a: Mat) -> bool:
    return all(x == 0 for row in a.rows for x in row)


def madd(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch: {shape(a)} + {shape(b)}")
    return _wrap(a.nrows, a.ncols, [
        _entries([x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a.rows, b.rows)
    ])


def mneg(a: Mat) -> Mat:
    return _wrap(a.nrows, a.ncols, [[-x for x in row] for row in a.rows])


def mscale(c, a: Mat) -> Mat:
    c = _entry(c)
    return _wrap(a.nrows, a.ncols, [_entries([c * x for x in row]) for row in a.rows])


def mmul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {shape(a)} @ {shape(b)}")
    zero_row = [0] * b.ncols
    out = []
    for row in a.rows:
        orow = zero_row
        for x, brow in zip(row, b.rows):
            if x:
                orow = [o + x * y for o, y in zip(orow, brow)]
        out.append(_entries(orow))
    return _wrap(a.nrows, b.ncols, out)


def transpose(a: Mat) -> Mat:
    return _wrap(a.ncols, a.nrows, [[row[j] for row in a.rows] for j in range(a.ncols)])


def kron(a: Mat, b: Mat) -> Mat:
    zero_block = [0] * b.ncols
    out = []
    for arow in a.rows:
        for brow in b.rows:
            orow = []
            for x in arow:
                orow += [x * y for y in brow] if x else zero_block
            out.append(_entries(orow))
    return _wrap(a.nrows * b.nrows, a.ncols * b.ncols, out)


def block_matrix(blocks: dict, row_sizes: list[int], col_sizes: list[int]) -> Mat:
    """The matrix with blocks[(r, c)] in block row r and block column c, for
    blocks of heights row_sizes and widths col_sizes; missing blocks are zero."""
    r0, c0 = list(accumulate(row_sizes, initial=0)), list(accumulate(col_sizes, initial=0))
    out = [[0] * c0[-1] for _ in range(r0[-1])]
    for (r, c), b in blocks.items():
        if shape(b) != (row_sizes[r], col_sizes[c]):
            raise ValueError(f"block {(r, c)} has shape {shape(b)}")
        for i, row in enumerate(b.rows):
            out[r0[r] + i][c0[c]:c0[c + 1]] = row
    return _wrap(r0[-1], c0[-1], out)


def hstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    return block_matrix({(0, k): m for k, m in enumerate(mats)},
                        [mats[0].nrows], [m.ncols for m in mats])


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    return block_matrix({(k, 0): m for k, m in enumerate(mats)},
                        [m.nrows for m in mats], [mats[0].ncols])


def _divide(row: list, p) -> list:
    """row / p exactly; quotients that come out whole stay ints."""
    if p == 1:
        return row
    if p == -1:
        return [-x for x in row]
    if type(p) is int and all(type(x) is int and x % p == 0 for x in row):
        return [x // p for x in row]
    inv = Fraction(1, p) if type(p) is int else 1 / p
    return _entries([x * inv for x in row])


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = a.copy()
    rows = m.rows
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pivot = next((i for i in range(r, m.nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r] = _divide(rows[r], rows[r][c])
        for i in range(m.nrows):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = _entries([x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return m, pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def nullspace_basis(a: Mat) -> Mat:
    """Columns spanning ker(a), as an (ncols x nullity) Mat."""
    red, pivots = rref(a)
    free = [c for c in range(a.ncols) if c not in pivots]
    out = Mat(a.ncols, len(free))
    for k, f in enumerate(free):
        out.rows[f][k] = 1
        for r, p in enumerate(pivots):
            out.rows[p][k] = -red.rows[r][f]
    return out


def solve(a: Mat, b: Mat) -> Mat | None:
    """One exact solution X of a X = b (free variables zero), or None."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    if a.ncols == 0:
        return None if not is_zero_mat(b) else zeros(0, b.ncols)
    aug = _wrap(a.nrows, a.ncols + b.ncols, [ra + rb for ra, rb in zip(a.rows, b.rows)])
    red, pivots = rref(aug)
    if any(p >= a.ncols for p in pivots):
        return None  # a pivot in the b-part: inconsistent
    x = Mat(a.ncols, b.ncols)
    for r, p in enumerate(pivots):
        for j in range(b.ncols):
            x.rows[p][j] = red.rows[r][a.ncols + j]
    return x


def combination(vectors: list[list], target: list) -> list | None:
    """Coefficients c, free ones zero, with sum_k c[k] vectors[k] = target,
    or None when target is not in the span."""
    sol = solve(transpose(from_rows(vectors, len(target))), col_vec(target))
    return None if sol is None else [row[0] for row in sol.rows]


def inverse(a: Mat) -> Mat:
    """a^-1; a square a is singular exactly when a X = I has no solution."""
    if a.nrows != a.ncols:
        raise ValueError("not square")
    inv = solve(a, eye(a.nrows))
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


def complement(sub: Mat) -> tuple[list[int], Mat]:
    """(chosen, proj) from one rref of [sub | I_n], sub n x k of rank r.
    chosen lists, in increasing order, the j whose e_j each raise the rank of
    sub and the e_j before them: the pivots in the identity part.  Its rows
    below r form proj, (n - r) x n, with proj sub = 0 and proj e_j the unit
    vectors for the chosen j."""
    n, k = sub.nrows, sub.ncols
    red, pivots = rref(_wrap(n, k + n, [
        row + [int(i == j) for j in range(n)] for i, row in enumerate(sub.rows)
    ]))
    r = sum(p < k for p in pivots)
    return [p - k for p in pivots[r:]], _wrap(n - r, n, [row[k:] for row in red.rows[r:]])
