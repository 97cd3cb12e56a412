"""Small exact linear algebra over the rationals.

A Mat carries its shape explicitly, so zero-row and zero-column matrices
compose correctly; with bare lists of lists the column count of an empty
matrix is lost, which silently corrupts the many genuinely zero-dimensional
corners of module categories.  Everything here is sized for dimensions in
the tens, so clarity wins over speed.
"""

from __future__ import annotations

from fractions import Fraction


class Mat:
    """An exact matrix with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        else:
            self.rows = [[Fraction(x) for x in row] for row in rows]
            if len(self.rows) != nrows or any(len(r) != ncols for r in self.rows):
                raise ValueError("row data does not match the declared shape")

    def __getitem__(self, i: int) -> list[Fraction]:
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols})"

    def copy(self) -> "Mat":
        return Mat(self.nrows, self.ncols, [row[:] for row in self.rows])


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
        m.rows[i][i] = Fraction(1)
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
    return Mat(a.nrows, a.ncols, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def mneg(a: Mat) -> Mat:
    return Mat(a.nrows, a.ncols, [[-x for x in row] for row in a.rows])


def mscale(c, a: Mat) -> Mat:
    c = Fraction(c)
    return Mat(a.nrows, a.ncols, [[c * x for x in row] for row in a.rows])


def mmul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {shape(a)} @ {shape(b)}")
    out = Mat(a.nrows, b.ncols)
    for i in range(a.nrows):
        row = a.rows[i]
        orow = out.rows[i]
        for k in range(a.ncols):
            x = row[k]
            if x == 0:
                continue
            brow = b.rows[k]
            for j in range(b.ncols):
                orow[j] += x * brow[j]
    return out


def transpose(a: Mat) -> Mat:
    return Mat(a.ncols, a.nrows, [[a.rows[i][j] for i in range(a.nrows)] for j in range(a.ncols)])


def kron(a: Mat, b: Mat) -> Mat:
    out = Mat(a.nrows * b.nrows, a.ncols * b.ncols)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x = a.rows[i][j]
            if x == 0:
                continue
            for k in range(b.nrows):
                for l in range(b.ncols):
                    out.rows[i * b.nrows + k][j * b.ncols + l] = x * b.rows[k][l]
    return out


def hstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    n = mats[0].nrows
    if any(m.nrows != n for m in mats):
        raise ValueError("hstack row mismatch")
    return Mat(
        n,
        sum(m.ncols for m in mats),
        [sum((m.rows[i] for m in mats), []) for i in range(n)],
    )


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    c = mats[0].ncols
    if any(m.ncols != c for m in mats):
        raise ValueError("vstack column mismatch")
    return Mat(sum(m.nrows for m in mats), c, [row for m in mats for row in m.rows])


def submatrix_rows(a: Mat, start: int) -> Mat:
    return Mat(a.nrows - start, a.ncols, [row[:] for row in a.rows[start:]])


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = a.copy()
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pivot = next((i for i in range(r, m.nrows) if m.rows[i][c] != 0), None)
        if pivot is None:
            continue
        m.rows[r], m.rows[pivot] = m.rows[pivot], m.rows[r]
        inv = Fraction(1) / m.rows[r][c]
        m.rows[r] = [x * inv for x in m.rows[r]]
        for i in range(m.nrows):
            if i != r and m.rows[i][c] != 0:
                f = m.rows[i][c]
                m.rows[i] = [x - f * y for x, y in zip(m.rows[i], m.rows[r])]
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
        out.rows[f][k] = Fraction(1)
        for r, p in enumerate(pivots):
            out.rows[p][k] = -red.rows[r][f]
    return out


def solve(a: Mat, b: Mat) -> Mat | None:
    """One exact solution X of a X = b (free variables zero), or None."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    if a.ncols == 0:
        return None if not is_zero_mat(b) else zeros(0, b.ncols)
    aug = Mat(a.nrows, a.ncols + b.ncols, [ra + rb for ra, rb in zip(a.rows, b.rows)])
    red, pivots = rref(aug)
    if any(p >= a.ncols for p in pivots):
        return None  # a pivot in the b-part: inconsistent
    x = Mat(a.ncols, b.ncols)
    for r, p in enumerate(pivots):
        for j in range(b.ncols):
            x.rows[p][j] = red.rows[r][a.ncols + j]
    return x


def inverse(a: Mat) -> Mat:
    if a.nrows != a.ncols:
        raise ValueError("not square")
    inv = solve(a, eye(a.nrows))
    if inv is None or rank(a) != a.nrows:
        raise ValueError("matrix is singular")
    return inv


def column_space_basis(a: Mat) -> Mat:
    _, pivots = rref(a)
    return Mat(a.nrows, len(pivots), [[row[p] for p in pivots] for row in a.rows])


def std_col(n: int, j: int) -> Mat:
    m = Mat(n, 1)
    m.rows[j][0] = Fraction(1)
    return m
