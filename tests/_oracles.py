"""Independent brute-force oracles used by the test suite.

Everything in here deliberately avoids the production code paths it is used
to check: Bruhat order comes from the subword property, orders come from
closed formulas, Hecke products are re-derived by right multiplication
along reduced words, basis coordinates come from a whole-matrix inversion,
left multiplication in a Weyl group comes from composing signed
permutations, and block linear algebra is redone with every entry a
`Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

from heckeo.hecke import HeckeAlgebra, HeckeElt, accumulate, invert_unitriangular
from heckeo.k0 import BasisKind, K0Block
from heckeo.laurent import LaurentPoly, v
from heckeo.weyl import WeylElt, WeylGroup


def bruhat_rows_by_subwords(W: WeylGroup, ys=None) -> dict[int, int]:
    """Row y of the Bruhat table, the bitmask of {x : x <= y}, for each id
    y in `ys` (default: every element).

    The products of the subwords of one fixed reduced word of y are exactly
    the Bruhat interval [e, y], so one subword closure per y gives the whole
    row, with no lifting property and no choice of descent.
    """
    rows = {}
    for y in range(W.order) if ys is None else ys:
        reachable = {W.identity.idx}
        for i in W.reduced_word(W.element(y)):
            reachable |= {W.right_multiply_gen(W.element(k), i).idx for k in reachable}
        rows[y] = sum(1 << k for k in reachable)
    return rows


def _reflect_root(cartan: list[list[int]], i: int, beta: tuple[int, ...]) -> tuple[int, ...]:
    """s_i(beta) = beta - (sum_j beta_j A[i][j]) alpha_i, in simple-root coordinates."""
    pairing = sum(c * a for c, a in zip(beta, cartan[i]))
    return tuple(c - pairing if j == i else c for j, c in enumerate(beta))


def lengths_by_inversions(W: WeylGroup) -> dict[int, int]:
    """Length of every element recomputed as the size of its inversion set:
    the number of positive roots that x sends to negative roots.

    The positive roots are rebuilt here from the Cartan matrix alone, as the
    closure of the simple roots under the simple reflections, and x acts by
    integer reflections along a word for it, so neither the length table nor
    the length of any word is ever read.
    """
    cartan = W.datum.cartan_matrix()
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    positive, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            image = _reflect_root(cartan, i, beta)
            if min(image) >= 0 and image not in positive:
                positive.add(image)
                todo.append(image)
    out = {}
    for x in W.elements():
        word = W.reduced_word(x)
        cur = W.identity
        for i in word:
            cur = W.right_multiply_gen(cur, i)
        assert cur == x
        inversions = 0
        for beta in positive:
            # x(beta) = s_{w_1}(s_{w_2}(... s_{w_k}(beta)))
            for i in reversed(word):
                beta = _reflect_root(cartan, i - 1, beta)
            inversions += min(beta) < 0
        out[x.idx] = inversions
    return out


_V_INV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


def _times_gen(g: WeylGroup, coeffs: dict[int, LaurentPoly], i: int) -> dict[int, LaurentPoly]:
    """h H_s for s the i-th simple reflection, term by term:
    H_y H_s = H_{ys}, plus (v^-1 - v) H_y when ys < y."""
    out: dict[int, LaurentPoly] = {}
    for k, p in coeffs.items():
        ks = g._rmult[k][i - 1]
        accumulate(out, [(ks, p)])
        if g._lengths[ks] < g._lengths[k]:
            accumulate(out, [(k, p * _V_INV_MINUS_V)])
    return out


def mul_by_right_words(alg: HeckeAlgebra, a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """a * b as sum_y b_y (a H_y), with a H_y formed one right H_s at a
    time along the reduced word of y.  It reads only the group's right
    multiplication table, never the algebra's left generator action."""
    g = alg.group
    total: dict[int, LaurentPoly] = {}
    for y, cy in b._c.items():
        cur = {k: p * cy for k, p in a._c.items()}
        for i in g.reduced_word(g.element(y)):
            cur = _times_gen(g, cur, i)
        accumulate(total, cur.items())
    return HeckeElt(alg, total)


def kl_by_product_recursion(alg: HeckeAlgebra) -> dict[int, HeckeElt]:
    """C_x for every x by the classical recursion with full Hecke products:
    C_x = C_s * C_{sx} - sum of mu(y, sx) C_y over y < sx with sy < y,
    for the first letter s of a reduced word of x (Kazhdan-Lusztig 1979).

    C_s * C_{sx} goes through `mul_by_right_words`, one right `H_s` at a
    time along reduced words, and the table is kept here, so neither the
    algebra's generator action nor its own KL memo is ever used.
    """
    g = alg.group
    table = {g.identity.idx: alg.unit()}
    for x in sorted(g.elements(), key=g.length):
        if x == g.identity:
            continue
        s = g.reduced_word(x)[0]
        sx = g.left_multiply_gen(s, x)
        lower = table[sx.idx]
        c = mul_by_right_words(alg, alg.gen(s) + alg.unit() * v, lower)
        for y, p in lower.coeffs().items():
            mu = p.coeff(1)
            if mu and g.length(g.left_multiply_gen(s, y)) < g.length(y):
                c = c - table[y.idx] * mu
        table[x.idx] = c
    return table


def coords_by_inversion(blk: K0Block, classes: list[HeckeElt], basis) -> list[dict[WeylElt, LaurentPoly]]:
    """Coordinates of each class in a basis view through the whole inverse
    basis matrix: the transpose of the matrix of the view's columns is
    inverted once, and each class is one mat-vec against the inverse.
    Never solves for a single vector."""
    kind = BasisKind.coerce(basis)
    g = blk.group
    if kind is BasisKind.Verma:
        return [X.coeffs() for X in classes]
    # the transpose's columns are the matrix's rows, and its inverse's rows
    # are the inverse's columns: inv[j] = [D_j] in the basis
    rows: list[dict[int, LaurentPoly]] = [{} for _ in range(g.order)]
    for j in range(g.order):
        for i, p in blk.class_of(g.element(j), kind)._c.items():
            rows[i][j] = p
    # projectives have their Verma flags above x, the other views below,
    # so the transpose is lower unitriangular for all but them
    inv = invert_unitriangular(rows, g.order, lower=kind is not BasisKind.Projective)
    out = []
    for X in classes:
        coords: dict[int, LaurentPoly] = {}
        for j, p in X._c.items():
            accumulate(coords, inv[j].items(), p)
        out.append({g.element(i): c for i, c in sorted(coords.items())})
    return out


def lmult_by_compose(W: WeylGroup) -> list[list[int]]:
    """The table of s_i x for every id x and generator i, by composing the
    signed permutation of s_i with that of x on the positive roots; the
    group's right-multiplication and inverse tables are never read."""
    def compose(p, q):
        # (p o q)(beta_r): apply q, then p
        return tuple(p[abs(t) - 1] if t > 0 else -p[abs(t) - 1] for t in q)

    index = {p: k for k, p in enumerate(W._perms)}
    return [[index[compose(g, p)] for g in W._gen_perms] for p in W._perms]


# -- block linear algebra with every entry a Fraction --------------------------
#
# The matrix type and the routines below keep every entry a `Fraction` and
# divide every pivot row by its pivot, as `heckeo.block.linalg` did before it
# kept integral entries as ints. Tests compare the two entry by entry.


class FracMat:
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

    def copy(self) -> "FracMat":
        return FracMat(self.nrows, self.ncols, [row[:] for row in self.rows])


def _frac_is_zero_mat(a: FracMat) -> bool:
    return all(x == 0 for row in a.rows for x in row)


def _frac_eye(n: int) -> FracMat:
    m = FracMat(n, n)
    for i in range(n):
        m.rows[i][i] = Fraction(1)
    return m


def frac_mmul(a: FracMat, b: FracMat) -> FracMat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {(a.nrows, a.ncols)} @ {(b.nrows, b.ncols)}")
    out = FracMat(a.nrows, b.ncols)
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


def frac_rref(a: FracMat) -> tuple[FracMat, list[int]]:
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


def frac_nullspace_basis(a: FracMat) -> FracMat:
    """Columns spanning ker(a), as an (ncols x nullity) FracMat."""
    red, pivots = frac_rref(a)
    free = [c for c in range(a.ncols) if c not in pivots]
    out = FracMat(a.ncols, len(free))
    for k, f in enumerate(free):
        out.rows[f][k] = Fraction(1)
        for r, p in enumerate(pivots):
            out.rows[p][k] = -red.rows[r][f]
    return out


def frac_solve(a: FracMat, b: FracMat) -> FracMat | None:
    """One exact solution X of a X = b (free variables zero), or None."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    if a.ncols == 0:
        return None if not _frac_is_zero_mat(b) else FracMat(0, b.ncols)
    aug = FracMat(a.nrows, a.ncols + b.ncols, [ra + rb for ra, rb in zip(a.rows, b.rows)])
    red, pivots = frac_rref(aug)
    if any(p >= a.ncols for p in pivots):
        return None  # a pivot in the b-part: inconsistent
    x = FracMat(a.ncols, b.ncols)
    for r, p in enumerate(pivots):
        for j in range(b.ncols):
            x.rows[p][j] = red.rows[r][a.ncols + j]
    return x


def frac_inverse(a: FracMat) -> FracMat:
    if a.nrows != a.ncols:
        raise ValueError("not square")
    inv = frac_solve(a, _frac_eye(a.nrows))
    if inv is None or len(frac_rref(a)[1]) != a.nrows:
        raise ValueError("matrix is singular")
    return inv
