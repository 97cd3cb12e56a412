"""Independent brute-force oracles used by the test suite.

Everything in here deliberately avoids the production code paths it is used
to check: Laurent polynomials are exponent -> coefficient dicts, Bruhat
order comes from the subword property and its covers from their definition
by reflections, orders come from closed formulas, Hecke products are
re-derived by right multiplication along reduced words, basis coordinates
and dual bases come from a whole-matrix inversion, the sparse vector sums
of both go entry by entry through `LaurentPoly`'s `+` and `*`, the tables
and products of a Weyl group come from the signed permutations of the
positive roots that the group was enumerated by before it keyed elements by
x^-1(rho), block linear algebra is redone with every entry a `Fraction`,
hom dimensions are counted from the residuals of elementary maps, total
complexes and maps of direct sums are rebuilt by the two separate builders
and the composition-based assembly the block layer used before it had one
builder for each, and quotients and quasi-isomorphisms are decided by the
basis extension and the induced maps on homology that the block layer used
before the complement and the cone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from heckeo.block import linalg
from heckeo.block.algebra import BlockConstructionError, ChainMap, Module, ModuleMap, kernel, zero_map
from heckeo.block.functors import AppliedComplex, ChainComplex, FunctorComplex, Summand
from heckeo.hecke import HeckeAlgebra, HeckeElt
from heckeo.k0 import BasisKind, K0Block
from heckeo.laurent import LaurentPoly, v
from heckeo.weyl import CartanDatum, WeylElt, WeylGroup


RULE_V_TO_VINV = "v_to_vinv"
RULE_V_TO_NEG_VINV = "v_to_neg_vinv"


class DictLaurentPoly:
    """The exponent -> coefficient dict form of `heckeo.laurent.LaurentPoly`,
    kept as the reference its packed arithmetic is compared against."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, n in coeffs.items():
                if n:
                    c[int(e)] = c.get(int(e), 0) + int(n)
                    if not c[int(e)]:
                        del c[int(e)]
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "DictLaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "DictLaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, n: int) -> "DictLaurentPoly":
        return cls({0: n})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    def max_exp(self) -> int | None:
        return max(self._c) if self._c else None

    # -- ring structure -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "DictLaurentPoly | None":
        if isinstance(other, DictLaurentPoly):
            return other
        if isinstance(other, int):
            return DictLaurentPoly({0: other})
        return None

    def __add__(self, other) -> "DictLaurentPoly":
        o = other if isinstance(other, DictLaurentPoly) else self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, n in o._c.items():
            m = c.get(e, 0) + n
            if m:
                c[e] = m
            elif e in c:
                del c[e]
        out = DictLaurentPoly.__new__(DictLaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def plus_multiple(self, other: "DictLaurentPoly", k: int) -> "DictLaurentPoly":
        """self + k * other for an integer k, in one pass: no product and
        no intermediate polynomial."""
        c = dict(self._c)
        for e, n in other._c.items():
            m = c.get(e, 0) + n * k
            if m:
                c[e] = m
            elif e in c:
                del c[e]
        out = DictLaurentPoly.__new__(DictLaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "DictLaurentPoly":
        out = DictLaurentPoly.__new__(DictLaurentPoly)
        out._c = {e: -n for e, n in self._c.items()}
        return out

    def __sub__(self, other) -> "DictLaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.plus_multiple(o, -1)

    def __rsub__(self, other) -> "DictLaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.plus_multiple(self, -1)

    def __mul__(self, other) -> "DictLaurentPoly":
        if not isinstance(other, DictLaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            # scaling by an integer needs no convolution
            out = DictLaurentPoly.__new__(DictLaurentPoly)
            out._c = {e: n * other for e, n in self._c.items()} if other else {}
            return out
        c: dict[int, int] = {}
        for e1, n1 in self._c.items():
            for e2, n2 in other._c.items():
                e = e1 + e2
                m = c.get(e, 0) + n1 * n2
                if m:
                    c[e] = m
                elif e in c:
                    del c[e]
        out = DictLaurentPoly.__new__(DictLaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DictLaurentPoly":
        if n < 0:
            # only unit monomials c*v^e with c = +-1 are invertible
            if len(self._c) == 1:
                ((e, cf),) = self._c.items()
                if cf in (1, -1):
                    return DictLaurentPoly({e * n: cf if n % 2 else 1})
            raise ValueError("negative powers only for unit monomials")
        out = DictLaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- substitutions -------------------------------------------------

    def substitute(self, rule: str) -> "DictLaurentPoly":
        """Apply v -> v^-1 or v -> -v^-1 to every monomial."""
        if rule == RULE_V_TO_VINV:
            return DictLaurentPoly({-e: n for e, n in self._c.items()})
        if rule == RULE_V_TO_NEG_VINV:
            return DictLaurentPoly({-e: (n if e % 2 == 0 else -n) for e, n in self._c.items()})
        raise ValueError(f"unknown substitution rule: {rule!r}")

    def bar(self) -> "DictLaurentPoly":
        """The involution v -> v^-1."""
        return self.substitute(RULE_V_TO_VINV)

    def twist(self) -> "DictLaurentPoly":
        """The involution v -> -v^-1."""
        return self.substitute(RULE_V_TO_NEG_VINV)

    def shifted(self, n: int) -> "DictLaurentPoly":
        """Multiply by v^n."""
        out = DictLaurentPoly.__new__(DictLaurentPoly)
        out._c = {e + n: c for e, c in self._c.items()}
        return out

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    # -- serialization / display ---------------------------------------

    def to_json(self) -> dict[str, int]:
        return {str(e): self._c[e] for e in sorted(self._c)}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "DictLaurentPoly":
        return cls({int(e): int(n) for e, n in data.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for e in sorted(self._c):
            n = self._c[e]
            if e == 0:
                body = str(abs(n))
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if abs(n) == 1 else f"{abs(n)}*{var}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r})"


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
            reachable |= {W.multiply(W.element(k), W.simple(i)).idx for k in reachable}
        rows[y] = sum(1 << k for k in reachable)
    return rows


def bruhat_rows_by_lifting(W: WeylGroup) -> list[int]:
    """Row y of the Bruhat table for every id y, by the lifting property
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.2.7): for a
    left descent s of y, {x <= y} = {x <= sy} together with s{x <= sy}.
    Ids are sorted by length, so row sy is done before row y; no covers
    and no subwords are used."""
    rows = [1 << W.identity.idx]
    for y in W.elements()[1:]:
        s = W.reduced_word(y)[0]
        below = rows[W.left_multiply_gen(s, y).idx]
        row = below
        for x in range(W.order):
            if below >> x & 1:
                row |= 1 << W.left_multiply_gen(s, W.element(x)).idx
        rows.append(row)
    return rows


def covers_by_reflections(W: WeylGroup) -> list[tuple[int, int]]:
    """The Bruhat covers as id pairs (x, y), ordered by y, then x, by their
    definition: x = y t for a reflection t with l(x) = l(y) - 1
    (Bjorner-Brenti, sections 2.1-2.2).  The reflections are the simple
    ones closed under t -> s t s; no descent and no lifting is used."""
    simples = [W.simple(i) for i in range(1, W.rank + 1)]
    reflections, todo = set(), list(simples)
    while todo:
        t = todo.pop()
        if t not in reflections:
            reflections.add(t)
            todo.extend(W.multiply(W.multiply(s, t), s) for s in simples)
    covers = []
    for y in W.elements():
        below = [x.idx for x in (W.multiply(y, t) for t in reflections)
                 if W.length(x) == W.length(y) - 1]
        covers += [(x, y.idx) for x in sorted(below)]
    return covers


def _reflect_root(cartan: list[list[int]], i: int, beta: tuple[int, ...]) -> tuple[int, ...]:
    """s_i(beta) = beta - (sum_j beta_j A[i][j]) alpha_i, in simple-root coordinates."""
    pairing = sum(c * a for c, a in zip(beta, cartan[i]))
    return tuple(c - pairing if j == i else c for j, c in enumerate(beta))


def _positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """The positive roots from the Cartan matrix alone, as the closure of the
    simple roots under the simple reflections, sorted."""
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
    return sorted(positive)


def lengths_by_inversions(W: WeylGroup) -> dict[int, int]:
    """Length of every element recomputed as the size of its inversion set:
    the number of positive roots that x sends to negative roots.

    The positive roots are rebuilt here from the Cartan matrix alone, as the
    closure of the simple roots under the simple reflections, and x acts by
    integer reflections along a word for it, so neither the length table nor
    the length of any word is ever read.
    """
    cartan = W.datum.cartan_matrix()
    positive = _positive_roots(cartan)
    out = {}
    for x in W.elements():
        word = W.reduced_word(x)
        cur = W.identity
        for i in word:
            cur = W.multiply(cur, W.simple(i))
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


def _add_into(out: dict[int, LaurentPoly], terms, scal: LaurentPoly | int = 1) -> None:
    """out += scal * terms, entry by entry through `LaurentPoly`'s `+` and
    `*`, dropping entries that cancel: the sparse vector sum without the
    production `laurent.accumulate`."""
    unit = scal == 1
    for k, p in terms:
        if not unit:
            p = p * scal
        if k in out:
            p = out[k] + p
        if p.is_zero():
            out.pop(k, None)
        else:
            out[k] = p


def _pairing(a: dict[int, LaurentPoly], b: dict[int, LaurentPoly]) -> LaurentPoly:
    """sum_k a_k b_k through `LaurentPoly`'s `+` and `*`, without the
    production `laurent.dot`."""
    if len(a) > len(b):
        a, b = b, a
    return sum((p * b[k] for k, p in a.items() if k in b), LaurentPoly.zero())


def _times_gen(g: WeylGroup, coeffs: dict[int, LaurentPoly], i: int) -> dict[int, LaurentPoly]:
    """h H_s for s the i-th simple reflection, term by term:
    H_y H_s = H_{ys}, plus (v^-1 - v) H_y when ys < y."""
    out: dict[int, LaurentPoly] = {}
    for k, p in coeffs.items():
        ks = g._rmult[k][i - 1]
        _add_into(out, [(ks, p)])
        if g._lengths[ks] < g._lengths[k]:
            _add_into(out, [(k, p * _V_INV_MINUS_V)])
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
        _add_into(total, cur.items())
    return HeckeElt(alg, total)


def d_rows_by_right_words(g: WeylGroup) -> list[dict[int, LaurentPoly]]:
    """d(H_x) = H_{x^-1}^-1 for every x, one right factor at a time:
    d(H_x) = d(H_{xs}) d(H_s) = d(H_{xs}) (H_s + v - v^-1) for s the first
    right descent of x.  It reads only the group's right multiplication
    table, never the algebra's left action or its d rows."""
    rows: list[dict[int, LaurentPoly]] = [{0: LaurentPoly.one()}]
    for x in range(1, g.order):
        i = next(i for i, y in enumerate(g._rmult[x]) if g._lengths[y] < g._lengths[x])
        lower = rows[g._rmult[x][i]]
        row = _times_gen(g, lower, i + 1)
        _add_into(row, lower.items(), -_V_INV_MINUS_V)
        rows.append(row)
    return rows


def bar_by_row_sum(alg: HeckeAlgebra, h: HeckeElt, d_rows: list[dict[int, LaurentPoly]]) -> HeckeElt:
    """d(h) = sum_k bar(h_k) d(H_k), the d(H_k) given as `d_rows` (such as
    `d_rows_by_right_words`), summed entry by entry through `LaurentPoly`'s
    `+` and `*`: the row sum without `laurent.accumulate` or Horner's rule."""
    out: dict[int, LaurentPoly] = {}
    for k, p in h._c.items():
        _add_into(out, d_rows[k].items(), p.bar())
    return HeckeElt(alg, out)


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


def invert_unitriangular(
    cols: list[dict[int, LaurentPoly]], n: int, lower: bool = False
) -> list[dict[int, LaurentPoly]]:
    """Invert a unitriangular matrix over Z[v, v^-1] given as columns
    (cols[j][i] = entry in row i), nonzero entries only at i <= j
    (or i >= j with lower=True).

    Returns the inverse as rows (out[i][j]).  Exact back substitution; the
    unit diagonal means no division ever happens.
    """
    for j in range(n):
        if cols[j].get(j) != LaurentPoly.one():
            raise ValueError("matrix is not unitriangular")
        if any((i < j if lower else i > j) for i in cols[j]):
            raise ValueError("matrix has entries on the wrong side of the diagonal")
    rows: list[dict[int, LaurentPoly]] = [dict() for _ in range(n)]
    order = range(n - 1, -1, -1) if lower else range(n)
    for i in order:
        rows[i][i] = LaurentPoly.one()
        span = range(i - 1, -1, -1) if lower else range(i + 1, n)
        for j in span:
            # rows[i] has no entry at j yet, so cols[j][j] drops out of the sum
            s = _pairing(rows[i], cols[j])
            if not s.is_zero():
                rows[i][j] = -s
    return rows


def dual_basis_by_inversion(alg: HeckeAlgebra, kl_variant: str) -> list[HeckeElt]:
    """The basis dual to the KL view `kl_variant` ("C" or "Cprime"): the rows
    of the inverse of the whole matrix of its columns, inverted at once."""
    g = alg.group
    cols = [alg.kl_element(g.element(j), kl_variant)._c for j in range(g.order)]
    return [HeckeElt(alg, row) for row in invert_unitriangular(cols, g.order)]


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
            _add_into(coords, inv[j].items(), p)
        out.append({g.element(i): c for i, c in sorted(coords.items())})
    return out


def compose_signed(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(beta_r) for signed permutations of the positive roots, where
    entry r is +-(k + 1) for x(beta_r) = +-beta_k: apply q, then p."""
    return tuple(p[t - 1] if t > 0 else -p[-t - 1] for t in q)


def enumerate_by_signed_perms(datum: CartanDatum) -> dict:
    """The tables of W(datum) from the signed permutations that its elements
    induce on the positive roots, built from the Cartan matrix alone.

    Breadth-first from the identity, generators in order, so the ids are
    those of `build_group`: `lengths` are levels, `rmult` composes with the
    generator perms, `inverse` inverts each perm, `lmult` composes the
    generator perms on the left, and `w0` is the one element of length N,
    the one that negates every positive root.  `perms` and `index`
    (perm -> id) are returned for `compose_signed`.
    """
    cartan = datum.cartan_matrix()
    n = len(cartan)
    positive = _positive_roots(cartan)
    root_index = {r: k for k, r in enumerate(positive)}

    def signed_perm(i: int) -> tuple[int, ...]:
        img = []
        for r in positive:
            s = _reflect_root(cartan, i, r)
            if min(s) >= 0:
                img.append(root_index[s] + 1)
            else:
                img.append(-(root_index[tuple(-c for c in s)] + 1))
        return tuple(img)

    gen_perms = [signed_perm(i) for i in range(n)]
    identity = tuple(range(1, len(positive) + 1))
    perms, index, lengths, rmult = [identity], {identity: 0}, [0], []
    for head, p in enumerate(perms):
        row = []
        for g in gen_perms:
            new = compose_signed(p, g)
            if new not in index:
                index[new] = len(perms)
                perms.append(new)
                lengths.append(lengths[head] + 1)
            row.append(index[new])
        rmult.append(row)
    assert all(sum(t < 0 for t in p) == lengths[k] for k, p in enumerate(perms))
    inverse = []
    for p in perms:
        inv = [0] * len(p)
        for r, t in enumerate(p):
            inv[abs(t) - 1] = r + 1 if t > 0 else -(r + 1)
        inverse.append(index[tuple(inv)])
    lmult = [[index[compose_signed(g, p)] for g in gen_perms] for p in perms]
    (w0,) = [k for k, p in enumerate(perms) if max(p) < 0]
    return {"lengths": lengths, "rmult": rmult, "inverse": inverse, "lmult": lmult,
            "w0": w0, "perms": perms, "index": index}


def lmult_by_compose(W: WeylGroup) -> list[list[int]]:
    """The table of s_i x for every id x and generator i, by composing the
    signed permutation of s_i with that of x on the positive roots, both
    rebuilt from the Cartan matrix; no table of the group is ever read."""
    return enumerate_by_signed_perms(W.datum)["lmult"]


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


def hom_dim_by_elementary_maps(x: Module, y: Module) -> int:
    """dim Hom(x, y): the nullity, by `frac_nullspace_basis`, of the map
    f |-> (y.act[a] f[src a] - f[tgt a] x.act[a]) over the arrows a, built
    one column at a time as the residual of each elementary f = E_ij at one
    vertex."""
    alg = x.algebra
    unknowns = [(v, i, j) for v in alg.vertices for i in range(y.dims[v]) for j in range(x.dims[v])]
    acts = {label: (FracMat(y.dims[t], y.dims[s], y.act[label].rows),
                    FracMat(x.dims[t], x.dims[s], x.act[label].rows))
            for label, s, t in alg.arrows}
    cols = []
    for v, i, j in unknowns:
        def f(u):
            e = FracMat(y.dims[u], x.dims[u])
            if u == v:
                e.rows[i][j] = Fraction(1)
            return e
        col = []
        for label, s, t in alg.arrows:
            ya, xa = acts[label]
            left, right = frac_mmul(ya, f(s)), frac_mmul(f(t), xa)
            col += [p - q for lrow, rrow in zip(left.rows, right.rows) for p, q in zip(lrow, rrow)]
        cols.append(col)
    if not cols:
        return 0
    system = FracMat(len(cols[0]), len(cols), [list(row) for row in zip(*cols)])
    return frac_nullspace_basis(system).ncols


# -- total complexes and maps of direct sums, built the earlier way ------------
#
# `compose_by_origins` and `apply_by_positions` are the two total-complex
# builders of `FunctorComplex` before they became one; `direct_sum_by_entries`
# places entries one at a time and `block_map_by_compositions` sums
# injection . block . projection over the blocks.  Tests compare the one
# builder and the block-matrix assembler with them entry by entry.


def direct_sum_by_entries(mods: list[Module]) -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with injections and projections."""
    alg = mods[0].algebra
    dims = {v: sum(m.dims[v] for m in mods) for v in alg.vertices}
    act = {}
    for label, src_v, tgt_v in alg.arrows:
        big = [[0] * dims[src_v] for _ in range(dims[tgt_v])]
        r0 = c0 = 0
        for m in mods:
            a = m.act[label]
            for i in range(m.dims[tgt_v]):
                for j in range(m.dims[src_v]):
                    big[r0 + i][c0 + j] = a.rows[i][j]
            r0 += m.dims[tgt_v]
            c0 += m.dims[src_v]
        act[label] = big
    total = Module(alg, dims, act)
    injections = []
    projections = []
    offs = {v: 0 for v in alg.vertices}
    for m in mods:
        inj = {}
        proj = {}
        for v in alg.vertices:
            mi = [[0] * m.dims[v] for _ in range(dims[v])]
            mp = [[0] * dims[v] for _ in range(m.dims[v])]
            for i in range(m.dims[v]):
                mi[offs[v] + i][i] = 1
                mp[i][offs[v] + i] = 1
            inj[v] = mi
            proj[v] = mp
        injections.append(ModuleMap(m, total, inj, check=False))
        projections.append(ModuleMap(total, m, proj, check=False))
        for v in alg.vertices:
            offs[v] += m.dims[v]
    return total, injections, projections


def block_map_by_compositions(srcs: list[Module], dsts: list[Module], blocks: dict) -> ModuleMap:
    """A map of direct sums as the sum of inj[r] . blocks[(r, c)] . proj[c]."""
    src, _, projs = direct_sum_by_entries(srcs)
    dst, injs, _ = direct_sum_by_entries(dsts)
    total = zero_map(src, dst)
    for (r, c), f in blocks.items():
        total = total + (injs[r] @ f @ projs[c])
    return total


def compose_by_origins(fc: FunctorComplex, other: FunctorComplex) -> FunctorComplex:
    """The composite complex, summands indexed by their origin (i, ci, j, cj)."""
    entries: dict[int, list[Summand]] = {}
    origin: dict[int, list[tuple[int, int, int, int]]] = {}
    for i in fc.degrees():
        for j in other.degrees():
            n = i + j
            for ci, sf in enumerate(fc.entries[i]):
                for cj, sg in enumerate(other.entries[j]):
                    entries.setdefault(n, []).append(
                        Summand(sf.label + sg.label, sf.functor.compose(sg.functor))
                    )
                    origin.setdefault(n, []).append((i, ci, j, cj))
    index: dict[int, dict[tuple[int, int, int, int], int]] = {}
    for n in entries:
        paired = sorted(zip(entries[n], origin[n]), key=lambda t: t[0].label)
        entries[n] = [p[0] for p in paired]
        index[n] = {p[1]: pos for pos, p in enumerate(paired)}
    diffs: dict = {}
    for n in entries:
        if n + 1 not in entries:
            continue
        acc: dict = {}
        for (i, ci, j, cj), col in index[n].items():
            sf = fc.entries[i][ci]
            sg = other.entries[j][cj]
            for (r, c), nat in fc.diffs.get(i, {}).items():
                if c != ci:
                    continue
                row = index[n + 1][(i + 1, r, j, cj)]
                term = nat.whisker_right(sg.functor)
                acc[(row, col)] = acc[(row, col)] + term if (row, col) in acc else term
            for (r, c), nat in other.diffs.get(j, {}).items():
                if c != cj:
                    continue
                row = index[n + 1][(i, ci, j + 1, r)]
                term = nat.whisker_left(sf.functor)
                if i % 2:
                    term = -term
                acc[(row, col)] = acc[(row, col)] + term if (row, col) in acc else term
        diffs[n] = acc
    return FunctorComplex(fc.algebra, entries, diffs)


def apply_by_positions(fc: FunctorComplex, target) -> AppliedComplex:
    """fc applied to a module (in degree 0) or a chain complex, summands
    sorted by (label, degree of the target entry)."""
    if isinstance(target, Module):
        target = ChainComplex(target.algebra, {0: target}, {})
    entries: dict[int, list] = {}
    for i in fc.degrees():
        for j in target.degrees():
            for s in fc.entries[i]:
                entries.setdefault(i + j, []).append((s, j))
    for n in entries:
        entries[n].sort(key=lambda t: (t[0].label, t[1]))
    mod_entries: dict[int, Module] = {}
    parts: dict[int, list[Module]] = {}
    for n, summands in entries.items():
        mods = [s.functor.on_module(target.entry(j)) for s, j in summands]
        parts[n] = mods
        mod_entries[n] = direct_sum_by_entries(mods)[0]
    diffs: dict = {}
    for n in entries:
        if n + 1 not in entries:
            continue
        pos_next = {(s.label, j): r for r, (s, j) in enumerate(entries[n + 1])}
        blocks: dict = {}
        for col, (s, j) in enumerate(entries[n]):
            i = n - j
            for (r, c), nat in fc.diffs.get(i, {}).items():
                if fc.entries[i][c].label != s.label:
                    continue
                row = pos_next[(fc.entries[i + 1][r].label, j)]
                f = nat.at(target.entry(j))
                blocks[(row, col)] = blocks.get((row, col), zero_map(f.src, f.dst)) + f
            if (j + 1) in target.entries or target.diffs.get(j) is not None:
                key = (s.label, j + 1)
                if key in pos_next:
                    f = s.functor.on_map(target.diff(j))
                    if i % 2:
                        f = -f
                    row = pos_next[key]
                    blocks[(row, col)] = blocks.get((row, col), zero_map(f.src, f.dst)) + f
        diffs[n] = block_map_by_compositions(parts[n], parts[n + 1], blocks)
    return AppliedComplex(ChainComplex(fc.algebra, mod_entries, diffs), entries, parts)


# -- quotients by basis extension, quasi-isomorphisms on homology ---------------
#
# `cokernel_by_extension` is the quotient as the block layer built it before
# `linalg.complement`: a column-space basis, one rank per standard vector to
# extend it, and an inverse of the extended basis.  `homology_by_extension`
# keeps the kernel inclusion and the chosen representatives beside the
# homology, so that `is_quasi_iso_on_homology` can compare induced maps
# degree by degree instead of asking for an exact mapping cone.


def _extend_by_std(cols: linalg.Mat) -> list[int]:
    """The j, in increasing order, whose standard vectors e_j each raise the
    rank of the independent columns `cols` and those already chosen."""
    n = cols.nrows
    chosen = []
    cur = cols
    for j in range(n):
        e_j = linalg.Mat(n, 1, [[int(i == j)] for i in range(n)])
        cand = linalg.hstack([cur, e_j])
        if linalg.rank(cand) > cur.ncols:
            cur = cand
            chosen.append(j)
    return chosen


def cokernel_by_extension(ambient: Module, cols: dict) -> tuple[Module, ModuleMap, dict]:
    """(quotient, projection, representatives): representatives[v] holds the
    ambient coordinates of the chosen quotient basis."""
    alg = ambient.algebra
    proj_mats, reps, dims = {}, {}, {}
    for v in alg.vertices:
        n, sub = ambient.dims[v], cols[v]
        _, pivots = linalg.rref(sub)
        sub_basis = linalg.Mat(n, len(pivots), [[row[p] for p in pivots] for row in sub.rows])
        r = sub_basis.ncols
        chosen = _extend_by_std(sub_basis)
        dims[v] = n - r
        assert len(chosen) == dims[v]
        reps[v] = linalg.Mat(n, len(chosen), [[int(i == j) for j in chosen] for i in range(n)])
        inv = linalg.solve(linalg.hstack([sub_basis, reps[v]]), linalg.eye(n))
        assert inv is not None
        proj_mats[v] = linalg.Mat(n - r, n, inv.rows[r:])
    act = {
        label: linalg.mmul(proj_mats[tgt_v], linalg.mmul(ambient.act[label], reps[src_v]))
        for label, src_v, tgt_v in alg.arrows
    }
    quot = Module(alg, dims, act)
    return quot, ModuleMap(ambient, quot, proj_mats), reps


def homology_by_extension(cx: ChainComplex, n: int) -> tuple[Module, ModuleMap, ModuleMap, dict]:
    """(H^n, kernel inclusion, kernel -> H^n, kernel coordinates of the
    representatives of the homology basis)."""
    ker, incl = kernel(cx.diff(n))
    d_prev = cx.diff(n - 1)
    cols = {}
    for v in cx.algebra.vertices:
        sol = linalg.solve(incl.mats[v], d_prev.mats[v])
        if sol is None:
            raise BlockConstructionError("image does not land in the kernel")
        cols[v] = sol
    h, proj, reps = cokernel_by_extension(ker, cols)
    return h, incl, proj, reps


def is_quasi_iso_on_homology(f: ChainMap) -> bool:
    """A chain map whose induced map on homology is bijective in every
    degree and at every vertex."""
    if not f.is_chain_map():
        return False
    lo = min(min(f.src.entries, default=0), min(f.dst.entries, default=0))
    hi = max(max(f.src.entries, default=0), max(f.dst.entries, default=0))
    for n in range(lo, hi + 1):
        hs, s_incl, _, s_reps = homology_by_extension(f.src, n)
        hd, d_incl, d_proj, _ = homology_by_extension(f.dst, n)
        if hs.dims != hd.dims:
            return False
        for v in f.src.algebra.vertices:
            classes = linalg.mmul(s_incl.mats[v], s_reps[v])
            in_ker = linalg.solve(d_incl.mats[v], linalg.mmul(f.comp(n).mats[v], classes))
            if in_ker is None:
                raise BlockConstructionError("chain map does not preserve cycles")
            if linalg.rank(linalg.mmul(d_proj.mats[v], in_ker)) != hd.dims[v]:
                return False
    return True
