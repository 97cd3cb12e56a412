"""The Hecke algebra of a finite Weyl group over Z[v, v^-1].

Elements are stored in the standard basis {H_x} with the relations

    H_x H_y = H_{xy}                       when l(xy) = l(x) + l(y),
    (H_s + v)(H_s - v^-1) = 0              for simple reflections s.

The module provides the bar involution d (v -> v^-1, H_x -> H_{x^-1}^-1),
the sign twist b (v -> -v^-1, H_x -> H_x), the anti-automorphism iota
(v -> v, H_x -> H_{x^-1}), the self-dual elements C_x and C'_x = b(C_x),
the bilinear form <H_x, H_y> = delta_{x,y}, and the bases dual to {C'_x}
and {C_x} under that form.

Every basis view is built per element on first use: C_x upward on its
s-lower half (below), d(H_x) upward by one action each, and Q_x dual to
{C'_y} downward by the W-graph.
Only the row of an x with x <= x^-1 in id order is computed; the row of
x^-1 is then that row relabelled by iota, which commutes with d and b and
keeps the form.  C'_x and Q_x dual to {C_y} are b of C_x and of Q_x dual to
{C'_y}, as <b(a), b(c)> = b(<a, c>).  `_view` checks each row of these
three views once, computed or relabelled, for a unit diagonal and no entry
on the wrong side in id order; b keeps both.  Each builder interns the row
it computes, per algebra on the packed key of its coefficients
(`laurent.intern`, one lookup per entry): `_build_C` interns the s-lower
half it computes, and maps each distinct half value once to the interned
value of that value times v^-1, keyed by the id of the interned half value,
so the other half enters the row interned and no C row is scanned twice.
`b_twist` and `bar` map each distinct coefficient once, memoized on the
packed key (`laurent.mapped`).  bar(H_x) is the d row itself.  The bar of
any other element with fewer than _HORNER_FROM support elements is the row
sum of bar(c_k) d(H_k) over the d rows; from that size on, where the two
break even on A3, B3 and D4, it is Horner's rule over the right weak order
(Kazhdan-Lusztig 1979): d(H_u) = d(H_{ut}) d(H_t) for l(u) = l(ut) + 1, so
with the support hung on the tree whose parent of u is ut, t the first right
descent of u, bar(h) = R_e, where R_u = bar(c_u) + sum of d(H_t) R_{ut}
over the children ut of u, one action by d(H_s) = H_s + v - v^-1 per edge.
A dense bar then costs about sum of l(x) entry steps, not sum of |[e, x]|.
Results derived from view rows (the bar of a row; the columns of the d
table, until the loop of `verify_kl_oracle` ends; H_w0 C_x = Q_{w0 x} and
<Q_x, C'_y> = delta, shared by the hecke and k0 suites) are kept with the
rows read and reused while each is still in place.

The checks inherit these symmetries (`_holds` tests each invariant once per
table state).  On a d table that is iota-closed and b-fixed, a row that is
its `_source` row mapped has that row's bar mapped, and the iota-equivariant
bar solver skips a C_x made from C_{x^-1}.  On an iota-closed C', a pairing
row of Q_x made from Q_{x^-1} is skipped; the pairings against C are b of
those against C'.  A row that fails its test is computed, and a source comes
earlier in id order, so the first failure is always at a computed row.

Every product comes down to one left action on coefficient dicts,

    (H_s + c) H_y = H_{sy} + k_y H_y,   k_y = c (sy > y), c + v^-1 - v (sy < y),

one pass placing the h_{sy} and gathering the terms of each side whose k_y
is nonzero, then one `accumulate` per nonzero k_y.  It serves c = v (C_s:
Q_x and wall crossing), c = 0 (H_s: `mul`) and c = v - v^-1 (H_s^-1 =
d(H_s): d(H_x) and the steps of Horner's rule).  H_s has no k_y for sy > y
and H_s^-1 none for sy < y, so each gathers one side only; ids sort by
length, so sy > y is one comparison of ids.
Vector sums and pairings are `laurent.accumulate` and `laurent.dot`, whose
packed fields this module never reads.  `mul` walks the smaller support,
flipping sides by iota when that is b's, and memoizes H_y b along suffixes
of reduced words; for a single H_y with coefficient 1 the last action's
dict is the product.

mu(z, y), the v-coefficient of the C_y entry at z (`_mu`), is the W-graph:
C_s C_y = C_{sy} + sum of mu(z, y) C_z over the z with sz < z for sy > y,
and (v + v^-1) C_y for sy < y.  For s a left descent of x, H_s C_x =
v^-1 C_x, so h_{sz,x} = v^-1 h_{z,x} for every z with sz > z (Kazhdan-Lusztig
1979, section 2): `_build_C` computes C_s C_{sx} less the mu terms only at
those z, the s-lower half, with s the first letter of x, and shifts that half
by v^-1 to get the other.  C_s is self-adjoint, as the matrix of H_s is
symmetric, so <C_s Q_{sx}, C'_y> = delta_{x,y} + mu(sx, y) [sy > y] when
sx > x: `_build_dual_to_bC` subtracts those mu(sx, y) Q_y from C_s Q_{sx},
downward from Q_w0 = H_w0, and k0 builds the Simple coordinates of each H_z
upward by the same mu.  A solver that enforces self-duality coefficient by
coefficient down the length order is C_x's independent oracle;
`verify_kl_oracle` checks that the two agree exactly.  It pulls the defect
d(f) - f at each y of [e, x], by descending id, as one `dot` of the barred
coefficients set so far with column y of the d table, {z: d(H_z)_y}, a
result derived from the d rows and kept with them (Kazhdan-Lusztig 1979).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import is_

from .laurent import MINUS_ONE, ONE, ZERO, LaurentPoly, accumulate, dot, intern, mapped, v
from .report import VerificationReport
from .weyl import MixedGroups, WeylElt, WeylGroup

# (H_s + c) H_y = H_{sy} + k_y H_y, where k_y = c when sy > y and
# k_y = c + v^-1 - v when sy < y.  Each c in use is given by its two k_y,
# (sy > y, sy < y); `_act` skips a side whose k_y is ZERO itself.
_C_S = (v, v**-1)  # c = v: C_s
_H_S = (ZERO, v**-1 - v)  # c = 0: H_s
_H_S_INV = (v - v**-1, ZERO)  # c = v - v^-1: H_s^-1 = d(H_s)
# the support size from which `_bar` sums by Horner's rule, not by d rows:
# where the two break even on the bars that verify takes at A3, B3 and D4
_HORNER_FROM = 20

KL_VARIANTS = ("C", "Cprime")
DUAL_VARIANTS = ("dual_to_bC", "dual_to_C")
# the two coefficients of the n-th element of `_sample_elements`, built once
_SAMPLE_COEFFS = [(LaurentPoly({n - 1: 1, 2: -3}), LaurentPoly({0: 2, -2: n})) for n in range(4)]

# the memoized basis views: C_x, C'_x, the two dual bases, and d(H_x)
VIEWS = KL_VARIANTS + DUAL_VARIANTS + ("d",)
# the views that are b of another view, element by element
_TWIST_OF = {"Cprime": "C", "dual_to_C": "dual_to_bC"}


class HeckeElt:
    """A finitely supported Z[v,v^-1]-combination of standard basis elements.

    This is the package's one sparse vector type: a class in the
    Grothendieck-group model (k0.py) is the Hecke element with the same
    coefficients in the Verma basis, [D_x] <-> H_x.
    """

    __slots__ = ("algebra", "_c")

    def __init__(self, algebra: "HeckeAlgebra", coeffs: dict[int, LaurentPoly]):
        self.algebra = algebra
        self._c = {k: p for k, p in coeffs.items() if not p.is_zero()}

    @classmethod
    def _wrap(cls, algebra: "HeckeAlgebra", coeffs: dict[int, LaurentPoly]) -> "HeckeElt":
        """The element with a zero-free coefficient dict, which it shares."""
        h = cls.__new__(cls)
        h.algebra = algebra
        h._c = coeffs
        return h

    def coeff(self, x: WeylElt) -> LaurentPoly:
        self.algebra.group._check_same_group(x)
        return self._c.get(x.idx, ZERO)

    def coeffs(self) -> dict[WeylElt, LaurentPoly]:
        g = self.algebra.group
        return {g.element(k): p for k, p in sorted(self._c.items())}

    def is_zero(self) -> bool:
        return not self._c

    def _plus(self, other, scal) -> "HeckeElt":
        """self + scal * other, one `accumulate`; NotImplemented for a non-element."""
        if not isinstance(other, HeckeElt):
            return NotImplemented
        self.algebra.check_own(other)
        return HeckeElt._wrap(self.algebra, accumulate(dict(self._c), other._c.items(), scal))

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        return self._plus(other, ONE)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self._plus(other, MINUS_ONE)

    def __neg__(self) -> "HeckeElt":
        return HeckeElt._wrap(self.algebra, {k: -p for k, p in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return self.algebra.mul(self, other)
        scal = LaurentPoly._coerce(other)
        if scal is None:
            return NotImplemented
        return HeckeElt._wrap(self.algebra, accumulate({}, self._c.items(), scal))

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElt)
            and other.algebra is self.algebra
            and other._c == self._c
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), frozenset(self._c.items())))

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        g = self.algebra.group
        parts = [f"({self._c[k]})*H[{g.name(g.element(k))}]" for k in sorted(self._c)]
        return " + ".join(parts)


class HeckeAlgebra:
    """The Hecke algebra attached to one WeylGroup, with one lazy
    per-element memo for each basis view in VIEWS.

    All tables are write-once per group and hold coefficient dicts, never
    elements, so an algebra is freed with its last reference; every public
    operation is pure, and raises MixedGroups for an element of another
    group.  Each `_build_<view>` interns the coefficients of the row it
    computes, per algebra, and a relabelled row keeps its source's values:
    the KL table of A6 has 3.55M nonzero entries but 737 distinct
    polynomials, so an entry is one reference to a shared value.
    """

    def __init__(self, group: WeylGroup):
        self.group = group
        self._views: dict[str, dict[int, dict[int, LaurentPoly]]] = {name: {} for name in VIEWS}
        # packed key (see laurent.mapped) -> the shared value that every built
        # C, d and dual_to_bC row holds, its b twist, and its bar
        self._interned: dict[tuple, LaurentPoly] = {}
        self._twins: dict[tuple, LaurentPoly] = {}
        self._bars: dict[tuple, LaurentPoly] = {}
        # id of a shared value -> the shared value of that value times v^-1
        self._lowered: dict[int, LaurentPoly] = {}
        # id(view row) -> (view, id) where `_view` built it
        self._placed: dict[int, tuple[str, int]] = {}
        # key -> ((view, ids, rows) for each view read, the result derived)
        self._derived: dict[tuple, tuple[list, object]] = {}

    # -- constructors ----------------------------------------------------

    def zero(self) -> HeckeElt:
        return HeckeElt._wrap(self, {})

    def unit(self) -> HeckeElt:
        return HeckeElt._wrap(self, {0: ONE})

    def std(self, x: WeylElt) -> HeckeElt:
        """The standard basis element H_x."""
        self.group._check_same_group(x)
        return HeckeElt._wrap(self, {x.idx: ONE})

    def gen(self, i: int) -> HeckeElt:
        return self.std(self.group.simple(i))

    def check_own(self, *elts: HeckeElt) -> None:
        """Raise MixedGroups unless every element lives in this algebra."""
        for h in elts:
            if h.algebra is not self:
                raise MixedGroups("Hecke elements live over different groups")

    # -- multiplication ----------------------------------------------------

    def _act(self, col: int, h: dict[int, LaurentPoly], c) -> dict[int, LaurentPoly]:
        """(H_s + c) h on a coefficient dict, s the simple reflection of 0-based
        column col and c one of _C_S, _H_S, _H_S_INV: entry y of the result is
        h_{sy} + k_y h_y, one pass over the support to place the h_{sy} and
        gather the terms of each side whose k_y is not ZERO, then one
        `accumulate` for each such k_y with terms.  H_s has no k_y for
        sy > y and H_s^-1 none for sy < y, so each takes a one-sided pass.
        Ids sort by length and l(sy) = l(y) +- 1, so sy > y in id order
        exactly when sy > y in the Bruhat order."""
        up, down = c
        lmult = self.group._lmult
        out: dict[int, LaurentPoly] = {}
        if up is not ZERO and down is not ZERO:
            ups: list[tuple[int, LaurentPoly]] = []
            downs: list[tuple[int, LaurentPoly]] = []
            for y, p in h.items():
                sy = lmult[y][col]
                out[sy] = p
                (ups if sy > y else downs).append((y, p))
            if ups:
                accumulate(out, ups, up)
            if downs:
                accumulate(out, downs, down)
            return out
        scal, side = (up if up is not ZERO else down), []
        if up is not ZERO:
            for y, p in h.items():
                sy = lmult[y][col]
                out[sy] = p
                if sy > y:
                    side.append((y, p))
        else:
            for y, p in h.items():
                sy = lmult[y][col]
                out[sy] = p
                if sy < y:
                    side.append((y, p))
        if side and scal is not ZERO:
            accumulate(out, side, scal)
        return out

    def mul(self, a: HeckeElt, b: HeckeElt) -> HeckeElt:
        """sum_y a_y (H_y b) over the smaller support: if b has it,
        ab = iota(iota(b) iota(a)).  H_y b = H_s (H_{sy} b) for s the first
        letter of the reduced word of y, the rest being the word of sy, so
        the H_y b are memoized along suffixes: at most |W| actions.  For a
        single H_y != H_e with coefficient 1, the last action's fresh dict
        is the product itself, uncopied; b's own dict never is."""
        self.check_own(a, b)
        if len(a._c) > len(b._c):
            return self.iota(self.mul(self.iota(b), self.iota(a)))
        firsts, lmult = self.group._firsts, self.group._lmult
        memo = {0: b._c}
        total: dict[int, LaurentPoly] = {}
        for y, ay in a._c.items():
            chain = []
            while y not in memo:
                s = firsts[y]
                chain.append((y, s))
                y = lmult[y][s]
            hy = memo[y]
            for z, s in reversed(chain):
                hy = memo[z] = self._act(s, hy, _H_S)
            if chain and len(a._c) == 1 and ay == ONE:
                return HeckeElt._wrap(self, hy)
            accumulate(total, hy.items(), ay)
        return HeckeElt._wrap(self, total)

    def left_cs(self, i: int, h: HeckeElt) -> HeckeElt:
        """C_s h for C_s = H_s + v, s the i-th simple reflection."""
        self.check_own(h)
        return HeckeElt._wrap(self, self._act(self.group._simple_index(i), h._c, _C_S))

    # -- involutions ---------------------------------------------------------

    def bar(self, h: HeckeElt) -> HeckeElt:
        """The ring involution d: sum_k bar(h_k) d(H_k), by `_bar`.  d(H_x) is
        the d row itself, and the bar of a view row in place is derived once."""
        self.check_own(h)
        c = h._c
        if len(c) == 1:
            (k, p), = c.items()
            if p == ONE:
                return HeckeElt._wrap(self, self._view("d", k))
        place = self._placed.get(id(c))
        if place is None or self._views[place[0]].get(place[1]) is not c:
            return HeckeElt._wrap(self, self._bar(c))
        places = [(place[0], place[1:]), ("d", c)]
        out = self._derive(("bar", *place), places, lambda *_: self._row_bar(*place, c))
        return HeckeElt._wrap(self, out)

    def _row_bar(self, name: str, k: int, c: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """The bar of c, row k of view `name`: iota or b of the bar of its
        `_source` row where `_holds` allows, else `_bar`; c itself when c is
        self-dual."""
        if not (self._holds(name, k) and self._holds("d")):
            return self._bar(c)
        src, j, op = self._source(name, k)
        barred = self.bar(HeckeElt._wrap(self, self._views[src][j]))._c
        return c if barred is self._views[src][j] else op(HeckeElt._wrap(self, barred))._c

    def _bar(self, c: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """The bar of c: below _HORNER_FROM support elements, the row sum of
        bar(c_k) d(H_k) over the d rows, which is 2-3 times cheaper there;
        from that size on, `_bar_by_horner`, which reads no d row.  Each
        distinct coefficient is barred once per algebra, looked up on its
        packed key.  A self-dual c (C_x, C'_x) is kept as its own bar."""
        bars = mapped(self._bars, c, LaurentPoly.bar)
        if len(c) >= _HORNER_FROM:
            out = self._bar_by_horner(bars)
        else:
            out = {}
            for k, p in bars.items():
                accumulate(out, self._view("d", k).items(), p)
        return c if out == c else out

    def _bar_by_horner(self, bars: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """sum_u bars_u d(H_u) by Horner's rule over the right weak order.

        Each u != e hangs from its parent ut, t its first right descent, so
        d(H_u) = d(H_t1) ... d(H_tk) along the path e, t1, ..., u of the tree,
        and the sum is R_e, where R_u = bars_u + sum of d(H_t) R_{ut} over the
        children ut of u.  The R_u are summed from the longest nodes down,
        one `_act` with H_s^-1 = d(H_s) per edge and one `accumulate` per
        node with two or more terms.  No R_u is zero: the d(H_y) are a basis,
        and the u^-1 w over the w in the subtree of u are distinct."""
        g = self.group
        rmult, lengths, firsts, inverse = g._rmult, g._lengths, g._firsts, g._inverse
        # the R_{ut} that node u has been sent so far, and the nodes by length
        sent: dict[int, list] = {u: [] for u in bars}
        levels: list[list[int]] = [[] for _ in range(max(map(lengths.__getitem__, bars)) + 1)]
        for u in bars:
            levels[lengths[u]].append(u)
        for level in levels[:0:-1]:
            for u in level:
                t = firsts[inverse[u]]
                parent = rmult[u][t]
                if parent not in sent:
                    sent[parent] = []
                    levels[lengths[parent]].append(parent)
                sent[parent].append(self._act(t, self._horner_node(sent.pop(u), bars.get(u)), _H_S_INV))
        return self._horner_node(sent[0], bars.get(0))

    @staticmethod
    def _horner_node(parts: list, p: LaurentPoly | None) -> dict[int, LaurentPoly]:
        """R_u from the R_{ut} its children sent and p = bars_u (None when u is
        off the support): the largest part, owned by this sum, takes the
        others and p H_e in one `accumulate`."""
        if not parts:
            return {0: p}
        out = max(parts, key=len)
        terms = [part.items() for part in parts if part is not out]
        if p is not None:
            terms.append(((0, p),))
        if terms:
            accumulate(out, chain.from_iterable(terms), ONE)
        return out

    def b_twist(self, h: HeckeElt) -> HeckeElt:
        """The ring involution b: v -> -v^-1 on coefficients, H_x fixed.

        Each distinct coefficient is twisted once per algebra, looked up on
        its packed key.  The KL table has few distinct polynomials, so the
        C' view shares them."""
        self.check_own(h)
        return HeckeElt._wrap(self, mapped(self._twins, h._c, LaurentPoly.twist))

    def iota(self, h: HeckeElt) -> HeckeElt:
        """The anti-automorphism i: coefficients fixed, H_x -> H_{x^-1}."""
        self.check_own(h)
        g = self.group
        return HeckeElt._wrap(self, {g._inverse[k]: p for k, p in h._c.items()})

    # -- basis views ------------------------------------------------------------

    def view(self, name: str, x: WeylElt) -> HeckeElt:
        """Element x of a basis view: "C" or "Cprime" (see kl_element), one
        of the DUAL_VARIANTS (see dual_basis), or "d" for d(H_x).  Every
        view is memoized per element and built on first use."""
        if name not in VIEWS:
            raise ValueError(f"unknown basis view: {name!r}")
        self.group._check_same_group(x)
        return HeckeElt._wrap(self, self._view(name, x.idx))

    def _view(self, name: str, k: int) -> dict[int, LaurentPoly]:
        memo = self._views[name]
        got = memo.get(k)
        if got is None:
            source = self._source(name, k)
            if source is None:
                got = getattr(self, "_build_" + name)(k)
            else:
                src, j, op = source
                got = op(HeckeElt._wrap(self, self._view(src, j)))._c
            if name not in _TWIST_OF:
                # checked once per row: a unit diagonal and nothing on the
                # wrong side in id order, above k for the dual rows, else below
                if got.get(k) != LaurentPoly.one():
                    raise ValueError(f"{name} element {k} has no unit diagonal")
                if (min(got) < k) if name in DUAL_VARIANTS else (max(got) > k):
                    raise ValueError(f"{name} element {k} is not unitriangular")
            memo[k] = got
            self._placed[id(got)] = (name, k)
        return got

    def _source(self, name: str, k: int):
        """(view, id, b_twist or iota) of the row that row k of view `name` is
        made from: row k of the view it twists, or the row of k^-1 < k in id
        order relabelled; None for a row that `_build_<name>` computes."""
        twisted = _TWIST_OF.get(name)
        if twisted is not None:
            return twisted, k, self.b_twist
        inverse = self.group._inverse[k]
        return (name, inverse, self.iota) if inverse < k else None

    def _holds(self, name: str, k: int | None = None) -> bool:
        """Whether an invariant that a derivation rests on holds, tested once
        per table state through `_derive`.  With k: row k of view `name` has a
        `_source` row and is that row mapped.  Without: the view is iota-closed,
        each row on or below its diagonal in id order, and for d b-fixed."""
        if k is not None:
            source = self._source(name, k)
            return source is not None and self._derive(
                ("holds", name, k), [(name, (k,)), (source[0], source[1:2])],
                lambda row, src: row[0] == source[2](HeckeElt._wrap(self, src[0]))._c)
        inverse, wrap = self.group._inverse, HeckeElt._wrap
        # the row of x^-1 > x shares the values of the row of x
        return self._derive(("holds", name), [(name, range(self.group.order))], lambda rows: all(
            max(row, default=x) <= x for x, row in enumerate(rows)) and all(
            rows[inverse[x]] == self.iota(wrap(self, row))._c
            and (name != "d" or self.b_twist(wrap(self, row))._c == row)
            for x, row in enumerate(rows) if x <= inverse[x]))

    def _derive(self, key: tuple, places: list, derive):
        """derive(rows, ...), one list of rows per (view, ids) pair of `places`:
        kept under `key`, and reused while each row is still the one in place."""
        hit = self._derived.get(key)
        if hit is not None and all(all(map(is_, rows, map(self._views[name].get, ids)))
                                   for name, ids, rows in hit[0]):
            return hit[1]
        reads = [(name, ids, [self._view(name, k) for k in ids]) for name, ids in places]
        out = derive(*(rows for _, _, rows in reads))
        self._derived[key] = (reads, out)
        return out

    def _intern(self, row: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """row, its values replaced in place by the algebra's shared ones
        (`laurent.intern`)."""
        intern(self._interned, row)
        return row

    def _build_d(self, k: int) -> dict[int, LaurentPoly]:
        """d(H_x) = d(H_s) d(H_{sx}) = (H_s + v - v^-1) d(H_{sx}) for s the
        first letter of the reduced word of x."""
        g = self.group
        if k == 0:
            return self._intern({0: LaurentPoly.one()})
        s = g._firsts[k]
        return self._intern(self._act(s, self._view("d", g._lmult[k][s]), _H_S_INV))

    def _build_C(self, k: int) -> dict[int, LaurentPoly]:
        """C_x = C_s C_{sx} - sum of mu(y, sx) C_y over the y with sy < y, for
        s the first letter of the reduced word of x, computed on its s-lower
        half only.  As H_s C_x = v^-1 C_x for sx < x, h_{sz,x} = v^-1 h_{z,x}
        for every z with sz > z (Kazhdan-Lusztig 1979, section 2): entry z of
        the half is h_{sz,sx} + v h_{z,sx} less the mu terms at z, and the
        other half is that half times v^-1.  The half is interned, and each
        distinct value is shifted once per algebra, to an interned value."""
        g = self.group
        if k == 0:
            return self._intern({0: LaurentPoly.one()})
        lmult, s = g._lmult, g._firsts[k]
        # ids sort by length and l(sz) = l(z) +- 1, so sz > z in id order
        # exactly when sz > z in the Bruhat order.  One pass over C_{sx}: the
        # h_{sy} of its descents y placed at sy, its ascents kept for
        # v h_{z,sx}, and the nonzero mu(y, sx) of its descents
        half: dict[int, LaurentPoly] = {}
        ups: list[tuple[int, LaurentPoly]] = []
        strips: list[tuple[int, int]] = []
        for y, p in self._view("C", lmult[k][s]).items():
            sy = lmult[y][s]
            if sy > y:
                ups.append((y, p))
            else:
                half[sy] = p
                if mu := p.coeff(1):
                    strips.append((y, mu))
        accumulate(half, ups, _C_S[0])
        for y, mu in strips:
            accumulate(half, [(z, p) for z, p in self._view("C", y).items() if lmult[z][s] > z], -mu)
        # interned, the half holds objects that the algebra keeps alive, so
        # `_lowered` keys each by its id: one int lookup per entry
        self._intern(half)
        lowered, shifts = self._lowered, []
        for z, p in half.items():
            q = lowered.get(id(p))
            if q is None:
                q = lowered[id(p)] = self._intern({0: p.shifted(-1)})[0]
            shifts.append((lmult[z][s], q))
        half.update(shifts)
        return half

    def _mu(self, z: int, y: int) -> int:
        """mu(z, y), the v-coefficient of the C_y entry at z."""
        return self._view("C", y).get(z, ZERO).coeff(1)

    def _build_dual_to_bC(self, k: int) -> dict[int, LaurentPoly]:
        """Q_x with <Q_x, C'_y> = delta: H_w0 for x = w0, else, for s the
        first left ascent of x, C_s Q_{sx} less mu(sx, y) Q_y for each y with
        sy > y, mu read off row y of C where l(y) - l(sx) is odd."""
        g, lmult, lengths = self.group, self.group._lmult, self.group._lengths
        s = next((t for t, u in enumerate(lmult[k]) if lengths[u] > lengths[k]), None)
        if s is None:
            return self._intern({k: LaurentPoly.one()})
        sx = lmult[k][s]
        row = self._act(s, self._view("dual_to_bC", sx), _C_S)
        for y in range(bisect_left(lengths, lengths[sx] + 1), g.order):
            if (lengths[y] - lengths[sx]) & 1 and lengths[lmult[y][s]] > lengths[y] \
                    and (mu := self._mu(sx, y)):
                accumulate(row, self._view("dual_to_bC", y).items(), -mu)
        return self._intern(row)

    # -- Kazhdan-Lusztig elements ---------------------------------------------

    def kl_element(self, x: WeylElt, variant: str = "C") -> HeckeElt:
        """The self-dual element C_x (correction terms in vZ[v]) or
        C'_x = b(C_x) (correction terms in v^-1 Z[v^-1])."""
        if variant not in KL_VARIANTS:
            raise ValueError(f"unknown KL variant: {variant!r}")
        return self.view(variant, x)

    def kl_element_by_bar_solver(self, x: WeylElt) -> HeckeElt:
        """Independent oracle for C_x: starting from H_x, restore bar
        self-duality one basis coefficient at a time, longest first.

        The coefficient f_y is set at each y of [e, x], the support of
        d(H_x), by descending id.  Every f_z with z > y in id order is then
        set, and d(H_z) has no entry at y for z < y, so the defect
        d(f) - f at y is final: <bar f, column y of the d table>, one `dot`
        of the barred coefficients with {z: d(H_z)_y}.  It is
        bar-antisymmetric, so it is killed by a unique correction in vZ[v].
        The columns are derived from the d rows (`_d_columns`), and the
        C_s-product recursion is never read.
        """
        self.group._check_same_group(x)
        k, columns = x.idx, self._d_columns()
        f, barred = {k: ONE}, {k: ONE}
        for y in sorted(self._view("d", k).keys() - {k}, reverse=True):
            c = dot(barred, columns[y])
            if not c:
                continue
            if c.bar() != -c:
                raise ArithmeticError("bar defect is not antisymmetric; solver broken")
            p = c.positive_part()
            f[y], barred[y] = p, p.bar()
        # f equal to the built C row has that row's derived bar
        row = self._views["C"].get(k)
        got = HeckeElt._wrap(self, row if row == f else f)
        if self.bar(got) != got:
            raise ArithmeticError("bar solver failed to reach a self-dual element")
        return got

    def _d_columns(self) -> list[dict[int, LaurentPoly]]:
        """The columns of the d table, {z: d(H_z)_y} for each id y, derived
        from every d row and kept while each is still the row in place."""
        def columns(rows):
            out: list[dict[int, LaurentPoly]] = [{} for _ in rows]
            for z, row in enumerate(rows):
                for y, p in row.items():
                    out[y][z] = p
            return out

        return self._derive(("d columns",), [("d", range(self.group.order))], columns)

    # -- bilinear form and dual bases ---------------------------------------

    def pairing(self, a: HeckeElt, b: HeckeElt) -> LaurentPoly:
        """<a, b> = sum over x of a_x * b_x; the H_x are orthonormal."""
        self.check_own(a, b)
        return dot(a._c, b._c)

    def dual_basis(self, variant: str = "dual_to_bC") -> dict[WeylElt, HeckeElt]:
        """The family {Q_x} with <Q_x, b(C_y)> = delta (variant dual_to_bC)
        or <Q_x, C_y> = delta (variant dual_to_C)."""
        if variant not in DUAL_VARIANTS:
            raise ValueError(f"unknown dual-basis variant: {variant!r}")
        return {x: HeckeElt._wrap(self, self._view(variant, x.idx)) for x in self.group.elements()}

    def _hw0_failures(self) -> list[int]:
        """The ids x, in order, with H_w0 C_x != Q_{w0 x} for Q dual to {C'_y}."""
        g, h_w0 = self.group, HeckeElt._wrap(self, {self.group._w0: ONE})
        places = [("dual_to_bC", g._w0x), ("C", range(g.order))]
        return self._derive(("hw0",), places, lambda duals, cs: [
            x for x, (q, c) in enumerate(zip(duals, cs))
            if self.mul(h_w0, HeckeElt._wrap(self, c))._c != q])

    def _first_off_delta(self, variant: str, kl_variant: str) -> tuple[int, int] | None:
        """The first (x, y) in id order with <Q_x, col_y> != delta_{x,y}, for Q
        the dual basis `variant` and col its KL view `kl_variant`, or None.
        If every Q_x and C'_x is b of its twin, the C matrix is b of the C'
        one, and b fixes delta.  In the C' matrix, on an iota-closed C', the
        row of Q_x made from Q_{x^-1} is row x^-1, already scanned, permuted."""
        n, twisted = self.group.order, _TWIST_OF.get(variant)

        def first(duals, cols):
            if twisted and all(self._holds(variant, x) and self._holds("Cprime", x) for x in range(n)):
                return self._first_off_delta(twisted, "Cprime")
            closed = not twisted and self._holds(kl_variant)
            return next(((x, y) for x, row in enumerate(duals) if not (closed and self._holds(variant, x))
                         for y, col in enumerate(cols) if dot(row, col) != (ONE if x == y else ZERO)),
                        None)

        places = [(name, range(n)) for name in (variant, kl_variant)]
        return self._derive(("pairing", variant, kl_variant), places, first)

    # -- verification -----------------------------------------------------------

    def verify_hw0_identity(self) -> VerificationReport:
        """H_{w0} * C_x must equal the dual-basis element at w0 x, for all x."""
        g = self.group
        rep = VerificationReport("hecke")

        def check():
            bad = [g._name(x) for x in self._hw0_failures()]
            return not bad, ("failures at: " + ", ".join(bad)) if bad else f"all {g.order} elements"

        rep.run("hecke.hw0_times_C_is_dual_basis", check)
        return rep

    def verify_relations(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("hecke")

        def quadratic():
            for i in range(1, g.rank + 1):
                h = self.gen(i)
                lhs = self.mul(h + self.unit() * v, h - self.unit() * v**-1)
                if not lhs.is_zero():
                    return False, f"s_{i} fails"
            return True, f"{g.rank} generators"

        def braid():
            n, lengths = 0, g._lengths
            std = [HeckeElt._wrap(self, {k: ONE}) for k in range(g.order)]
            for x, hx in enumerate(std):
                for y, hy in enumerate(std):
                    xy = g._index_mul(x, y)
                    if lengths[xy] == lengths[x] + lengths[y]:
                        n += 1
                        if self.mul(hx, hy) != std[xy]:
                            return False, f"H_x H_y != H_xy at ({g._name(x)}, {g._name(y)})"
            return True, f"{n} length-additive pairs"

        rep.run("hecke.quadratic_relation", quadratic)
        rep.run("hecke.braid_relations", braid)
        return rep

    def verify_involutions(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("hecke")
        basis = [self.std(x) for x in g.elements()]
        sample = self._sample_elements()

        singles = [(h,) for h in basis + sample]
        pairs = [(a, b) for a in sample for b in sample]
        # the dense sample products are barred by Horner's rule, which reads
        # no d row; bar(H_s H_t) reads the d row of st, which d(H_s) d(H_t)
        # rebuilds from two rows of length one
        gens = [self.gen(i) for i in range(1, g.rank + 1)]
        gen_pairs = [(a, b) for a in gens for b in gens]
        bar, twist, iota, mul = self.bar, self.b_twist, self.iota, self.mul
        for name, holds, family, detail in (
            ("bar_is_involution", lambda h: bar(bar(h)) == h, singles, f"{len(singles)} elements"),
            ("bar_is_ring_automorphism", lambda a, b: bar(mul(a, b)) == mul(bar(a), bar(b)),
             pairs + gen_pairs, f"{len(sample)}^2 products"),
            ("b_is_involution", lambda h: twist(twist(h)) == h, singles, ""),
            ("b_is_ring_automorphism", lambda a, b: twist(mul(a, b)) == mul(twist(a), twist(b)),
             pairs, ""),
            ("iota_is_anti_automorphism", lambda a, b: iota(mul(a, b)) == mul(iota(b), iota(a)),
             pairs, ""),
            ("involutions_pairwise_commute",
             lambda h: bar(twist(h)) == twist(bar(h)) and bar(iota(h)) == iota(bar(h))
             and twist(iota(h)) == iota(twist(h)), singles, ""),
        ):
            rep.run("hecke." + name,
                    lambda holds=holds, family=family, detail=detail: (all(holds(*t) for t in family), detail))
        return rep

    def verify_kl(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("hecke")

        def structure():
            for x, below in enumerate(g._leq_rows):
                c = HeckeElt._wrap(self, self._view("C", x))
                cp = HeckeElt._wrap(self, self._view("Cprime", x))
                if self.bar(c) != c:
                    return False, f"C_{g._name(x)} not self-dual"
                if self.bar(cp) != cp:
                    return False, f"C'_{g._name(x)} not self-dual"
                if c._c.get(x) != LaurentPoly.one():
                    return False, f"C_{g._name(x)} leading term wrong"
                for y, p in sorted(c._c.items()):
                    if y == x:
                        continue
                    if not below >> y & 1:
                        return False, f"C_{g._name(x)} supported above Bruhat interval"
                    if p.min_exp() is not None and p.min_exp() < 1:
                        return False, f"C_{g._name(x)} correction not in vZ[v] at {g._name(y)}"
                for y, p in cp._c.items():
                    if y != x and p.max_exp() is not None and p.max_exp() > -1:
                        return False, f"C'_{g._name(x)} correction not in v^-1 Z[v^-1]"
            return True, f"all {g.order} elements"

        rep.run("hecke.kl_selfdual_and_degree_bounds", structure)
        return rep

    def verify_kl_oracle(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("hecke")

        def agree():
            try:
                for x in g.elements():
                    # C_x made from C_{x^-1}, already matched, matches
                    if not (self._holds("C", x.idx) and self._holds("d")) and \
                            self.kl_element(x, "C") != self.kl_element_by_bar_solver(x):
                        return False, f"recursion and solver disagree at {g.name(x)}"
                return True, f"all {g.order} elements"
            finally:
                # the columns copy the d table's structure, 15 MB at F4, and
                # nothing after this loop reads them
                self._derived.pop(("d columns",), None)

        rep.run("hecke.kl_recursion_matches_bar_solver", agree)
        return rep

    def verify_dual_basis(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("hecke")

        def duality():
            for variant, kl_variant in (("dual_to_bC", "Cprime"), ("dual_to_C", "C")):
                bad = self._first_off_delta(variant, kl_variant)
                if bad is not None:
                    return False, f"{variant} fails at ({g._name(bad[0])}, {g._name(bad[1])})"
            return True, f"2 * {g.order}^2 pairings"

        rep.run("hecke.dual_bases_orthonormal", duality)
        return rep

    def suite(self) -> VerificationReport:
        rep = VerificationReport("hecke")
        for sub in (self.verify_relations(), self.verify_involutions(), self.verify_kl(),
                    self.verify_kl_oracle(), self.verify_dual_basis(), self.verify_hw0_identity()):
            rep.extend(sub)
        return rep

    # -- helpers -----------------------------------------------------------

    def _sample_elements(self) -> list[HeckeElt]:
        """A small deterministic family with nontrivial coefficients, each
        supported on two elements, so that no product of two of them goes
        through the `iota` flip in `mul`."""
        g = self.group
        picks = sorted({0, g.order - 1, g.order // 2, min(1, g.order - 1)})
        return [HeckeElt(self, {k: p, 0 if k else 1: q}) for k, (p, q) in zip(picks, _SAMPLE_COEFFS)]

