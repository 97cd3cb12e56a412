"""Finite Weyl groups of types A-G with length, Bruhat order and reduced
words.

Every group is enumerated through its reflection representation: an element
x is keyed by x^-1(rho) in fundamental-weight coordinates, n integers that
the simple reflections move by multiples of the columns of the Cartan
matrix.  This gives one uniform code path for all types, including G2 and
F4; the keys are dropped once the id tables are built.

Element ids are assigned in breadth-first order from the identity, so ids are
sorted by length and are reproducible run to run.  Reduced words are always
the lexicographically smallest ones, which makes every downstream output
deterministic.  They are not stored: one table from the enumeration,
`_firsts`, holds the 0-based smallest left descent of each id, the first
letter of its word, and every walk reads the word from it one letter at a
time, y, then sy for s that letter, down to e.

`bruhat_leq` reads no Bruhat table: x <= y follows the lifting property
along the reduced word of y (Bjorner-Brenti, Combinatorics of Coxeter
Groups, Prop. 2.2.7), and so do the covers: for the smallest left descent s
of y, the lower covers of y are sy and the sz > z for the lower covers z of
sy.  Names are memoized strings, name(y) = "s.name(sy)".  Two lazy id tables
serve the hecke and k0 check loops: w0 x for each x, and the Bruhat row
masks, row y the bits of {x <= y}, closed downward over the covers, which
the weyl suite compares with `bruhat_leq`.  The JSON export never builds
the masks, |W|^2/8 bytes: 203 MB at A7.

>>> W = build_group(CartanDatum("A", 2))
>>> W.order, W.length(W.w0)
(6, 3)
>>> W.reduced_word(W.w0)
(1, 2, 1)
"""

from __future__ import annotations

import math

from .frozen import Frozen, init_field

# 8! = |W(A7)|: the group builds in about 0.2 s, and its `weyl --format json`
# export, 22 MB of covers written as they are made, takes about 0.7 s and
# 44 MB (2-vCPU VM)
DEFAULT_ENUMERATION_CAP = 40320

_ADMISSIBLE = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class WeylError(ValueError):
    pass


class InadmissibleDatum(WeylError):
    pass


class EnumerationCapExceeded(WeylError):
    pass


class MixedGroups(WeylError):
    pass


class MalformedWord(WeylError):
    pass


def _index(i, lo: int, hi: int, what: str, error=WeylError) -> int:
    """i, if it is an int (a bool is not) with lo <= i <= hi; else `error`."""
    if type(i) is not int:
        raise error(f"{what} {i!r} is not an int")
    if not lo <= i <= hi:
        raise error(f"{what} {i} out of range")
    return i


class CartanDatum(Frozen):
    """A finite Cartan type: a letter A/B/C/D/F/G and a rank."""

    __slots__ = ("letter", "rank")

    def __init__(self, letter: str, rank: int):
        if letter not in _ADMISSIBLE or type(rank) is not int or not _ADMISSIBLE[letter](rank):
            raise InadmissibleDatum(f"inadmissible Cartan datum: {letter}{rank}")
        init_field(self, "letter", letter)
        init_field(self, "rank", rank)

    def __repr__(self) -> str:
        return f"CartanDatum(letter={self.letter!r}, rank={self.rank!r})"

    def __eq__(self, other):
        if other.__class__ is not CartanDatum:
            return NotImplemented
        return self.letter == other.letter and self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.letter, self.rank))

    @classmethod
    def parse(cls, text: str) -> "CartanDatum":
        t = text.strip().upper()
        if len(t) < 2 or not t[1:].isdigit():
            raise InadmissibleDatum(f"inadmissible Cartan datum: {text!r}")
        return cls(t[0], int(t[1:]))

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"

    def cartan_matrix(self) -> list[list[int]]:
        """Cartan matrix A with simple reflections acting by
        s_i(alpha_j) = alpha_j - A[i][j] alpha_i."""
        n = self.rank
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

        def link(i, j, aij=-1, aji=-1):
            A[i][j] = aij
            A[j][i] = aji

        if self.letter in ("A", "B", "C", "F"):
            for i in range(n - 1):
                link(i, i + 1)
            if self.letter == "B":
                link(n - 2, n - 1, -1, -2)
            elif self.letter == "C":
                link(n - 2, n - 1, -2, -1)
            elif self.letter == "F":
                link(1, 2, -1, -2)
        elif self.letter == "D":
            for i in range(n - 2):
                link(i, i + 1)
            link(n - 3, n - 1)
        elif self.letter == "G":
            link(0, 1, -1, -3)
        return A

    def expected_order(self) -> int:
        n = self.rank
        if self.letter == "A":
            return math.factorial(n + 1)
        if self.letter in ("B", "C"):
            return (2 ** n) * math.factorial(n)
        if self.letter == "D":
            return (2 ** (n - 1)) * math.factorial(n)
        if self.letter == "F":
            return 1152
        return 12  # G2

    def n_positive_roots(self) -> int:
        """N = |Phi+| = l(w0), the sum of the d_i - 1 over the degrees d_i of
        the basic invariants (Humphreys, Reflection Groups and Coxeter
        Groups, 3.9)."""
        n = self.rank
        if self.letter == "A":
            return n * (n + 1) // 2
        if self.letter in ("B", "C"):
            return n * n
        if self.letter == "D":
            return n * (n - 1)
        return 24 if self.letter == "F" else 6  # G2


class WeylElt(Frozen):
    """Opaque handle into a WeylGroup (hashable, order = BFS id order)."""

    __slots__ = ("group", "idx")

    def __init__(self, group: "WeylGroup", idx: int):
        init_field(self, "group", group)
        init_field(self, "idx", idx)

    def __repr__(self) -> str:
        return self.group.name(self)

    def __hash__(self) -> int:
        return hash((id(self.group), self.idx))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElt)
            and other.group is self.group
            and other.idx == self.idx
        )

    def __lt__(self, other: "WeylElt") -> bool:
        return self.idx < other.idx


class _lazy_table:
    """A table built by the decorated method on first read and then set with
    `setattr` as a plain attribute, which hides this descriptor.  Unlike a
    `functools.cached_property`, which writes through the instance
    `__dict__`, it keeps the instance's attribute storage as it is: on
    CPython 3.11 that write slows every later attribute read."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


class WeylGroup:
    """A fully enumerated finite Weyl group.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, datum: CartanDatum, cap: int = DEFAULT_ENUMERATION_CAP):
        self.datum = datum
        n = datum.rank
        cartan = datum.cartan_matrix()
        expected = datum.expected_order()
        if expected > cap:
            raise EnumerationCapExceeded(
                f"enumeration cap exceeded: |W({datum.label})| = {expected} > {cap}"
            )

        # N, read as the packing width of the keys and as l(w0)
        self.n_positive_roots = npos = datum.n_positive_roots()

        # x is keyed by lam = x^-1(rho) in fundamental-weight coordinates,
        # rho = (1, ..., 1): the key of x s_i is lam - lam_i alpha_i, and
        # l(x s_i) > l(x) iff lam_i > 0 (Humphreys, Reflection Groups and
        # Coxeter Groups, sections 1.6-1.7 and 5.4).  |lam_j| is the height
        # of a coroot, at most N, so lam is packed into one int, digit j of
        # w bits holding lam_j + N + 1; alpha_i is column i of the matrix.
        # Ascents only: a descent x s_i < x is set when x s_i ascends to x.
        # Descents are met in column order, so the first is the smallest.
        w = (2 * npos + 1).bit_length()
        mask, zero = (1 << w) - 1, sum((npos + 1) << (w * j) for j in range(n))
        gens = [(w * i, sum(cartan[j][i] << (w * j) for j in range(n))) for i in range(n)]
        rho = zero + sum(1 << (w * j) for j in range(n))
        keys, index, lengths = [rho], {rho: 0}, [0]
        parents: list[tuple[int, int]] = [(0, -1)]
        rmult: list[list[int]] = [[-1] * n]
        right_first: list[int] = []
        for head, lam in enumerate(keys):
            row = rmult[head]
            level = lengths[head]
            first = -1
            for i, (shift, alpha) in enumerate(gens):
                c = (lam >> shift & mask) - npos - 1
                if c <= 0:
                    if row[i] < 0:
                        raise WeylError("a descent x s_i < x was never met as an ascent")
                    if first < 0:
                        first = i
                    continue
                new = lam - c * alpha
                j = index.get(new)
                if j is None:
                    j = len(keys)
                    if j >= cap:
                        raise EnumerationCapExceeded(
                            f"enumeration cap exceeded while building {datum.label}"
                        )
                    index[new] = j
                    keys.append(new)
                    lengths.append(level + 1)
                    parents.append((head, i))
                    rmult.append([-1] * n)
                elif lengths[j] != level + 1:
                    raise WeylError("an ascent x -> x s_i does not add one to l(x)")
                if row[i] >= 0 or rmult[j][i] >= 0:
                    raise WeylError("an edge x -> x s_i is set twice")
                row[i], rmult[j][i] = j, head
            right_first.append(first)

        self._lengths = lengths
        self._rmult = rmult
        self.order = len(keys)

        # x = s_i1 ... s_ik along its parent word, so x^-1 walks it reversed
        inverse = []
        for x in range(self.order):
            y = 0
            while x:
                x, i = parents[x]
                y = rmult[y][i]
            inverse.append(y)
        self._inverse = inverse
        # the smallest left descent of x is the smallest right one of x^-1
        self._firsts = [right_first[y] for y in inverse]
        # s x = (x^-1 s)^-1: the row of x^-1 mapped through inverse
        get = inverse.__getitem__
        self._lmult = [list(map(get, rmult[k])) for k in inverse]

        # construction self-checks
        if self.order != expected:
            raise WeylError(
                f"enumerated order {self.order} != expected {expected} for {datum.label}"
            )
        tops = [k for k, l in enumerate(lengths) if l == npos]
        if len(tops) != 1 or lengths.count(0) != 1:
            raise WeylError("longest/identity element not unique")
        self._w0 = tops[0]
        # w0 rho = -rho, so w0 x has the key -lam: the id of w0 x for each id x
        self._w0x = w0x = [index.get(2 * zero - lam) for lam in keys]
        for k, j in enumerate(w0x):
            if j is None or lengths[j] != npos - lengths[k]:
                raise WeylError("length duality l(w0 x) = l(w0) - l(x) failed")

        self._names: list[str | None] = ["e"] + [None] * (self.order - 1)

    # -- internal helpers ----------------------------------------------

    def _index_mul(self, i: int, j: int) -> int:
        """x y along the shorter reduced word: y's from x through _rmult, or
        for l(x) < l(y), (y^-1 x^-1)^-1 along the word of x^-1."""
        inverse = self._inverse
        flip = self._lengths[j] > self._lengths[i]
        if flip:
            i, j = inverse[j], inverse[i]
        rmult, lmult, firsts = self._rmult, self._lmult, self._firsts
        while j:
            s = firsts[j]
            i, j = rmult[i][s], lmult[j][s]
        return inverse[i] if flip else i

    @_lazy_table
    def _leq_rows(self) -> list[int]:
        """Row y, the bitmask of {x : x <= y}: y and the rows of its covers.
        Covers come ordered by y and sit below it in id order, so each row
        is final before it is read."""
        rows = [1 << y for y in range(self.order)]
        for x, y in self._cover_ids():
            rows[y] |= rows[x]
        return rows

    def _check_same_group(self, *elts: WeylElt) -> None:
        for x in elts:
            if x.group is not self:
                raise MixedGroups("elements belong to different Weyl groups")

    # -- basic structure -----------------------------------------------

    @property
    def rank(self) -> int:
        return self.datum.rank

    def element(self, idx: int) -> WeylElt:
        return WeylElt(self, _index(idx, 0, self.order - 1, "element id"))

    def elements(self) -> list[WeylElt]:
        return [WeylElt(self, k) for k in range(self.order)]

    @property
    def identity(self) -> WeylElt:
        return WeylElt(self, 0)

    @property
    def w0(self) -> WeylElt:
        return WeylElt(self, self._w0)

    def simple(self, i: int) -> WeylElt:
        """The simple reflection s_i, 1-based."""
        return WeylElt(self, self._rmult[0][self._simple_index(i)])

    def _simple_index(self, i: int) -> int:
        """The 0-based column of s_i, i checked to be a 1-based index."""
        return _index(i, 1, self.rank, "simple reflection index") - 1

    def length(self, x: WeylElt) -> int:
        self._check_same_group(x)
        return self._lengths[x.idx]

    def multiply(self, x: WeylElt, y: WeylElt) -> WeylElt:
        self._check_same_group(x, y)
        return WeylElt(self, self._index_mul(x.idx, y.idx))

    def inverse(self, x: WeylElt) -> WeylElt:
        self._check_same_group(x)
        return WeylElt(self, self._inverse[x.idx])

    def left_multiply_gen(self, i: int, x: WeylElt) -> WeylElt:
        """s_i x, 1-based like `simple`."""
        self._check_same_group(x)
        return WeylElt(self, self._lmult[x.idx][self._simple_index(i)])

    # -- reduced words ---------------------------------------------------

    def reduced_word(self, x: WeylElt) -> tuple[int, ...]:
        """Lexicographically smallest reduced word of x (1-based letters)."""
        self._check_same_group(x)
        word, k = [], x.idx
        while k:
            s = self._firsts[k]
            word.append(s + 1)
            k = self._lmult[k][s]
        return tuple(word)

    def element_by_word(self, word: tuple[int, ...] | list[int]) -> WeylElt:
        k = 0
        for i in word:
            i = _index(i, 1, self.rank, "malformed word: letter", MalformedWord)
            k = self._rmult[k][i - 1]
        return WeylElt(self, k)

    def name(self, x: WeylElt) -> str:
        """Canonical dot-separated name, 'e' for the identity."""
        self._check_same_group(x)
        return self._name(x.idx)

    def _name(self, k: int) -> str:
        """name(k) = "s.name(s k)" for s the first letter of k, memoized."""
        name = self._names[k]
        if name is None:
            s = self._firsts[k]
            sk = self._lmult[k][s]
            name = self._names[k] = f"{s + 1}.{self._name(sk)}" if sk else str(s + 1)
        return name

    def parse_word(self, text: str) -> WeylElt:
        """Parse 'e', 'w0', 's' (= s_1) or a dot-separated word like '1.2.1'."""
        t = text.strip()
        if t in ("e", ""):
            return self.identity
        if t == "w0":
            return self.w0
        if t == "s":
            return self.simple(1)
        try:
            word = [int(tok) for tok in t.split(".")]
        except ValueError:
            raise MalformedWord(f"malformed word string: {text!r}") from None
        return self.element_by_word(word)

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, x: WeylElt, y: WeylElt) -> bool:
        """x <= y, by the lifting property along the reduced word of y: for
        a left descent s of y, x <= y iff min(x, sx) <= sy, and x <= e iff
        x = e.  Ids are sorted by length, so the shorter of x, sx is the
        smaller id."""
        self._check_same_group(x, y)
        k, j, lmult, firsts = x.idx, y.idx, self._lmult, self._firsts
        if self._lengths[k] > self._lengths[j]:
            return False
        while j:
            s = firsts[j]
            sk = lmult[k][s]
            if sk < k:
                k = sk
            j = lmult[j][s]
        return k == 0

    def bruhat_covers(self) -> list[tuple[WeylElt, WeylElt]]:
        """All pairs (x, y) with x < y and l(y) = l(x) + 1, ordered by y,
        then x: `_cover_ids` as elements.

        >>> len(build_group(CartanDatum("A", 2)).bruhat_covers())
        8
        """
        return [(WeylElt(self, x), WeylElt(self, y)) for x, y in self._cover_ids()]

    def _cover_ids(self):
        """The id pairs of `bruhat_covers`, generated from `_lower_covers`."""
        return ((x, y) for y, below in enumerate(self._lower_covers()) for x in below)

    def _lower_covers(self) -> list[list[int]]:
        """The sorted lower covers of each id y: for s its first letter, sy and
        the sz > z for the lower covers z of sy.  By lifting, a cover x != sy
        has sx < x (else x <= sy, so x = sy), and sx is a lower cover of sy."""
        lmult, firsts, out = self._lmult, self._firsts, [[]]
        for y in range(1, self.order):
            s = firsts[y]
            sy = lmult[y][s]
            out.append(sorted([sy] + [sz for z in out[sy] if (sz := lmult[z][s]) > z]))
        return out

    # -- export ------------------------------------------------------------

    def json_chunks(self):
        """The JSON export, compact, as text chunks: the header and lengths,
        then the covers of each x, in name-pair order.  Names are digits,
        dots and "e", so no string needs escaping.

        >>> "".join(build_group(CartanDatum("A", 1)).json_chunks())
        '{"schema":1,"type":"A1","order":2,"positive_roots":1,"longest":"1","lengths":{"e":0,"1":1},"covers":[["e","1"]]}'
        """
        names = [self._name(k) for k in range(self.order)]
        yield (f'{{"schema":1,"type":"{self.datum.label}","order":{self.order},'
               f'"positive_roots":{self.n_positive_roots},"longest":"{names[self._w0]}",'
               '"lengths":{')
        yield ",".join(f'"{name}":{n}' for name, n in zip(names, self._lengths))
        yield '},"covers":['
        # each x in name order with its upper covers, gathered in name
        # order; each list is dropped once read
        by_name = sorted(range(self.order), key=names.__getitem__)
        above = [[] for _ in range(self.order)]
        lower = self._lower_covers()
        for y in by_name:
            for x in lower[y]:
                above[x].append(y)
            lower[y] = None
        sep = ""
        for x in by_name:
            if above[x]:
                head = f'["{names[x]}","'
                yield sep + ",".join([f'{head}{names[y]}"]' for y in above[x]])
                sep = ","
            above[x] = None
        yield "]}"

    def __repr__(self) -> str:
        return f"WeylGroup({self.datum.label}, order={self.order})"


def build_group(datum: CartanDatum, cap: int = DEFAULT_ENUMERATION_CAP) -> WeylGroup:
    """Enumerate the Weyl group of the given Cartan datum."""
    return WeylGroup(datum, cap=cap)


def weyl_suite(g: WeylGroup):
    """Structural checks on an enumerated group, as a verification report."""
    from .report import VerificationReport

    rep = VerificationReport("weyl")
    rep.run(
        "weyl.order_formula",
        lambda: (g.order == g.datum.expected_order(), f"order {g.order}"),
    )
    rep.run(
        "weyl.longest_element",
        lambda: (
            g.length(g.w0) == g.n_positive_roots
            and g.multiply(g.w0, g.w0) == g.identity,
            f"l(w0) = {g.n_positive_roots}, w0 is an involution",
        ),
    )
    rep.run(
        "weyl.length_duality",
        lambda: (
            all(
                g.length(g.multiply(g.w0, x)) == g.length(g.w0) - g.length(x)
                for x in g.elements()
            ),
            "l(w0 x) = l(w0) - l(x)",
        ),
    )
    rep.run(
        "weyl.exchange_condition",
        lambda: (
            all(
                abs(g.length(g.left_multiply_gen(i, x)) - g.length(x)) == 1
                for x in g.elements()
                for i in range(1, g.rank + 1)
            ),
            "l(s x) = l(x) +- 1",
        ),
    )
    rep.run(
        "weyl.reduced_words",
        lambda: (
            all(
                len(g.reduced_word(x)) == g.length(x)
                and g.element_by_word(g.reduced_word(x)) == x
                for x in g.elements()
            ),
            "lexicographically minimal words multiply back",
        ),
    )

    def bruhat_order():
        # rows from bruhat_leq; with length refinement, row y = {y} + the
        # rows of the covers of y makes the order transitive, by induction
        # on l(y).  The covers follow their own lifting recursion, a second
        # derivation; the masks the hecke and k0 checks read must equal both
        elts = g.elements()
        rows = [sum(1 << x.idx for x in elts if g.bruhat_leq(x, y)) for y in elts]
        if any(not (rows[y] >> y) & 1 for y in range(g.order)):
            return False, "not reflexive"
        # ids are sorted by length, so the ids shorter than length l are
        # one prefix mask: besides y itself, row y may hold nothing else
        shorter = {}
        for x in reversed(elts):
            shorter[g.length(x)] = (1 << x.idx) - 1
        if any(rows[y.idx] & ~shorter[g.length(y)] != 1 << y.idx for y in elts):
            return False, "does not refine length"
        closure = [1 << y for y in range(g.order)]
        for x, y in g.bruhat_covers():
            closure[y.idx] |= rows[x.idx]
        if closure != rows:
            return False, "not transitive"
        if any(row != mask for row, mask in zip(rows, g._leq_rows)):
            return False, "differs from the cached row masks"
        return True, "reflexive, length-refining, transitive"

    rep.run("weyl.bruhat_partial_order", bruhat_order)
    return rep
