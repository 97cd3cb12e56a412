"""The rank-one block algebra and its finite-dimensional modules.

The algebra is the path algebra of the quiver

        a
    e <---> s        with the relation  a . b = 0
        b            (the length-two cycle at the vertex s vanishes),

a five-dimensional basic algebra with basis {1_e, 1_s, a, b, ba}.  Left
modules are quiver representations: a vector space at each vertex, a matrix
for each arrow, and act_a @ act_b = 0.  The ground field is Q so that every
rank, kernel and homology computation is exact.

None of the structural facts about this presentation are assumed: the
construction battery in `catalog.py` recomputes projective dimensions,
endomorphism rings, Loewy layers and BGG reciprocity, and aborts if any of
them comes out wrong.

A one-vertex, arrowless instance of the same class models the category of
plain vector spaces on the wall, and `enveloping` gives the quiver whose
modules are the bimodules over an algebra.  Every quotient (cokernels,
homology, the generators of a projective cover) takes one elimination per
vertex, `linalg.complement`.  A question that asks only for a dimension
is answered by a rank, with no module or map built: `hom_dim` is the
nullity of the system `hom_basis` solves, and `homology_dims` reads
dim C - rank d - rank d' at each vertex.  Bounded chain complexes of
modules, their homology and chain maps close the file; a chain map is a
quasi-isomorphism when it is a chain map with an exact mapping cone, and
Ext is the homology of a Hom complex on the wall.
"""

from __future__ import annotations

from fractions import Fraction

from ..frozen import Frozen, init_field
from . import linalg
from .linalg import Mat


class BlockConstructionError(RuntimeError):
    pass


class PathAlgebra(Frozen):
    """A basic path algebra with monomial relations, given by its path basis.

    `arrows` lists (label, source, target); `arrow_word` maps a path to its
    arrow labels, the rightmost acting first; `dead_words` holds the
    forbidden adjacent arrow pairs (the relations).  Algebras with equal
    fields are equal, so `Functor.takes` accepts a module over a freshly
    built copy of its source algebra."""

    __slots__ = ("name", "vertices", "arrows", "basis", "source", "target",
                 "arrow_word", "dead_words")

    def __init__(self, name: str, vertices: tuple, arrows: tuple, basis: tuple,
                 source: dict, target: dict, arrow_word: dict, dead_words: frozenset):
        values = (name, vertices, arrows, basis, source, target, arrow_word, dead_words)
        for field, value in zip(self.__slots__, values):
            init_field(self, field, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not PathAlgebra:
            return NotImplemented
        return self._fields() == other._fields()

    def idempotent(self, vertex: str) -> str:
        return f"1_{vertex}"

    def mult(self, p: str, q: str) -> str | None:
        """Product p*q (q acts first); None encodes zero."""
        if self.source[p] != self.target[q]:
            return None
        word = self.arrow_word[p] + self.arrow_word[q]
        for i in range(len(word) - 1):
            if (word[i], word[i + 1]) in self.dead_words:
                return None
        for label in self.basis:
            if self.arrow_word[label] == word and self.source[label] == self.source[q]:
                return label
        return None


def rank_one_algebra() -> PathAlgebra:
    return PathAlgebra(
        name="rank-one block",
        vertices=("e", "s"),
        arrows=(("a", "e", "s"), ("b", "s", "e")),
        basis=("1_e", "1_s", "a", "b", "ba"),
        source={"1_e": "e", "1_s": "s", "a": "e", "b": "s", "ba": "e"},
        target={"1_e": "e", "1_s": "s", "a": "s", "b": "e", "ba": "e"},
        arrow_word={"1_e": (), "1_s": (), "a": ("a",), "b": ("b",), "ba": ("b", "a")},
        dead_words=frozenset({("a", "b")}),
    )


def wall_algebra() -> PathAlgebra:
    return PathAlgebra(
        name="wall",
        vertices=("w",),
        arrows=(),
        basis=("1_w",),
        source={"1_w": "w"},
        target={"1_w": "w"},
        arrow_word={"1_w": ()},
        dead_words=frozenset(),
    )


def enveloping(alg: PathAlgebra) -> PathAlgebra:
    """The quiver of A (x) A^op, whose modules are the A-bimodules.

    Vertex (t, s) holds e_t M e_s.  The left copy ("left", a, s) of an arrow
    a: u -> w maps (u, s) to (w, s); the right copy ("right", a, t), m |-> m a,
    maps (t, w) to (t, u).  The relations are left out: `hom_basis` reads only
    the arrows, and the modules built on this quiver satisfy them.
    """
    vertices = alg.vertices
    return PathAlgebra(
        name=f"{alg.name} bimodules",
        vertices=tuple((t, s) for t in vertices for s in vertices),
        arrows=tuple(
            (("left", a, v), (src, v), (tgt, v)) for a, src, tgt in alg.arrows for v in vertices
        ) + tuple(
            (("right", a, v), (v, tgt), (v, src)) for a, src, tgt in alg.arrows for v in vertices
        ),
        basis=(),
        source={},
        target={},
        arrow_word={},
        dead_words=frozenset(),
    )


def _shaped(data, nrows: int, ncols: int, what: str) -> Mat:
    """Coerce user matrix data to an exactly shaped Mat."""
    if data is None:
        return linalg.zeros(nrows, ncols)
    m = linalg.mat(data)
    if m.nrows == 0 and nrows == 0:
        return linalg.zeros(0, ncols)
    if m.ncols == 0 and ncols == 0:
        return linalg.zeros(nrows, 0) if m.nrows == nrows else _bad(what)
    if (m.nrows, m.ncols) != (nrows, ncols):
        _bad(what)
    return m


def _bad(what: str):
    raise BlockConstructionError(f"{what} has the wrong shape")


def _same_algebra(x: "Module", y: "Module") -> None:
    """Reject two modules over different algebras, naming both."""
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise BlockConstructionError(
            f"modules over different algebras: {x.algebra.name} and {y.algebra.name}"
        )


def _known(given: dict, known: dict, what: str) -> None:
    """Reject the keys of `given` that `known` lacks, naming them."""
    if not given.keys() <= known.keys():
        extra = ", ".join(sorted(map(str, given.keys() - known.keys())))
        raise BlockConstructionError(f"{what}: {extra}")


class Module:
    """A finite-dimensional left module: dims per vertex, a matrix per arrow."""

    __slots__ = ("algebra", "dims", "act")

    def __init__(self, algebra: PathAlgebra, dims: dict, act: dict | None = None):
        self.algebra = algebra
        self.dims = {v: dims.get(v, 0) for v in algebra.vertices}
        _known(dims, self.dims, f"not a vertex of {algebra.name}")
        if any(type(d) is not int for d in self.dims.values()):
            raise BlockConstructionError(f"non-integer dimension in {dims}")
        if min(self.dims.values(), default=0) < 0:
            raise BlockConstructionError(f"negative dimension in {self.dims}")
        act = act or {}
        self.act = {}
        for label, src, tgt in algebra.arrows:
            self.act[label] = _shaped(act.get(label), self.dims[tgt], self.dims[src], f"arrow {label}")
        _known(act, self.act, f"not an arrow of {algebra.name}")
        self.validate()

    def validate(self) -> None:
        # monomial relations hold on every module
        for w1, w2 in self.algebra.dead_words:
            prod = linalg.mmul(self.act[w1], self.act[w2])
            if not linalg.is_zero_mat(prod):
                raise BlockConstructionError(f"relation {w1}{w2}=0 violated")

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_action(self, path: str) -> Mat:
        """Matrix of a basis path, M_src -> M_tgt (rightmost arrow acts first)."""
        word = self.algebra.arrow_word[path]
        out = linalg.eye(self.dims[self.algebra.source[path]])
        for arrow in reversed(word):
            out = linalg.mmul(self.act[arrow], out)
        return out

    def dimension_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def __repr__(self) -> str:
        return f"Module({self.algebra.name}, dims={self.dims})"


class ModuleMap:
    """A homomorphism of modules: one matrix per vertex, commuting with arrows."""

    __slots__ = ("src", "dst", "mats")

    def __init__(self, src: Module, dst: Module, mats: dict, check: bool = True):
        _same_algebra(src, dst)
        self.src = src
        self.dst = dst
        self.mats = {
            v: _shaped(mats.get(v), dst.dims[v], src.dims[v], f"map at {v}")
            for v in src.algebra.vertices
        }
        _known(mats, self.mats, f"not a vertex of {src.algebra.name}")
        if check and not self.commutes():
            raise BlockConstructionError("matrices do not commute with the arrows")

    def commutes(self) -> bool:
        for label, src_v, tgt_v in self.src.algebra.arrows:
            lhs = linalg.mmul(self.mats[tgt_v], self.src.act[label])
            rhs = linalg.mmul(self.dst.act[label], self.mats[src_v])
            if not linalg.mat_eq(lhs, rhs):
                return False
        return True

    # -- algebra of maps: the shapes hold by construction -------------------

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        if other.dst.dims != self.src.dims:
            raise BlockConstructionError("composition shape mismatch")
        _same_algebra(other.src, self.dst)
        return _wrap(other.src, self.dst,
                     {v: linalg.mmul(m, other.mats[v]) for v, m in self.mats.items()})

    def _parallel(self, mats: dict) -> "ModuleMap":
        """The map src -> dst with the given matrices."""
        return _wrap(self.src, self.dst, mats)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return self._parallel({v: linalg.madd(m, other.mats[v]) for v, m in self.mats.items()})

    def __neg__(self) -> "ModuleMap":
        return self._parallel({v: linalg.mneg(m) for v, m in self.mats.items()})

    def scale(self, c) -> "ModuleMap":
        return self._parallel({v: linalg.mscale(c, m) for v, m in self.mats.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleMap)
            and self.src.dims == other.src.dims
            and self.dst.dims == other.dst.dims
            and all(linalg.mat_eq(self.mats[v], other.mats[v]) for v in self.mats)
        )

    def is_zero(self) -> bool:
        return all(linalg.is_zero_mat(m) for m in self.mats.values())

    def total_rank(self) -> int:
        return sum(linalg.rank(m) for m in self.mats.values())

    def is_injective(self) -> bool:
        return self.total_rank() == self.src.total_dim

    def is_surjective(self) -> bool:
        return self.total_rank() == self.dst.total_dim


def _wrap(src: Module, dst: Module, mats: dict) -> ModuleMap:
    """A ModuleMap around one exactly shaped matrix per vertex (no checks,
    no copy), as `linalg._wrap` is for a Mat."""
    f = ModuleMap.__new__(ModuleMap)
    f.src, f.dst, f.mats = src, dst, mats
    return f


def identity_map(m: Module) -> ModuleMap:
    return ModuleMap(m, m, {v: linalg.eye(m.dims[v]) for v in m.dims}, check=False)


def zero_map(src: Module, dst: Module) -> ModuleMap:
    return ModuleMap(src, dst, {}, check=False)


def sum_module(mods: list[Module]) -> Module:
    """The direct sum of mods, their arrow matrices placed block-diagonally;
    mods over different algebras are rejected."""
    if not mods:
        raise BlockConstructionError("empty direct sum needs an algebra")
    for m in mods[1:]:
        _same_algebra(mods[0], m)
    alg = mods[0].algebra
    sizes = {v: [m.dims[v] for m in mods] for v in alg.vertices}
    return Module(alg, {v: sum(ds) for v, ds in sizes.items()}, {
        label: linalg.block_matrix(
            {(k, k): m.act[label] for k, m in enumerate(mods)}, sizes[tgt_v], sizes[src_v]
        )
        for label, src_v, tgt_v in alg.arrows
    })


def block_map(src: Module, dst: Module, srcs: list[Module], dsts: list[Module],
              blocks: dict) -> ModuleMap:
    """The map src -> dst of the direct sums src of srcs and dst of dsts, built
    by the caller, from blocks[(r, c)] : srcs[c] -> dsts[r]; missing blocks
    are zero."""
    mats = {
        v: linalg.block_matrix(
            {rc: f.mats[v] for rc, f in blocks.items()},
            [m.dims[v] for m in dsts], [m.dims[v] for m in srcs],
        )
        for v in dst.algebra.vertices
    }
    return ModuleMap(src, dst, mats, check=False)


def direct_sum(mods: list[Module]) -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with injections and projections."""
    total = sum_module(mods)
    return (
        total,
        [block_map(m, total, [m], mods, {(k, 0): identity_map(m)}) for k, m in enumerate(mods)],
        [block_map(total, m, mods, [m], {(0, k): identity_map(m)}) for k, m in enumerate(mods)],
    )


# -- hom spaces ----------------------------------------------------------------

def _intertwining(x: Module, y: Module) -> tuple[dict, Mat]:
    """The linear system whose solutions are the maps x -> y, with the offset
    of each vertex's block of unknowns: entry (i, j) of the matrix at v is
    unknown offsets[v] + i * x.dims[v] + j, and each row is one entry of
    y.act[a] f[src a] - f[tgt a] x.act[a] = 0."""
    _same_algebra(x, y)
    alg = x.algebra
    offsets = {}
    n = 0
    for v in alg.vertices:
        offsets[v] = n
        n += y.dims[v] * x.dims[v]
    rows: list[list[int | Fraction]] = []
    for label, src_v, tgt_v in alg.arrows:
        for i in range(y.dims[tgt_v]):
            for j in range(x.dims[src_v]):
                row = [0] * n
                for k in range(y.dims[src_v]):
                    row[offsets[src_v] + k * x.dims[src_v] + j] += y.act[label].rows[i][k]
                for l in range(x.dims[tgt_v]):
                    row[offsets[tgt_v] + i * x.dims[tgt_v] + l] -= x.act[label].rows[l][j]
                rows.append(row)
    return offsets, linalg.from_rows(rows, n)


def hom_basis(x: Module, y: Module) -> list[ModuleMap]:
    """A basis of Hom(x, y): the nullspace of the intertwining system, each
    vector a checked map."""
    offsets, system = _intertwining(x, y)
    if system.ncols == 0:
        return []
    null = linalg.nullspace_basis(system) if system.nrows else linalg.eye(system.ncols)
    out = []
    for c in range(null.ncols):
        mats = {}
        for v in x.algebra.vertices:
            m = linalg.zeros(y.dims[v], x.dims[v])
            for i in range(y.dims[v]):
                for j in range(x.dims[v]):
                    m.rows[i][j] = null.rows[offsets[v] + i * x.dims[v] + j][c]
            mats[v] = m
        out.append(ModuleMap(x, y, mats))
    return out


def hom_dim(x: Module, y: Module) -> int:
    """dim Hom(x, y), the nullity of the intertwining system that `hom_basis`
    solves: its number of unknowns minus its rank, with no map built."""
    _, system = _intertwining(x, y)
    if system.nrows == 0 or system.ncols == 0:
        return system.ncols
    return system.ncols - linalg.rank(system)


# -- submodule / quotient constructions ------------------------------------------

def kernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    """The kernel submodule with its inclusion."""
    alg = f.src.algebra
    bases = {v: linalg.nullspace_basis(f.mats[v]) for v in alg.vertices}
    act = {
        label: linalg.solve(bases[tgt_v], linalg.mmul(f.src.act[label], bases[src_v]))
        for label, src_v, tgt_v in alg.arrows
    }
    if None in act.values():
        raise BlockConstructionError("kernel is not a submodule (impossible)")
    ker = Module(alg, {v: b.ncols for v, b in bases.items()}, act)
    return ker, ModuleMap(ker, f.src, bases)


def cokernel_of_columns(ambient: Module, cols: dict) -> tuple[Module, ModuleMap]:
    """Quotient of `ambient` by the submodule that the columns cols[v] span
    at each vertex v, with its projection: at each vertex one
    `linalg.complement`, whose chosen standard vectors are the quotient basis."""
    alg = ambient.algebra
    chosen, proj_mats = {}, {}
    for v in alg.vertices:
        chosen[v], proj_mats[v] = linalg.complement(cols[v])
    act = {}
    for label, src_v, tgt_v in alg.arrows:
        moved = linalg.mmul(proj_mats[tgt_v], ambient.act[label])
        act[label] = Mat(moved.nrows, len(chosen[src_v]),
                         [[row[j] for j in chosen[src_v]] for row in moved.rows])
    quot = Module(alg, {v: len(js) for v, js in chosen.items()}, act)
    return quot, ModuleMap(ambient, quot, proj_mats)


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    return cokernel_of_columns(f.dst, f.mats)


def radical(m: Module) -> dict:
    """Columns spanning rad M = J M at each vertex: the arrows into it."""
    alg = m.algebra
    cols = {v: [linalg.zeros(m.dims[v], 0)] for v in alg.vertices}
    for label, src_v, tgt_v in alg.arrows:
        cols[tgt_v].append(m.act[label])
    return {v: linalg.hstack(cs) for v, cs in cols.items()}


def top_dims(m: Module) -> dict:
    rad = radical(m)
    return {v: m.dims[v] - linalg.rank(rad[v]) for v in m.dims}


def socle_dims(m: Module) -> dict:
    """dim soc M at each vertex: the common kernel of the arrows out of it."""
    rows = {v: [linalg.zeros(0, m.dims[v])] for v in m.algebra.vertices}
    for label, src_v, _ in m.algebra.arrows:
        rows[src_v].append(m.act[label])
    return {v: m.dims[v] - linalg.rank(linalg.vstack(rs)) for v, rs in rows.items()}


def dual_module(m: Module) -> Module:
    """Contravariant duality: transpose matrices and swap a <-> b.

    Uses the anti-automorphism fixing the vertices and exchanging the two
    arrows; it fixes both simples and exchanges standard with costandard.
    """
    if set(m.algebra.arrow_word) != {"1_e", "1_s", "a", "b", "ba"}:
        raise BlockConstructionError("duality is defined for the rank-one block only")
    return Module(
        m.algebra,
        dict(m.dims),
        {"a": linalg.transpose(m.act["b"]), "b": linalg.transpose(m.act["a"])},
    )


# -- projectives and Ext ------------------------------------------------------------

def spanned_module(alg: PathAlgebra, elements: list, vertex_of, times) -> tuple[Module, dict]:
    """The module with basis `elements`, in which arrow `label` sends x to
    the element times(label, x), or to 0 where that is None; x sits at the
    vertex vertex_of(x).  Returns the module and its basis by vertex."""
    by_vertex = {v: [x for x in elements if vertex_of(x) == v] for v in alg.vertices}
    dims = {v: len(xs) for v, xs in by_vertex.items()}
    act = {}
    for label, src_v, tgt_v in alg.arrows:
        m = linalg.zeros(dims[tgt_v], dims[src_v])
        for j, x in enumerate(by_vertex[src_v]):
            y = times(label, x)
            if y is not None:
                m.rows[by_vertex[tgt_v].index(y)][j] = 1
        act[label] = m
    return Module(alg, dims, act), by_vertex


def projective(alg: PathAlgebra, vertex: str) -> tuple[Module, dict]:
    """The projective A e_vertex, with its path basis grouped by target vertex."""
    paths = [p for p in alg.basis if alg.source[p] == vertex]
    return spanned_module(alg, paths, lambda p: alg.target[p], alg.mult)


def bimodule(alg: PathAlgebra, tensors: list[tuple[str, ...]]) -> tuple[Module, dict]:
    """The A-bimodule with basis `tensors`, each a tensor p_1 (x) ... (x) p_k
    over the field of paths: A acts on the left through p_1 and on the right
    through p_k.  A module over `enveloping(alg)`, with its basis by vertex."""
    def times(label, x):
        side, arrow, _ = label
        if side == "left":
            p = alg.mult(arrow, x[0])
            return None if p is None else (p,) + x[1:]
        p = alg.mult(x[-1], arrow)
        return None if p is None else x[:-1] + (p,)

    return spanned_module(
        enveloping(alg), tensors, lambda x: (alg.target[x[0]], alg.source[x[-1]]), times
    )


def projective_cover(m: Module, projs: dict) -> tuple[Module, ModuleMap, list[str]]:
    """A projective cover P -> M; projs maps vertex -> (module, path basis)."""
    alg = m.algebra
    rad = radical(m)
    # one generator e_j of M_v for each standard vector outside the radical
    gens = [(v, j) for v in alg.vertices for j in linalg.complement(rad[v])[0]]
    if not gens:
        empty = Module(alg, {})
        return empty, zero_map(empty, m), []
    # the summand P_v of generator e_j sends its basis path p to p e_j, the
    # column j of the action of p
    mats = {}
    for u in alg.vertices:
        acts = [(m.path_action(p), j) for v, j in gens for p in projs[v][1][u]]
        mats[u] = Mat(m.dims[u], len(acts), [
            [a.rows[i][j] for a, j in acts] for i in range(m.dims[u])
        ])
    total = sum_module([projs[v][0] for v, _ in gens])
    cover = ModuleMap(total, m, mats)
    if not cover.is_surjective():
        raise BlockConstructionError("projective cover is not surjective")
    return total, cover, [v for v, _ in gens]


def ext_dims(m: Module, n: Module, imax: int, projs: dict) -> list[int]:
    """dim Ext^i(m, n) for 0 <= i <= imax: the cohomology of Hom(P_*, n) for an
    explicit projective resolution P_* -> m, as a complex of vector spaces."""
    resolution: list[ModuleMap] = []  # d_0: P_0 -> M, then d_i: P_i -> P_{i-1}
    target = m
    embed: ModuleMap | None = None
    for _ in range(imax + 2):
        p, cover, _ = projective_cover(target, projs)
        resolution.append(embed @ cover if embed is not None else cover)
        if p.is_zero():
            break
        ker, incl = kernel(cover)
        target = ker
        embed = incl
    hom_bases = [hom_basis(f.src, n) for f in resolution]
    wall = wall_algebra()
    spaces = {i: Module(wall, {"w": len(basis)}) for i, basis in enumerate(hom_bases)}
    diffs = {}
    for i in range(len(resolution) - 1):
        # Hom(P_i, n) -> Hom(P_{i+1}, n), f |-> f d_{i+1}, in the hom bases
        cols = [_hom_coords(b @ resolution[i + 1], hom_bases[i + 1]) for b in hom_bases[i]]
        mat = linalg.transpose(linalg.from_rows(cols, len(hom_bases[i + 1])))
        diffs[i] = ModuleMap(spaces[i], spaces[i + 1], {"w": mat})
    cohomology = ChainComplex(wall, spaces, diffs).homology_dims()
    return [cohomology.get(i, {"w": 0})["w"] for i in range(imax + 1)]


def _hom_coords(f: ModuleMap, basis: list[ModuleMap]) -> list[int | Fraction]:
    """Coordinates of f in a basis of its hom space."""
    coords = linalg.combination([flatten(b) for b in basis], flatten(f))
    if coords is None:
        raise BlockConstructionError("hom coordinate failure")
    return coords


def flatten(f: ModuleMap) -> list[int | Fraction]:
    """The entries of f, vertex by vertex in the algebra's order, row by row."""
    out = []
    for v in f.src.algebra.vertices:
        for row in f.mats[v].rows:
            out.extend(row)
    return out


# -- chain complexes of modules -------------------------------------------------


class ChainComplex:
    """A bounded complex of modules with differentials of degree +1.  Every
    missing degree reads as the same zero module, built once per complex
    when first read, so the zero maps at and into missing degrees (and a
    chain map's missing components) share it; each missing differential is
    one zero map, built once per degree when first read."""

    def __init__(self, algebra, entries: dict[int, Module], diffs: dict[int, ModuleMap]):
        self.algebra = algebra
        self.entries = dict(entries)
        self.diffs = dict(diffs)
        self._zero: Module | None = None
        self._zero_diffs: dict[int, ModuleMap] = {}

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def entry(self, n: int) -> Module:
        got = self.entries.get(n)
        if got is None:
            got = self._zero = self._zero or Module(self.algebra, {})
        return got

    def diff(self, n: int) -> ModuleMap:
        got = self.diffs.get(n) or self._zero_diffs.get(n)
        if got is None:
            got = self._zero_diffs[n] = zero_map(self.entry(n), self.entry(n + 1))
        return got

    def check_dsq(self) -> bool:
        return all((self.diff(n + 1) @ self.diff(n)).is_zero() for n in self.degrees())

    def homology(self, n: int) -> Module:
        """H^n: the kernel of d^n modulo the image of d^(n-1), in kernel
        coordinates."""
        ker, incl = kernel(self.diff(n))
        d_prev = self.diff(n - 1)
        cols = {v: linalg.solve(incl.mats[v], d_prev.mats[v]) for v in self.algebra.vertices}
        if None in cols.values():
            raise BlockConstructionError("image does not land in the kernel")
        return cokernel_of_columns(ker, cols)[0]

    def homology_modules(self) -> dict[int, Module]:
        """The nonzero homology modules by degree, each computed once."""
        out = {}
        for n in self._span():
            h = self.homology(n)
            if h.total_dim:
                out[n] = h
        return out

    def homology_dims(self) -> dict[int, dict[str, int]]:
        """The dimension vectors of the nonzero homology by degree, over the
        degrees of `homology_modules`, from ranks alone: at each vertex v,
        dim H^n_v = dim C^n_v - rank d^n_v - rank d^(n-1)_v.  That needs
        d^n d^(n-1) = 0; where it fails, this raises what `homology` raises,
        at the same first degree."""
        vertices = self.algebra.vertices
        out = {}
        span = self._span()
        below = self._ranks(span.start - 1)
        for n in span:
            d, d_prev = self.diffs.get(n), self.diffs.get(n - 1)
            if d is not None and d_prev is not None and not (d @ d_prev).is_zero():
                raise BlockConstructionError("image does not land in the kernel")
            here, entry = self._ranks(n), self.entries.get(n)
            dims = {v: (entry.dims[v] if entry is not None else 0) - here[v] - below[v]
                    for v in vertices}
            if any(dims.values()):
                out[n] = dims
            below = here
        return out

    def _span(self) -> range:
        """Every degree from the lowest entry to the highest."""
        return range(min(self.entries), max(self.entries) + 1) if self.entries else range(0)

    def _ranks(self, n: int) -> dict[str, int]:
        """The rank of d^n at each vertex."""
        d = self.diffs.get(n)
        return {v: 0 if d is None else linalg.rank(d.mats[v]) for v in self.algebra.vertices}


class ChainMap:
    """A degreewise map of chain complexes (missing degrees are zero, one
    zero map per degree, built when first read)."""

    def __init__(self, src: ChainComplex, dst: ChainComplex, comps: dict[int, ModuleMap]):
        self.src = src
        self.dst = dst
        self.comps = dict(comps)
        self._zero_comps: dict[int, ModuleMap] = {}

    def comp(self, n: int) -> ModuleMap:
        got = self.comps.get(n) or self._zero_comps.get(n)
        if got is None:
            got = self._zero_comps[n] = zero_map(self.src.entry(n), self.dst.entry(n))
        return got

    def is_chain_map(self) -> bool:
        degrees = set(self.src.entries) | set(self.dst.entries)
        for n in sorted(degrees):
            lhs = self.dst.diff(n) @ self.comp(n)
            rhs = self.comp(n + 1) @ self.src.diff(n)
            if lhs != rhs:
                return False
        return True

    def cone(self) -> ChainComplex:
        """The mapping cone: src[1] (+) dst in degree n, holding
        src^(n+1) (+) dst^n, with the differential (a, b) |-> (-d a, f a + d b)."""
        src, dst = self.src, self.dst
        degrees = {n - 1 for n in src.entries} | set(dst.entries)
        parts = {n: [src.entry(n + 1), dst.entry(n)] for n in degrees}
        entries = {n: sum_module(ps) for n, ps in parts.items()}
        diffs = {
            n: block_map(entries[n], entries[n + 1], parts[n], parts[n + 1], {
                (0, 0): -src.diff(n + 1), (1, 0): self.comp(n + 1), (1, 1): dst.diff(n),
            })
            for n in degrees if n + 1 in degrees
        }
        return ChainComplex(src.algebra, entries, diffs)

    def is_quasi_iso(self) -> bool:
        """A chain map whose mapping cone is exact: f induces isomorphisms
        on all homology iff its cone is acyclic (Weibel, An Introduction to
        Homological Algebra, Cor. 1.5.4).  Exactness is read from the cone's
        `homology_dims`, by ranks, so a cone with d^2 != 0 raises."""
        return self.is_chain_map() and not self.cone().homology_dims()


def module_as_complex(m: Module) -> ChainComplex:
    return ChainComplex(m.algebra, {0: m}, {})
