"""Translation functors, adjunctions, complexes of functors and homology
for the rank-one block.

Functors are words in two atoms: pi_star (restrict a block module to its
e-vertex space, the translation onto the wall; the wall category is plain
vector spaces) and pi_pull (tensor a vector space with the big projective
P_e, the translation off the wall).  theta = pi_pull . pi_star.

The two adjunctions (pi_pull -| pi_star) and (pi_star -| pi_pull) are not
hand-coded: their units and counits are found by solving the triangle
identities over the natural-transformation spaces Nat(theta, Id) and
Nat(Id, theta).  theta is tensoring with the bimodule B = Ae (x) eA, so by
the Eilenberg-Watts theorem these spaces are the bimodule hom spaces
Hom(B, A) and Hom(A, B): `hom_basis` computes them as module hom spaces
over the enveloping quiver of A (x) A^op.  The first solution in a fixed
deterministic enumeration is frozen; everything downstream must be
invariant under that choice.

Reuse follows one rule: every memo is a dict keyed by the objects it was
built from, and `Module` and `Nat` hash by identity, so a replaced input
misses by construction.  pi_star M = M_e depends only on dim M_e and
pi_pull V = P_e (x) V only on dim V, so `Catalog.images` keeps each atom
image by (atom, dimension) beside the P_e it reads; each solved (co)unit
caches its component by module object (`functools.cache`); the composites
behind ev and coev are keyed by (eps, etap).  Nothing points back at the
block: a functor holds the catalog, a complex its algebra, and a (co)unit
the functors it applies, so dropping the block frees it and every memo.

A FunctorComplex is a bounded complex whose entries are direct sums of
functor words.  Composing two of them and applying one to a complex of
modules form the same total complex, with one builder: summands paired and
sorted by label, which makes composition strictly associative, and the
differential d_F . 1 + (-1)^i . 1 . d_G.  The two differ only in how a
differential meets the inner summand (whiskering, or evaluation at a
module) and how a functor meets an inner differential (whiskering, or the
functor on a map).  Chain complexes of modules live in `algebra`.
"""

from __future__ import annotations

from functools import cache

from ..frozen import Frozen, init_field
from . import linalg
from .algebra import (
    BlockConstructionError,
    ChainComplex,
    ChainMap,
    Module,
    ModuleMap,
    PathAlgebra,
    bimodule,
    block_map,
    direct_sum,
    flatten,
    hom_basis,
    identity_map,
    module_as_complex,
    sum_module,
)
from .catalog import Catalog
from .linalg import Mat

PI_STAR = "pi_star"
PI_PULL = "pi_pull"
_KIND_IN = {PI_STAR: "mod", PI_PULL: "wall"}
_KIND_OUT = {PI_STAR: "wall", PI_PULL: "mod"}


class Functor:
    """A composable word in the atoms pi_star / pi_pull (rightmost first),
    over the fixed parts of a block: its catalog."""

    __slots__ = ("catalog", "word", "src_kind", "tgt_kind")

    def __init__(self, catalog: Catalog, word: tuple[str, ...], src_kind: str):
        kind = src_kind
        for atom in reversed(word):
            if _KIND_IN[atom] != kind:
                raise BlockConstructionError(f"non-composable functor word {word}")
            kind = _KIND_OUT[atom]
        self.catalog = catalog
        self.word = word
        self.src_kind = src_kind
        self.tgt_kind = kind

    def compose(self, other: "Functor") -> "Functor":
        if other.tgt_kind != self.src_kind:
            raise BlockConstructionError("functor composition kind mismatch")
        return Functor(self.catalog, self.word + other.word, other.src_kind)

    def takes(self, m: Module) -> bool:
        """Whether m is an object of this functor's source category."""
        src = self.catalog.algebra if self.src_kind == "mod" else self.catalog.wall
        return m.algebra is src or m.algebra == src

    def check_source(self, m: Module) -> None:
        if not self.takes(m):
            raise BlockConstructionError(
                f"{self!r} takes {self.src_kind} objects, not modules over {m.algebra.name}"
            )

    def on_module(self, m: Module) -> Module:
        self.check_source(m)
        for atom in reversed(self.word):
            m = self._atom_module(atom, m)
        return m

    def on_map(self, f: ModuleMap) -> ModuleMap:
        self.check_source(f.src)
        for atom in reversed(self.word):
            f = self._atom_map(atom, f)
        return f

    def _atom_module(self, atom: str, m: Module) -> Module:
        """M_e, or P_e (x) V: built once per catalog for each dimension."""
        cat = self.catalog
        d = m.dims["e" if atom == PI_STAR else "w"]
        out = cat.images.get((atom, d))
        if out is None:
            if atom == PI_STAR:
                out = Module(cat.wall, {"w": d})
            else:
                pe, alg = cat.modules["P_e"], cat.algebra
                out = Module(alg, {v: pe.dims[v] * d for v in alg.vertices},
                             {label: linalg.kron(pe.act[label], linalg.eye(d))
                              for label, _, _ in alg.arrows})
            cat.images[(atom, d)] = out
        return out

    def _atom_map(self, atom: str, f: ModuleMap) -> ModuleMap:
        cat = self.catalog
        if atom == PI_STAR:
            mats = {"w": f.mats["e"]}
        else:
            mats = {
                v: linalg.kron(linalg.eye(cat.modules["P_e"].dims[v]), f.mats["w"])
                for v in cat.algebra.vertices
            }
        return ModuleMap(
            self._atom_module(atom, f.src), self._atom_module(atom, f.dst), mats, check=False
        )

    def __repr__(self) -> str:
        if not self.word:
            return f"Id_{self.src_kind}"
        short = {PI_STAR: "p*", PI_PULL: "p^"}
        return ".".join(short[a] for a in self.word)


class Nat:
    """A natural transformation between two functor words, given by its
    component on every object."""

    __slots__ = ("src", "dst", "fn")

    def __init__(self, src: Functor, dst: Functor, fn):
        if src.src_kind != dst.src_kind or src.tgt_kind != dst.tgt_kind:
            raise BlockConstructionError("natural transformation kind mismatch")
        self.src = src
        self.dst = dst
        self.fn = fn

    def at(self, m: Module) -> ModuleMap:
        self.src.check_source(m)
        return self.fn(m)

    def then(self, other: "Nat") -> "Nat":
        """Vertical composition: first self, then other."""
        return Nat(self.src, other.dst, lambda m: other.at(m) @ self.at(m))

    def __add__(self, other: "Nat") -> "Nat":
        return Nat(self.src, self.dst, lambda m: self.at(m) + other.at(m))

    def __neg__(self) -> "Nat":
        return Nat(self.src, self.dst, lambda m: -self.at(m))

    def whisker_left(self, f: Functor) -> "Nat":
        """1_f . self : f.src -> f.dst."""
        return Nat(
            f.compose(self.src), f.compose(self.dst), lambda m: f.on_map(self.at(m))
        )

    def whisker_right(self, f: Functor) -> "Nat":
        """self . 1_f."""
        return Nat(
            self.src.compose(f), self.dst.compose(f), lambda m: self.at(f.on_module(m))
        )

    def equal_on(self, other: "Nat", objects) -> bool:
        return all(self.at(m) == other.at(m) for m in objects)

    def is_zero_on(self, objects) -> bool:
        return all(self.at(m).is_zero() for m in objects)


def identity_nat(f: Functor) -> Nat:
    return Nat(f, f, lambda m: identity_map(f.on_module(m)))


class Adjunction(Frozen):
    """left -| right with unit: Id -> right.left and counit: left.right -> Id.
    Immutable: a block's (co)units are read from its adjunctions, and its
    memos key on them."""

    __slots__ = ("left", "right", "unit", "counit", "name")

    def __init__(self, left: Functor, right: Functor, unit: Nat, counit: Nat, name: str):
        init_field(self, "left", left)
        init_field(self, "right", right)
        init_field(self, "unit", unit)
        init_field(self, "counit", counit)
        init_field(self, "name", name)

    def triangles(self, objects) -> list[ModuleMap]:
        """The triangle composites (counit L)(L unit) at each object of L's
        source and (R counit)(unit R) at each object of R's source."""
        left, right = self.left, self.right
        out = []
        for x in objects:
            if left.takes(x):
                out.append(self.counit.at(left.on_module(x)) @ left.on_map(self.unit.at(x)))
            if right.takes(x):
                out.append(right.on_map(self.counit.at(x)) @ self.unit.at(right.on_module(x)))
        return out

    def triangles_hold(self, objects) -> bool:
        return all(f == identity_map(f.src) for f in self.triangles(objects))


def transpose(phi: Nat, adj_f: Adjunction, adj_g: Adjunction) -> Nat:
    """Transpose of phi: R_f -> R_g across two adjunctions, landing in
    L_g -> L_f."""
    def fn(x: Module) -> ModuleMap:
        lf_x = adj_f.left.on_module(x)
        m1 = adj_g.left.on_map(adj_f.unit.at(x))
        m2 = adj_g.left.on_map(phi.at(lf_x))
        m3 = adj_g.counit.at(lf_x)
        return m3 @ m2 @ m1

    return Nat(adj_g.left, adj_f.left, fn)


def right_transpose(psi: Nat, adj_f: Adjunction, adj_g: Adjunction) -> Nat:
    """Right transpose of psi: L_g -> L_f, landing in R_f -> R_g."""
    def fn(y: Module) -> ModuleMap:
        rf_y = adj_f.right.on_module(y)
        m1 = adj_g.unit.at(rf_y)
        m2 = adj_g.right.on_map(psi.at(rf_y))
        m3 = adj_g.right.on_map(adj_f.counit.at(y))
        return m3 @ m2 @ m1

    return Nat(adj_f.right, adj_g.right, fn)


# -- functor complexes ---------------------------------------------------------------


class Summand:
    __slots__ = ("label", "functor")

    def __init__(self, label: tuple[int, ...], functor: Functor):
        self.label = label
        self.functor = functor


class FunctorComplex:
    """A bounded complex of direct sums of functor words.

    diffs[n] maps (row, col) -> Nat taking summand col of degree n to
    summand row of degree n+1.  Summands are kept sorted by label, which is
    what makes composition strictly associative.
    """

    def __init__(self, algebra: PathAlgebra, entries: dict[int, list[Summand]],
                 diffs: dict[int, dict[tuple[int, int], Nat]]):
        self.algebra = algebra
        self.entries = {n: list(s) for n, s in entries.items()}
        self.diffs = {n: dict(d) for n, d in diffs.items()}

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def words(self, n: int) -> list[tuple[str, ...]]:
        return [s.functor.word for s in self.entries.get(n, [])]

    def compose(self, other: "FunctorComplex") -> "FunctorComplex":
        pairs, diffs = _total_complex(
            self, {j: [(s.label, s.functor) for s in ss] for j, ss in other.entries.items()},
            other.diffs, Nat.whisker_right, lambda f, d: d.whisker_left(f),
        )
        entries = {
            n: [Summand(label, self.entries[i][ci].functor.compose(other.entries[j][cj].functor))
                for label, i, ci, j, cj in ps]
            for n, ps in pairs.items()
        }
        return FunctorComplex(self.algebra, entries, diffs)

    def apply(self, target) -> "AppliedComplex":
        """Apply to a module (placed in degree 0) or a chain complex, which
        enters the total complex with one summand per degree, labelled (j,)."""
        if isinstance(target, Module):
            target = module_as_complex(target)
        pairs, blocks = _total_complex(
            self, {j: [((j,), target.entry(j))] for j in target.degrees()},
            {j: {(0, 0): target.diff(j)} for j in target.degrees() if j + 1 in target.entries},
            Nat.at, Functor.on_map,
        )
        summands = {
            n: [(self.entries[i][ci], j) for _, i, ci, j, _ in ps] for n, ps in pairs.items()
        }
        parts = {
            n: [s.functor.on_module(target.entry(j)) for s, j in ss] for n, ss in summands.items()
        }
        cc = ChainComplex(
            self.algebra,
            {n: sum_module(mods) for n, mods in parts.items()},
            {n: block_map(parts[n], parts[n + 1], bl) for n, bl in blocks.items()},
        )
        return AppliedComplex(cc, summands, parts)


def _total_complex(outer: FunctorComplex, inner: dict, inner_diffs: dict, d_outer, d_inner):
    """The total complex of `outer` with an inner complex, as index data.

    inner[j] lists the inner summands of degree j as (label, payload), and
    inner_diffs[j][(r, c)] maps summand c of degree j to summand r of degree
    j + 1.  Entry n pairs each summand ci of outer's degree i with each inner
    summand cj of degree j = n - i, as (label, i, ci, j, cj) sorted by the
    joined label; that order makes composition strictly associative.  Block
    (row, col) of the differential out of entry n is d_a (x) 1 + (-1)^i 1 (x) d_b:
    the sum of d_outer(d_a, payload of cj) over the outer differentials d_a out
    of ci, and of (-1)^i d_inner(functor of ci, d_b) over the inner ones out
    of cj.  Returns the pairs and the blocks, both by degree.
    """
    pairs: dict[int, list] = {}
    for i in outer.degrees():
        for j in sorted(inner):
            for ci, a in enumerate(outer.entries[i]):
                for cj, (label, _) in enumerate(inner[j]):
                    pairs.setdefault(i + j, []).append((a.label + label, i, ci, j, cj))
    for ps in pairs.values():
        ps.sort(key=lambda p: p[0])
    blocks: dict[int, dict] = {}
    for n, ps in pairs.items():
        if n + 1 not in pairs:
            continue
        row_of = {p[1:]: r for r, p in enumerate(pairs[n + 1])}
        acc = blocks[n] = {}
        for col, (_, i, ci, j, cj) in enumerate(ps):
            terms = [((i + 1, r, j, cj), d_outer(d, inner[j][cj][1]))
                     for (r, c), d in outer.diffs.get(i, {}).items() if c == ci]
            for (r, c), d in inner_diffs.get(j, {}).items():
                if c == cj:
                    term = d_inner(outer.entries[i][ci].functor, d)
                    terms.append(((i, ci, j + 1, r), -term if i % 2 else term))
            for dst, term in terms:
                key = (row_of[dst], col)
                acc[key] = acc[key] + term if key in acc else term
    return pairs, blocks


class AppliedComplex:
    __slots__ = ("complex", "summands", "parts")

    def __init__(self, complex: ChainComplex, summands: dict[int, list[tuple[Summand, int]]],
                 parts: dict[int, list[Module]]):
        self.complex = complex
        self.summands = summands
        self.parts = parts


# -- the built rank-one context ----------------------------------------------------


def _act_by(m: Module, terms: list, src: str, dst: str) -> Mat:
    """The matrix M_src -> M_dst of the sum of c * path over the (c, path) terms."""
    out = linalg.zeros(m.dims[dst], m.dims[src])
    for c, path in terms:
        out = linalg.madd(out, linalg.mscale(c, m.path_action(path)))
    return out


class RankOneBlock:
    # each (co)unit has one store, its adjunction
    eps = property(lambda self: self.adj1.counit)
    eta = property(lambda self: self.adj1.unit)
    etap = property(lambda self: self.adj2.unit)
    epsp = property(lambda self: self.adj2.counit)

    def __init__(self, catalog: Catalog):
        self.catalog = cat = catalog
        self.algebra = cat.algebra
        self.wall = cat.wall
        self.id_mod = Functor(cat, (), "mod")
        self.id_wall = Functor(cat, (), "wall")
        self.pi_star = Functor(cat, (PI_STAR,), "mod")
        self.pi_pull = Functor(cat, (PI_PULL,), "wall")
        self.theta = Functor(cat, (PI_PULL, PI_STAR), "mod")
        self.regular = direct_sum([cat.modules["P_e"], cat.modules["P_s"]])[0]
        # the wall test objects, built once: the (co)unit memos hold each
        # module they are evaluated on
        self._walls = [Module(self.wall, {"w": d}) for d in (1, 2, 3)]
        # (eps, etap) -> (Theta* Theta!, Theta! Theta*)
        self._composed: dict[tuple[Nat, Nat], tuple[FunctorComplex, FunctorComplex]] = {}
        self._solve_adjunctions()

    # -- the two adjunctions, solved exactly ---------------------------------

    def _eps_from_t(self, t: ModuleMap, a_basis: dict, b_basis: dict) -> Nat:
        """The transformation theta -> Id of a bimodule map t: Ae (x) eA -> A:
        on theta M = P_e (x) M_e it sends p (x) m to t(p (x) 1_e) m."""
        one_e, theta = self.algebra.idempotent("e"), self.theta
        terms = {}
        for v, paths in self.catalog.pe_paths.items():
            mat, basis = t.mats[(v, "e")], a_basis[(v, "e")]
            cols = [b_basis[(v, "e")].index((p, one_e)) for p in paths]
            terms[v] = [[(mat[r][c], b) for r, (b,) in enumerate(basis) if mat[r][c]] for c in cols]

        def fn(m: Module) -> ModuleMap:
            mats = {v: linalg.hstack([_act_by(m, ts, "e", v) for ts in terms[v]]) for v in terms}
            return ModuleMap(theta.on_module(m), m, mats, check=False)

        return Nat(theta, self.id_mod, cache(fn))

    def _etap_from_z(self, z: ModuleMap, a_basis: dict, b_basis: dict) -> Nat:
        """The transformation Id -> theta of a bimodule map z: A -> Ae (x) eA:
        on M_v it sends m to the sum of c p (x) q m over the terms c p (x) q of z(1_v)."""
        alg, theta = self.algebra, self.theta
        terms = {}
        for v, paths in self.catalog.pe_paths.items():
            mat, basis = z.mats[(v, v)], b_basis[(v, v)]
            c = a_basis[(v, v)].index((alg.idempotent(v),))
            terms[v] = [
                [(mat[r][c], q) for r, (pp, q) in enumerate(basis) if pp == p and mat[r][c]]
                for p in paths
            ]

        def fn(m: Module) -> ModuleMap:
            mats = {v: linalg.vstack([_act_by(m, ts, v, "e") for ts in terms[v]]) for v in terms}
            return ModuleMap(m, theta.on_module(m), mats, check=False)

        return Nat(self.id_mod, theta, cache(fn))

    def _wall_nat(self, vec: list, unit: bool) -> Nat:
        """The wall unit V -> W (x) V, v |-> vec (x) v, or the wall counit
        W (x) V -> V, w (x) v |-> <vec, w> v, where W = (P_e)_e."""
        pair = self.pi_star.compose(self.pi_pull)
        src, dst = (self.id_wall, pair) if unit else (pair, self.id_wall)
        k = linalg.col_vec(vec) if unit else linalg.row_vec(vec)

        def fn(v_mod: Module) -> ModuleMap:
            return ModuleMap(
                src.on_module(v_mod),
                dst.on_module(v_mod),
                {"w": linalg.kron(k, linalg.eye(v_mod.dims["w"]))},
                check=False,
            )

        return Nat(src, dst, cache(fn))

    def _solve_adjunction(self, left: Functor, right: Functor, basis: list, to_nat,
                          name: str) -> Adjunction:
        """left -| right, with its block-side (co)unit `to_nat` of the first
        combination of the two bimodule maps in `basis` for which the triangle
        identities on the regular module and on a line solve for the wall-side
        (co)unit, and then hold on every test object."""
        cat = self.catalog
        unit_on_wall = left.src_kind == "wall"
        w_dim = cat.modules["P_e"].dims["e"]
        line = self._walls[0]
        tests = [self.regular] + [cat.modules[n] for n in ("P_e", "Delta_s", "nabla_s", "L_e", "L_s")]
        tests += self._walls[:2]

        def adjunction(block: Nat, vec: list) -> Adjunction:
            wall = self._wall_nat(vec, unit_on_wall)
            unit, counit = (wall, block) if unit_on_wall else (block, wall)
            return Adjunction(left, right, unit, counit, name)

        for x in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)):
            block = to_nat(basis[0].scale(x[0]) + basis[1].scale(x[1]))
            # the triangle composites are linear in the wall vector: one
            # column per standard vector, one row per matrix entry
            cols = []
            for j in range(w_dim):
                vec = [int(i == j) for i in range(w_dim)]
                composites = adjunction(block, vec).triangles([self.regular, line])
                cols.append([y for f in composites for y in flatten(f)])
            rhs = [y for f in composites for y in flatten(identity_map(f.src))]
            solved = linalg.combination(cols, rhs)
            if solved is None:
                continue
            adj = adjunction(block, solved)
            if adj.triangles_hold(tests):
                return adj
        raise BlockConstructionError(f"no unit/counit solves {name}")

    def _solve_adjunctions(self) -> None:
        """Nat(theta, Id) and Nat(Id, theta) are the bimodule hom spaces
        Hom(B, A) and Hom(A, B) for B = Ae (x) eA (Eilenberg-Watts); the
        (co)units are read off them."""
        alg = self.algebra
        a_mod, a_basis = bimodule(alg, [(p,) for p in alg.basis])
        b_mod, b_basis = bimodule(
            alg,
            [(p, q) for p in alg.basis if alg.source[p] == "e"
             for q in alg.basis if alg.target[q] == "e"],
        )
        t_basis = hom_basis(b_mod, a_mod)
        # hom_basis lists the nilpotent map 1 |-> ba (x) ba first, and no unit
        # is nilpotent; trying the other map first skips a failing candidate
        z_basis = hom_basis(a_mod, b_mod)[::-1]
        if len(t_basis) != 2 or len(z_basis) != 2:
            raise BlockConstructionError(
                f"unexpected Nat dimensions: {len(t_basis)}, {len(z_basis)}"
            )
        self.adj1 = self._solve_adjunction(
            self.pi_pull, self.pi_star, t_basis,
            lambda t: self._eps_from_t(t, a_basis, b_basis), "pi_pull -| pi_star",
        )
        self.adj2 = self._solve_adjunction(
            self.pi_star, self.pi_pull, z_basis,
            lambda z: self._etap_from_z(z, a_basis, b_basis), "pi_star -| pi_pull",
        )

    # -- the two-term complexes and their (co)evaluation --------------------------

    def theta_star(self) -> FunctorComplex:
        """0 -> theta -> Id -> 0 with theta in degree 0."""
        return FunctorComplex(
            self.algebra,
            {0: [Summand((0,), self.theta)], 1: [Summand((1,), self.id_mod)]},
            {0: {(0, 0): self.eps}},
        )

    def theta_shriek(self) -> FunctorComplex:
        """0 -> Id -> theta -> 0 with theta in degree 0."""
        return FunctorComplex(
            self.algebra,
            {-1: [Summand((-1,), self.id_mod)], 0: [Summand((0,), self.theta)]},
            {-1: {(0, 0): self.etap}},
        )

    def identity_complex(self) -> FunctorComplex:
        """The identity functor as a one-term complex in degree 0."""
        return FunctorComplex(self.algebra, {0: [Summand((0,), self.id_mod)]}, {})

    def build_ev(self, m: Module) -> ChainMap:
        """ev: Theta* Theta! M -> M, the counit of the composite adjunction."""
        return self._evaluation(m, counit=True)

    def build_coev(self, m: Module) -> ChainMap:
        """coev: M -> Theta! Theta* M, the unit of the composite adjunction."""
        return self._evaluation(m, counit=False)

    def _composites(self) -> tuple[FunctorComplex, FunctorComplex]:
        """Theta* Theta! and Theta! Theta*, composed once per (eps, etap)."""
        key = (self.eps, self.etap)
        if key not in self._composed:
            star, shriek = self.theta_star(), self.theta_shriek()
            self._composed[key] = (star.compose(shriek), shriek.compose(star))
        return self._composed[key]

    def _evaluation(self, m: Module, counit: bool) -> ChainMap:
        """ev or coev in degree 0, where the composite is theta^2 + Id: on
        theta^2 M the composite (co)unit theta^2 M -> theta M -> M (or back),
        on the identity summand -1."""
        applied = self._composites()[0 if counit else 1].apply(m)
        wall = self.pi_star.on_module(m)
        if counit:
            bar = self.eps.at(m) @ self.pi_pull.on_map(self.epsp.at(wall))
        else:
            bar = self.pi_pull.on_map(self.eta.at(wall)) @ self.etap.at(m)
        blocks = {}
        for pos, (s, _) in enumerate(applied.summands[0]):
            if s.label != (0, 0) and s.functor.word:
                raise BlockConstructionError(f"unexpected summand {s.label}")
            f = bar if s.label == (0, 0) else -identity_map(m)
            blocks[(0, pos) if counit else (pos, 0)] = f
        parts, one = applied.parts[0], module_as_complex(m)
        if counit:
            return ChainMap(applied.complex, one, {0: block_map(parts, [m], blocks)})
        return ChainMap(one, applied.complex, {0: block_map([m], parts, blocks)})

    # -- natural transformations of the wall functor -----------------------------

    def wall_hom_basis(self) -> list[Nat]:
        """Basis of Nat(pi_star, pi_star): right multiplications by e_e A e_e."""
        alg, pi_star = self.algebra, self.pi_star
        out = []
        for w in [p for p in alg.basis if alg.source[p] == "e" and alg.target[p] == "e"]:
            def fn(m: Module, w=w) -> ModuleMap:
                v = pi_star.on_module(m)
                return ModuleMap(v, v, {"w": m.path_action(w)}, check=False)
            out.append(Nat(pi_star, pi_star, fn))
        return out


def build_rank_one() -> RankOneBlock:
    """Construct the rank-one block with its catalog and frozen adjunctions."""
    return RankOneBlock(Catalog())
