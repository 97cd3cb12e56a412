"""Translation functors, adjunctions, complexes of functors and homology
for the rank-one block.

Functors are words in two atoms: pi_star (restrict a block module to its
e-vertex space, the translation onto the wall; the wall category is plain
vector spaces) and pi_pull (tensor a vector space with the big projective
P_e, the translation off the wall).  theta = pi_pull . pi_star.

The two adjunctions (pi_pull -| pi_star) and (pi_star -| pi_pull) are not
hand-coded: their units and counits are found by solving the triangle
identities over the natural-transformation spaces Nat(theta, Id) and
Nat(Id, theta), which are themselves computed as bimodule homomorphism and
centralizer spaces by exact linear algebra.  The first solution in a fixed
deterministic enumeration is frozen; everything downstream must be
invariant under that choice.

A FunctorComplex is a bounded complex whose entries are direct sums of
functor words; composition forms the total complex with the sign rule
d_F . 1 + (-1)^i . 1 . d_G, which makes composition strictly associative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import (
    BlockConstructionError,
    Module,
    ModuleMap,
    block_map,
    direct_sum,
    identity_map,
    zero_map,
)
from .catalog import Catalog
from .linalg import Mat

PI_STAR = "pi_star"
PI_PULL = "pi_pull"
_KIND_IN = {PI_STAR: "mod", PI_PULL: "wall"}
_KIND_OUT = {PI_STAR: "wall", PI_PULL: "mod"}


class Functor:
    """A composable word in the atoms pi_star / pi_pull (rightmost first)."""

    __slots__ = ("ctx", "word", "src_kind", "tgt_kind")

    def __init__(self, ctx: "RankOneBlock", word: tuple[str, ...], src_kind: str):
        kind = src_kind
        for atom in reversed(word):
            if _KIND_IN[atom] != kind:
                raise BlockConstructionError(f"non-composable functor word {word}")
            kind = _KIND_OUT[atom]
        self.ctx = ctx
        self.word = word
        self.src_kind = src_kind
        self.tgt_kind = kind

    def compose(self, other: "Functor") -> "Functor":
        if other.tgt_kind != self.src_kind:
            raise BlockConstructionError("functor composition kind mismatch")
        return Functor(self.ctx, self.word + other.word, other.src_kind)

    def on_module(self, m: Module) -> Module:
        for atom in reversed(self.word):
            m = self._atom_module(atom, m)
        return m

    def on_map(self, f: ModuleMap) -> ModuleMap:
        for atom in reversed(self.word):
            f = self._atom_map(atom, f)
        return f

    def _atom_module(self, atom: str, m: Module) -> Module:
        ctx = self.ctx
        if atom == PI_STAR:
            return Module(ctx.wall, {"w": m.dims["e"]})
        d = m.dims["w"]
        pe = ctx.pe
        return Module(
            ctx.algebra,
            {v: pe.dims[v] * d for v in ctx.algebra.vertices},
            {
                label: linalg.kron(pe.act[label], linalg.eye(d))
                for label, _, _ in ctx.algebra.arrows
            },
        )

    def _atom_map(self, atom: str, f: ModuleMap) -> ModuleMap:
        ctx = self.ctx
        if atom == PI_STAR:
            return ModuleMap(
                self._atom_module(atom, f.src),
                self._atom_module(atom, f.dst),
                {"w": f.mats["e"]},
                check=False,
            )
        pe = ctx.pe
        return ModuleMap(
            self._atom_module(atom, f.src),
            self._atom_module(atom, f.dst),
            {
                v: linalg.kron(linalg.eye(pe.dims[v]), f.mats["w"])
                for v in ctx.algebra.vertices
            },
            check=False,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Functor) and (
            self.word, self.src_kind
        ) == (other.word, other.src_kind)

    def __hash__(self):
        return hash((self.word, self.src_kind))

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
        return self.fn(m)

    def then(self, other: "Nat") -> "Nat":
        """Vertical composition: first self, then other."""
        return Nat(self.src, other.dst, lambda m: other.at(m) @ self.at(m))

    def __add__(self, other: "Nat") -> "Nat":
        return Nat(self.src, self.dst, lambda m: self.at(m) + other.at(m))

    def __neg__(self) -> "Nat":
        return Nat(self.src, self.dst, lambda m: -self.at(m))

    def scale(self, c) -> "Nat":
        return Nat(self.src, self.dst, lambda m: self.at(m).scale(c))

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


def zero_nat(src: Functor, dst: Functor) -> Nat:
    return Nat(src, dst, lambda m: zero_map(src.on_module(m), dst.on_module(m)))


@dataclass(frozen=True)
class Adjunction:
    """left -| right with unit: Id -> right.left and counit: left.right -> Id."""

    left: Functor
    right: Functor
    unit: Nat
    counit: Nat
    name: str


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


# -- chain complexes of modules -------------------------------------------------


class ChainComplex:
    """A bounded complex of modules with differentials of degree +1."""

    def __init__(self, algebra, entries: dict[int, Module], diffs: dict[int, ModuleMap]):
        self.algebra = algebra
        self.entries = dict(entries)
        self.diffs = dict(diffs)

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def entry(self, n: int) -> Module:
        got = self.entries.get(n)
        return got if got is not None else Module(self.algebra, {})

    def diff(self, n: int) -> ModuleMap:
        got = self.diffs.get(n)
        return got if got is not None else zero_map(self.entry(n), self.entry(n + 1))

    def check_dsq(self) -> bool:
        return all(
            (self.diff(n + 1) @ self.diff(n)).is_zero() for n in self.degrees()
        )

    def homology(self, n: int) -> "HomologyData":
        from .algebra import cokernel_of_columns, kernel

        d_n = self.diff(n)
        ker, incl = kernel(d_n)
        d_prev = self.diff(n - 1)
        cols = {}
        for v in self.algebra.vertices:
            sol = linalg.solve(incl.mats[v], d_prev.mats[v])
            if sol is None:
                raise BlockConstructionError("image does not land in the kernel")
            cols[v] = sol
        h, proj, reps = cokernel_of_columns(ker, cols)
        return HomologyData(h, ker, incl, proj, reps)

    def homology_dims(self) -> dict[int, dict[str, int]]:
        out = {}
        lo, hi = (min(self.entries), max(self.entries)) if self.entries else (0, -1)
        for n in range(lo, hi + 1):
            h = self.homology(n).module
            if h.total_dim:
                out[n] = dict(h.dims)
        return out


@dataclass
class HomologyData:
    module: Module           # the homology module itself
    kernel: Module
    kernel_incl: ModuleMap   # kernel -> chain entry
    proj: ModuleMap          # kernel -> homology
    reps: dict               # kernel coordinates of chosen representatives

    def classes_in_ambient(self, v: str) -> Mat:
        """Ambient-coordinate representatives of the homology basis at v."""
        return linalg.mmul(self.kernel_incl.mats[v], self.reps[v])


class ChainMap:
    """A degreewise map of chain complexes (missing degrees are zero)."""

    def __init__(self, src: ChainComplex, dst: ChainComplex, comps: dict[int, ModuleMap]):
        self.src = src
        self.dst = dst
        self.comps = dict(comps)

    def comp(self, n: int) -> ModuleMap:
        got = self.comps.get(n)
        return got if got is not None else zero_map(self.src.entry(n), self.dst.entry(n))

    def is_chain_map(self) -> bool:
        degrees = set(self.src.entries) | set(self.dst.entries)
        for n in sorted(degrees):
            lhs = self.dst.diff(n) @ self.comp(n)
            rhs = self.comp(n + 1) @ self.src.diff(n)
            if lhs != rhs:
                return False
        return True

    def induced_rank(self, n: int) -> dict[str, int]:
        """Rank per vertex of the induced map on degree-n homology."""
        hs = self.src.homology(n)
        hd = self.dst.homology(n)
        out = {}
        for v in self.src.algebra.vertices:
            reps = hs.classes_in_ambient(v)
            moved = linalg.mmul(self.comp(n).mats[v], reps)
            in_ker = linalg.solve(hd.kernel_incl.mats[v], moved)
            if in_ker is None:
                raise BlockConstructionError("chain map does not preserve cycles")
            out[v] = linalg.rank(linalg.mmul(hd.proj.mats[v], in_ker))
        return out

    def is_quasi_iso(self) -> bool:
        if not self.is_chain_map():
            return False
        lo = min(min(self.src.entries, default=0), min(self.dst.entries, default=0))
        hi = max(max(self.src.entries, default=0), max(self.dst.entries, default=0))
        for n in range(lo, hi + 1):
            hs = self.src.homology(n).module
            hd = self.dst.homology(n).module
            if hs.dims != hd.dims:
                return False
            ranks = self.induced_rank(n)
            if any(ranks[v] != hd.dims[v] for v in hd.dims):
                return False
        return True


def module_as_complex(ctx: "RankOneBlock", m: Module, degree: int = 0) -> ChainComplex:
    return ChainComplex(m.algebra, {degree: m}, {})


# -- functor complexes ---------------------------------------------------------------


@dataclass
class Summand:
    label: tuple[int, ...]
    functor: Functor


class FunctorComplex:
    """A bounded complex of direct sums of functor words.

    diffs[n] maps (row, col) -> Nat taking summand col of degree n to
    summand row of degree n+1.  Summands are kept sorted by label, which is
    what makes composition strictly associative.
    """

    def __init__(self, ctx: "RankOneBlock", entries: dict[int, list[Summand]],
                 diffs: dict[int, dict[tuple[int, int], Nat]]):
        self.ctx = ctx
        self.entries = {n: list(s) for n, s in entries.items()}
        self.diffs = {n: dict(d) for n, d in diffs.items()}

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def words(self, n: int) -> list[tuple[str, ...]]:
        return [s.functor.word for s in self.entries.get(n, [])]

    def compose(self, other: "FunctorComplex") -> "FunctorComplex":
        ctx = self.ctx
        entries: dict[int, list[Summand]] = {}
        origin: dict[int, list[tuple[int, int, int, int]]] = {}
        for i in self.degrees():
            for j in other.degrees():
                n = i + j
                for ci, sf in enumerate(self.entries[i]):
                    for cj, sg in enumerate(other.entries[j]):
                        entries.setdefault(n, []).append(
                            Summand(sf.label + sg.label, sf.functor.compose(sg.functor))
                        )
                        origin.setdefault(n, []).append((i, ci, j, cj))
        # canonical order: sort summands by label
        index: dict[int, dict[tuple[int, int, int, int], int]] = {}
        for n in entries:
            paired = sorted(
                zip(entries[n], origin[n]), key=lambda t: t[0].label
            )
            entries[n] = [p[0] for p in paired]
            index[n] = {p[1]: pos for pos, p in enumerate(paired)}
        diffs: dict[int, dict[tuple[int, int], Nat]] = {}
        for n in entries:
            if n + 1 not in entries:
                continue
            acc: dict[tuple[int, int], Nat] = {}
            for (i, ci, j, cj), col in index[n].items():
                sf = self.entries[i][ci]
                sg = other.entries[j][cj]
                # d_F . 1_G
                for (r, c), nat in self.diffs.get(i, {}).items():
                    if c != ci:
                        continue
                    row = index[n + 1][(i + 1, r, j, cj)]
                    term = nat.whisker_right(sg.functor)
                    acc[(row, col)] = acc[(row, col)] + term if (row, col) in acc else term
                # (-1)^i 1_F . d_G
                for (r, c), nat in other.diffs.get(j, {}).items():
                    if c != cj:
                        continue
                    row = index[n + 1][(i, ci, j + 1, r)]
                    term = nat.whisker_left(sf.functor)
                    if i % 2:
                        term = -term
                    acc[(row, col)] = acc[(row, col)] + term if (row, col) in acc else term
            diffs[n] = acc
        return FunctorComplex(ctx, entries, diffs)

    def apply(self, target) -> "AppliedComplex":
        """Apply to a module (placed in degree 0) or a chain complex."""
        ctx = self.ctx
        if isinstance(target, Module):
            target = module_as_complex(ctx, target)
        entries: dict[int, list[tuple[Summand, int]]] = {}
        for i in self.degrees():
            for j in target.degrees():
                for s in self.entries[i]:
                    entries.setdefault(i + j, []).append((s, j))
        for n in entries:
            entries[n].sort(key=lambda t: (t[0].label, t[1]))
        mod_entries: dict[int, Module] = {}
        parts: dict[int, list[Module]] = {}
        for n, summands in entries.items():
            mods = [s.functor.on_module(target.entry(j)) for s, j in summands]
            parts[n] = mods
            mod_entries[n] = direct_sum(mods)[0] if mods else Module(ctx.algebra, {})
        diffs: dict[int, ModuleMap] = {}
        for n in entries:
            if n + 1 not in entries:
                continue
            pos_next = {
                (s.label, j): r for r, (s, j) in enumerate(entries[n + 1])
            }
            blocks: dict[tuple[int, int], ModuleMap] = {}
            for col, (s, j) in enumerate(entries[n]):
                i = n - j
                # functor-complex differential at the degree-j entry
                for (r, c), nat in self.diffs.get(i, {}).items():
                    if self.entries[i][c].label != s.label:
                        continue
                    row = pos_next[(self.entries[i + 1][r].label, j)]
                    f = nat.at(target.entry(j))
                    blocks[(row, col)] = blocks.get((row, col), zero_map(f.src, f.dst)) + f
                # inner differential of the target complex, with sign (-1)^i
                if (j + 1) in target.entries or target.diffs.get(j) is not None:
                    key = (s.label, j + 1)
                    if key in pos_next:
                        f = s.functor.on_map(target.diff(j))
                        if i % 2:
                            f = -f
                        row = pos_next[key]
                        blocks[(row, col)] = blocks.get((row, col), zero_map(f.src, f.dst)) + f
            diffs[n] = block_map(parts[n], parts[n + 1], blocks)
        cc = ChainComplex(ctx.algebra, mod_entries, diffs)
        return AppliedComplex(cc, entries, parts)


@dataclass
class AppliedComplex:
    complex: ChainComplex
    summands: dict[int, list[tuple[Summand, int]]]
    parts: dict[int, list[Module]]

    def projections(self, n: int) -> list[ModuleMap]:
        return direct_sum(self.parts[n])[2]

    def injections(self, n: int) -> list[ModuleMap]:
        return direct_sum(self.parts[n])[1]


# -- the built rank-one context ----------------------------------------------------


@dataclass
class RankOneBlock:
    catalog: Catalog
    algebra: object = field(init=False)
    wall: object = field(init=False)

    def __post_init__(self):
        cat = self.catalog
        self.algebra = cat.algebra
        self.wall = cat.wall
        self.pe = cat.modules["P_e"]
        self.id_mod = Functor(self, (), "mod")
        self.id_wall = Functor(self, (), "wall")
        self.pi_star = Functor(self, (PI_STAR,), "mod")
        self.pi_pull = Functor(self, (PI_PULL,), "wall")
        self.theta = Functor(self, (PI_PULL, PI_STAR), "mod")
        self.regular = direct_sum([cat.modules["P_e"], cat.modules["P_s"]])[0]
        self._solve_adjunctions()
        # composite (co)units for theta^2 <-> Id, used by ev and coev
        self.eps_bar = Nat(
            self.theta.compose(self.theta),
            self.id_mod,
            lambda m: self.eps.at(m)
            @ self.pi_pull.on_map(self.epsp.at(self.pi_star.on_module(m))),
        )
        self.eta_bar = Nat(
            self.id_mod,
            self.theta.compose(self.theta),
            lambda m: self.pi_pull.on_map(self.eta.at(self.pi_star.on_module(m)))
            @ self.etap.at(m),
        )

    # -- natural-transformation spaces, solved exactly ------------------------

    def _pe_paths(self) -> list[str]:
        alg = self.algebra
        return [p for p in alg.basis if alg.source[p] == "e"]

    def _ee_paths(self) -> list[str]:
        alg = self.algebra
        return [p for p in alg.basis if alg.target[p] == "e"]

    def _nat_id_to_theta_basis(self) -> list[dict]:
        """Basis of Nat(Id, theta) as centralizer elements of P_e (x) e_e A."""
        alg = self.algebra
        pe, ee = self._pe_paths(), self._ee_paths()
        npe, nee = len(pe), len(ee)

        def left_on(paths, g):
            m = linalg.zeros(len(paths), len(paths))
            for c, p in enumerate(paths):
                q = alg.mult(g, p)
                if q in paths:
                    m[paths.index(q)][c] = 1
            return m

        def right_on(paths, g):
            m = linalg.zeros(len(paths), len(paths))
            for c, p in enumerate(paths):
                q = alg.mult(p, g)
                if q in paths:
                    m[paths.index(q)][c] = 1
            return m

        rows: list[list[int | Fraction]] = []
        gens = [alg.idempotent(v) for v in alg.vertices] + [a for a, _, _ in alg.arrows]
        for g in gens:
            constraint = linalg.madd(
                linalg.kron(left_on(pe, g), linalg.eye(nee)),
                linalg.mneg(linalg.kron(linalg.eye(npe), right_on(ee, g))),
            )
            rows.extend(constraint.rows)
        null = linalg.nullspace_basis(linalg.from_rows(rows, npe * nee))
        out = []
        for c in range(null.ncols):
            z = {}
            for ip, p in enumerate(pe):
                for iq, q in enumerate(ee):
                    val = null[ip * nee + iq][c]
                    if val:
                        z[(p, q)] = val
            out.append(z)
        return out

    def _nat_theta_to_id_basis(self) -> list[Mat]:
        """Basis of Nat(theta, Id) as bimodule maps P_e (x) e_e A -> A."""
        alg = self.algebra
        pe, ee = self._pe_paths(), self._ee_paths()
        npe, nee = len(pe), len(ee)
        nb = len(alg.basis)
        dim_b = npe * nee

        def left_reg(g):
            m = linalg.zeros(nb, nb)
            for c, p in enumerate(alg.basis):
                q = alg.mult(g, p)
                if q is not None:
                    m[alg.basis.index(q)][c] = 1
            return m

        def right_reg(g):
            m = linalg.zeros(nb, nb)
            for c, p in enumerate(alg.basis):
                q = alg.mult(p, g)
                if q is not None:
                    m[alg.basis.index(q)][c] = 1
            return m

        def left_b(g):
            m = linalg.zeros(dim_b, dim_b)
            for ip, p in enumerate(pe):
                q = alg.mult(g, p)
                if q in pe:
                    for iq in range(nee):
                        m[pe.index(q) * nee + iq][ip * nee + iq] = 1
            return m

        def right_b(g):
            m = linalg.zeros(dim_b, dim_b)
            for iq, q in enumerate(ee):
                r = alg.mult(q, g)
                if r in ee:
                    for ip in range(npe):
                        m[ip * nee + ee.index(r)][ip * nee + iq] = 1
            return m

        # unknown T: nb x dim_b with T.Lb = Lreg.T and T.Rb = Rreg.T
        unknowns = nb * dim_b
        rows = []
        gens = [alg.idempotent(v) for v in alg.vertices] + [a for a, _, _ in alg.arrows]
        for g in gens:
            for pair in ((left_b(g), left_reg(g)), (right_b(g), right_reg(g))):
                x_mat, y_mat = pair
                for r in range(nb):
                    for c in range(dim_b):
                        row = [0] * unknowns
                        for k in range(dim_b):
                            row[r * dim_b + k] += x_mat[k][c]
                        for m_ in range(nb):
                            row[m_ * dim_b + c] -= y_mat[r][m_]
                        rows.append(row)
        null = linalg.nullspace_basis(linalg.from_rows(rows, unknowns))
        out = []
        for c in range(null.ncols):
            t = linalg.zeros(nb, dim_b)
            for r in range(nb):
                for j in range(dim_b):
                    t[r][j] = null[r * dim_b + j][c]
            out.append(t)
        return out

    def _eps_from_t(self, t: Mat) -> Nat:
        """The transformation theta -> Id induced by a bimodule map."""
        alg = self.algebra
        pe_paths, ee = self._pe_paths(), self._ee_paths()
        nee = len(ee)
        one_e = ee.index(alg.idempotent("e"))
        pe_by_vertex = {
            v: [p for p in pe_paths if alg.target[p] == v] for v in alg.vertices
        }

        def fn(m: Module) -> ModuleMap:
            mats = {}
            for v in alg.vertices:
                blocks = []
                for p in pe_by_vertex[v]:
                    col = [t[r][pe_paths.index(p) * nee + one_e] for r in range(len(alg.basis))]
                    block = linalg.zeros(m.dims[v], m.dims["e"])
                    for r, coeff in enumerate(col):
                        if not coeff:
                            continue
                        b = alg.basis[r]
                        if alg.source[b] != "e" or alg.target[b] != v:
                            raise BlockConstructionError("bimodule map violates grading")
                        block = linalg.madd(block, linalg.mscale(coeff, m.path_action(b)))
                    blocks.append(block)
                mats[v] = linalg.hstack(blocks) if blocks else linalg.zeros(m.dims[v], 0)
            return ModuleMap(self.theta.on_module(m), m, mats, check=False)

        return Nat(self.theta, self.id_mod, fn)

    def _etap_from_z(self, z: dict) -> Nat:
        """The transformation Id -> theta induced by a centralizer element."""
        alg = self.algebra
        pe_by_vertex = {
            v: [p for p in self._pe_paths() if alg.target[p] == v] for v in alg.vertices
        }
        for (p, q) in z:
            if alg.target[p] != alg.source[q]:
                raise BlockConstructionError("centralizer element violates grading")

        def fn(m: Module) -> ModuleMap:
            mats = {}
            for v in alg.vertices:
                blocks = []
                for p in pe_by_vertex[v]:
                    block = linalg.zeros(m.dims["e"], m.dims[v])
                    for (pp, q), coeff in z.items():
                        if pp == p and alg.source[q] == v:
                            block = linalg.madd(
                                block, linalg.mscale(coeff, m.path_action(q))
                            )
                    blocks.append(block)
                mats[v] = linalg.vstack(blocks) if blocks else linalg.zeros(0, m.dims[v])
            return ModuleMap(m, self.theta.on_module(m), mats, check=False)

        return Nat(self.id_mod, self.theta, fn)

    def _wall_unit_from_vec(self, vec: list) -> Nat:
        """V -> W (x) V on the wall, from a vector in W."""
        col = linalg.col_vec(vec)

        def fn(v_mod: Module) -> ModuleMap:
            d = v_mod.dims["w"]
            return ModuleMap(
                v_mod,
                self.pi_star.compose(self.pi_pull).on_module(v_mod),
                {"w": linalg.kron(col, linalg.eye(d))},
                check=False,
            )

        return Nat(self.id_wall, self.pi_star.compose(self.pi_pull), fn)

    def _wall_counit_from_vec(self, vec: list) -> Nat:
        row = linalg.row_vec(vec)

        def fn(v_mod: Module) -> ModuleMap:
            d = v_mod.dims["w"]
            return ModuleMap(
                self.pi_star.compose(self.pi_pull).on_module(v_mod),
                v_mod,
                {"w": linalg.kron(row, linalg.eye(d))},
                check=False,
            )

        return Nat(self.pi_star.compose(self.pi_pull), self.id_wall, fn)

    def _solve_adjunctions(self) -> None:
        cat = self.catalog
        t_basis = self._nat_theta_to_id_basis()
        z_basis = self._nat_id_to_theta_basis()
        if len(t_basis) != 2 or len(z_basis) != 2:
            raise BlockConstructionError(
                f"unexpected Nat dimensions: {len(t_basis)}, {len(z_basis)}"
            )
        w_dim = self.pe.dims["e"]
        test_mods = [self.regular] + [cat.modules[n] for n in ("P_e", "Delta_s", "nabla_s", "L_e", "L_s")]
        test_walls = [Module(self.wall, {"w": d}) for d in (1, 2)]

        combos = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]

        def try_adj1():
            for x in combos:
                t = linalg.madd(
                    linalg.mscale(x[0], t_basis[0]), linalg.mscale(x[1], t_basis[1])
                )
                eps = self._eps_from_t(t)
                # triangle identities are linear in the wall unit vector
                eq_rows, rhs = [], []
                for m in (self.regular,):
                    d = m.dims["e"]
                    eps_e = eps.at(m).mats["e"]
                    cols = []
                    for j in range(w_dim):
                        basis_vec = [1 if i == j else 0 for i in range(w_dim)]
                        mapped = linalg.mmul(
                            eps_e, linalg.kron(linalg.col_vec(basis_vec), linalg.eye(d))
                        )
                        cols.append(mapped)
                    for r in range(d):
                        for c in range(d):
                            eq_rows.append([cols[j][r][c] for j in range(w_dim)])
                            rhs.append([int(r == c)])
                for v_mod in (test_walls[0],):
                    pq = self.pi_pull.on_module(v_mod)
                    eps_pq = eps.at(pq)
                    for vert in self.algebra.vertices:
                        dim_v = pq.dims[vert]
                        pe_v = self.pe.dims[vert]
                        for j in range(w_dim):
                            basis_vec = [1 if i == j else 0 for i in range(w_dim)]
                            inner = linalg.kron(
                                linalg.col_vec(basis_vec), linalg.eye(v_mod.dims["w"])
                            )
                            whisk = linalg.kron(linalg.eye(pe_v), inner)
                            moved = linalg.mmul(eps_pq.mats[vert], whisk)
                            if j == 0:
                                acc = [moved]
                            else:
                                acc.append(moved)
                        for r in range(dim_v):
                            for c in range(dim_v):
                                eq_rows.append([acc[j][r][c] for j in range(w_dim)])
                                rhs.append([int(r == c)])
                sol = linalg.solve(
                    linalg.from_rows(eq_rows, w_dim), linalg.from_rows(rhs, 1)
                )
                if sol is None:
                    continue
                eta = self._wall_unit_from_vec([row[0] for row in sol.rows])
                if self._triangles_hold_adj1(eps, eta, test_mods, test_walls):
                    return eps, eta
            raise BlockConstructionError("no unit/counit solves the first adjunction")

        def try_adj2():
            for x in combos:
                z: dict = {}
                for zb, coeff in zip(z_basis, x):
                    for key, val in zb.items():
                        z[key] = z.get(key, 0) + coeff * val
                z = {k: val for k, val in z.items() if val}
                etap = self._etap_from_z(z)
                eq_rows, rhs = [], []
                m = self.regular
                d = m.dims["e"]
                up = etap.at(m).mats["e"]  # W (x) M_e <- M_e
                for j in range(w_dim):
                    basis_row = linalg.row_vec([1 if i == j else 0 for i in range(w_dim)])
                    down = linalg.kron(basis_row, linalg.eye(d))
                    moved = linalg.mmul(down, up)
                    if j == 0:
                        acc = [moved]
                    else:
                        acc.append(moved)
                for r in range(d):
                    for c in range(d):
                        eq_rows.append([acc[j][r][c] for j in range(w_dim)])
                        rhs.append([int(r == c)])
                v_mod = test_walls[0]
                pq = self.pi_pull.on_module(v_mod)
                up2 = etap.at(pq)
                for vert in self.algebra.vertices:
                    pe_v = self.pe.dims[vert]
                    dim_v = pq.dims[vert]
                    accs = []
                    for j in range(w_dim):
                        basis_row = linalg.row_vec([1 if i == j else 0 for i in range(w_dim)])
                        inner = linalg.kron(basis_row, linalg.eye(v_mod.dims["w"]))
                        whisk = linalg.kron(linalg.eye(pe_v), inner)
                        accs.append(linalg.mmul(whisk, up2.mats[vert]))
                    for r in range(dim_v):
                        for c in range(dim_v):
                            eq_rows.append([accs[j][r][c] for j in range(w_dim)])
                            rhs.append([int(r == c)])
                sol = linalg.solve(
                    linalg.from_rows(eq_rows, w_dim), linalg.from_rows(rhs, 1)
                )
                if sol is None:
                    continue
                epsp = self._wall_counit_from_vec([row[0] for row in sol.rows])
                if self._triangles_hold_adj2(etap, epsp, test_mods, test_walls):
                    return etap, epsp
            raise BlockConstructionError("no unit/counit solves the second adjunction")

        self.eps, self.eta = try_adj1()
        self.etap, self.epsp = try_adj2()
        self.adj1 = Adjunction(self.pi_pull, self.pi_star, self.eta, self.eps, "pi_pull -| pi_star")
        self.adj2 = Adjunction(self.pi_star, self.pi_pull, self.etap, self.epsp, "pi_star -| pi_pull")

    def _triangles_hold_adj1(self, eps, eta, mods, walls) -> bool:
        for m in mods:
            v = self.pi_star.on_module(m)
            lhs = self.pi_star.on_map(eps.at(m)) @ eta.at(v)
            if lhs != identity_map(v):
                return False
        for v_mod in walls:
            pulled = self.pi_pull.on_module(v_mod)
            lhs = eps.at(pulled) @ self.pi_pull.on_map(eta.at(v_mod))
            if lhs != identity_map(pulled):
                return False
        return True

    def _triangles_hold_adj2(self, etap, epsp, mods, walls) -> bool:
        for m in mods:
            v = self.pi_star.on_module(m)
            lhs = epsp.at(v) @ self.pi_star.on_map(etap.at(m))
            if lhs != identity_map(v):
                return False
        for v_mod in walls:
            pulled = self.pi_pull.on_module(v_mod)
            lhs = self.pi_pull.on_map(epsp.at(v_mod)) @ etap.at(pulled)
            if lhs != identity_map(pulled):
                return False
        return True

    # -- the two-term complexes and their (co)evaluation --------------------------

    def theta_star(self) -> FunctorComplex:
        """0 -> theta -> Id -> 0 with theta in degree 0."""
        return FunctorComplex(
            self,
            {0: [Summand((0,), self.theta)], 1: [Summand((1,), self.id_mod)]},
            {0: {(0, 0): self.eps}},
        )

    def theta_shriek(self) -> FunctorComplex:
        """0 -> Id -> theta -> 0 with theta in degree 0."""
        return FunctorComplex(
            self,
            {-1: [Summand((-1,), self.id_mod)], 0: [Summand((0,), self.theta)]},
            {-1: {(0, 0): self.etap}},
        )

    def identity_complex(self) -> FunctorComplex:
        """The identity functor as a one-term complex in degree 0."""
        return FunctorComplex(self, {0: [Summand((0,), self.id_mod)]}, {})

    def theta_complex(self, variant: str) -> FunctorComplex:
        if variant == "star":
            return self.theta_star()
        if variant == "shriek":
            return self.theta_shriek()
        raise ValueError(f"unknown theta complex variant: {variant!r}")

    def build_ev(self, m: Module) -> ChainMap:
        """ev: Theta* Theta! M -> M, the counit of the composite adjunction."""
        applied = self.theta_star().compose(self.theta_shriek()).apply(m)
        target = module_as_complex(self, m)
        comp = zero_map(applied.complex.entry(0), m)
        projs = applied.projections(0)
        for pos, (s, _) in enumerate(applied.summands[0]):
            if s.label == (0, 0):
                comp = comp + (self.eps_bar.at(m) @ projs[pos])
            elif s.label == (1, -1):
                comp = comp + ((-identity_map(m)) @ projs[pos])
            else:
                raise BlockConstructionError(f"unexpected summand {s.label}")
        return ChainMap(applied.complex, target, {0: comp})

    def build_coev(self, m: Module) -> ChainMap:
        """coev: M -> Theta! Theta* M, the unit of the composite adjunction."""
        applied = self.theta_shriek().compose(self.theta_star()).apply(m)
        source = module_as_complex(self, m)
        comp = zero_map(m, applied.complex.entry(0))
        injs = applied.injections(0)
        for pos, (s, _) in enumerate(applied.summands[0]):
            if s.label == (0, 0):
                comp = comp + (injs[pos] @ self.eta_bar.at(m))
            elif s.label == (-1, 1):
                comp = comp + (injs[pos] @ (-identity_map(m)))
            else:
                raise BlockConstructionError(f"unexpected summand {s.label}")
        return ChainMap(source, applied.complex, {0: comp})

    # -- translation as a catalog operation ----------------------------------------

    def translation(self, m: Module, direction: str):
        """to_wall: the vector space Hom(P_e, M); off_wall: P_e (x) V."""
        if direction == "to_wall":
            return self.pi_star.on_module(m)
        if direction == "off_wall":
            return self.pi_pull.on_module(m)
        raise ValueError(f"unknown translation direction: {direction!r}")

    def wall_hom_basis(self) -> list[Nat]:
        """Basis of Nat(pi_star, pi_star): right multiplications by e_e A e_e."""
        alg = self.algebra
        out = []
        for w in [p for p in alg.basis if alg.source[p] == "e" and alg.target[p] == "e"]:
            def fn(m: Module, w=w) -> ModuleMap:
                v = self.pi_star.on_module(m)
                return ModuleMap(v, v, {"w": m.path_action(w)}, check=False)
            out.append(Nat(self.pi_star, self.pi_star, fn))
        return out


def compose_functor_complexes(f: FunctorComplex, g: FunctorComplex) -> FunctorComplex:
    """Total complex of the composition, sign rule d_F . 1 + (-1)^i 1 . d_G."""
    return f.compose(g)


def build_rank_one() -> RankOneBlock:
    """Construct the rank-one block with its catalog and frozen adjunctions."""
    return RankOneBlock(Catalog())
