"""The catalog of named modules in the rank-one block, with the construction
battery that pins the algebra presentation.

Catalog entries (iso classes in parentheses):

    L_e, L_s          the two simples
    Delta_e (= L_e)   standard modules;  Delta_s has head L_s, socle L_e
    nabla_e, nabla_s  costandard modules, the duals of the standards
    P_e, P_s (= Delta_s)  indecomposable projectives, dims 3 and 2
    D_e (= L_e), D_s (= P_e)  indecomposable tiltings

Nothing about this dictionary is taken on faith: building a `Catalog` recomputes
dimensions, Loewy layers, endomorphism rings, self-duality of tiltings and
ungraded BGG reciprocity, and raises BlockConstructionError on any mismatch.
`Catalog.facts` states the facts that the `catalog` suite also reports, once
for both.

Module isomorphy is decided by Krull-Schmidt bookkeeping: the matrix
G[i][j] = dim Hom(I_i, I_j) over the five indecomposables is invertible, so
hom counts against them determine the multiset of summands of any module.
"""

from __future__ import annotations

from . import linalg
from .algebra import (
    BlockConstructionError,
    Module,
    PathAlgebra,
    dual_module,
    ext_dims,
    hom_dim,
    projective,
    rank_one_algebra,
    socle_dims,
    sum_module,
    top_dims,
    wall_algebra,
)

CATALOG_NAMES = (
    "Delta_e", "Delta_s", "nabla_e", "nabla_s",
    "L_e", "L_s", "P_e", "P_s", "D_e", "D_s",
)

INDECOMPOSABLES = ("L_e", "L_s", "Delta_s", "nabla_s", "P_e")


class Catalog:
    """The built rank-one block: algebra, wall, named modules, iso tester."""

    def __init__(self):
        self.algebra = rank_one_algebra()
        self.wall = wall_algebra()
        alg = self.algebra

        self.projectives = {v: projective(alg, v) for v in ("e", "s")}
        (p_e, self.pe_paths), (p_s, _) = self.projectives.values()
        # (atom, dimension) -> the atom's image, built by `functors` (pi_pull's from
        # this P_e, never from the replaceable `P_e` entry)
        self.images: dict[tuple[str, int], Module] = {}

        l_e = Module(alg, {"e": 1})
        l_s = Module(alg, {"s": 1})
        delta_s = Module(alg, {"e": 1, "s": 1}, {"a": [[0]], "b": [[1]]})
        nabla_s = dual_module(delta_s)

        self.modules: dict[str, Module] = {
            "L_e": l_e,
            "L_s": l_s,
            "Delta_e": Module(alg, {"e": 1}),
            "Delta_s": delta_s,
            "nabla_e": Module(alg, {"e": 1}),
            "nabla_s": nabla_s,
            "P_e": p_e,
            "P_s": p_s,
            "D_e": Module(alg, {"e": 1}),
            "D_s": p_e,
        }

        # the five indecomposables by name, as decompose reads them
        self._indec = dict(zip(INDECOMPOSABLES, (l_e, l_s, delta_s, nabla_s, p_e)))
        indec = self._indec.values()
        gram = linalg.from_rows([[hom_dim(x, y) for y in indec] for x in indec], len(indec))
        try:
            self._gram_inv = linalg.inverse(gram)
        except ValueError:
            raise BlockConstructionError("hom-count Gram matrix is singular") from None
        self._battery()

    # -- decomposition and isomorphy ---------------------------------------

    def decompose(self, m: Module) -> dict[str, int]:
        """Multiplicities of the five indecomposables in m."""
        counts = linalg.col_vec([hom_dim(i, m) for i in self._indec.values()])
        mults = linalg.mmul(self._gram_inv, counts)
        out = {}
        for name, row in zip(INDECOMPOSABLES, mults.rows):
            x = row[0]
            if x.denominator != 1 or x < 0:
                raise BlockConstructionError(f"non-integral decomposition of {m}")
            if x:
                out[name] = int(x)
        # dimension cross-check, against the modules the Gram matrix is of
        for v in self.algebra.vertices:
            total = sum(cnt * self._indec[name].dims[v] for name, cnt in out.items())
            if total != m.dims[v]:
                raise BlockConstructionError("decomposition does not add up")
        return out

    def is_isomorphic(self, m: Module, n: Module) -> bool:
        return self.decompose(m) == self.decompose(n)

    def composition_multiplicities(self, m: Module) -> dict[str, int]:
        return {"L_e": m.dims["e"], "L_s": m.dims["s"]}

    def verma_flag_multiplicities(self, m: Module) -> dict[str, int]:
        """Multiplicities of [Delta_e], [Delta_s] in the class of m."""
        return {"Delta_e": m.dims["e"] - m.dims["s"], "Delta_s": m.dims["s"]}

    def ext(self, m: Module, n: Module, imax: int) -> list[int]:
        return ext_dims(m, n, imax, self.projectives)

    # -- construction battery ---------------------------------------------

    def facts(self) -> dict[str, tuple[str, list]]:
        """The catalog facts that the battery asserts and `verify_catalog`
        reports, by check name: (detail, [(what, predicate)])."""
        mods, iso = self.modules, self.is_isomorphic
        dims = (("P_e", (2, 1)), ("P_s", (1, 1)), ("Delta_s", (1, 1)), ("Delta_e", (1, 0)),
                ("nabla_e", (1, 0)), ("L_e", (1, 0)), ("D_e", (1, 0)))
        same = (("Delta_s", "P_s"), ("D_s", "P_e"), ("Delta_e", "L_e"), ("nabla_e", "L_e"),
                ("D_e", "L_e"))
        # (module, simple head, simple socle)
        layers = (("P_e", "e", "e"), ("Delta_s", "s", "e"), ("nabla_s", "e", "s"))
        return {
            "block.catalog_dimensions": ("P_e: 3, P_s: 2, Delta_s: 2, antidominants: 1", [
                (f"{x} has dimensions {d}", lambda x=x, d=d: mods[x].dimension_vector() == d)
                for x, d in dims
            ]),
            "block.catalog_identifications": (
                "Delta_s = P_s, D_s = P_e, Delta_e = nabla_e = D_e = L_e",
                [(f"{x} = {y}", lambda x=x, y=y: iso(mods[x], mods[y])) for x, y in same]
                + [("dual of Delta_s is nabla_s",
                    lambda: iso(dual_module(mods["Delta_s"]), mods["nabla_s"]))],
            ),
            "block.catalog_loewy_layers": (
                "P_e: L_e/L_s/L_e; Delta_s: L_s over L_e; nabla_s: L_e over L_s",
                [(f"{side} {x} = L_{v}", lambda f=f, x=x, v=v: f(mods[x]) == {"e": 0, "s": 0, v: 1})
                 for x, head, socle in layers
                 for side, f, v in (("head", top_dims, head), ("socle", socle_dims, socle))],
            ),
            "block.catalog_end_rings": ("dim End(P_e) = 2 (local), dim End(P_s) = 1", [
                (f"End({x}) is {d}-dimensional", lambda x=x, d=d: hom_dim(mods[x], mods[x]) == d)
                for x, d in (("P_e", 2), ("P_s", 1))
            ]),
            "block.catalog_bgg_reciprocity_v1": ("(P_x : Delta_y) = [Delta_y : L_x]", [
                (f"BGG reciprocity at ({x},{y})",
                 lambda x=x, y=y: self.verma_flag_multiplicities(mods[f"P_{x}"])[f"Delta_{y}"]
                 == self.composition_multiplicities(mods[f"Delta_{y}"])[f"L_{x}"])
                for x in ("e", "s") for y in ("e", "s")
            ]),
        }

    def _battery(self) -> None:
        alg = self.algebra
        mods = self.modules

        def need(cond: bool, what: str) -> None:
            if not cond:
                raise BlockConstructionError(f"construction self-check failed: {what}")

        # algebra sanity: associativity and the defining relation
        for p in alg.basis:
            for q in alg.basis:
                for r in alg.basis:
                    pq = alg.mult(p, q)
                    qr = alg.mult(q, r)
                    left = alg.mult(pq, r) if pq else None
                    right = alg.mult(p, qr) if qr else None
                    need(left == right, f"associativity at ({p},{q},{r})")
        need(alg.mult("a", "b") is None, "relation ab = 0")
        need(alg.mult("b", "a") == "ba", "ba survives")

        # dimensions, identifications, Loewy layers, End rings, BGG reciprocity
        for _, predicates in self.facts().values():
            for what, holds in predicates:
                need(holds(), what)

        # duality: simples fixed, tilting self-dual
        for x in ("L_e", "L_s", "D_s"):
            need(self.is_isomorphic(dual_module(mods[x]), mods[x]), f"{x} self-dual")

        # each indecomposable decomposes as itself alone, so no two are isomorphic
        need([self.decompose(mods[x]) for x in INDECOMPOSABLES]
             == [{x: 1} for x in INDECOMPOSABLES], "indecomposable separation")

        # direct sums decompose correctly
        total = sum_module([mods["P_e"], mods["L_s"], mods["L_s"]])
        need(self.decompose(total) == {"P_e": 1, "L_s": 2}, "Krull-Schmidt bookkeeping")
