"""A model of the Grothendieck group of the graded principal block as the
regular module over the Hecke algebra.

A class is the Hecke element (HeckeElt) of the block's own algebra with the
same coefficients in the graded standard (Verma) basis: [D_x] is H_x, and
classes add, scale and compare as Hecke elements.  The grading convention is
v^n [X] = [X<-n>],  so shift(X, n) multiplies coordinates by v^-n.

Basis views (all unitriangular against the Verma basis), each read from the
matching view of the Hecke algebra, built and checked per element:
  Simple      [L_x] <-> b(C_x)                                    "Cprime"
  Tilting     [T_x] <-> C_x                                       "C"
  Projective  [P_x] <-> the basis dual to {b(C_y)} under the form  "dual_to_bC"
  DualVerma   [N_x] <-> d(H_x)                                    "d"

The Euler form is the Z[v,v^-1]-bilinear form that makes the Verma classes
orthonormal: <a, b> = sum_x a_x b_x on Verma coordinates.  Projectives are
then dual to simples, which is how class_of(..., Projective) is computed;
BGG reciprocity becomes a checkable theorem instead of a definition.

Wall crossing acts on Verma coordinates through the two short exact
sequences: [theta_s D_x] = v^-1 [D_x] + [D_sx] when sx < x, and
[D_sx] + v [D_x] when x < sx.  The Hecke action and the wall-crossing
operators are tied together by  H_s [X] = [theta_s X] - v [X],  which the
module-axiom suite checks on every basis vector.
"""

from __future__ import annotations

import enum
import functools

from .hecke import HeckeAlgebra, HeckeElt
from .laurent import ONE, ZERO, LaurentPoly, accumulate, dot, mapped, v, v_pow
from .report import VerificationReport
from .weyl import WeylElt, WeylGroup


class BasisKind(enum.Enum):
    Verma = "Verma"
    DualVerma = "DualVerma"
    Simple = "Simple"
    Projective = "Projective"
    Tilting = "Tilting"

    @classmethod
    def coerce(cls, kind) -> "BasisKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls[str(kind)]
        except KeyError:
            raise ValueError(f"unknown basis kind: {kind!r}") from None


WALL_VARIANTS = ("theta", "pi_star_pi", "pi_shriek_pi")
_V_INV = v_pow(-1)
_V_INV_MINUS_V = _V_INV - v  # H_s^2 = 1 + (v^-1 - v) H_s
_MINUS_V = -v


def K0Class(block: "K0Block", coords: dict[int, LaurentPoly]) -> HeckeElt:
    """The class with the given Verma coordinates (index -> coefficient):
    the Hecke element of block.hecke with those coefficients."""
    return HeckeElt(block.hecke, coords)


# the Hecke-algebra view behind each non-Verma basis
_VIEW_OF = {
    BasisKind.Simple: "Cprime",
    BasisKind.Tilting: "C",
    BasisKind.Projective: "dual_to_bC",
    BasisKind.DualVerma: "d",
}


class K0Block:
    """K_0 of the graded principal block for one Weyl group: a view of the
    regular module of its own Hecke algebra, so classes of two blocks never
    mix, even over the same Cartan type."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.hecke = HeckeAlgebra(group)

    # -- distinguished classes ----------------------------------------------

    def verma(self, x: WeylElt) -> HeckeElt:
        return self.hecke.std(x)

    def class_of(self, x: WeylElt, basis) -> HeckeElt:
        kind = BasisKind.coerce(basis)
        if kind is BasisKind.Verma:
            return self.verma(x)
        return self.hecke.view(_VIEW_OF[kind], x)

    # -- operators ------------------------------------------------------------

    def hecke_act(self, h: HeckeElt, X: HeckeElt) -> HeckeElt:
        """The left regular action."""
        return self.hecke.mul(h, X)

    def shift(self, X: HeckeElt, n: int) -> HeckeElt:
        """[X<n>]: multiplies every coordinate by v^-n."""
        self.hecke.check_own(X)
        return HeckeElt._wrap(self.hecke, {k: p.shifted(-n) for k, p in X._c.items()})

    def wall_crossing(self, i: int, X: HeckeElt, variant: str = "theta") -> HeckeElt:
        """theta_s is the left action of C_s on Verma coordinates; the
        pi* pi_* and pi! pi_* variants are theta_s shifted by <1> and <-1>."""
        if variant not in WALL_VARIANTS:
            raise ValueError(f"unknown wall-crossing variant: {variant!r}")
        res = self.hecke.left_cs(i, X)
        if variant == "pi_star_pi":
            return self.shift(res, 1)
        if variant == "pi_shriek_pi":
            return self.shift(res, -1)
        return res

    def dualize(self, X: HeckeElt) -> HeckeElt:
        """phi . d . phi^-1; fixes every simple class."""
        return self.hecke.bar(X)

    def ext_pairing(self, X: HeckeElt, Y: HeckeElt) -> LaurentPoly:
        """Euler form: the Verma classes are an orthonormal basis."""
        return self.hecke.pairing(X, Y)

    # -- basis matrices ---------------------------------------------------------

    def coords_in_basis(self, X: HeckeElt, basis) -> dict[WeylElt, LaurentPoly]:
        """Coordinates of X in a basis view, by exact back-substitution
        against the view's own columns: the top Verma coordinate of what is
        left is the next coordinate (the bottom one for Projective, whose
        columns sit above their element), and its column is subtracted.
        The Hecke algebra checks each column once, when it builds it, and
        raises ValueError there on one that is not unitriangular."""
        kind = BasisKind.coerce(basis)
        self.hecke.check_own(X)
        if kind is BasisKind.Verma:
            return X.coeffs()
        g, left, out = self.group, dict(X._c), {}
        for j in range(g.order) if kind is BasisKind.Projective else range(g.order - 1, -1, -1):
            c = left.get(j)
            if c is not None:
                accumulate(left, self.hecke._view(_VIEW_OF[kind], j).items(), -c)
                out[j] = c
        return {g.element(i): s for i, s in sorted(out.items())}

    def _verma_in_simples(self) -> list[dict[int, LaurentPoly]]:
        """The Simple coordinates of every H_z, by id, upward from H_e = C'_e
        through H_z = (C'_s + v^-1) H_{sz}, s the first letter of z, and the
        W-graph: C'_s C'_y is C'_{sy} + sum of mu(w, y) C'_w over the w with
        sw < w for sy > y, -(v + v^-1) C'_y for sy < y.  The nonzero
        mu(w, y) are read off row y of C once each."""
        g, mu = self.group, self.hecke._mu
        lmult, lengths = g._lmult, g._lengths
        edges: dict[int, list[tuple[int, int]]] = {}
        table: list[dict[int, LaurentPoly]] = [{0: ONE}]
        for z in range(1, g.order):
            s, out, ups, downs = g._firsts[z], {}, [], []
            terms = {_V_INV: ups, _MINUS_V: downs}  # scalar -> its (id, coefficient) terms
            for y, p in table[lmult[z][s]].items():
                sy = lmult[y][s]
                if lengths[sy] < lengths[y]:
                    downs.append((y, p))
                    continue
                out[sy] = p
                ups.append((y, p))
                if y not in edges:
                    edges[y] = [(w, m) for w in self.hecke._view("C", y)
                                if (lengths[y] - lengths[w]) & 1 and (m := mu(w, y))]
                for w, m in edges[y]:
                    if lengths[lmult[w][s]] < lengths[w]:
                        terms.setdefault(m, []).append((w, p))
            for scal, ts in terms.items():
                if ts:
                    accumulate(out, ts, scal)
            table.append(dict(sorted(out.items())))
        return table

    # -- verifiers ------------------------------------------------------------

    def verify_bott(self) -> VerificationReport:
        """Euler-form shadow of Bott's theorem:
        <[D_x], [L_w0]> = (-v^-1)^{l(x w0)} for every x."""
        g = self.group
        rep = VerificationReport("k0")

        def check():
            lw0 = self.hecke._view("Cprime", g._w0)
            for x in range(g.order):
                l = g._lengths[g._index_mul(x, g._w0)]
                expect = v_pow(-l) if l % 2 == 0 else -v_pow(-l)
                got = dot({x: ONE}, lw0)
                if got != expect:
                    return False, f"fails at x={g._name(x)}: {got} != {expect}"
            return True, f"all {g.order} elements"

        rep.run("k0.bott_euler_form", check)
        return rep

    def verify_characters(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("k0")
        view, w0x = self.hecke._view, g._w0x

        verma_in_simples = functools.cache(self._verma_in_simples)  # built by its first reader

        def weyl_character():
            lw0 = view("Cprime", g._w0)
            for x in range(g.order):
                got = lw0.get(x, ZERO).eval_at_one()
                expect = (-1) ** g._lengths[g._index_mul(x, g._w0)]
                if got != expect:
                    return False, f"v=1 coefficient at {g._name(x)} is {got}, wanted {expect}"
            return True, f"alternating sum over {g.order} Vermas"

        def tilting_vs_projective_graded():
            # Verma coefficient of [T_x] at y equals the bar of the Verma
            # coefficient of [P_{w0 x}] at w0 y, each distinct one barred once
            # per algebra, in its bar memo
            for x in range(g.order):
                t = view("C", x)
                p = mapped(self.hecke._bars, view("dual_to_bC", w0x[x]), LaurentPoly.bar)
                for y, w0y in enumerate(w0x):
                    if t.get(y, ZERO) != p.get(w0y, ZERO):
                        return False, f"fails at (x,y)=({g._name(x)}, {g._name(y)})"
            return True, f"{g.order}^2 coefficients"

        def tilting_vs_multiplicity_v1():
            # at v=1 the coefficient is the multiplicity [D_{w0 y} : L_{w0 x}]
            table = verma_in_simples()
            for x in range(g.order):
                t = view("C", x)
                for y, w0y in enumerate(w0x):
                    mult = table[w0y].get(w0x[x], ZERO)
                    if t.get(y, ZERO).eval_at_one() != mult.eval_at_one():
                        return False, f"fails at (x,y)=({g._name(x)}, {g._name(y)})"
            return True, f"{g.order}^2 multiplicities"

        def bgg_reciprocity_graded():
            # Verma coefficients of projectives = transposed simple
            # multiplicities of Vermas, as exact Laurent polynomials
            table = verma_in_simples()
            for a in range(g.order):
                p = view("dual_to_bC", a)
                for z, coords in enumerate(table):
                    if p.get(z, ZERO) != coords.get(a, ZERO):
                        return False, f"fails at (P_{g._name(a)}, D_{g._name(z)})"
            return True, f"{g.order}^2 entries"

        def positivity():
            # Vermas expanded in simples: nonnegative coefficients, and the
            # off-diagonal terms all sit in strictly shifted degrees (the
            # exponents are strictly negative under v^n [X] = [X<-n>])
            for x, coords in enumerate(verma_in_simples()):
                if coords.get(x) != LaurentPoly.one():
                    return False, f"diagonal at {g._name(x)} is not 1"
                for y, p in coords.items():
                    if y == x:
                        continue
                    if not g._leq_rows[x] >> y & 1:
                        return False, f"support above Bruhat interval at {g._name(x)}"
                    if any(c <= 0 for _, c in p.items()):
                        return False, f"negative multiplicity at ({g._name(y)}, {g._name(x)})"
                    if p.max_exp() is not None and p.max_exp() >= 0:
                        return False, f"unshifted off-diagonal term at ({g._name(y)}, {g._name(x)})"
            return True, f"{g.order} expansions"

        def ringel_dims():
            # dim End(P_x) = dim End(T_{w0 x}) through the v=1 Euler form,
            # and the two total sums coincide
            tot_p = tot_t = 0
            for x in range(g.order):
                qx, cx = view("dual_to_bC", x), view("C", w0x[x])
                dp = dot(qx, qx).eval_at_one()
                dt = dot(cx, cx).eval_at_one()
                if dp != dt:
                    return False, f"dim End mismatch at {g._name(x)}: {dp} != {dt}"
                tot_p += dp
                tot_t += dt
            return tot_p == tot_t, f"sum of End dimensions = {tot_p}"

        rep.run("k0.weyl_character_formula_v1", weyl_character)
        rep.run("k0.tilting_char_graded", tilting_vs_projective_graded)
        rep.run("k0.tilting_char_v1", tilting_vs_multiplicity_v1)
        rep.run("k0.bgg_reciprocity_graded", bgg_reciprocity_graded)
        rep.run("k0.inverse_kl_positivity", positivity)
        rep.run("k0.ringel_end_dims", ringel_dims)
        return rep

    def verify_module_axioms(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("k0")
        vermas = [self.verma(x) for x in g.elements()]

        def quadratic():
            for i in range(1, g.rank + 1):
                hs = self.hecke.gen(i)
                for X in vermas:
                    once = self.hecke_act(hs, X)
                    twice = self.hecke_act(hs, once)
                    if twice != X + once * _V_INV_MINUS_V:
                        return False, f"quadratic action fails at s_{i}"
            return True, f"{g.rank} generators x {g.order} basis classes"

        def wall_vs_hecke():
            for i in range(1, g.rank + 1):
                hs = self.hecke.gen(i)
                for X in vermas:
                    theta, act = self.wall_crossing(i, X, "theta"), self.hecke_act(hs, X)
                    if act != theta - X * v:
                        return False, f"H_s vs theta_s mismatch at s_{i}"
                    star = self.wall_crossing(i, X, "pi_star_pi")
                    if star != theta * _V_INV:
                        return False, "pi* pi_* shift bookkeeping broken"
                    if self.wall_crossing(i, X, "pi_shriek_pi") != theta * v:
                        return False, "pi! pi_* shift bookkeeping broken"
                    if act != (star - X) * v:
                        return False, f"(pi*pi - id) route fails at s_{i}"
            return True, "theta, pi*pi and pi!pi routes agree with the Hecke action"

        def wall_quadratic():
            # the quadratic relation rederived purely from wall crossing
            for i in range(1, g.rank + 1):
                hs = lambda Y: self.wall_crossing(i, Y, "theta") - Y * v
                for X in vermas:
                    once = hs(X)
                    if hs(once) != X + once * _V_INV_MINUS_V:
                        return False, f"wall-crossing quadratic fails at s_{i}"
            return True, ""

        # (h, X) -> h X is multiplicative in h and linear in both slots, so
        # generator-exhaustive coverage pins the identities; dense elements
        # are spot-checked on a thinned set of basis classes
        spot = vermas[:: max(1, g.order // 8)]

        def associativity():
            gens = [self.hecke.gen(i) for i in range(1, g.rank + 1)]
            dense = [self.hecke.std(g.w0), self.hecke._sample_elements()[0]]
            for lefts, rights, classes, fails in (
                    (gens, gens, vermas, "module associativity fails"),
                    (gens + dense, dense, spot, "module associativity fails on a dense sample")):
                # each b X once, for every a
                acted = [[self.hecke_act(b, X) for X in classes] for b in rights]
                for a in lefts:
                    for b, bX in zip(rights, acted):
                        ab = self.hecke.mul(a, b)
                        for X, bx in zip(classes, bX):
                            if self.hecke_act(ab, X) != self.hecke_act(a, bx):
                                return False, fails
            return True, (
                f"{g.rank}^2 generator products on {g.order} classes, "
                f"dense samples on {len(spot)}"
            )

        def intertwine():
            for i in range(1, g.rank + 1):
                h = self.hecke.gen(i)
                hb = self.hecke.bar(h)
                for X in vermas:
                    if self.dualize(self.hecke_act(h, X)) != self.hecke_act(hb, self.dualize(X)):
                        return False, "duality does not intertwine the bar involution"
            dense = self.hecke._sample_elements()[-1]
            hb = self.hecke.bar(dense)
            for X in spot:
                if self.dualize(self.hecke_act(dense, X)) != self.hecke_act(hb, self.dualize(X)):
                    return False, "duality intertwining fails on a dense sample"
            return True, ""

        rep.run("k0.module_quadratic_relation", quadratic)
        rep.run("k0.wall_crossing_vs_hecke_action", wall_vs_hecke)
        rep.run("k0.wall_crossing_quadratic", wall_quadratic)
        rep.run("k0.module_associativity", associativity)
        rep.run("k0.duality_intertwines_bar", intertwine)
        return rep

    def verify_unitriangularity(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("k0")

        def check():
            rows = g._leq_rows
            for kind in (BasisKind.Simple, BasisKind.Projective, BasisKind.Tilting,
                         BasisKind.DualVerma):
                for j in range(g.order):
                    col = self.hecke._view(_VIEW_OF[kind], j)
                    if col.get(j) != LaurentPoly.one():
                        return False, f"{kind.value} diagonal not 1 at {g._name(j)}"
                    for i in col:
                        # projectives sit above x in the Bruhat order,
                        # every other view sits below
                        if not (rows[i] >> j if kind is BasisKind.Projective else rows[j] >> i) & 1:
                            return False, (f"{kind.value} not Bruhat-unitriangular"
                                           f" at ({g._name(i)}, {g._name(j)})")
            return True, "Simple, Projective, Tilting, DualVerma vs Verma"

        rep.run("k0.basis_changes_unitriangular", check)
        return rep

    def verify_tilting_switch(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("k0")

        def check():
            bad = self.hecke._hw0_failures()
            return not bad, (f"fails at {g._name(bad[0])}" if bad
                             else f"H_w0 [T_x] = [P_w0x] for all {g.order} elements")

        rep.run("k0.tilting_projective_switch", check)
        return rep

    def verify_simple_ops(self) -> VerificationReport:
        g = self.group
        rep = VerificationReport("k0")

        def check():
            gens = [self.hecke.gen(i) for i in range(1, g.rank + 1)]
            c_s = [h + self.hecke.unit() * v for h in gens]
            for x in g.elements():
                for i in range(1, g.rank + 1):
                    sx = g.left_multiply_gen(i, x)
                    if g.length(sx) < g.length(x):
                        killed = self.hecke_act(c_s[i - 1], self.class_of(x, BasisKind.Simple))
                        if not killed.is_zero():
                            return False, f"(H_s + v)[L_x] != 0 at ({i}, {g.name(x)})"
                    else:
                        moved = self.hecke_act(gens[i - 1], self.verma(x))
                        if moved != self.verma(sx):
                            return False, f"H_s [D_x] != [D_sx] at ({i}, {g.name(x)})"
            return True, "wall operators on simples and Vermas"

        def duality_fixes_simples():
            one = self.hecke.unit()
            for x in g.elements():
                # d(H_x) = H_{x^-1}^-1: the DualVerma view is the inverse,
                # tested before the classes that read it
                X = self.verma(x)
                if self.hecke_act(self.verma(g.inverse(x)), self.dualize(X)) != one:
                    return False, "dual Verma view inconsistent"
                lx = self.class_of(x, BasisKind.Simple)
                if self.dualize(lx) != lx:
                    return False, f"[L_{g.name(x)}] not duality-fixed"
                if self.dualize(self.dualize(X)) != X:
                    return False, "duality is not an involution"
            return True, ""

        def projectives_dual_to_simples():
            bad = self.hecke._first_off_delta("dual_to_bC", "Cprime")
            return bad is None, (f"{g.order}^2 pairings" if bad is None
                                 else f"<[P],[L]> wrong at ({g._name(bad[0])}, {g._name(bad[1])})")

        rep.run("k0.wall_action_on_simples_and_vermas", check)
        rep.run("k0.duality_fixes_simples", duality_fixes_simples)
        rep.run("k0.projectives_dual_to_simples", projectives_dual_to_simples)
        return rep

    def suite(self) -> VerificationReport:
        rep = VerificationReport("k0")
        for sub in (self.verify_module_axioms(), self.verify_unitriangularity(), self.verify_bott(),
                    self.verify_characters(), self.verify_tilting_switch(), self.verify_simple_ops()):
            rep.extend(sub)
        return rep
