"""Named verification suites for the rank-one block.

Four suites: catalog (construction facts), adjunctions (triangle identities,
unit/counit behaviour, transpose laws), equivalence (the two-term complexes
are mutually inverse on the derived category), tilting (the longest-element
equivalence switches tiltings with projectives).  A fifth check battery ties
the ungraded numbers computed here to the v=1 specialization of the
Grothendieck-group model for the rank-one Weyl group.
"""

from __future__ import annotations

from ..report import VerificationReport
from .algebra import hom_dim
from .catalog import CATALOG_NAMES
from .functors import RankOneBlock, identity_nat, right_transpose, transpose

# homology of the two equivalences on every catalog entry, as iso classes
EXPECTED_HOMOLOGY = {
    ("star", "Delta_e"): {0: {"Delta_s": 1}},
    ("star", "Delta_s"): {0: {"Delta_s": 1}, 1: {"L_s": 1}},
    ("star", "nabla_e"): {0: {"Delta_s": 1}},
    ("star", "nabla_s"): {0: {"L_e": 1}},
    ("star", "L_e"): {0: {"Delta_s": 1}},
    ("star", "L_s"): {1: {"L_s": 1}},
    ("star", "P_e"): {0: {"P_e": 1}},
    ("star", "P_s"): {0: {"Delta_s": 1}, 1: {"L_s": 1}},
    ("star", "D_e"): {0: {"Delta_s": 1}},
    ("star", "D_s"): {0: {"P_e": 1}},
    ("shriek", "Delta_e"): {0: {"nabla_s": 1}},
    ("shriek", "Delta_s"): {0: {"L_e": 1}},
    ("shriek", "nabla_e"): {0: {"nabla_s": 1}},
    ("shriek", "nabla_s"): {-1: {"L_s": 1}, 0: {"nabla_s": 1}},
    ("shriek", "L_e"): {0: {"nabla_s": 1}},
    ("shriek", "L_s"): {-1: {"L_s": 1}},
    ("shriek", "P_e"): {0: {"P_e": 1}},
    ("shriek", "P_s"): {0: {"L_e": 1}},
    ("shriek", "D_e"): {0: {"nabla_s": 1}},
    ("shriek", "D_s"): {0: {"P_e": 1}},
}

DELTA_FLAGGED = ("Delta_e", "Delta_s", "P_e", "P_s")
NABLA_FLAGGED = ("nabla_e", "nabla_s", "D_e", "D_s")


def theta_homology(ctx: RankOneBlock):
    """(variant, name, complex): Theta* ("star") and Theta! ("shriek")
    applied to each catalog entry, in the order of EXPECTED_HOMOLOGY, each
    built when it is read; a reader asks the complex for its homology
    modules or only their dimensions."""
    for variant, fc in (("star", ctx.theta_star()), ("shriek", ctx.theta_shriek())):
        for name in CATALOG_NAMES:
            yield variant, name, fc.apply(ctx.catalog.modules[name]).complex


def _test_modules(ctx: RankOneBlock):
    mods = [ctx.catalog.modules[n] for n in ("L_e", "L_s", "Delta_s", "nabla_s", "P_e")]
    return mods + [ctx.regular, ctx.theta.on_module(ctx.regular)]


def _first_difference(lhs, rhs, objects) -> str | None:
    """Where two functor complexes first differ: in degrees, in the words of
    an entry, in the support of a differential, or in a differential
    evaluated at one of `objects`; None if nowhere."""
    if lhs.degrees() != rhs.degrees():
        return "degree ranges differ"
    for n in lhs.degrees():
        if lhs.words(n) != rhs.words(n):
            return f"entries differ in degree {n}"
        la, ra = lhs.diffs.get(n, {}), rhs.diffs.get(n, {})
        if set(la) != set(ra):
            return f"differential support differs in degree {n}"
        for key in la:
            for m in objects:
                if la[key].at(m) != ra[key].at(m):
                    return f"differential entries differ at {key} in degree {n}"
    return None


def verify_catalog(ctx: RankOneBlock) -> VerificationReport:
    cat = ctx.catalog
    rep = VerificationReport("block")
    mods = cat.modules

    for name, (detail, predicates) in cat.facts().items():
        rep.run(name, lambda ps=predicates, d=detail: (all(holds() for _, holds in ps), d))
    # theta M depends on dim M_e alone, so theta Delta_s = theta nabla_s; the
    # counit tells them apart, its image in Delta_s being the socle L_e
    rep.run(
        "block.theta_on_catalog",
        lambda: (
            ctx.theta.on_module(mods["L_s"]).is_zero()
            and cat.decompose(ctx.theta.on_module(mods["L_e"])) == {"P_e": 1}
            and cat.decompose(ctx.theta.on_module(mods["Delta_s"])) == {"P_e": 1}
            and cat.verma_flag_multiplicities(ctx.theta.on_module(mods["Delta_s"]))
            == {"Delta_e": 1, "Delta_s": 1}
            and ctx.eps.at(mods["Delta_s"]).total_rank() == 1,
            "theta kills L_s, sends L_e and Delta_s to P_e; Verma factors each once",
        ),
    )
    rep.run(
        "block.ext_bott_rank_one",
        lambda: (
            cat.ext(mods["Delta_e"], mods["L_s"], 3) == [0, 1, 0, 0]
            and cat.ext(mods["Delta_s"], mods["L_s"], 3) == [1, 0, 0, 0],
            "Ext^i(Delta_x, L_w0) is one-dimensional exactly at i = l(x w0)",
        ),
    )
    return rep


def verify_adjunctions(ctx: RankOneBlock) -> VerificationReport:
    rep = VerificationReport("block")
    mods = _test_modules(ctx)
    walls = ctx._walls
    cat = ctx.catalog

    rep.run(
        "block.triangle_identities",
        lambda: (
            ctx.adj1.triangles_hold(mods + walls) and ctx.adj2.triangles_hold(mods + walls),
            "both adjunctions, on catalog modules, the regular module and walls",
        ),
    )

    def keylem():
        for m in mods:
            if ctx.pi_star.on_module(m).total_dim and ctx.eps.at(m).is_zero():
                return False, "counit vanishes on a module with nonzero restriction"
            if ctx.pi_star.on_module(m).total_dim and ctx.etap.at(m).is_zero():
                return False, "unit vanishes on a module with nonzero restriction"
        for v_mod in walls:
            if ctx.pi_pull.on_module(v_mod).total_dim and ctx.eta.at(v_mod).is_zero():
                return False, "wall unit vanishes on a nonzero space"
            if ctx.pi_pull.on_module(v_mod).total_dim and ctx.epsp.at(v_mod).is_zero():
                return False, "wall counit vanishes on a nonzero space"
        return True, "unit/counit components are nonzero whenever forced"

    rep.run("block.keylem_nonvanishing", keylem)

    def adjinjective():
        for name in ("Delta_e", "Delta_s"):
            if not ctx.etap.at(cat.modules[name]).is_injective():
                return False, f"unit not injective on {name}"
        for name in ("nabla_e", "nabla_s"):
            if not ctx.eps.at(cat.modules[name]).is_surjective():
                return False, f"counit not surjective on {name}"
        return True, "unit injective on standards, counit surjective on costandards"

    rep.run("block.unit_counit_on_flagged", adjinjective)

    def transposes():
        phis = ctx.wall_hom_basis()
        idp = identity_nat(ctx.pi_pull)
        objs = walls
        # identity and zero
        t_id = transpose(identity_nat(ctx.pi_star), ctx.adj1, ctx.adj1)
        if not t_id.equal_on(idp, objs):
            return False, "transpose of the identity is not the identity"
        zero = identity_nat(ctx.pi_star) + (-identity_nat(ctx.pi_star))
        if not transpose(zero, ctx.adj1, ctx.adj1).is_zero_on(objs):
            return False, "transpose of zero is not zero"
        # additivity
        lhs = transpose(phis[0] + phis[1], ctx.adj1, ctx.adj1)
        rhs = transpose(phis[0], ctx.adj1, ctx.adj1) + transpose(phis[1], ctx.adj1, ctx.adj1)
        if not lhs.equal_on(rhs, objs):
            return False, "transpose is not additive"
        # contravariance for composition
        for f in phis:
            for g in phis:
                lhs = transpose(f.then(g), ctx.adj1, ctx.adj1)
                rhs = transpose(g, ctx.adj1, ctx.adj1).then(transpose(f, ctx.adj1, ctx.adj1))
                if not lhs.equal_on(rhs, objs):
                    return False, "transpose does not reverse composition"
        # the two commuting squares
        for phi in phis:
            tphi = transpose(phi, ctx.adj1, ctx.adj1)
            for m in mods:
                sq1_l = ctx.eps.at(m) @ tphi.at(ctx.pi_star.on_module(m))
                sq1_r = ctx.eps.at(m) @ ctx.pi_pull.on_map(phi.at(m))
                if sq1_l != sq1_r:
                    return False, "first transpose square fails"
            for v_mod in walls:
                sq2_l = phi.at(ctx.pi_pull.on_module(v_mod)) @ ctx.eta.at(v_mod)
                sq2_r = ctx.pi_star.on_map(tphi.at(v_mod)) @ ctx.eta.at(v_mod)
                if sq2_l != sq2_r:
                    return False, "second transpose square fails"
        # right transpose inverts the transpose
        for psi in phis:
            back = transpose(right_transpose(psi, ctx.adj2, ctx.adj2), ctx.adj2, ctx.adj2)
            if not back.equal_on(psi, mods):
                return False, "right transpose does not invert the transpose"
        return True, "identity, zero, additivity, composition, squares, inversion"

    rep.run("block.transpose_laws", transposes)
    return rep


def verify_equivalence(ctx: RankOneBlock) -> VerificationReport:
    rep = VerificationReport("block")
    cat = ctx.catalog
    ts, tsh = ctx.theta_star(), ctx.theta_shriek()

    def dsq():
        for fc in (ts, tsh, ctx._composite(ts, tsh), ctx._composite(tsh, ts),
                   ctx._composite(ts, ts)):
            for name in CATALOG_NAMES:
                if not fc.apply(cat.modules[name]).complex.check_dsq():
                    return False, f"d^2 != 0 on {name}"
        return True, "both complexes and their composites, on the whole catalog"

    rep.run("block.differentials_square_to_zero", dsq)

    def homology_table():
        for variant, name, applied in theta_homology(ctx):
            got = {n: cat.decompose(h) for n, h in applied.homology_modules().items()}
            expected = EXPECTED_HOMOLOGY[(variant, name)]
            if got != expected:
                return False, f"Theta^{variant}({name}): {got} != {expected}"
        return True, f"{len(EXPECTED_HOMOLOGY)} homology computations"

    rep.run("block.theta_homology_table", homology_table)

    def concentration():
        for fc, variant, names in ((tsh, "Theta!", DELTA_FLAGGED), (ts, "Theta*", NABLA_FLAGGED)):
            for name in names:
                if set(fc.apply(cat.modules[name]).complex.homology_dims()) - {0}:
                    return False, f"{variant} not concentrated on {name}"
        return True, "Theta! on standard-flagged, Theta* on costandard-flagged"

    rep.run("block.concentration_on_flagged", concentration)

    def composite_shape():
        deg0 = ctx._composite(ts, tsh).words(0)
        ok = sorted(deg0) == sorted(
            [("pi_pull", "pi_star", "pi_pull", "pi_star"), ()]
        )
        return ok, "degree 0 of Theta*Theta! is Id + theta^2"

    rep.run("block.composite_degree_zero_shape", composite_shape)

    def associativity():
        mods = _test_modules(ctx)
        st, hs = ctx._composite(ts, tsh), ctx._composite(tsh, ts)
        left = st.compose(ts)
        # three two-term complexes pair up their summands in label order even
        # unsorted, four do not: the fourfold composites are compared on
        # their entries and differential support, where that order shows
        failure = (_first_difference(left, ts.compose(hs), mods)
                   or _first_difference(left.compose(tsh), st.compose(st), ()))
        if failure:
            return False, failure
        return True, "(Theta* Theta!) Theta* = Theta* (Theta! Theta*), entrywise"

    rep.run("block.composition_associative", associativity)

    def quasi_isos():
        for name in CATALOG_NAMES:
            for what, build in (("ev", ctx.build_ev), ("coev", ctx.build_coev)):
                chain_map = build(cat.modules[name])
                if not chain_map.is_quasi_iso():
                    if not chain_map.is_chain_map():
                        return False, f"{what} is not a chain map on {name}"
                    return False, f"{what} not a quasi-isomorphism on {name}"
        return True, f"ev and coev on all {len(CATALOG_NAMES)} catalog entries"

    rep.run("block.derived_equivalence_ev_coev", quasi_isos)
    return rep


def verify_tilting(ctx: RankOneBlock) -> VerificationReport:
    rep = VerificationReport("block")
    cat = ctx.catalog
    ts = ctx.theta_star()

    def switch():
        for x, want in (("D_e", "P_s"), ("D_s", "P_e")):
            hs = ts.apply(cat.modules[x]).complex.homology_modules()
            if set(hs) != {0}:
                return False, f"Theta*({x}) not concentrated in degree 0"
            if not cat.is_isomorphic(hs[0], cat.modules[want]):
                return False, f"Theta*({x}) is not {want}"
        return True, "Theta*(D_e) = P_s and Theta*(D_s) = P_e"

    rep.run("block.tilting_projective_switch", switch)

    def end_dims():
        end = {n: hom_dim(cat.modules[n], cat.modules[n]) for n in ("P_e", "P_s", "D_e", "D_s")}
        for p, d in (("P_e", "D_s"), ("P_s", "D_e")):
            if end[p] != end[d]:
                return False, f"dim End({p}) = {end[p]} != {end[d]} = dim End({d})"
        total_p = end["P_e"] + end["P_s"]
        return total_p == end["D_e"] + end["D_s"], f"sum of End dimensions = {total_p}"

    rep.run("block.ringel_end_dimensions", end_dims)
    return rep


def verify_k0_crosscheck(ctx: RankOneBlock) -> VerificationReport:
    """The ungraded numbers here must match the v=1 shadow of the rank-one
    Grothendieck-group model."""
    from ..k0 import BasisKind, K0Block
    from ..weyl import CartanDatum, build_group

    rep = VerificationReport("block")
    cat = ctx.catalog
    blk = K0Block(build_group(CartanDatum("A", 1)))
    g = blk.group
    e, s = g.identity, g.simple(1)
    kinds = {"Delta": BasisKind.Verma, "nabla": BasisKind.DualVerma,
             "L": BasisKind.Simple, "P": BasisKind.Projective, "D": BasisKind.Tilting}
    elts = {"e": e, "s": s}

    def nonzero(pairs) -> dict:
        return {x: n for x, n in pairs if n}

    def at_one(coeffs) -> dict:
        """The nonzero v = 1 values of a coefficient dict."""
        return nonzero((x, p.eval_at_one()) for x, p in coeffs.items())

    def by_elt(counts: dict, family: str) -> dict:
        """The nonzero counts[family_x], keyed by the group element x."""
        return nonzero((elts[w], counts[f"{family}_{w}"]) for w in ("e", "s"))

    def classes():
        for name in CATALOG_NAMES:
            family, which = name.split("_")
            cls = blk.class_of(elts[which], kinds[family])
            got = at_one(cls.coeffs())
            want = by_elt(cat.verma_flag_multiplicities(cat.modules[name]), "Delta")
            if got != want:
                return False, f"{name}: {got} != {want}"
            got_l = at_one(blk.coords_in_basis(cls, BasisKind.Simple))
            want_l = by_elt(cat.composition_multiplicities(cat.modules[name]), "L")
            if got_l != want_l:
                return False, f"{name} in simples: {got_l} != {want_l}"
        return True, f"all {len(CATALOG_NAMES)} catalog classes at v=1"

    rep.run("block.k0_classes_match_v1", classes)

    def theta_images():
        for name in CATALOG_NAMES:
            family, which = name.split("_")
            cls = blk.wall_crossing(1, blk.class_of(elts[which], kinds[family]))
            module_image = ctx.theta.on_module(cat.modules[name])
            got = at_one(cls.coeffs())
            want = by_elt(cat.verma_flag_multiplicities(module_image), "Delta")
            if got != want:
                return False, f"theta({name}): {got} != {want}"
        return True, "wall crossing at v=1 equals the theta images"

    rep.run("block.k0_theta_images_match_v1", theta_images)

    def switch():
        for which, want in (("e", "s"), ("s", "e")):
            lhs = blk.hecke_act(blk.hecke.std(g.w0), blk.class_of(elts[which], BasisKind.Tilting))
            rhs = blk.class_of(elts[want], BasisKind.Projective)
            if lhs != rhs:
                return False, "K0 switch identity fails"
            applied = ctx.theta_star().apply(cat.modules[f"D_{which}"]).complex
            h = applied.homology(0)
            if not cat.is_isomorphic(h, cat.modules[f"P_{want}"]):
                return False, "categorical switch does not match"
        return True, "H_w0 [T_x] = [P_w0x] matches Theta*(D_x) = P_w0x"

    rep.run("block.k0_tilting_switch_crosscheck", switch)
    return rep


def suite(ctx: RankOneBlock, which: str = "all") -> VerificationReport:
    rep = VerificationReport(f"block-{which}")
    parts = {
        "catalog": (verify_catalog,),
        "adjunctions": (verify_adjunctions,),
        "equivalence": (verify_equivalence,),
        "tilting": (verify_tilting,),
        "all": (
            verify_catalog,
            verify_adjunctions,
            verify_equivalence,
            verify_tilting,
            verify_k0_crosscheck,
        ),
    }
    if which not in parts:
        raise ValueError(f"unknown block suite: {which!r}")
    for fn in parts[which]:
        rep.extend(fn(ctx))
    return rep
