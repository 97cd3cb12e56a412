import gc
import weakref
from fractions import Fraction
from unittest.mock import patch

import pytest

from heckeo import cli
from heckeo.block import (
    Adjunction,
    BlockConstructionError,
    Module,
    build_rank_one,
    dual_module,
    hom_dim,
    rank_one_algebra,
    wall_algebra,
)
from heckeo.block.algebra import (
    ChainComplex,
    ChainMap,
    ModuleMap,
    PathAlgebra,
    block_map,
    cokernel,
    direct_sum,
    hom_basis,
    identity_map,
    kernel,
    module_as_complex,
    socle_dims,
    sum_module,
    top_dims,
    zero_map,
)
from heckeo.block.catalog import CATALOG_NAMES
from heckeo.block.checks import (
    EXPECTED_HOMOLOGY,
    suite,
    verify_adjunctions,
    verify_catalog,
    verify_equivalence,
    verify_k0_crosscheck,
    verify_tilting,
)
from heckeo.block.functors import Nat, right_transpose, transpose
from heckeo.block import linalg

from _oracles import (
    apply_by_positions,
    block_map_by_compositions,
    cokernel_by_extension,
    compose_by_origins,
    direct_sum_by_entries,
    hom_dim_by_elementary_maps,
    homology_by_extension,
    is_quasi_iso_on_homology,
)


@pytest.fixture(scope="module")
def ctx():
    return build_rank_one()


# -- algebra and module basics ---------------------------------------------------

def test_algebra_multiplication_table():
    alg = rank_one_algebra()
    assert alg.mult("a", "b") is None          # the relation
    assert alg.mult("b", "a") == "ba"
    assert alg.mult("ba", "ba") is None
    assert alg.mult("1_s", "a") == "a"
    assert alg.mult("a", "1_e") == "a"
    assert alg.mult("a", "1_s") is None
    assert alg.mult("1_e", "b") == "b"


def test_module_relation_enforced():
    alg = rank_one_algebra()
    with pytest.raises(BlockConstructionError):
        Module(alg, {"e": 1, "s": 1}, {"a": [[1]], "b": [[1]]})


def test_module_rejects_bad_dimensions():
    alg = rank_one_algebra()
    with pytest.raises(BlockConstructionError):
        Module(alg, {"x": 3})
    with pytest.raises(BlockConstructionError):
        Module(alg, {"e": 1, "w": 1})
    with pytest.raises(BlockConstructionError):
        Module(alg, {"e": -1})
    # a dimension is an int, never coerced to one
    for bad in (1.5, "2", True, Fraction(2)):
        with pytest.raises(BlockConstructionError, match="non-integer dimension"):
            Module(alg, {"e": 1, "s": bad})
    assert Module(alg, {"s": 2}).dimension_vector() == (0, 2)


def test_module_rejects_unknown_arrows():
    alg = rank_one_algebra()
    with pytest.raises(BlockConstructionError, match="not an arrow of rank-one block: B"):
        Module(alg, {"e": 1, "s": 1}, {"a": [[0]], "B": [[1]]})


def test_module_map_rejects_unknown_vertices():
    alg = rank_one_algebra()
    m = Module(alg, {"e": 1})
    with pytest.raises(BlockConstructionError, match="not a vertex of rank-one block: x"):
        ModuleMap(m, m, {"e": [[1]], "x": [[5]]})
    with pytest.raises(BlockConstructionError, match="x"):
        ModuleMap(m, m, {"x": [[5]]})


def test_module_map_rejects_matrices_that_do_not_commute(ctx):
    # on Delta_s, b . f_s = 0 but f_e . b = 1
    delta_s = ctx.catalog.modules["Delta_s"]
    with pytest.raises(BlockConstructionError, match="matrices do not commute with the arrows"):
        ModuleMap(delta_s, delta_s, {"e": [[1]], "s": [[0]]})


def test_catalog_composition_series(ctx):
    cat = ctx.catalog
    assert cat.modules["Delta_s"].total_dim == 2
    assert cat.composition_multiplicities(cat.modules["Delta_s"]) == {"L_e": 1, "L_s": 1}
    assert cat.modules["P_e"].total_dim == 3
    assert cat.composition_multiplicities(cat.modules["P_e"]) == {"L_e": 2, "L_s": 1}
    # the antidominant standard module is simple
    assert cat.is_isomorphic(cat.modules["Delta_e"], cat.modules["L_e"])


def test_duality_on_catalog(ctx):
    cat = ctx.catalog
    for name in ("L_e", "L_s", "P_e", "D_s", "D_e"):
        assert cat.is_isomorphic(dual_module(cat.modules[name]), cat.modules[name])
    assert cat.is_isomorphic(dual_module(cat.modules["Delta_s"]), cat.modules["nabla_s"])
    assert cat.is_isomorphic(dual_module(cat.modules["nabla_s"]), cat.modules["Delta_s"])


def test_hom_dims_match_loewy_structure(ctx):
    cat = ctx.catalog
    m = cat.modules
    assert hom_dim(m["Delta_s"], m["nabla_s"]) == 1
    assert hom_dim(m["nabla_s"], m["Delta_s"]) == 1
    assert hom_dim(m["L_e"], m["P_e"]) == 1
    assert hom_dim(m["P_e"], m["L_s"]) == 0
    assert hom_dim(m["P_e"], m["L_e"]) == 1


def test_hom_dim_matches_the_elementary_map_oracle(ctx):
    mods = list(ctx.catalog.modules.values()) + [ctx.regular, ctx.theta.on_module(ctx.regular)]
    for x in mods:
        for y in mods:
            want = hom_dim_by_elementary_maps(x, y)
            assert hom_dim(x, y) == want == len(hom_basis(x, y)), (x, y)


def test_modules_over_different_algebras_are_rejected(ctx):
    p_e, wall = ctx.catalog.modules["P_e"], Module(wall_algebra(), {"w": 2})
    message = "modules over different algebras: {} and {}"
    for x, y in ((p_e, wall), (wall, p_e)):
        names = message.format(x.algebra.name, y.algebra.name)
        for build in (hom_dim, hom_basis):
            with pytest.raises(BlockConstructionError, match=names):
                build(x, y)
    with pytest.raises(BlockConstructionError, match=message.format("rank-one block", "wall")):
        ModuleMap(p_e, wall, {"e": [[0, 0]] * 2})
    with pytest.raises(BlockConstructionError, match=message.format("rank-one block", "wall")):
        direct_sum([p_e, wall])
    # an equal algebra built apart is the same algebra
    other = Module(wall_algebra(), {"w": 1})
    assert hom_dim(ctx.pi_star.on_module(p_e), other) == 2
    assert direct_sum([wall, other])[0].dims == {"w": 3}


def test_kernel_cokernel_roundtrip(ctx):
    cat = ctx.catalog
    cover = None
    # the projective cover P_e -> Delta_e has kernel Delta_s
    for f in hom_basis(cat.modules["P_e"], cat.modules["Delta_e"]):
        if f.is_surjective():
            cover = f
    assert cover is not None
    ker, incl = kernel(cover)
    assert cat.is_isomorphic(ker, cat.modules["Delta_s"])
    assert (cover @ incl).is_zero()
    coker, proj = cokernel(incl)
    assert cat.is_isomorphic(coker, cat.modules["Delta_e"])


def test_decompose_direct_sums(ctx):
    cat = ctx.catalog
    total, injs, projs = direct_sum([cat.modules["Delta_s"], cat.modules["L_e"]])
    assert cat.decompose(total) == {"Delta_s": 1, "L_e": 1}
    assert (projs[0] @ injs[0]) == identity_map(cat.modules["Delta_s"])
    assert (projs[1] @ injs[0]).is_zero()


def test_ext_computations(ctx):
    cat = ctx.catalog
    m = cat.modules
    assert cat.ext(m["Delta_e"], m["L_s"], 3) == [0, 1, 0, 0]
    assert cat.ext(m["Delta_s"], m["L_s"], 3) == [1, 0, 0, 0]
    # projectives have no higher Ext
    assert cat.ext(m["P_e"], m["L_e"], 2) == [1, 0, 0]
    # self-extensions of the simples detect the quiver arrows
    assert cat.ext(m["L_e"], m["L_e"], 2)[0] == 1
    assert cat.ext(m["L_e"], m["L_s"], 1) == [0, 1]
    assert cat.ext(m["L_s"], m["L_e"], 1) == [0, 1]


# -- translation functors ----------------------------------------------------------

def test_translation_images(ctx):
    cat = ctx.catalog
    assert ctx.pi_star.on_module(cat.modules["L_s"]).total_dim == 0
    assert ctx.pi_star.on_module(cat.modules["P_e"]).total_dim == 2
    off = ctx.pi_pull.on_module(Module(ctx.wall, {"w": 1}))
    assert cat.is_isomorphic(off, cat.modules["P_e"])
    assert ctx.theta.on_module(cat.modules["L_s"]).is_zero()


def test_functor_words_compose(ctx):
    assert ctx.theta.word == ("pi_pull", "pi_star")
    t2 = ctx.theta.compose(ctx.theta)
    m = ctx.catalog.modules["L_e"]
    assert t2.on_module(m).dimension_vector() == (4, 2)
    with pytest.raises(BlockConstructionError):
        ctx.pi_star.compose(ctx.pi_star)


def test_identity_complex_is_a_unit(ctx):
    ts = ctx.theta_star()
    for composed in (ctx.identity_complex().compose(ts), ts.compose(ctx.identity_complex())):
        assert composed.degrees() == ts.degrees()
        for n in ts.degrees():
            assert composed.words(n) == ts.words(n)
        for m in _sample_mods(ctx):
            for key, nat in ts.diffs[0].items():
                assert composed.diffs[0][key].at(m) == nat.at(m)


def _sample_mods(ctx):
    return [ctx.catalog.modules[n] for n in ("P_e", "Delta_s", "L_s")] + [ctx.regular]


# -- adjunctions ------------------------------------------------------------------

def test_adjunction_units_frozen(ctx):
    cat = ctx.catalog
    # counit on Delta_e is the projective cover map (surjective)
    eps_de = ctx.eps.at(cat.modules["Delta_e"])
    assert eps_de.is_surjective()
    # unit is injective on the standard modules
    assert ctx.etap.at(cat.modules["Delta_s"]).is_injective()
    assert ctx.etap.at(cat.modules["Delta_e"]).is_injective()
    # triangle composite on P_s is the identity
    ps = cat.modules["P_s"]
    v = ctx.pi_star.on_module(ps)
    tri = ctx.pi_star.on_map(ctx.eps.at(ps)) @ ctx.eta.at(v)
    assert tri == identity_map(v)


def test_block_matrices_stay_integral(ctx):
    """The block is defined over Z: every arrow matrix and every (co)unit
    component on the catalog is all ints. A Fraction here means an integral
    entry escaped `linalg`'s int fast path."""
    def int_entries(m):
        return all(type(x) is int for row in m.rows for x in row)

    for name, mod in ctx.catalog.modules.items():
        for label, act in mod.act.items():
            assert int_entries(act), f"arrow {label} of {name}"
        wall = ctx.pi_star.on_module(mod)
        for nat, m in (("eps", mod), ("etap", mod), ("eta", wall), ("epsp", wall)):
            for v, comp in getattr(ctx, nat).at(m).mats.items():
                assert int_entries(comp), f"{nat} on {name} at vertex {v}"


# Component matrices of the frozen (co)units, row by row at each vertex: eps
# and etap on the catalog and the regular module, eta and epsp on the walls
# W1-W3 of dimension 1-3.  Written by evaluating them at a commit whose Nat
# spaces were solved by hand-built equation systems, so they pin the frozen
# adjunction independently of how the Nat spaces are now computed.
FROZEN_COMPONENTS = {
    ("eps", "Delta_e"): {"e": [[1, 0]], "s": []},
    ("eps", "Delta_s"): {"e": [[1, 0]], "s": [[0]]},
    ("eps", "nabla_e"): {"e": [[1, 0]], "s": []},
    ("eps", "nabla_s"): {"e": [[1, 0]], "s": [[1]]},
    ("eps", "L_e"): {"e": [[1, 0]], "s": []},
    ("eps", "L_s"): {"e": [], "s": [[]]},
    ("eps", "P_e"): {"e": [[1, 0, 0, 0], [0, 1, 1, 0]], "s": [[1, 0]]},
    ("eps", "P_s"): {"e": [[1, 0]], "s": [[0]]},
    ("eps", "D_e"): {"e": [[1, 0]], "s": []},
    ("eps", "D_s"): {"e": [[1, 0, 0, 0], [0, 1, 1, 0]], "s": [[1, 0]]},
    ("eps", "regular"): {"e": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0]],
                         "s": [[1, 0, 0], [0, 0, 0]]},
    ("etap", "Delta_e"): {"e": [[0], [1]], "s": [[]]},
    ("etap", "Delta_s"): {"e": [[0], [1]], "s": [[1]]},
    ("etap", "nabla_e"): {"e": [[0], [1]], "s": [[]]},
    ("etap", "nabla_s"): {"e": [[0], [1]], "s": [[0]]},
    ("etap", "L_e"): {"e": [[0], [1]], "s": [[]]},
    ("etap", "L_s"): {"e": [], "s": []},
    ("etap", "P_e"): {"e": [[0, 0], [1, 0], [1, 0], [0, 1]], "s": [[0], [1]]},
    ("etap", "P_s"): {"e": [[0], [1]], "s": [[1]]},
    ("etap", "D_e"): {"e": [[0], [1]], "s": [[]]},
    ("etap", "D_s"): {"e": [[0, 0], [1, 0], [1, 0], [0, 1]], "s": [[0], [1]]},
    ("etap", "regular"): {"e": [[0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          "s": [[0, 0], [1, 0], [0, 1]]},
    ("eta", "W1"): {"w": [[1], [0]]},
    ("eta", "W2"): {"w": [[1, 0], [0, 1], [0, 0], [0, 0]]},
    ("eta", "W3"): {"w": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]]},
    ("epsp", "W1"): {"w": [[0, 1]]},
    ("epsp", "W2"): {"w": [[0, 0, 1, 0], [0, 0, 0, 1]]},
    ("epsp", "W3"): {"w": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]},
}


def test_frozen_adjunction_components(ctx):
    objects = {name: ctx.catalog.modules[name] for name in CATALOG_NAMES}
    objects["regular"] = ctx.regular
    objects.update({f"W{d}": Module(ctx.wall, {"w": d}) for d in (1, 2, 3)})
    got = {}
    for nat, name in FROZEN_COMPONENTS:
        comp = getattr(ctx, nat).at(objects[name])
        got[(nat, name)] = {v: [list(row) for row in m.rows] for v, m in comp.mats.items()}
    assert got == FROZEN_COMPONENTS


def test_units_and_counits_are_natural(ctx):
    """eps: theta -> Id, etap: Id -> theta and each wall_hom_basis element
    on every hom-space basis map between catalog modules; eta: Id -> p*p^
    and epsp: p*p^ -> Id on every basis map between walls of dimension 1-3."""
    cat = ctx.catalog
    theta, phis = ctx.theta, ctx.wall_hom_basis()
    for m_name in CATALOG_NAMES:
        for n_name in CATALOG_NAMES:
            m, n = cat.modules[m_name], cat.modules[n_name]
            for f in hom_basis(m, n):
                assert ctx.eps.at(n) @ theta.on_map(f) == f @ ctx.eps.at(m)
                assert theta.on_map(f) @ ctx.etap.at(m) == ctx.etap.at(n) @ f
                restricted = ctx.pi_star.on_map(f)
                for phi in phis:
                    assert phi.at(n) @ restricted == restricted @ phi.at(m)
    pair = ctx.pi_star.compose(ctx.pi_pull)
    walls = [Module(ctx.wall, {"w": d}) for d in (1, 2, 3)]
    for v in walls:
        for w in walls:
            for g in hom_basis(v, w):
                assert pair.on_map(g) @ ctx.eta.at(v) == ctx.eta.at(w) @ g
                assert ctx.epsp.at(w) @ pair.on_map(g) == g @ ctx.epsp.at(v)


def test_functors_take_modules_over_a_freshly_built_copy_of_their_algebra(ctx):
    # algebras compare field-wise: a module need not be built over the
    # block's own algebra objects to be taken
    fresh_block, fresh_wall = rank_one_algebra(), wall_algebra()
    assert fresh_block is not ctx.algebra and fresh_block == ctx.algebra
    assert fresh_wall is not ctx.wall and fresh_wall == ctx.wall
    assert fresh_block != fresh_wall
    cases = (
        (ctx.pi_pull, fresh_wall, ctx.wall, {"w": 1}, {}),
        (ctx.pi_star, fresh_block, ctx.algebra, {"e": 1, "s": 1}, {"a": [[1]]}),
        (ctx.theta, fresh_block, ctx.algebra, {"e": 1, "s": 1}, {"a": [[1]]}),
    )
    for functor, fresh, own, dims, act in cases:
        m = Module(fresh, dims, act)
        assert functor.takes(m)
        got, want = functor.on_module(m), functor.on_module(Module(own, dims, act))
        assert got.algebra == want.algebra and _module_data(got) == _module_data(want)


def test_algebras_and_adjunctions_are_immutable(ctx):
    for obj, field, value in ((rank_one_algebra(), "name", "other"),
                              (ctx.adj1, "counit", ctx.adj2.counit)):
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)


def test_functors_reject_objects_of_the_other_category(ctx):
    line = Module(ctx.wall, {"w": 1})
    p_e = ctx.catalog.modules["P_e"]
    for functor, wrong in ((ctx.pi_star, line), (ctx.pi_pull, p_e), (ctx.theta, line)):
        with pytest.raises(BlockConstructionError):
            functor.on_module(wrong)
        with pytest.raises(BlockConstructionError):
            functor.on_map(identity_map(wrong))
    for nat, wrong in (("eps", line), ("etap", line), ("eta", p_e), ("epsp", p_e)):
        with pytest.raises(BlockConstructionError):
            getattr(ctx, nat).at(wrong)


def test_adjunction_triangles_fail_for_a_wrong_unit(ctx):
    for adj in (ctx.adj1, ctx.adj2):
        objects = [ctx.regular, Module(ctx.wall, {"w": 2})]
        assert adj.triangles_hold(objects)
        assert len(adj.triangles(objects)) == 2
        doubled = Adjunction(adj.left, adj.right, adj.unit + adj.unit, adj.counit, adj.name)
        assert not doubled.triangles_hold(objects)


def test_transpose_laws_report(ctx):
    rep = verify_adjunctions(ctx)
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]


def test_right_transpose_roundtrip(ctx):
    phis = ctx.wall_hom_basis()
    mods = [ctx.catalog.modules[n] for n in ("P_e", "Delta_s", "L_e")]
    for psi in phis:
        back = transpose(right_transpose(psi, ctx.adj2, ctx.adj2), ctx.adj2, ctx.adj2)
        assert back.equal_on(psi, mods)


# -- complexes ----------------------------------------------------------------------

def test_theta_star_on_standards(ctx):
    cat = ctx.catalog
    applied = ctx.theta_star().apply(cat.modules["Delta_e"]).complex
    assert applied.check_dsq()
    dims = applied.homology_dims()
    assert set(dims) == {0}
    assert cat.is_isomorphic(applied.homology(0), cat.modules["Delta_s"])


def test_theta_shriek_shifts_dominant_simple(ctx):
    cat = ctx.catalog
    applied = ctx.theta_shriek().apply(cat.modules["L_s"]).complex
    assert applied.homology_dims() == {-1: {"e": 0, "s": 1}}


def _two_term_complex(ctx):
    """Delta_s -> P_e in degrees 0 and 1, by an injective map."""
    cat = ctx.catalog
    from heckeo.block.functors import ChainComplex

    incl = None
    for f in hom_basis(cat.modules["Delta_s"], cat.modules["P_e"]):
        if f.is_injective():
            incl = f
    return ChainComplex(ctx.algebra, {0: cat.modules["Delta_s"], 1: cat.modules["P_e"]}, {0: incl})


def test_apply_to_chain_complex(ctx):
    # applying to a two-term complex must agree degreewise with d^2 = 0
    out = ctx.theta_star().apply(_two_term_complex(ctx)).complex
    assert out.check_dsq()
    assert sorted(out.entries) == [0, 1, 2]


def test_quasi_iso_computes_no_homology_module(ctx, monkeypatch):
    # exactness of the cone is read from ranks; the verdict itself is
    # guarded by test_is_quasi_iso_matches_the_homology_map_oracle
    from heckeo.block.functors import ChainComplex

    calls = []
    original = ChainComplex.homology

    def counted(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(ChainComplex, "homology", counted)
    for name in CATALOG_NAMES:
        for chain_map in (ctx.build_ev(ctx.catalog.modules[name]), ctx.build_coev(ctx.catalog.modules[name])):
            assert chain_map.is_quasi_iso(), name
    assert calls == []


def test_verify_equivalence_checks_each_chain_map_once(ctx, monkeypatch):
    from heckeo.block.functors import ChainMap

    calls = []
    original = ChainMap.is_chain_map

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ChainMap, "is_chain_map", counted)
    assert verify_equivalence(ctx).passed
    # one call from is_quasi_iso for each ev and coev on the catalog
    assert len(calls) == 2 * len(CATALOG_NAMES) == 20


def test_block_checks_compute_each_homology_once(ctx, monkeypatch):
    # one homology computation per degree and complex: the homology table
    # applies 20 complexes of two degrees, the switch 2
    from heckeo.block.functors import ChainComplex
    from heckeo.report import VerificationReport

    calls, per_check = [], {}
    homology, run = ChainComplex.homology, VerificationReport.run

    def counted(self, n):
        calls.append(n)
        return homology(self, n)

    def run_counted(self, name, fn):
        before = len(calls)
        run(self, name, fn)
        per_check[name] = len(calls) - before

    monkeypatch.setattr(ChainComplex, "homology", counted)
    monkeypatch.setattr(VerificationReport, "run", run_counted)
    assert suite(ctx, "all").passed
    assert per_check["block.theta_homology_table"] == 40
    assert per_check["block.tilting_projective_switch"] == 4


def test_each_differential_maps_entry_to_entry(monkeypatch):
    # the ends of every differential of an applied complex or a mapping cone
    # are the complex's own entries, and the ends of ev and coev in degree 0
    # are the entries of the complexes they map between
    from heckeo.block.functors import FunctorComplex, RankOneBlock

    built, evaluations = [], []
    apply, cone, evaluation = FunctorComplex.apply, ChainMap.cone, RankOneBlock._evaluation

    def recorded(keep, fn, out=lambda x: x):
        def call(*args, **kwargs):
            got = fn(*args, **kwargs)
            keep.append(out(got))
            return got
        return call

    monkeypatch.setattr(FunctorComplex, "apply", recorded(built, apply, lambda a: a.complex))
    monkeypatch.setattr(ChainMap, "cone", recorded(built, cone))
    monkeypatch.setattr(RankOneBlock, "_evaluation", recorded(evaluations, evaluation))
    assert suite(build_rank_one(), "all").passed
    assert cli.run(["block-check", "--format", "csv"])[0] == 0
    assert len(built) > 100 and len(evaluations) == 2 * len(CATALOG_NAMES)
    for cx in built:
        for n in cx.degrees():
            if n + 1 in cx.entries:
                assert cx.diff(n).src is cx.entry(n) and cx.diff(n).dst is cx.entry(n + 1)
    for f in evaluations:
        assert f.comp(0).src is f.src.entry(0) and f.comp(0).dst is f.dst.entry(0)


def test_block_check_module_and_elimination_counts_stay_pinned(monkeypatch):
    # one `block-check --suite all` and one `--format csv`, counting every
    # Module built, every rref, every applied complex built, every zero map
    # and every map built through the checked `ModuleMap` constructor (the
    # results of elimination; a map that holds by construction is wrapped),
    # each within a one-sided margin of its pin
    from heckeo.block import algebra
    from heckeo.block.functors import AppliedComplex

    counts = {"Module": 0, "rref": 0, "applied": 0, "zero_map": 0, "ModuleMap": 0}
    init, rref, applied = Module.__init__, linalg.rref, AppliedComplex.__init__
    zero, map_init = algebra.zero_map, ModuleMap.__init__

    def counted_init(self, *args, **kwargs):
        counts["Module"] += 1
        init(self, *args, **kwargs)

    def counted_map_init(self, *args, **kwargs):
        counts["ModuleMap"] += 1
        map_init(self, *args, **kwargs)

    def counted_rref(a):
        counts["rref"] += 1
        return rref(a)

    def counted_applied(self, *args):
        counts["applied"] += 1
        applied(self, *args)

    def counted_zero(src, dst):
        counts["zero_map"] += 1
        return zero(src, dst)

    monkeypatch.setattr(Module, "__init__", counted_init)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(AppliedComplex, "__init__", counted_applied)
    monkeypatch.setattr(algebra, "zero_map", counted_zero)
    monkeypatch.setattr(ModuleMap, "__init__", counted_map_init)
    got = {}
    for run in (["--suite", "all"], ["--format", "csv"]):
        counts.update(dict.fromkeys(counts, 0))
        assert cli.run(["block-check", *run])[0] == 0
        got[run[-1]] = dict(counts)
    pinned = {"all": {"Module": 386, "rref": 797, "applied": 45, "zero_map": 240, "ModuleMap": 107},
              "csv": {"Module": 67, "rref": 177, "applied": 18, "zero_map": 0, "ModuleMap": 4}}
    margin = 0.02
    for run, pins in pinned.items():
        for what, pin in pins.items():
            assert got[run][what] <= pin * (1 + margin), (run, what, got[run][what])


def test_every_map_wrapped_without_checks_is_well_formed(monkeypatch):
    # `_wrap` runs none of the public constructor's checks, so every map it
    # builds in one `block-check --suite all` and one `--format csv` is
    # checked here: one exactly shaped Mat per vertex, both modules over one
    # algebra, and the matrices commuting with the arrows
    from heckeo.block import algebra, functors

    wrap, built, bad = algebra._wrap, [0], []

    def checked_wrap(src, dst, mats):
        f = wrap(src, dst, mats)
        built[0] += 1
        shaped = mats.keys() == set(src.algebra.vertices) and all(
            type(m) is linalg.Mat and (m.nrows, m.ncols) == (dst.dims[v], src.dims[v])
            and len(m.rows) == m.nrows and all(len(row) == m.ncols for row in m.rows)
            for v, m in mats.items()
        )
        if not (src.algebra == dst.algebra and shaped and f.commutes()):
            bad.append((src, dst, {v: linalg.shape(m) for v, m in mats.items()}))
        return f

    monkeypatch.setattr(algebra, "_wrap", checked_wrap)
    monkeypatch.setattr(functors, "_wrap", checked_wrap)
    codes = [cli.run(["block-check", *run])[0] for run in (["--suite", "all"], ["--format", "csv"])]
    assert built[0] > 0 and bad == [], bad[:3]
    assert codes == [0, 0]


def test_a_second_suite_on_one_block_builds_no_applied_complex(monkeypatch):
    # Theta*, Theta!, Theta*Theta!, Theta!Theta* and Theta*Theta* each keep
    # their applied complexes, so the first suite builds every one it reads
    from heckeo.block.functors import AppliedComplex

    fresh = build_rank_one()
    assert suite(fresh, "all").passed
    built, init = [], AppliedComplex.__init__
    monkeypatch.setattr(AppliedComplex, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    assert suite(fresh, "all").passed
    assert built == []


def test_dropped_block_is_freed_without_the_cycle_collector():
    # functors hold the catalog, complexes their algebra and the (co)units
    # the functors they apply, so nothing the memos keep points back at the
    # block and its last reference going frees it and every memo
    gc.disable()
    try:
        ctx = build_rank_one()
        assert suite(ctx, "all").passed
        refs = weakref.ref(ctx), weakref.ref(ctx.catalog)
        del ctx
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_ev_coev_compose_the_two_composites_once(monkeypatch):
    from heckeo.block.functors import FunctorComplex

    calls = []
    compose = FunctorComplex.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(FunctorComplex, "compose", counted)
    fresh = build_rank_one()
    for name in CATALOG_NAMES:
        fresh.build_ev(fresh.catalog.modules[name])
        fresh.build_coev(fresh.catalog.modules[name])
    assert len(CATALOG_NAMES) == 10
    assert len(calls) <= 2


def _recorded_block(monkeypatch):
    """A fresh block, with every atom image its functors return and every
    evaluation of a memoized (co)unit recorded as (memo, module, component)."""
    from heckeo.block import functors

    images, evaluations = [], []
    atom_module, cache = functors.Functor._atom_module, functors.cache

    def recorded_image(self, atom, m):
        out = atom_module(self, atom, m)
        images.append((atom, out))
        return out

    def recorded(fn):
        def evaluate(m):
            out = fn(m)
            evaluations.append((evaluate, m, out))
            return out
        return cache(evaluate)

    monkeypatch.setattr(functors.Functor, "_atom_module", recorded_image)
    monkeypatch.setattr(functors, "cache", recorded)
    return build_rank_one(), images, evaluations


def test_block_checks_build_each_image_and_component_once(monkeypatch):
    fresh, images, evaluations = _recorded_block(monkeypatch)
    assert suite(fresh, "all").passed
    # one image object for each atom and dimension
    by_key = {}
    for atom, out in images:
        by_key.setdefault((atom, out.dimension_vector()), set()).add(id(out))
    assert all(len(ids) == 1 for ids in by_key.values()), by_key
    assert len(images) > 10 * len(by_key)
    # each memoized (co)unit evaluated at most once on each module object; the
    # record holds every module, so no two of them share an id
    seen = [(id(memo), id(m)) for memo, m, _ in evaluations]
    assert len(seen) == len(set(seen))
    walls = [fresh.pi_star.on_module(m) for m in fresh.catalog.modules.values()]
    for nat, objects in ((fresh.eps, fresh.catalog.modules.values()),
                         (fresh.etap, fresh.catalog.modules.values()),
                         (fresh.eta, walls), (fresh.epsp, walls)):
        assert all(nat.at(m) is nat.at(m) for m in objects)


def test_block_checks_leave_memoized_images_and_components_unchanged(monkeypatch):
    fresh, _, evaluations = _recorded_block(monkeypatch)
    assert suite(fresh, "all").passed
    images = [(out, _module_data(out)) for out in fresh.catalog.images.values()]
    components = [(out, _map_data(out)) for _, _, out in evaluations]
    applied = [(out, _complex_data(out.complex)) for _, _, out in _memoized_applied(fresh)]
    # Theta*, Theta!, their two composites and Theta*Theta*, each on the
    # nine module objects of the catalog
    assert len(applied) == 5 * 9
    assert suite(fresh, "all").passed
    # the second run reads every (co)unit component and applied complex the
    # first one built
    assert len(evaluations) == len(components)
    assert [out for _, _, out in _memoized_applied(fresh)] == [out for out, _ in applied]
    assert all(_module_data(out) == data for out, data in images)
    assert all(_map_data(out) == data for out, data in components)
    assert all(_complex_data(out.complex) == data for out, data in applied)


def _memoized_applied(ctx):
    """(complex, module, applied complex) for every complex the block keeps,
    Theta*, Theta! and the composites it formed, and every module it was
    applied to."""
    return [(fc, m, out) for fc in ctx._complexes.values() for m, out in fc._applied.items()]


def test_each_memoized_applied_complex_matches_the_two_builder_oracle():
    fresh = build_rank_one()
    assert suite(fresh, "all").passed
    applied = _memoized_applied(fresh)
    assert len(applied) == 5 * 9
    for fc, m, got in applied:
        _assert_same_applied(got, apply_by_positions(fc, m))


def _kept_products(ctx):
    """Theta*Theta!, Theta!Theta* and Theta*Theta*, each with the pair of
    complexes it is built from, read from the block's memo."""
    ts, tsh = ctx.theta_star(), ctx.theta_shriek()
    return [(ctx._composite(a, b), (a, b)) for a, b in ((ts, tsh), (tsh, ts), (ts, ts))]


def test_apply_builds_one_complex_per_module_object(ctx):
    ts, tsh = ctx.theta_star(), ctx.theta_shriek()
    assert ts is ctx.theta_star() and tsh is ctx.theta_shriek()
    mods = ctx.catalog.modules
    for fc in (ts, tsh, *(fc for fc, _ in _kept_products(ctx))):
        for name in CATALOG_NAMES:
            assert fc.apply(mods[name]) is fc.apply(mods[name])
        # D_s is the module object of P_e; an equal module is another key
        assert fc.apply(mods["D_s"]) is fc.apply(mods["P_e"])
        assert fc.apply(mods["D_e"]) is not fc.apply(mods["L_e"])
        # a chain complex is applied afresh on each call
        target = module_as_complex(mods["L_e"])
        assert fc.apply(target) is not fc.apply(target)


def test_one_suite_keeps_five_complexes_in_one_memo():
    fresh = build_rank_one()
    assert suite(fresh, "all").passed
    products = _kept_products(fresh)
    assert len(fresh._complexes) == 5
    assert set(fresh._complexes) == {fresh.eps, fresh.etap, *(pair for _, pair in products)}
    for fc, (a, b) in products:
        assert fresh._composite(a, b) is fc and fresh._complexes[a, b] is fc
    assert suite(fresh, "all").passed
    assert len(fresh._complexes) == 5


def test_replaced_units_and_entries_miss_the_complex_memos(ctx):
    mods = ctx.catalog.modules
    ts, tsh = ctx.theta_star(), ctx.theta_shriek()
    products = _kept_products(ctx)
    old = {name: ts.apply(mods[name]) for name in CATALOG_NAMES}
    # the counit of adj1 is the differential of Theta*, the unit of adj2 that of Theta!
    for adj, role, build, kept in (("adj1", "counit", ctx.theta_star, ts),
                                   ("adj2", "unit", ctx.theta_shriek, tsh)):
        a = getattr(ctx, adj)
        nat = getattr(a, role)
        doubled = Nat(nat.src, nat.dst, lambda m, nat=nat: nat.at(m).scale(2))
        unit, counit = (doubled, a.counit) if role == "unit" else (a.unit, doubled)
        with patch.object(ctx, adj, Adjunction(a.left, a.right, unit, counit, a.name)):
            new = build()
            assert new is not kept and new._applied == {}
            assert new.diffs[new.degrees()[0]][(0, 0)] is doubled
            assert ctx._complexes[doubled] is new
            # a composite with the replaced complex as a factor is new and
            # unapplied; one without it, Theta*Theta* beside a new Theta!, hits
            for (got, pair), (prev, prev_pair) in zip(_kept_products(ctx), products):
                if kept in prev_pair:
                    assert got is not prev and got._applied == {} and new in pair
                else:
                    assert got is prev and pair == prev_pair
        # the old keys hit again once the unit is restored
        assert ctx.theta_star() is ts and ctx.theta_shriek() is tsh
        assert all(got is prev for (got, _), (prev, _) in zip(_kept_products(ctx), products))
    # a swapped entry names another module object, so apply reads that
    # object's complex, never the one memoized for the entry's old module
    with patch.dict(mods, {"P_s": mods["L_s"]}):
        got = ts.apply(mods["P_s"])
        assert got is old["L_s"] and got is not old["P_s"]
        _assert_same_applied(got, apply_by_positions(ts, mods["L_s"]))
    assert ts.apply(mods["P_s"]) is old["P_s"]


def test_map_algebra_results_equal_checked_maps(ctx):
    mods = ctx.catalog.modules
    x, y, z = mods["Delta_s"], mods["P_e"], mods["nabla_s"]
    fs, gs = hom_basis(x, y), hom_basis(y, z)
    assert fs and gs
    for f in fs:
        for g in gs:
            got = g @ f
            want = ModuleMap(x, z, {v: linalg.mmul(g.mats[v], f.mats[v]) for v in f.mats})
            assert type(got) is ModuleMap and got.src is x and got.dst is z
            assert _map_data(got) == _map_data(want)
        for other in fs:
            got, want = f + other, ModuleMap(x, y, {
                v: linalg.madd(m, other.mats[v]) for v, m in f.mats.items()})
            assert (got.src, got.dst) == (x, y) and _map_data(got) == _map_data(want)
        got, want = -f, ModuleMap(x, y, {v: linalg.mneg(m) for v, m in f.mats.items()})
        assert (got.src, got.dst) == (x, y) and _map_data(got) == _map_data(want)
        for c in (0, 3, Fraction(-2, 3)):
            got = f.scale(c)
            want = ModuleMap(x, y, {v: linalg.mscale(c, m) for v, m in f.mats.items()})
            assert (got.src, got.dst) == (x, y) and _map_data(got) == _map_data(want)
    # composition keeps its shape and algebra tests
    with pytest.raises(BlockConstructionError, match="composition shape mismatch"):
        fs[0] @ fs[0]
    alg = rank_one_algebra()
    renamed = PathAlgebra("renamed", alg.vertices, alg.arrows, alg.basis, alg.source,
                          alg.target, alg.arrow_word, alg.dead_words)
    stranger = Module(renamed, {"e": 1})
    with pytest.raises(BlockConstructionError, match="different algebras"):
        identity_map(stranger) @ identity_map(mods["L_e"])


def test_each_sub_suite_on_a_fresh_block_matches_the_full_suite(ctx):
    suite(ctx, "all")
    warm = {c.name: (c.passed, c.detail) for c in suite(ctx, "all").checks}
    for which in ("catalog", "adjunctions", "equivalence", "tilting"):
        rows = [(c.name, c.passed, c.detail) for c in suite(build_rank_one(), which).checks]
        assert rows and rows == [(name, *warm[name]) for name, _, _ in rows], which


def _exact(m):
    """A matrix's shape and entries, each with its type."""
    return m.nrows, m.ncols, [[(type(x), x) for x in row] for row in m.rows]


def _module_data(m):
    return m.dims, {label: _exact(a) for label, a in m.act.items()}


def _map_data(f):
    return f.src.dims, f.dst.dims, {v: _exact(m) for v, m in f.mats.items()}


def _compose_pairs(ctx):
    """(the complex built by `compose`, the one built by the oracle), for the
    theta complexes, the identity, and the 2- and 3-fold composites the
    block checks form."""
    ts, tsh, one = ctx.theta_star(), ctx.theta_shriek(), ctx.identity_complex()
    pairs = [(ts, ts), (tsh, tsh), (one, one)]
    for a, b in ((ts, tsh), (tsh, ts), (ts, ts), (one, ts), (ts, one)):
        pairs.append((a.compose(b), compose_by_origins(a, b)))
    lhs_new, lhs_old = ts.compose(tsh), compose_by_origins(ts, tsh)
    pairs.append((lhs_new.compose(ts), compose_by_origins(lhs_old, ts)))
    rhs_new, rhs_old = tsh.compose(ts), compose_by_origins(tsh, ts)
    pairs.append((ts.compose(rhs_new), compose_by_origins(ts, rhs_old)))
    return pairs


def test_compose_matches_the_two_builder_oracle(ctx):
    objects = _sample_mods(ctx)
    for got, want in _compose_pairs(ctx):
        assert got.degrees() == want.degrees()
        for n in want.degrees():
            assert ([(s.label, s.functor.word) for s in got.entries[n]]
                    == [(s.label, s.functor.word) for s in want.entries[n]])
        assert got.diffs.keys() == want.diffs.keys()
        for n, diff in want.diffs.items():
            assert list(got.diffs[n]) == list(diff)
            for key, nat in diff.items():
                for m in objects:
                    assert _map_data(got.diffs[n][key].at(m)) == _map_data(nat.at(m)), (n, key)


def _complex_data(cx):
    return ({n: _module_data(m) for n, m in cx.entries.items()},
            {n: _map_data(f) for n, f in cx.diffs.items()})


def _assert_same_applied(got, want):
    assert ({n: [(s.label, j) for s, j in ss] for n, ss in got.summands.items()}
            == {n: [(s.label, j) for s, j in ss] for n, ss in want.summands.items()})
    assert ({n: [p.dims for p in ps] for n, ps in got.parts.items()}
            == {n: [p.dims for p in ps] for n, ps in want.parts.items()})
    assert got.complex.degrees() == want.complex.degrees()
    assert _complex_data(got.complex) == _complex_data(want.complex)


def test_apply_matches_the_two_builder_oracle(ctx):
    targets = [ctx.catalog.modules[name] for name in CATALOG_NAMES] + [_two_term_complex(ctx)]
    for got_fc, want_fc in _compose_pairs(ctx)[:8]:
        for target in targets:
            _assert_same_applied(got_fc.apply(target), apply_by_positions(want_fc, target))


def test_direct_sum_and_block_map_match_the_composition_oracle(ctx):
    mods = ctx.catalog.modules
    zero = Module(ctx.algebra, {})
    theta_reg = ctx.theta.on_module(ctx.regular)
    for summands in ([mods["P_e"]], [mods["Delta_s"], mods["L_e"]],
                     [mods["L_s"], zero, mods["P_e"], mods["nabla_s"]],
                     [ctx.regular, mods["L_s"], theta_reg]):
        total, injs, projs = direct_sum(summands)
        want_total, want_injs, want_projs = direct_sum_by_entries(summands)
        assert _module_data(total) == _module_data(want_total)
        assert [_map_data(f) for f in injs + projs] == [_map_data(f) for f in want_injs + want_projs]
    srcs = [mods["Delta_s"], mods["P_e"], zero, mods["L_s"]]
    dsts = [mods["P_e"], mods["nabla_s"], mods["L_e"], theta_reg]
    blocks = {}
    for r, y in enumerate(dsts):
        for c, x in enumerate(srcs):
            basis = hom_basis(x, y)
            if basis and (r + c) % 3:
                blocks[(r, c)] = basis[-1]
    assert len(blocks) > 3
    for chosen in (blocks, {}):
        got = block_map(sum_module(srcs), sum_module(dsts), srcs, dsts, chosen)
        assert (_map_data(got)
                == _map_data(block_map_by_compositions(srcs, dsts, chosen)))


def test_cokernel_matches_the_extension_oracle_on_the_homology_table(ctx, monkeypatch):
    # every quotient the homology table takes, against the three-step oracle
    from heckeo.block import algebra

    quotients = []
    original = algebra.cokernel_of_columns

    def recorded(ambient, cols):
        got = original(ambient, cols)
        quotients.append((ambient, cols, got))
        return got

    monkeypatch.setattr(algebra, "cokernel_of_columns", recorded)
    for (variant, name), expected in EXPECTED_HOMOLOGY.items():
        applied = getattr(ctx, "theta_" + variant)().apply(ctx.catalog.modules[name]).complex
        del quotients[:]
        got = applied.homology_modules()
        assert set(got) == set(expected)
        assert len(quotients) == applied.degrees()[-1] - applied.degrees()[0] + 1
        for n, h in got.items():
            assert _module_data(h) == _module_data(homology_by_extension(applied, n)[0])
        for ambient, cols, (quot, proj) in quotients:
            want_quot, want_proj, _ = cokernel_by_extension(ambient, cols)
            assert _module_data(quot) == _module_data(want_quot), (variant, name)
            assert _map_data(proj) == _map_data(want_proj), (variant, name)


def test_is_quasi_iso_matches_the_homology_map_oracle(ctx):
    cat = ctx.catalog
    maps = [build(cat.modules[name]) for name in CATALOG_NAMES
            for build in (ctx.build_ev, ctx.build_coev)]
    assert len(maps) == 20
    for f in maps:
        assert f.is_quasi_iso() is is_quasi_iso_on_homology(f) is True
    # the zero map on L_e, and the maps between the exact P_e --id--> P_e
    # and zero, which are quasi-isomorphisms but not isomorphisms
    l_e, p_e = cat.modules["L_e"], cat.modules["P_e"]
    acyclic = ChainComplex(ctx.algebra, {0: p_e, 1: p_e}, {0: identity_map(p_e)})
    zero = ChainComplex(ctx.algebra, {}, {})
    others = [ChainMap(module_as_complex(l_e), module_as_complex(l_e), {0: zero_map(l_e, l_e)}),
              ChainMap(acyclic, zero, {}), ChainMap(zero, acyclic, {})]
    assert [f.is_quasi_iso() for f in others] == [False, True, True]
    assert [is_quasi_iso_on_homology(f) for f in others] == [False, True, True]


def test_homology_dims_match_the_extension_oracle(ctx):
    ts, tsh = ctx.theta_star(), ctx.theta_shriek()
    complexes = (ts, tsh, ts.compose(tsh), tsh.compose(ts), ts.compose(ts), tsh.compose(tsh))
    for fc in complexes:
        for name in CATALOG_NAMES:
            cx = fc.apply(ctx.catalog.modules[name]).complex
            want = {}
            for n in range(cx.degrees()[0], cx.degrees()[-1] + 1):
                h = homology_by_extension(cx, n)[0]
                if h.total_dim:
                    want[n] = h.dims
            assert cx.homology_dims() == want, (fc.words(0), name)


def test_rank_homology_raises_where_the_homology_modules_do(monkeypatch):
    # a negation that drops its sign gives the composites d^2 != 0, and the
    # rank formula must not read dimensions off such a complex
    monkeypatch.setattr(Nat, "__neg__", lambda self: self)
    fresh = build_rank_one()
    ev = fresh.build_ev(fresh.catalog.modules["Delta_e"])
    errors = []
    for ask in (ev.src.homology_modules, ev.src.homology_dims, ev.cone().homology_modules,
                ev.cone().homology_dims, ev.is_quasi_iso):
        with pytest.raises(BlockConstructionError) as raised:
            ask()
        errors.append(str(raised.value))
    assert errors == ["image does not land in the kernel"] * 5


def test_ev_coev_reports(ctx):
    rep = verify_equivalence(ctx)
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]


def test_tilting_reports(ctx):
    rep = verify_tilting(ctx)
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]


def test_k0_crosscheck_reports(ctx):
    rep = verify_k0_crosscheck(ctx)
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]


def test_full_block_suite(ctx):
    rep = suite(ctx, "all")
    assert rep.passed
    assert len(rep.checks) >= 15
    rep2 = verify_catalog(ctx)
    assert rep2.passed


def test_suite_selector_validates(ctx):
    with pytest.raises(ValueError):
        suite(ctx, "bogus")


# -- exact linear algebra ------------------------------------------------------------

def test_linalg_basics():
    a = linalg.mat([[1, 2], [3, 4]])
    assert linalg.rank(a) == 2
    inv = linalg.inverse(a)
    assert linalg.mat_eq(linalg.mmul(a, inv), linalg.eye(2))
    n = linalg.nullspace_basis(linalg.mat([[1, 1]]))
    assert (n.nrows, n.ncols) == (2, 1)
    assert n[0][0] + n[1][0] == 0
    with pytest.raises(ValueError):
        linalg.inverse(linalg.mat([[1, 2], [2, 4]]))


def test_linalg_degenerate_shapes():
    z = linalg.zeros(0, 3)
    assert (z.nrows, z.ncols) == (0, 3)
    prod = linalg.mmul(linalg.zeros(2, 0), linalg.zeros(0, 5))
    assert (prod.nrows, prod.ncols) == (2, 5)
    assert linalg.is_zero_mat(prod)
    assert linalg.rank(z) == 0
    k = linalg.kron(linalg.zeros(1, 0), linalg.eye(3))
    assert (k.nrows, k.ncols) == (3, 0)


def test_solve_exactness():
    a = linalg.mat([[2, 0], [0, 3]])
    b = linalg.mat([[1], [1]])
    x = linalg.solve(a, b)
    assert x[0][0] == Fraction(1, 2) and x[1][0] == Fraction(1, 3)
    assert linalg.solve(linalg.mat([[1], [1]]), linalg.mat([[1], [2]])) is None
