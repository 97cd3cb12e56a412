"""Every check can fail: a fault matrix.

Each row names one check, or a few, and one fault.  A fault is a context
manager that patches one table entry or one method of one built group or
K0 block, or one builder of the built rank-one block.  Inside it, the row's
checks must report FAIL, and the failing checks, with their details, must
be exactly the pinned ones; after it, the suite passes again.
"""

import json
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from heckeo import cli
from heckeo.block import build_rank_one
from heckeo.block.algebra import ChainMap, zero_map
from heckeo.block.checks import suite
from heckeo.block.functors import Adjunction, FunctorComplex, Nat
from heckeo.hecke import VIEWS, HeckeAlgebra
from heckeo.k0 import K0Block
from heckeo.laurent import ONE, ZERO, v
from heckeo.weyl import CartanDatum, build_group, weyl_suite


def answer(g, name, args, result):
    """g.<name>(*args) returns `result`; every other call is unchanged."""
    method = getattr(g, name)
    return patch.object(g, name, lambda *a: result if a == args else method(*a))


def drop_last_cover(g):
    covers = g.bruhat_covers()[:-1]
    return patch.object(g, "bruhat_covers", lambda: list(covers))


# check, fault on a built B3, pinned {failing check: detail}
WEYL_FAULTS = [
    pytest.param(
        "weyl.order_formula",
        lambda g: patch.object(g, "order", g.order - 1),
        {"weyl.order_formula": "order 47"},
        id="order_formula:one element lost"),
    pytest.param(
        "weyl.longest_element",
        lambda g: patch.object(g, "positive_roots", g.positive_roots[:-1]),
        {"weyl.longest_element": "l(w0) = 8, w0 is an involution"},
        id="longest_element:one root lost"),
    pytest.param(
        "weyl.length_duality",
        lambda g: answer(g, "multiply", (g.w0, g.simple(1)), g.simple(1)),
        {"weyl.length_duality": "l(w0 x) = l(w0) - l(x)"},
        id="length_duality:w0 s1 = s1"),
    pytest.param(
        "weyl.exchange_condition",
        lambda g: answer(g, "left_multiply_gen", (1, g.identity), g.identity),
        {"weyl.exchange_condition": "l(s x) = l(x) +- 1"},
        id="exchange_condition:s1 e = e"),
    pytest.param(
        "weyl.reduced_words",
        lambda g: answer(g, "element_by_word", (g.reduced_word(g.w0),), g.identity),
        {"weyl.reduced_words": "lexicographically minimal words multiply back"},
        id="reduced_words:the word of w0 gives e"),
    pytest.param(
        "weyl.bruhat_partial_order",
        lambda g: answer(g, "bruhat_leq", (g.w0, g.w0), False),
        {"weyl.bruhat_partial_order": "not reflexive"},
        id="bruhat_partial_order:w0 not <= w0"),
    pytest.param(
        "weyl.bruhat_partial_order",
        lambda g: answer(g, "bruhat_leq", (g.simple(2), g.simple(1)), True),
        {"weyl.bruhat_partial_order": "does not refine length"},
        id="bruhat_partial_order:s2 <= s1"),
    # e < w0 is not a cover, so only the rows of the covers of w0 still hold it
    pytest.param(
        "weyl.bruhat_partial_order",
        lambda g: answer(g, "bruhat_leq", (g.identity, g.w0), False),
        {"weyl.bruhat_partial_order": "not transitive"},
        id="bruhat_partial_order:e not <= w0"),
    pytest.param(
        "weyl.bruhat_partial_order",
        drop_last_cover,
        {"weyl.bruhat_partial_order": "not transitive"},
        id="bruhat_partial_order:one cover dropped"),
]


def failures(g):
    return {c.name: c.detail for c in weyl_suite(g).failures()}


def test_every_weyl_check_has_a_fault():
    names = {c.name for c in weyl_suite(build_group(CartanDatum("A", 1))).checks}
    assert names == {row.values[0] for row in WEYL_FAULTS}


@pytest.mark.parametrize("check,fault,pinned", WEYL_FAULTS)
def test_weyl_fault_fails_its_check(check, fault, pinned):
    g = build_group(CartanDatum("B", 3))
    assert failures(g) == {}
    with fault(g):
        assert check in pinned
        assert failures(g) == pinned
    assert failures(g) == {}


# -- the weyl, hecke and k0 suites on one K0 block ----------------------------------


def add_to_built_entry(alg, view, k, j, p):
    """Entry j of the built row k of a basis view gains p."""
    row = alg._view(view, k)
    return patch.dict(alg._views[view], {k: {**row, j: row.get(j, ZERO) + p}})


build_dual_to_bC = HeckeAlgebra._build_dual_to_bC


def dual_row_below_diagonal(alg, k):
    """`_build_dual_to_bC`, but row 1 gets v^2 below its diagonal."""
    row = build_dual_to_bC(alg, k)
    return {**row, 0: v**2} if k == 1 else row


@contextmanager
def rebuilt_dual_rows(alg):
    """The dual rows are built again, by `dual_row_below_diagonal`."""
    with patch.dict(alg._views["dual_to_bC"], clear=True), \
            patch.dict(alg._views["dual_to_C"], clear=True), \
            patch.object(alg, "_build_dual_to_bC", lambda k: dual_row_below_diagonal(alg, k)):
        yield


def drop_diagonal_coordinate(blk, x):
    """`_coords`, the id-keyed core of coords_in_basis that the k0 checks
    read, leaves out the coordinate of [D_x] at x itself."""
    coords = blk._coords

    def faulty(coeffs, kind):
        out = coords(coeffs, kind)
        if coeffs == {x.idx: ONE}:
            del out[x.idx]
        return out

    return patch.object(blk, "_coords", faulty)


def cleared_mask_bit(g, x, y):
    """The built Bruhat row mask of y loses the bit of x."""
    rows = list(g._leq_rows)
    rows[y] &= ~(1 << x)
    return patch.object(g, "_leq_rows", rows)


UNITRIANGULAR = "exception: ValueError('dual_to_bC element 1 is not unitriangular')"


def wrong_d_row(blk):
    """d(H_x) at x = 1.3 gains v^2 at e."""
    return add_to_built_entry(blk.hecke, "d", 5, 0, v**2)


# every check built on bar, memoized or not, reads the wrong row
WRONG_D_ROW = {
    "hecke.bar_is_involution": "52 elements",
    "hecke.bar_is_ring_automorphism": "4^2 products",
    "hecke.involutions_pairwise_commute": "",
    "hecke.kl_recursion_matches_bar_solver":
        "exception: ArithmeticError('bar defect is not antisymmetric; solver broken')",
    "hecke.kl_selfdual_and_degree_bounds": "C_1.3 not self-dual",
    "k0.duality_fixes_simples": "dual Verma view inconsistent",
    "k0.duality_intertwines_bar": "duality does not intertwine the bar involution"}

# checks, fault on a built B3 block, pinned {failing check: detail}; the row
# masks are read by the weyl check that tests them and by the support checks
HECKE_K0_FAULTS = [
    pytest.param(
        ("hecke.dual_bases_orthonormal", "hecke.hw0_times_C_is_dual_basis",
         "k0.projectives_dual_to_simples", "k0.tilting_projective_switch"),
        lambda blk: add_to_built_entry(blk.hecke, "dual_to_bC", 1, blk.group.w0.idx, v**2),
        {"hecke.dual_bases_orthonormal": "dual_to_bC fails at (1, 1.2.1.3.2.1.3.2.3)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 2.1.3.2.1.3.2.3",
         "k0.tilting_char_graded": "fails at (x,y)=(2.1.3.2.1.3.2.3, e)",
         "k0.bgg_reciprocity_graded": "fails at (P_1, D_1.2.1.3.2.1.3.2.3)",
         "k0.ringel_end_dims": "dim End mismatch at 1: 43 != 40",
         "k0.tilting_projective_switch": "fails at 2.1.3.2.1.3.2.3",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (1, 1.2.1.3.2.1.3.2.3)"},
        id="dual_to_bC:v^2 at (1, w0)"),
    pytest.param(
        ("hecke.dual_bases_orthonormal", "hecke.hw0_times_C_is_dual_basis"),
        lambda blk: rebuilt_dual_rows(blk.hecke),
        {name: UNITRIANGULAR for name in (
            "hecke.dual_bases_orthonormal", "hecke.hw0_times_C_is_dual_basis",
            "k0.basis_changes_unitriangular", "k0.tilting_char_graded",
            "k0.bgg_reciprocity_graded", "k0.ringel_end_dims",
            "k0.tilting_projective_switch", "k0.projectives_dual_to_simples")},
        id="dual_to_bC:row 1 built with an entry below its diagonal"),
    pytest.param(
        ("k0.bgg_reciprocity_graded", "k0.inverse_kl_positivity"),
        lambda blk: drop_diagonal_coordinate(blk, blk.group.element(1)),
        {"k0.tilting_char_v1": "fails at (x,y)=(2.1.3.2.1.3.2.3, 2.1.3.2.1.3.2.3)",
         "k0.bgg_reciprocity_graded": "fails at (P_1, D_1)",
         "k0.inverse_kl_positivity": "diagonal at 1 is not 1"},
        id="coords_in_basis:[D_1] loses its coordinate at 1"),
    pytest.param(
        tuple(WRONG_D_ROW), wrong_d_row, WRONG_D_ROW, id="d:v^2 at (1.3, e)"),
    pytest.param(
        ("weyl.bruhat_partial_order", "hecke.kl_selfdual_and_degree_bounds",
         "k0.basis_changes_unitriangular", "k0.inverse_kl_positivity"),
        lambda blk: cleared_mask_bit(blk.group, 0, blk.group.w0.idx),
        {"weyl.bruhat_partial_order": "differs from the cached row masks",
         "hecke.kl_selfdual_and_degree_bounds": "C_1.2.1.3.2.1.3.2.3 supported above Bruhat interval",
         "k0.basis_changes_unitriangular": "Simple not Bruhat-unitriangular at (e, 1.2.1.3.2.1.3.2.3)",
         "k0.inverse_kl_positivity": "support above Bruhat interval at 1.2.1.3.2.1.3.2.3"},
        id="leq_rows:e lost from the row of w0"),
]


@pytest.fixture(scope="module")
def k0_block():
    return K0Block(build_group(CartanDatum("B", 3)))


def hecke_k0_failures(blk):
    reports = weyl_suite(blk.group), blk.hecke.suite(), blk.suite()
    return {c.name: c.detail for rep in reports for c in rep.failures()}


@pytest.mark.parametrize("checks,fault,pinned", HECKE_K0_FAULTS)
def test_hecke_k0_fault_fails_its_checks(k0_block, checks, fault, pinned):
    assert hecke_k0_failures(k0_block) == {}
    with fault(k0_block):
        assert set(checks) <= set(pinned)
        assert hecke_k0_failures(k0_block) == pinned
    assert hecke_k0_failures(k0_block) == {}


def test_a_wrong_d_row_fails_the_same_checks_on_a_fresh_block():
    # no bar memoized by a clean run, and no KL element solved, is kept
    # once the d row it read is replaced
    blk = K0Block(build_group(CartanDatum("B", 3)))
    with wrong_d_row(blk):
        assert hecke_k0_failures(blk) == WRONG_D_ROW


def unrelabelled_inverse_row(blk, view):
    """The row of s2 s1 in `view`, which is built as the row of its inverse
    s1 s2 relabelled through x -> x^-1, is that row copied unrelabelled."""
    g, alg = blk.group, blk.hecke
    x = g.multiply(g.simple(2), g.simple(1)).idx
    return patch.dict(alg._views[view], {x: dict(alg._view(view, g._inverse[x]))})


# checks, fault on a built B2 block, pinned {failing check: detail}: a view row
# replaced after a clean run, so every result derived from it must be derived
# again, whichever check derived it first
B2_FAULTS = [
    pytest.param(
        ("hecke.dual_bases_orthonormal", "k0.projectives_dual_to_simples"),
        lambda blk: add_to_built_entry(blk.hecke, "Cprime", blk.group.w0.idx, 1, v**-2),
        {"hecke.kl_selfdual_and_degree_bounds": "C'_1.2.1.2 not self-dual",
         "hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, 1.2.1.2)",
         "k0.bott_euler_form": "fails at x=1: -v^-3 + v^-2 != -v^-3",
         "k0.weyl_character_formula_v1": "v=1 coefficient at 1 is 0, wanted -1",
         "k0.tilting_char_v1": "fails at (x,y)=(2.1.2, e)",
         "k0.bgg_reciprocity_graded": "fails at (P_e, D_1.2.1.2)",
         "k0.inverse_kl_positivity": "negative multiplicity at (e, 1.2.1.2)",
         "k0.wall_action_on_simples_and_vermas": "(H_s + v)[L_x] != 0 at (1, 1.2.1.2)",
         "k0.duality_fixes_simples": "[L_1.2.1.2] not duality-fixed",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (e, 1.2.1.2)"},
        id="Cprime:v^-2 at (w0, 1)"),
    pytest.param(
        ("hecke.hw0_times_C_is_dual_basis", "k0.tilting_projective_switch"),
        lambda blk: add_to_built_entry(blk.hecke, "C", 1, 0, v**-2),
        {"hecke.kl_selfdual_and_degree_bounds": "C_1 not self-dual",
         "hecke.kl_recursion_matches_bar_solver": "recursion and solver disagree at 1",
         "hecke.dual_bases_orthonormal": "dual_to_C fails at (e, 1)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 1",
         "k0.tilting_char_graded": "fails at (x,y)=(1, e)",
         "k0.tilting_char_v1": "fails at (x,y)=(1, e)",
         "k0.ringel_end_dims": "dim End mismatch at 2.1.2: 2 != 5",
         "k0.tilting_projective_switch": "fails at 1"},
        id="C:v^-2 at (1, e)"),
    pytest.param(
        ("hecke.kl_selfdual_and_degree_bounds", "hecke.kl_recursion_matches_bar_solver"),
        lambda blk: unrelabelled_inverse_row(blk, "C"),
        {"hecke.kl_selfdual_and_degree_bounds": "C_2.1 leading term wrong",
         "hecke.kl_recursion_matches_bar_solver": "recursion and solver disagree at 2.1",
         "hecke.dual_bases_orthonormal": "dual_to_C fails at (1.2, 2.1)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 2.1",
         "k0.basis_changes_unitriangular": "Tilting diagonal not 1 at 2.1",
         "k0.tilting_char_graded": "fails at (x,y)=(2.1, 1.2)",
         "k0.tilting_char_v1": "fails at (x,y)=(2.1, 1.2)",
         "k0.tilting_projective_switch": "fails at 2.1"},
        id="C:the row of 2.1 is the row of 1.2 unrelabelled"),
    pytest.param(
        ("hecke.bar_is_involution", "k0.duality_intertwines_bar"),
        lambda blk: unrelabelled_inverse_row(blk, "d"),
        {"hecke.bar_is_involution": "12 elements",
         "hecke.bar_is_ring_automorphism": "4^2 products",
         "hecke.involutions_pairwise_commute": "",
         "hecke.kl_selfdual_and_degree_bounds": "C_2.1 not self-dual",
         "hecke.kl_recursion_matches_bar_solver":
             "exception: ArithmeticError('bar solver failed to reach a self-dual element')",
         "k0.duality_intertwines_bar": "duality does not intertwine the bar involution",
         "k0.basis_changes_unitriangular": "DualVerma diagonal not 1 at 2.1",
         "k0.duality_fixes_simples": "dual Verma view inconsistent"},
        id="d:the row of 2.1 is the row of 1.2 unrelabelled"),
    pytest.param(
        ("hecke.dual_bases_orthonormal", "k0.projectives_dual_to_simples"),
        lambda blk: unrelabelled_inverse_row(blk, "dual_to_bC"),
        {"hecke.dual_bases_orthonormal": "dual_to_bC fails at (2.1, 1.2)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 1.2",
         "k0.basis_changes_unitriangular": "Projective diagonal not 1 at 2.1",
         "k0.tilting_char_graded": "fails at (x,y)=(1.2, 1.2)",
         "k0.bgg_reciprocity_graded": "fails at (P_2.1, D_1.2)",
         "k0.tilting_projective_switch": "fails at 1.2",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (2.1, 1.2)"},
        id="dual_to_bC:the row of 2.1 is the row of 1.2 unrelabelled"),
]


@pytest.fixture(scope="module")
def b2_block():
    return K0Block(build_group(CartanDatum("B", 2)))


@pytest.mark.parametrize("checks,fault,pinned", B2_FAULTS)
def test_a_replaced_view_row_fails_its_checks_on_a_warm_block(b2_block, checks, fault, pinned):
    assert hecke_k0_failures(b2_block) == {}
    with fault(b2_block):
        assert set(checks) <= set(pinned)
        assert hecke_k0_failures(b2_block) == pinned
    assert hecke_k0_failures(b2_block) == {}


@pytest.mark.parametrize("checks,fault,pinned", B2_FAULTS)
def test_a_replaced_view_row_fails_the_same_checks_on_a_fresh_block(checks, fault, pinned):
    # every view row is built, so none is built from the replaced one, but
    # nothing is derived from the rows before the fault
    blk = K0Block(build_group(CartanDatum("B", 2)))
    for name in VIEWS:
        for k in range(blk.group.order):
            blk.hecke._view(name, k)
    with fault(blk):
        assert hecke_k0_failures(blk) == pinned
    assert hecke_k0_failures(blk) == {}


def broken_coords(*args):
    raise ArithmeticError("no coordinates")


# a table that fails to build fails the checks that read it, and verify says so
@pytest.mark.parametrize("suite_name,owner,name,fault,failing", [
    pytest.param(
        "hecke", HeckeAlgebra, "_build_dual_to_bC", dual_row_below_diagonal,
        {"hecke.dual_bases_orthonormal": UNITRIANGULAR,
         "hecke.hw0_times_C_is_dual_basis": UNITRIANGULAR},
        id="hecke:a dual row below its diagonal"),
    pytest.param(
        "k0", K0Block, "_coords", broken_coords,
        {name: "exception: ArithmeticError('no coordinates')" for name in (
            "k0.tilting_char_v1", "k0.bgg_reciprocity_graded", "k0.inverse_kl_positivity")},
        id="k0:coords_in_basis raises"),
])
def test_verify_reports_a_failed_table_build(suite_name, owner, name, fault, failing):
    with patch.object(owner, name, fault):
        code, text = cli.run(["verify", "--type", "A2", "--suite", suite_name, "--format", "json"])
        _, table = cli.run(["verify", "--type", "A2", "--suite", suite_name, "--format", "table"])
    assert code == 1
    checks = json.loads(text)["checks"]
    assert {c["name"]: c["detail"] for c in checks if not c["pass"]} == failing
    assert {f"  FAIL  {name}" for name in failing} <= set(table.splitlines())


# -- the rank-one block ------------------------------------------------------------


def zero_ev_on(ctx, name):
    """build_ev gives the zero chain map on the catalog entry `name`: still a
    chain map, but not a quasi-isomorphism, so only the cone can tell."""
    m, build = ctx.catalog.modules[name], ctx.build_ev

    def faulty(x):
        f = build(x)
        if x is not m:
            return f
        return ChainMap(f.src, f.dst, {n: zero_map(c.src, c.dst) for n, c in f.comps.items()})

    return patch.object(ctx, "build_ev", faulty)


def zero_shriek_unit(ctx):
    """Theta! = (Id -> theta) with the zero map for its unit."""
    shriek = ctx.theta_shriek

    def faulty():
        fc = shriek()
        unit = fc.diffs[-1][(0, 0)]
        zero = Nat(unit.src, unit.dst, lambda m: zero_map(unit.at(m).src, unit.at(m).dst))
        return FunctorComplex(fc.algebra, fc.entries, {-1: {(0, 0): zero}})

    return patch.object(ctx, "theta_shriek", faulty)


def scaled(ctx, adj, role, c):
    """The <role> of ctx.<adj> times c, patched in its one store: ctx.eps,
    ctx.eta, ctx.etap and ctx.epsp read the adjunctions, which are immutable,
    so the adjunction is rebuilt with the scaled (co)unit."""
    old = getattr(ctx, adj)
    nat = getattr(old, role)
    times_c = Nat(nat.src, nat.dst, lambda m: nat.at(m).scale(c))
    unit, counit = (times_c, old.counit) if role == "unit" else (old.unit, times_c)
    return patch.object(ctx, adj, Adjunction(old.left, old.right, unit, counit, old.name))


# a doubled (co)unit breaks its triangle identities, the transposes across its
# adjunction, and the composite (co)evaluation whose chain-map condition is
# that triangle
TRIANGLES = "both adjunctions, on catalog modules, the regular module and walls"
DOUBLED_COUNIT = {
    "block.triangle_identities": TRIANGLES,
    "block.transpose_laws": "transpose of the identity is not the identity",
    "block.derived_equivalence_ev_coev": "coev is not a chain map on Delta_e"}
DOUBLED_UNIT = {
    "block.triangle_identities": TRIANGLES,
    "block.transpose_laws": "right transpose does not invert the transpose",
    "block.derived_equivalence_ev_coev": "ev is not a chain map on Delta_e"}
# a zero counit also vanishes where the key lemma forbids it, is not onto the
# costandards, and splits Theta* M into theta M and M[-1], so Theta* M is not
# concentrated in one degree wherever theta M is nonzero
ZEROED_COUNIT = {
    "block.triangle_identities": TRIANGLES,
    "block.keylem_nonvanishing": "counit vanishes on a module with nonzero restriction",
    "block.unit_counit_on_flagged": "counit not surjective on nabla_e",
    "block.transpose_laws": "transpose of the identity is not the identity",
    "block.theta_homology_table":
        "Theta^star(Delta_e): {0: {'P_e': 1}, 1: {'L_e': 1}} != {0: {'Delta_s': 1}}",
    "block.concentration_on_flagged": "Theta* not concentrated on nabla_e",
    "block.derived_equivalence_ev_coev": "ev not a quasi-isomorphism on Delta_e",
    "block.tilting_projective_switch": "Theta*(D_e) not concentrated in degree 0",
    "block.k0_tilting_switch_crosscheck": "categorical switch does not match"}


def doubled_counit(ctx):
    return scaled(ctx, "adj1", "counit", 2)


def doubled_unit(ctx):
    return scaled(ctx, "adj2", "unit", 2)


def zeroed_counit(ctx):
    return scaled(ctx, "adj1", "counit", 0)


# check, fault on the built block, pinned {failing check: detail}
BLOCK_FAULTS = [
    pytest.param(
        "block.derived_equivalence_ev_coev",
        lambda ctx: zero_ev_on(ctx, "nabla_s"),
        {"block.derived_equivalence_ev_coev": "ev not a quasi-isomorphism on nabla_s"},
        id="derived_equivalence_ev_coev:ev on nabla_s is zero"),
    pytest.param(
        "block.theta_homology_table",
        zero_shriek_unit,
        {"block.theta_homology_table":
            "Theta^shriek(Delta_e): {-1: {'L_e': 1}, 0: {'P_e': 1}} != {0: {'nabla_s': 1}}",
         "block.concentration_on_flagged": "Theta! not concentrated on Delta_e"},
        id="theta_homology_table:the unit of Theta! is zero"),
    pytest.param(
        "block.triangle_identities", doubled_counit, DOUBLED_COUNIT,
        id="triangle_identities:the counit of pi_pull -| pi_star is doubled"),
    pytest.param(
        "block.triangle_identities", doubled_unit, DOUBLED_UNIT,
        id="triangle_identities:the unit of pi_star -| pi_pull is doubled"),
    pytest.param(
        "block.keylem_nonvanishing", zeroed_counit, ZEROED_COUNIT,
        id="keylem_nonvanishing:the counit of pi_pull -| pi_star is zero"),
]


@pytest.fixture(scope="module")
def block():
    return build_rank_one()


def block_failures(ctx):
    return {c.name: c.detail for c in suite(ctx, "all").failures()}


@pytest.mark.parametrize("check,fault,pinned", BLOCK_FAULTS)
def test_block_fault_fails_its_check(block, check, fault, pinned):
    assert block_failures(block) == {}
    with fault(block):
        assert check in pinned
        assert block_failures(block) == pinned
    assert block_failures(block) == {}


@pytest.mark.parametrize("fault,pinned", [
    pytest.param(doubled_counit, DOUBLED_COUNIT, id="counit of pi_pull -| pi_star"),
    pytest.param(doubled_unit, DOUBLED_UNIT, id="unit of pi_star -| pi_pull"),
])
def test_a_doubled_unit_or_counit_fails_the_same_checks_on_a_fresh_block(fault, pinned):
    # no image, component or composite a clean run memoized is read once the
    # Nat it came from is replaced
    ctx = build_rank_one()
    with fault(ctx):
        assert block_failures(ctx) == pinned


def test_a_zero_counit_fails_the_same_checks_on_a_fresh_block():
    ctx = build_rank_one()
    with zeroed_counit(ctx):
        assert block_failures(ctx) == ZEROED_COUNIT
