"""Every check can fail: a fault matrix.

Each row names one check, or a few, and one fault.  A fault is a context
manager that patches one table entry or one method of one built group or
K0 block, one constant of the Hecke action, or one builder or catalog
entry of the built rank-one block.  Inside it, the row's checks must report
FAIL, and the failing checks, with their details, must be exactly the
pinned ones; after it, the suite passes again.
"""

import json
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from heckeo import cli, hecke
from heckeo.block import build_rank_one, functors
from heckeo.block.algebra import ChainMap, zero_map
from heckeo.block.checks import suite
from heckeo.block.functors import Adjunction, FunctorComplex, Nat
from heckeo.hecke import VIEWS, HeckeAlgebra
from heckeo.k0 import K0Block
from heckeo.laurent import ZERO, LaurentPoly, v
from heckeo.weyl import CartanDatum, build_group, weyl_suite


def answer(g, name, args, result):
    """g.<name>(*args) returns `result`; every other call is unchanged."""
    method = getattr(g, name)
    return patch.object(g, name, lambda *a: result if a == args else method(*a))


def lmult_entry(g, x, i, y):
    """Entry i of row x of the `_lmult` table itself, s_{i+1} x, is id y."""
    table = list(g._lmult)
    table[x] = [y if k == i else z for k, z in enumerate(table[x])]
    return patch.object(g, "_lmult", table)


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
        lambda g: patch.object(g, "n_positive_roots", g.n_positive_roots - 1),
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
    # the table the enumeration derives: the covers of s1 s2 read s1 e there
    pytest.param(
        "weyl.exchange_condition",
        lambda g: lmult_entry(g, 0, 0, 0),
        {"weyl.exchange_condition": "l(s x) = l(x) +- 1",
         "weyl.bruhat_partial_order": "not transitive"},
        id="exchange_condition:s1 e = e in the _lmult table"),
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


build_C = HeckeAlgebra._build_C


def upper_half_times_v(alg, k):
    """`_build_C`, but every entry at a z with sz < z, s the first letter of
    x, is v h_{sz,x} instead of v^-1 h_{sz,x}, the diagonal excepted: the
    rows keep their unit diagonal and their support."""
    g = alg.group
    row, s = build_C(alg, k), g._firsts[k]
    return {z: p.shifted(2) if z != k and g._lengths[g._lmult[z][s]] < g._lengths[z] else p
            for z, p in row.items()}


@contextmanager
def rebuilt_C_rows_upper_half_times_v(alg):
    """The C rows are built again, each from the faulty rows below it, by
    `upper_half_times_v`; the C' rows are b of them."""
    with patch.dict(alg._views["C"], clear=True), patch.dict(alg._views["Cprime"], clear=True), \
            patch.object(alg, "_build_C", lambda k: upper_half_times_v(alg, k)):
        for k in range(alg.group.order):
            alg._view("C", k)
        yield


def mu_off_by(alg, z, y, d):
    """`_mu`, which both W-graph recursions read, gives mu(z, y) + d for the
    elements named z and y, and every other mu unchanged."""
    g, mu = alg.group, alg._mu
    pair = g.parse_word(z).idx, g.parse_word(y).idx
    return patch.object(alg, "_mu", lambda *a: mu(*a) + d if a == pair else mu(*a))


@contextmanager
def dual_rows_rebuilt_with_mu_off_by(alg, z, y, d):
    """The dual rows are built again, reading mu(z, y) + d; once they are
    built, the Verma-in-simples recursion reads the right mu."""
    with patch.dict(alg._views["dual_to_bC"], clear=True), \
            patch.dict(alg._views["dual_to_C"], clear=True):
        with mu_off_by(alg, z, y, d):
            for k in range(alg.group.order):
                alg._view("dual_to_bC", k)
        yield


def cleared_mask_bit(g, x, y):
    """The built Bruhat row mask of y loses the bit of x."""
    rows = list(g._leq_rows)
    rows[y] &= ~(1 << x)
    return patch.object(g, "_leq_rows", rows)


UNITRIANGULAR = "exception: ValueError('dual_to_bC element 1 is not unitriangular')"


def wrong_d_row(blk):
    """d(H_x) at x = 1.3 gains v^2 at e."""
    return add_to_built_entry(blk.hecke, "d", 5, 0, v**2)


# every check built on bar, memoized or not, reads the wrong row; the ring
# automorphism check reads it through H_1 H_3, as its one sample product
# holding 1.3 has all 48 elements and is barred by Horner's rule
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
    # the dual rows are built, so only the Verma-in-simples recursion reads
    # mu, and it loses the W-graph edge from 2.1 to 1
    pytest.param(
        ("k0.bgg_reciprocity_graded", "k0.inverse_kl_positivity"),
        lambda blk: mu_off_by(blk.hecke, "1", "2.1", -1),
        {"k0.tilting_char_v1": "fails at (x,y)=(3.2.1.3.2.3, e)",
         "k0.bgg_reciprocity_graded": "fails at (P_1, D_1.2.1)",
         "k0.inverse_kl_positivity": "negative multiplicity at (1, 1.2.1)"},
        id="verma_in_simples:mu(1, 2.1) read as 0"),
    pytest.param(
        tuple(WRONG_D_ROW), wrong_d_row, WRONG_D_ROW, id="d:v^2 at (1.3, e)"),
    # the d rows are built, so only the Horner sums of `_bar`, which reach
    # _HORNER_FROM support elements on B3 and never on B2, read H_s^-1
    pytest.param(
        ("hecke.bar_is_ring_automorphism", "k0.duality_intertwines_bar"),
        lambda blk: patch.object(hecke, "_H_S_INV", (ZERO, ZERO)),
        {"hecke.bar_is_involution": "52 elements",
         "hecke.bar_is_ring_automorphism": "4^2 products",
         "k0.duality_intertwines_bar": "duality intertwining fails on a dense sample"},
        id="horner:d(H_s) drops v - v^-1 on ascents"),
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


def s2s1(blk):
    return blk.group.parse_word("2.1").idx


def d_column_entry_off_by_v(blk, y, z):
    """Entry z of column y of the d table, which the bar solver derives from
    the d rows and reads, gains v; the d rows stay as built."""
    alg, g = blk.hecke, blk.group
    y, z = g.parse_word(y).idx, g.parse_word(z).idx
    columns, key = alg._d_columns(), ("d columns",)
    faulty = list(columns)
    faulty[y] = {**columns[y], z: columns[y].get(z, ZERO) + v}
    return patch.dict(alg._derived, {key: (alg._derived[key][0], faulty)})


# checks, fault on a built B2 block, pinned {failing check: detail}: a view row
# replaced after a clean run, so every result derived from it must be derived
# again, whichever check derived it first; one mu off by one in one of the
# two W-graph recursions, the dual rows' or, with those built, the
# Verma-in-simples table's; or the C rows built again by a faulty step
B2_FAULTS = [
    pytest.param(
        ("hecke.dual_bases_orthonormal",),
        lambda blk: dual_rows_rebuilt_with_mu_off_by(blk.hecke, "1", "2.1", 1),
        {"hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, 2.1)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 1.2.1.2",
         "k0.tilting_char_graded": "fails at (x,y)=(1.2.1.2, e)",
         "k0.bgg_reciprocity_graded": "fails at (P_e, D_2.1)",
         "k0.ringel_end_dims": "dim End mismatch at e: 4 != 8",
         "k0.tilting_projective_switch": "fails at 1.2.1.2",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (e, 2.1)"},
        id="dual_to_bC:the recursion reads mu(1, 2.1) as 2"),
    pytest.param(
        ("k0.bgg_reciprocity_graded",),
        lambda blk: mu_off_by(blk.hecke, "1", "2.1", 1),
        {"k0.tilting_char_v1": "fails at (x,y)=(2.1.2, e)",
         "k0.bgg_reciprocity_graded": "fails at (P_1, D_1.2.1)",
         "k0.inverse_kl_positivity": "unshifted off-diagonal term at (1, 1.2.1)"},
        id="verma_in_simples:the recursion reads mu(1, 2.1) as 2"),
    pytest.param(
        ("hecke.dual_bases_orthonormal", "k0.projectives_dual_to_simples"),
        lambda blk: add_to_built_entry(blk.hecke, "Cprime", blk.group.w0.idx, 1, v**-2),
        {"hecke.kl_selfdual_and_degree_bounds": "C'_1.2.1.2 not self-dual",
         "hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, 1.2.1.2)",
         "k0.bott_euler_form": "fails at x=1: -v^-3 + v^-2 != -v^-3",
         "k0.weyl_character_formula_v1": "v=1 coefficient at 1 is 0, wanted -1",
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
    # the C rows keep their unit diagonal and support, so `_view` passes
    # them; the first row with an s-upper entry off its diagonal is 1.2
    pytest.param(
        ("hecke.kl_selfdual_and_degree_bounds", "hecke.kl_recursion_matches_bar_solver"),
        lambda blk: rebuilt_C_rows_upper_half_times_v(blk.hecke),
        {"hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, 1.2)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 1.2, 2.1, 1.2.1, 2.1.2, 1.2.1.2",
         "hecke.kl_recursion_matches_bar_solver": "recursion and solver disagree at 1.2",
         "hecke.kl_selfdual_and_degree_bounds": "C_1.2 not self-dual",
         "k0.bgg_reciprocity_graded": "fails at (P_1, D_1.2.1)",
         "k0.bott_euler_form": "fails at x=e: 2*v^-4 - v^-2 != v^-4",
         "k0.duality_fixes_simples": "[L_1.2] not duality-fixed",
         "k0.inverse_kl_positivity": "negative multiplicity at (1, 1.2.1)",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (e, 1.2)",
         "k0.ringel_end_dims": "dim End mismatch at 2: 6 != 12",
         "k0.tilting_char_graded": "fails at (x,y)=(1.2, 1)",
         "k0.tilting_char_v1": "fails at (x,y)=(1.2.1, e)",
         "k0.tilting_projective_switch": "fails at 1.2",
         "k0.wall_action_on_simples_and_vermas": "(H_s + v)[L_x] != 0 at (1, 1.2)"},
        id="C:the s-upper half built times v, not v^-1"),
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
    # the solver for 2.1 walks the support of its d row, which now has 1.2
    # above 2.1 in id order, and pulls a defect of 1 there
    pytest.param(
        ("hecke.bar_is_involution", "k0.duality_intertwines_bar"),
        lambda blk: unrelabelled_inverse_row(blk, "d"),
        {"hecke.bar_is_involution": "12 elements",
         "hecke.bar_is_ring_automorphism": "4^2 products",
         "hecke.involutions_pairwise_commute": "",
         "hecke.kl_selfdual_and_degree_bounds": "C_2.1 not self-dual",
         "hecke.kl_recursion_matches_bar_solver":
             "exception: ArithmeticError('bar defect is not antisymmetric; solver broken')",
         "k0.duality_intertwines_bar": "duality does not intertwine the bar involution",
         "k0.basis_changes_unitriangular": "DualVerma diagonal not 1 at 2.1",
         "k0.duality_fixes_simples": "dual Verma view inconsistent"},
        id="d:the row of 2.1 is the row of 1.2 unrelabelled"),
    # only the bar solver reads the d columns: d(H_1)_e = v - v^-1 read as
    # 2v - v^-1 makes the first defect it pulls, at e for x = 1, not
    # bar-antisymmetric
    pytest.param(
        ("hecke.kl_recursion_matches_bar_solver",),
        lambda blk: d_column_entry_off_by_v(blk, "e", "1"),
        {"hecke.kl_recursion_matches_bar_solver":
             "exception: ArithmeticError('bar defect is not antisymmetric; solver broken')"},
        id="d columns:d(H_1) at e gains v"),
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
    # v - v^-1 is fixed by b and the row stays unitriangular, so only the
    # test that the row of 2.1 is the row of 1.2 relabelled stops each bar,
    # and the solver run, at 2.1 from being derived from those at 1.2
    pytest.param(
        ("hecke.bar_is_involution", "hecke.kl_recursion_matches_bar_solver"),
        lambda blk: add_to_built_entry(blk.hecke, "d", s2s1(blk), 0, v - v**-1),
        {"hecke.bar_is_involution": "12 elements",
         "hecke.bar_is_ring_automorphism": "4^2 products",
         "hecke.involutions_pairwise_commute": "",
         "hecke.kl_selfdual_and_degree_bounds": "C_2.1 not self-dual",
         "hecke.kl_recursion_matches_bar_solver": "recursion and solver disagree at 2.1",
         "k0.duality_intertwines_bar": "duality does not intertwine the bar involution",
         "k0.duality_fixes_simples": "dual Verma view inconsistent"},
        id="d:the row of 2.1 gains v - v^-1 at e"),
    # the dual_to_C pairings are b of the dual_to_bC ones only where each
    # row is the twist of its dual_to_bC row, so this row's are computed
    pytest.param(
        ("hecke.dual_bases_orthonormal",),
        lambda blk: add_to_built_entry(blk.hecke, "dual_to_C", s2s1(blk), blk.group.w0.idx, v**2),
        {"hecke.dual_bases_orthonormal": "dual_to_C fails at (2.1, 1.2.1.2)"},
        id="dual_to_C:the row of 2.1 gains v^2 at w0"),
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


def every_result_computed(blk):
    """`blk`, with every invariant that a derivation rests on reporting false,
    so that each bar, solver run and pairing is computed and none is
    derived from its source."""
    blk.hecke._holds = lambda *args: False
    return blk


@pytest.fixture(scope="module")
def computed_k0_block():
    return every_result_computed(K0Block(build_group(CartanDatum("B", 3))))


@pytest.fixture(scope="module")
def computed_b2_block():
    return every_result_computed(K0Block(build_group(CartanDatum("B", 2))))


# derivations change what is computed, never a verdict or a detail: with
# none, the clean run passes and each fault row fails exactly as pinned
@pytest.mark.parametrize("checks,fault,pinned", HECKE_K0_FAULTS)
def test_hecke_k0_fault_fails_the_same_checks_with_every_result_computed(
        computed_k0_block, checks, fault, pinned):
    test_hecke_k0_fault_fails_its_checks(computed_k0_block, checks, fault, pinned)


@pytest.mark.parametrize("checks,fault,pinned", B2_FAULTS)
def test_a_replaced_view_row_fails_the_same_checks_with_every_result_computed(
        computed_b2_block, checks, fault, pinned):
    test_a_replaced_view_row_fails_its_checks_on_a_warm_block(computed_b2_block, checks, fault, pinned)


# checks, the pair (k_y for sy > y, k_y for sy < y) of one action constant
# of `hecke._act` replaced, pinned {failing check: detail} on a B2 block
# built inside the patch, so that every view and product uses the fault
ACTION_FAULTS = [
    pytest.param(
        ("hecke.quadratic_relation", "k0.module_quadratic_relation",
         "k0.wall_crossing_vs_hecke_action"),
        "_H_S", (ZERO, v - v**-1),
        {"hecke.bar_is_ring_automorphism": "4^2 products",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 1, 2, 1.2, 2.1, 1.2.1, 2.1.2, 1.2.1.2",
         "hecke.quadratic_relation": "s_1 fails",
         "k0.duality_fixes_simples": "dual Verma view inconsistent",
         "k0.duality_intertwines_bar": "duality does not intertwine the bar involution",
         "k0.module_quadratic_relation": "quadratic action fails at s_1",
         "k0.tilting_projective_switch": "fails at 1",
         "k0.wall_action_on_simples_and_vermas": "(H_s + v)[L_x] != 0 at (1, 1)",
         "k0.wall_crossing_vs_hecke_action": "H_s vs theta_s mismatch at s_1"},
        id="H_S:k_down = v - v^-1"),
    # C is built on its s-lower half, which reads only k_y for sy > y: the
    # dual rows and wall crossing read the fault, and the C rows do not
    pytest.param(
        ("k0.wall_crossing_quadratic", "k0.wall_crossing_vs_hecke_action"),
        "_C_S", (v, v),
        {"hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, 1)",
         "hecke.hw0_times_C_is_dual_basis": "failures at: 1, 2, 1.2, 2.1, 1.2.1, 2.1.2, 1.2.1.2",
         "k0.bgg_reciprocity_graded": "fails at (P_e, D_1)",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (e, 1)",
         "k0.tilting_char_graded": "fails at (x,y)=(1, e)",
         "k0.tilting_projective_switch": "fails at 1",
         "k0.wall_crossing_quadratic": "wall-crossing quadratic fails at s_1",
         "k0.wall_crossing_vs_hecke_action": "H_s vs theta_s mismatch at s_1"},
        id="C_S:k_down = v"),
]


@pytest.mark.parametrize("checks,constant,faulty,pinned", ACTION_FAULTS)
def test_a_wrong_action_constant_fails_its_checks(checks, constant, faulty, pinned):
    with patch.object(hecke, constant, faulty):
        blk = K0Block(build_group(CartanDatum("B", 2)))
        assert set(checks) <= set(pinned)
        assert hecke_k0_failures(blk) == pinned
    assert hecke_k0_failures(K0Block(build_group(CartanDatum("B", 2)))) == {}


def words_read_backwards(alg):
    """`mul` walks each reduced word from its last letter instead of its
    first, so that it forms H_{y^-1} b for H_y b."""
    mul = alg.mul

    def faulty(a, b):
        # a flipping product calls alg.mul again, on the sides it walks
        return mul(a, b) if len(a._c) > len(b._c) else mul(alg.iota(a), b)

    return patch.object(alg, "mul", faulty)


def flip_without_outer_iota(alg):
    """`mul` flips sides by iota when b has the smaller support, but drops the
    outer iota: it gives iota(b) iota(a) for ab."""
    mul = alg.mul

    def faulty(a, b):
        return mul(alg.iota(b), alg.iota(a)) if len(a._c) > len(b._c) else mul(a, b)

    return patch.object(alg, "mul", faulty)


# checks, fault in `HeckeAlgebra.mul` on a fresh B2 block, pinned {failing
# check: detail}: a product of two basis elements, as in the braid check,
# never flips, and ab X does where ab has two terms, as H_s H_s has
MUL_FAULTS = [
    pytest.param(
        ("hecke.braid_relations",), words_read_backwards,
        {"hecke.braid_relations": "H_x H_y != H_xy at (1.2, e)",
         "hecke.bar_is_ring_automorphism": "4^2 products",
         "hecke.iota_is_anti_automorphism": "",
         "k0.module_associativity": "module associativity fails",
         "k0.duality_fixes_simples": "dual Verma view inconsistent"},
        id="braid_relations:mul reads words backwards"),
    pytest.param(
        ("k0.module_associativity",), flip_without_outer_iota,
        {"hecke.bar_is_ring_automorphism": "4^2 products",
         "k0.module_associativity": "module associativity fails"},
        id="module_associativity:the flip drops its outer iota"),
]


@pytest.mark.parametrize("checks,fault,pinned", MUL_FAULTS)
def test_a_wrong_product_fails_its_checks_on_a_fresh_block(checks, fault, pinned):
    blk = K0Block(build_group(CartanDatum("B", 2)))
    with fault(blk.hecke):
        assert set(checks) <= set(pinned)
        assert hecke_k0_failures(blk) == pinned
    assert hecke_k0_failures(blk) == {}


twist = LaurentPoly.twist


# checks, a replacement for `LaurentPoly.twist`, the coefficient map of
# `HeckeAlgebra.b_twist`, pinned {failing check: detail} on a B2 block built
# inside the patch, since an algebra keeps each twist it has made: a twist
# times v squares to -1, and v -> v^-1 without the sign is an involution but
# maps the quadratic relation's v^-1 - v to v - v^-1
TWIST_FAULTS = [
    pytest.param(
        ("hecke.b_is_involution",), lambda p: twist(p).shifted(1),
        {"hecke.b_is_involution": "",
         "hecke.b_is_ring_automorphism": "",
         "hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, e)",
         "hecke.involutions_pairwise_commute": "",
         "hecke.kl_selfdual_and_degree_bounds": "C'_e not self-dual",
         "k0.basis_changes_unitriangular": "Simple diagonal not 1 at e",
         "k0.bott_euler_form": "fails at x=e: v^-3 != v^-4",
         "k0.duality_fixes_simples": "[L_e] not duality-fixed",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (e, e)"},
        id="b_is_involution:the twist is shifted by v"),
    pytest.param(
        ("hecke.b_is_ring_automorphism",), LaurentPoly.bar,
        {"hecke.b_is_ring_automorphism": "",
         "hecke.dual_bases_orthonormal": "dual_to_bC fails at (e, 1)",
         "hecke.involutions_pairwise_commute": "",
         "hecke.kl_selfdual_and_degree_bounds": "C'_1 not self-dual",
         "k0.bott_euler_form": "fails at x=1: v^-3 != -v^-3",
         "k0.duality_fixes_simples": "[L_1] not duality-fixed",
         "k0.projectives_dual_to_simples": "<[P],[L]> wrong at (e, 1)",
         "k0.wall_action_on_simples_and_vermas": "(H_s + v)[L_x] != 0 at (1, 1)",
         "k0.weyl_character_formula_v1": "v=1 coefficient at 1 is 1, wanted -1"},
        id="b_is_ring_automorphism:the twist drops its sign"),
]


@pytest.mark.parametrize("checks,faulty,pinned", TWIST_FAULTS)
def test_a_wrong_twist_fails_its_checks_on_a_fresh_block(checks, faulty, pinned):
    with patch.object(LaurentPoly, "twist", faulty):
        blk = K0Block(build_group(CartanDatum("B", 2)))
        assert set(checks) <= set(pinned)
        assert hecke_k0_failures(blk) == pinned
    assert hecke_k0_failures(K0Block(build_group(CartanDatum("B", 2)))) == {}


def broken_mu(*args):
    raise ArithmeticError("no mu")


# a table that fails to build fails the checks that read it, and verify says so
@pytest.mark.parametrize("suite_name,owner,name,fault,failing", [
    pytest.param(
        "hecke", HeckeAlgebra, "_build_dual_to_bC", dual_row_below_diagonal,
        {"hecke.dual_bases_orthonormal": UNITRIANGULAR,
         "hecke.hw0_times_C_is_dual_basis": UNITRIANGULAR},
        id="hecke:a dual row below its diagonal"),
    # both W-graph recursions read mu: every check that reads the dual rows
    # or the Verma-in-simples table fails
    pytest.param(
        "k0", HeckeAlgebra, "_mu", broken_mu,
        {name: "exception: ArithmeticError('no mu')" for name in (
            "k0.basis_changes_unitriangular", "k0.tilting_char_graded", "k0.tilting_char_v1",
            "k0.bgg_reciprocity_graded", "k0.inverse_kl_positivity", "k0.ringel_end_dims",
            "k0.tilting_projective_switch", "k0.projectives_dual_to_simples")},
        id="k0:mu raises"),
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


# a zero unit of Theta! splits Theta! M into M[1] and theta M, and ev, read
# from the composite built with that Theta!, is no longer a chain map; the
# composites are keyed by the complexes they compose, so a warm block fails
# as a fresh one does
ZERO_SHRIEK_UNIT = {
    "block.theta_homology_table":
        "Theta^shriek(Delta_e): {-1: {'L_e': 1}, 0: {'P_e': 1}} != {0: {'nabla_s': 1}}",
    "block.concentration_on_flagged": "Theta! not concentrated on Delta_e",
    "block.derived_equivalence_ev_coev": "ev is not a chain map on Delta_e"}


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
THETA_ON_CATALOG = "theta kills L_s, sends L_e and Delta_s to P_e; Verma factors each once"
DOUBLED_COUNIT = {
    "block.triangle_identities": TRIANGLES,
    "block.transpose_laws": "transpose of the identity is not the identity",
    "block.derived_equivalence_ev_coev": "coev is not a chain map on Delta_e"}
DOUBLED_UNIT = {
    "block.triangle_identities": TRIANGLES,
    "block.transpose_laws": "right transpose does not invert the transpose",
    "block.derived_equivalence_ev_coev": "ev is not a chain map on Delta_e"}
# a zero counit also vanishes where the key lemma forbids it, is not onto the
# costandards, has not the socle of Delta_s for its image there, and splits
# Theta* M into theta M and M[-1], so Theta* M is not concentrated in one
# degree wherever theta M is nonzero
ZEROED_COUNIT = {
    "block.theta_on_catalog": THETA_ON_CATALOG,
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


def swapped(ctx, name, other):
    """The catalog entry `name` is the module of the entry `other`."""
    mods = ctx.catalog.modules
    return patch.dict(mods, {name: mods[other]})


def p_e_is_l_e(ctx):
    return swapped(ctx, "P_e", "L_e")


# decompose checks its sums against its own five indecomposables, so the
# checks that decompose report details; theta and its (co)units read the
# projective the catalog built, not the entry, so only the checks that read
# the entry fail, on a warm block as on a fresh one
P_E_IS_L_E = {
    "block.catalog_dimensions": "P_e: 3, P_s: 2, Delta_s: 2, antidominants: 1",
    "block.catalog_identifications": "Delta_s = P_s, D_s = P_e, Delta_e = nabla_e = D_e = L_e",
    "block.catalog_end_rings": "dim End(P_e) = 2 (local), dim End(P_s) = 1",
    "block.catalog_bgg_reciprocity_v1": "(P_x : Delta_y) = [Delta_y : L_x]",
    "block.theta_homology_table": "Theta^star(P_e): {0: {'Delta_s': 1}} != {0: {'P_e': 1}}",
    "block.tilting_projective_switch": "Theta*(D_s) is not P_e",
    "block.ringel_end_dimensions": "dim End(P_e) = 1 != 2 = dim End(D_s)",
    "block.k0_classes_match_v1": "P_e: {e: 1, 1: 1} != {e: 1}",
    "block.k0_theta_images_match_v1": "theta(P_e): {e: 2, 1: 2} != {e: 1, 1: 1}",
    "block.k0_tilting_switch_crosscheck": "categorical switch does not match"}


# checks, fault on the built block, pinned {failing check: detail}
BLOCK_FAULTS = [
    pytest.param(
        ("block.catalog_dimensions", "block.catalog_identifications",
         "block.catalog_bgg_reciprocity_v1", "block.k0_classes_match_v1",
         "block.k0_theta_images_match_v1"),
        lambda ctx: swapped(ctx, "P_s", "L_s"),
        {"block.catalog_dimensions": "P_e: 3, P_s: 2, Delta_s: 2, antidominants: 1",
         "block.catalog_identifications":
             "Delta_s = P_s, D_s = P_e, Delta_e = nabla_e = D_e = L_e",
         "block.catalog_bgg_reciprocity_v1": "(P_x : Delta_y) = [Delta_y : L_x]",
         "block.theta_homology_table":
             "Theta^star(P_s): {1: {'L_s': 1}} != {0: {'Delta_s': 1}, 1: {'L_s': 1}}",
         "block.concentration_on_flagged": "Theta! not concentrated on P_s",
         "block.tilting_projective_switch": "Theta*(D_e) is not P_s",
         "block.k0_classes_match_v1": "P_s: {1: 1} != {e: -1, 1: 1}",
         "block.k0_theta_images_match_v1": "theta(P_s): {e: 1, 1: 1} != {}",
         "block.k0_tilting_switch_crosscheck": "categorical switch does not match"},
        id="catalog_dimensions:P_s is L_s"),
    pytest.param(
        ("block.catalog_end_rings", "block.ringel_end_dimensions"),
        lambda ctx: swapped(ctx, "P_s", "P_e"),
        {"block.catalog_dimensions": "P_e: 3, P_s: 2, Delta_s: 2, antidominants: 1",
         "block.catalog_identifications":
             "Delta_s = P_s, D_s = P_e, Delta_e = nabla_e = D_e = L_e",
         "block.catalog_end_rings": "dim End(P_e) = 2 (local), dim End(P_s) = 1",
         "block.catalog_bgg_reciprocity_v1": "(P_x : Delta_y) = [Delta_y : L_x]",
         "block.theta_homology_table":
             "Theta^star(P_s): {0: {'P_e': 1}} != {0: {'Delta_s': 1}, 1: {'L_s': 1}}",
         "block.tilting_projective_switch": "Theta*(D_e) is not P_s",
         "block.ringel_end_dimensions": "dim End(P_s) = 2 != 1 = dim End(D_e)",
         "block.k0_classes_match_v1": "P_s: {1: 1} != {e: 1, 1: 1}",
         "block.k0_theta_images_match_v1": "theta(P_s): {e: 1, 1: 1} != {e: 2, 1: 2}",
         "block.k0_tilting_switch_crosscheck": "categorical switch does not match"},
        id="catalog_end_rings:P_s is P_e"),
    # theta nabla_s = theta Delta_s, but the counit onto nabla_s is surjective
    pytest.param(
        ("block.catalog_loewy_layers", "block.ext_bott_rank_one", "block.theta_on_catalog"),
        lambda ctx: swapped(ctx, "Delta_s", "nabla_s"),
        {"block.catalog_identifications":
             "Delta_s = P_s, D_s = P_e, Delta_e = nabla_e = D_e = L_e",
         "block.catalog_loewy_layers":
             "P_e: L_e/L_s/L_e; Delta_s: L_s over L_e; nabla_s: L_e over L_s",
         "block.theta_on_catalog": THETA_ON_CATALOG,
         "block.ext_bott_rank_one":
             "Ext^i(Delta_x, L_w0) is one-dimensional exactly at i = l(x w0)",
         "block.unit_counit_on_flagged": "unit not injective on Delta_s",
         "block.theta_homology_table":
             "Theta^star(Delta_s): {0: {'L_e': 1}} != {0: {'Delta_s': 1}, 1: {'L_s': 1}}",
         "block.concentration_on_flagged": "Theta! not concentrated on Delta_s"},
        id="catalog_loewy_layers:Delta_s is nabla_s"),
    pytest.param(
        ("block.catalog_identifications", "block.tilting_projective_switch",
         "block.k0_tilting_switch_crosscheck"),
        p_e_is_l_e, P_E_IS_L_E,
        id="catalog_identifications:P_e is L_e"),
    pytest.param(
        ("block.derived_equivalence_ev_coev",),
        lambda ctx: zero_ev_on(ctx, "nabla_s"),
        {"block.derived_equivalence_ev_coev": "ev not a quasi-isomorphism on nabla_s"},
        id="derived_equivalence_ev_coev:ev on nabla_s is zero"),
    pytest.param(
        ("block.theta_homology_table",), zero_shriek_unit, ZERO_SHRIEK_UNIT,
        id="theta_homology_table:the unit of Theta! is zero"),
    pytest.param(
        ("block.triangle_identities",), doubled_counit, DOUBLED_COUNIT,
        id="triangle_identities:the counit of pi_pull -| pi_star is doubled"),
    pytest.param(
        ("block.triangle_identities",), doubled_unit, DOUBLED_UNIT,
        id="triangle_identities:the unit of pi_star -| pi_pull is doubled"),
    pytest.param(
        ("block.keylem_nonvanishing",), zeroed_counit, ZEROED_COUNIT,
        id="keylem_nonvanishing:the counit of pi_pull -| pi_star is zero"),
]


@pytest.fixture(scope="module")
def block():
    return build_rank_one()


def block_failures(ctx):
    return {c.name: c.detail for c in suite(ctx, "all").failures()}


@pytest.mark.parametrize("checks,fault,pinned", BLOCK_FAULTS)
def test_block_fault_fails_its_check(block, checks, fault, pinned):
    assert block_failures(block) == {}
    with fault(block):
        assert set(checks) <= set(pinned)
        assert block_failures(block) == pinned
    assert block_failures(block) == {}


def test_every_block_catalog_check_has_a_fault(block):
    catalog = {c.name for c in suite(block, "catalog").checks if "catalog_" in c.name}
    assert len(catalog) == 5
    assert catalog <= {name for row in BLOCK_FAULTS for name in row.values[0]}


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


def test_a_zero_shriek_unit_fails_the_same_checks_on_a_fresh_block():
    ctx = build_rank_one()
    with zero_shriek_unit(ctx):
        assert block_failures(ctx) == ZERO_SHRIEK_UNIT


def test_a_replaced_p_e_entry_fails_the_same_checks_on_a_fresh_block():
    # theta is built from the algebra's projective, so no image, (co)unit
    # component or composite depends on which module the entry names
    ctx = build_rank_one()
    with p_e_is_l_e(ctx):
        assert block_failures(ctx) == P_E_IS_L_E


# negating a Nat leaves it unchanged: the composites lose the sign (-1)^i
# of d_F . 1 + (-1)^i 1 . d_G, so d^2 != 0, and the zero that transpose_laws
# builds as f + (-f) is 2f; on a fresh block, where no composite was built
# before the fault, ev and coev read the unsigned composites
UNSIGNED = {
    "block.differentials_square_to_zero": "d^2 != 0 on Delta_e",
    "block.transpose_laws": "transpose of zero is not zero",
    "block.derived_equivalence_ev_coev":
        "exception: BlockConstructionError('image does not land in the kernel')"}


def test_a_composite_without_its_sign_fails_its_checks_on_a_fresh_block():
    ctx = build_rank_one()
    with patch.object(Nat, "__neg__", lambda self: self):
        assert block_failures(ctx) == UNSIGNED


def unsorted_summands(total_complex):
    """`_total_complex` with each entry's summands left in the order they are
    paired up, by (i, j, ci, cj), instead of sorted by label."""
    def faulty(outer, inner, inner_diffs, d_outer, d_inner):
        pairs, blocks = total_complex(outer, inner, inner_diffs, d_outer, d_inner)
        order = {n: sorted(range(len(ps)), key=lambda k, ps=ps: (ps[k][1], ps[k][3], ps[k][2], ps[k][4]))
                 for n, ps in pairs.items()}
        at = {n: {old: new for new, old in enumerate(o)} for n, o in order.items()}
        return ({n: [ps[k] for k in order[n]] for n, ps in pairs.items()},
                {n: {(at[n + 1][r], at[n][c]): d for (r, c), d in bl.items()}
                 for n, bl in blocks.items()})
    return faulty


# three two-term complexes pair up in label order unsorted, so the triple
# composites still agree; the fourfold ones do not, and no other check reads
# the order of a composite's summands
UNSORTED = {"block.composition_associative": "differential support differs in degree -1"}


def test_a_composition_that_stops_sorting_its_summands_fails_associativity_on_a_fresh_block():
    with patch.object(functors, "_total_complex", unsorted_summands(functors._total_complex)):
        ctx = build_rank_one()
        assert block_failures(ctx) == UNSORTED


def outer_word_only(self, other):
    """`Functor.compose` that keeps the word of the outer functor alone."""
    return functors.Functor(self.catalog, self.word, other.src_kind)


# Theta* Theta! then holds theta + Id in degree 0, not theta^2 + Id; its
# entries no longer match the differentials evaluated on them, and the two
# triple composites whisker by truncated words, so their differentials differ
OUTER_WORD_ONLY = {
    "block.differentials_square_to_zero": "exception: ValueError('block (0, 0) has shape (4, 2)')",
    "block.composite_degree_zero_shape": "degree 0 of Theta*Theta! is Id + theta^2",
    "block.composition_associative": "differential entries differ at (2, 0) in degree -1",
    "block.derived_equivalence_ev_coev": "exception: ValueError('block (0, 0) has shape (4, 2)')"}


def test_a_composition_that_keeps_one_word_fails_the_shape_check_on_a_fresh_block():
    ctx = build_rank_one()
    with patch.object(functors.Functor, "compose", outer_word_only):
        assert block_failures(ctx) == OUTER_WORD_ONLY


def test_every_block_check_has_a_pinned_fault(block):
    pinned = [row.values[2] for row in BLOCK_FAULTS]
    pinned += [UNSIGNED, UNSORTED, OUTER_WORD_ONLY]
    names = {c.name for c in suite(block, "all").checks}
    assert len(names) == 22
    assert names <= {name for failures in pinned for name in failures}
