from unittest.mock import patch

import pytest

from heckeo import cli, hecke
from heckeo.k0 import BasisKind, K0Block, K0Class
from heckeo.laurent import LaurentPoly, v, v_pow
from heckeo.weyl import CartanDatum, MixedGroups, build_group

from _oracles import coords_by_inversion

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def block(label):
    return K0Block(build_group(CartanDatum.parse(label)))


@pytest.fixture(scope="module")
def a1():
    return block("A1")


@pytest.fixture(scope="module")
def a2():
    return block("A2")


# -- basis views, frozen A1 values -------------------------------------------

def test_class_of_a1(a1):
    g = a1.group
    e, s = g.identity, g.simple(1)
    assert a1.class_of(e, BasisKind.Simple) == a1.verma(e)
    assert a1.class_of(s, BasisKind.Simple) == a1.verma(s) - a1.verma(e) * v_pow(-1)
    assert a1.class_of(s, BasisKind.Tilting) == a1.verma(s) + a1.verma(e) * v
    assert a1.class_of(e, BasisKind.Projective) == a1.verma(e) + a1.verma(s) * v_pow(-1)
    assert a1.class_of(s, BasisKind.Projective) == a1.verma(s)
    assert a1.class_of(s, BasisKind.DualVerma) == a1.verma(s) + a1.verma(e) * (
        v - v_pow(-1)
    )
    assert a1.class_of(e, "DualVerma") == a1.verma(e)


def test_basis_kind_coercion(a1):
    with pytest.raises(ValueError):
        a1.class_of(a1.group.identity, "Weird")
    assert BasisKind.coerce("Tilting") is BasisKind.Tilting


def test_coords_in_basis_roundtrip(a2):
    g = a2.group
    for kind in BasisKind:
        for x in g.elements():
            X = a2.class_of(x, kind)
            coords = a2.coords_in_basis(X, kind)
            assert coords == {x: ONE}
    # a mixed class
    X = a2.verma(g.w0) * v + a2.class_of(g.simple(1), BasisKind.Simple) * 3
    coords = a2.coords_in_basis(X, BasisKind.Simple)
    rebuilt = sum(
        (a2.class_of(y, BasisKind.Simple) * p for y, p in coords.items()),
        a2.verma(g.identity) * 0,
    )
    assert rebuilt == X


@pytest.mark.parametrize("label", ["G2", "A3", "B3"])
def test_coords_in_basis_matches_inversion_oracle(label):
    blk = block(label)
    g = blk.group
    for src in BasisKind:
        classes = [blk.class_of(x, src) for x in g.elements()]
        for dst in BasisKind:
            expected = coords_by_inversion(blk, classes, dst)
            for x, X, want in zip(g.elements(), classes, expected):
                got = blk.coords_in_basis(X, dst)
                assert got == want, f"{src.value} -> {dst.value} at {g.name(x)}"
                assert list(got) == list(want)


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_verma_in_simples_recursion_equals_back_substitution_and_inversion(label):
    # the W-graph recursion against coords_in_basis, which back-substitutes
    # against the C' columns, and against the whole inverted C' matrix
    blk = block(label)
    g = blk.group
    table = blk._verma_in_simples()
    expected = coords_by_inversion(blk, [blk.verma(x) for x in g.elements()], BasisKind.Simple)
    for x, want in zip(g.elements(), expected):
        got = {g.element(y): p for y, p in table[x.idx].items()}
        assert list(got.items()) == list(blk.coords_in_basis(blk.verma(x), BasisKind.Simple).items())
        assert list(got.items()) == list(want.items()), g.name(x)


def _break_builder(monkeypatch, blk, builder, x, broken):
    """Make one builder of blk's Hecke algebra hand back broken(column) for
    element x, as a faulty recursion would."""
    build = getattr(blk.hecke, builder)
    monkeypatch.setattr(blk.hecke, builder,
                        lambda k: broken(build(k)) if k == x.idx else build(k))


# each builder, the views that read it, and the class whose coordinates in
# those views reach the broken element
BUILDERS = (
    ("_build_C", (BasisKind.Simple, BasisKind.Tilting), "w0"),
    ("_build_d", (BasisKind.DualVerma,), "w0"),
    ("_build_dual_to_bC", (BasisKind.Projective,), "e"),
)


def test_coords_in_basis_rejects_a_column_without_unit_diagonal(monkeypatch):
    for builder, kinds, at in BUILDERS:
        for kind in kinds:
            blk = block("A2")
            g = blk.group
            _break_builder(monkeypatch, blk, builder, g.simple(1),
                           lambda col: {k: p * 2 for k, p in col.items()})
            x = g.parse_word(at)
            with pytest.raises(ValueError, match="unit diagonal"):
                blk.coords_in_basis(blk.verma(x), kind)
            assert blk.coords_in_basis(blk.verma(x), BasisKind.Verma) == {x: ONE}


def test_coords_in_basis_rejects_a_column_on_the_wrong_side(monkeypatch):
    for builder, kinds, at in BUILDERS:
        for kind in kinds:
            blk = block("A2")
            g = blk.group
            # one entry past the diagonal: above it for the views that sit
            # below their element, below it for the dual rows
            wrong = g.identity if kind is BasisKind.Projective else g.w0
            _break_builder(monkeypatch, blk, builder, g.simple(1),
                           lambda col: {**col, wrong.idx: ONE})
            with pytest.raises(ValueError, match="not unitriangular"):
                blk.coords_in_basis(blk.verma(g.parse_word(at)), kind)


def test_basis_change_query_never_inverts_a_matrix(monkeypatch):
    # a dual row is built per element by the downward recursion: a cold
    # projective class fills the rows its recursion reads, not the whole
    # inverse matrix
    blk = block("A3")
    blk.class_of(blk.group.identity, BasisKind.Projective)
    assert len(blk.hecke._views["dual_to_bC"]) == 11 < blk.group.order
    assert blk.hecke._views["dual_to_C"] == {}
    # the same holds for cold CLI queries, counted at the row builder
    rows = []
    build = hecke.HeckeAlgebra._build_dual_to_bC

    def counted(self, k):
        rows.append(k)
        return build(self, k)

    monkeypatch.setattr(hecke.HeckeAlgebra, "_build_dual_to_bC", counted)
    for src, dst, want in (("Verma", "Simple", 0), ("Projective", "Tilting", 50)):
        rows.clear()
        code, _ = cli.run(["basis-change", "--type", "D4", "--from", src, "--to", dst,
                           "--x", "e", "--format", "json"])
        assert code == 0
        assert len(rows) == want < 192, (src, dst)


# -- Hecke action and wall crossing ----------------------------------------------

def test_hecke_act_a1(a1):
    g = a1.group
    e, s = g.identity, g.simple(1)
    hs = a1.hecke.gen(1)
    assert a1.hecke_act(hs, a1.verma(e)) == a1.verma(s)
    assert a1.hecke_act(hs, a1.verma(s)) == a1.verma(e) + a1.verma(s) * (
        v_pow(-1) - v
    )
    assert a1.hecke_act(a1.hecke.unit(), a1.verma(s)) == a1.verma(s)


def test_wall_crossing_a1(a1):
    g = a1.group
    e, s = g.identity, g.simple(1)
    assert a1.wall_crossing(1, a1.verma(s)) == a1.verma(s) * v_pow(-1) + a1.verma(e)
    assert a1.wall_crossing(1, a1.verma(e)) == a1.verma(s) + a1.verma(e) * v
    # theta kills the simple it translates to the wall and back
    ls = a1.class_of(s, BasisKind.Simple)
    assert a1.wall_crossing(1, ls).is_zero()
    with pytest.raises(ValueError):
        a1.wall_crossing(2, a1.verma(e))
    with pytest.raises(ValueError):
        a1.wall_crossing(1, a1.verma(e), "sideways")


def test_wall_variants_are_shifts(a2):
    g = a2.group
    X = a2.verma(g.simple(2)) + a2.verma(g.w0) * v
    th = a2.wall_crossing(1, X, "theta")
    assert a2.wall_crossing(1, X, "pi_star_pi") == th * v_pow(-1)
    assert a2.wall_crossing(1, X, "pi_shriek_pi") == th * v


def test_shift_convention(a1, a2):
    X = a1.verma(a1.group.simple(1))
    assert a1.shift(X, 1) == X * v_pow(-1)
    assert a1.shift(X, -2) == X * v_pow(2)
    # entry by entry, LaurentPoly's own product, and nothing zero kept
    g = a2.group
    X = a2.verma(g.simple(2)) * (v + 2) + a2.verma(g.w0) * v_pow(-3) + a2.class_of(g.w0, BasisKind.Simple)
    for n in (-3, -1, 0, 1, 4):
        got = a2.shift(X, n)
        assert got._c == {k: p * v_pow(-n) for k, p in X._c.items()}
        assert all(p for p in got._c.values())
    assert a2.shift(X * 0, 2).is_zero()


# -- duality -------------------------------------------------------------------

def test_dualize(a1):
    g = a1.group
    e, s = g.identity, g.simple(1)
    assert a1.dualize(a1.verma(e)) == a1.verma(e)
    ls = a1.class_of(s, BasisKind.Simple)
    assert a1.dualize(ls) == ls
    X = a1.verma(s) * (v + 3)
    assert a1.dualize(a1.dualize(X)) == X


# -- Euler form -------------------------------------------------------------------

def test_a_wrong_dual_verma_row_fails_the_duality_check():
    # dualize(H_x) returns the built d(H_x) row as is, so only the product
    # H_{x^-1} dualize(H_x) = 1 can find it wrong
    blk = block("A2")
    rows = blk.hecke._views["d"]
    for x in blk.group.elements():
        row = blk.hecke._view("d", x.idx)
        with patch.dict(rows, {x.idx: {**row, 0: row.get(0, ZERO) + v**2}}):
            failed = {c.name: c.detail for c in blk.verify_simple_ops().failures()}
        assert failed == {"k0.duality_fixes_simples": "dual Verma view inconsistent"}
    assert blk.verify_simple_ops().failures() == []


def test_ext_pairing_orthonormal(a2):
    g = a2.group
    for x in g.elements():
        for y in g.elements():
            expect = ONE if x == y else ZERO
            assert a2.ext_pairing(a2.verma(x), a2.verma(y)) == expect


def test_ext_pairing_shift_weighting(a1):
    # <[D_x], [D_x<n>]> = v^-n, and bilinearity gives v^-m-n on two shifts
    X = a1.verma(a1.group.simple(1))
    for n in (-2, -1, 0, 1, 3):
        assert a1.ext_pairing(X, a1.shift(X, n)) == v_pow(-n)
    assert a1.ext_pairing(a1.shift(X, 2), a1.shift(X, 1)) == v_pow(-3)


def test_ext_pairing_projective_simple(a2):
    g = a2.group
    for x in g.elements():
        for y in g.elements():
            expect = ONE if x == y else ZERO
            got = a2.ext_pairing(
                a2.class_of(x, BasisKind.Projective),
                a2.class_of(y, BasisKind.Simple),
            )
            assert got == expect


def test_ext_pairing_simple_at_w0(a2):
    g = a2.group
    lw0 = a2.class_of(g.w0, BasisKind.Simple)
    assert a2.ext_pairing(a2.verma(g.simple(1)), lw0) == v_pow(-2)
    assert a2.ext_pairing(a2.verma(g.w0), lw0) == ONE


# -- ungraded specialization, by-hand values ------------------------------------

def test_weyl_character_a1(a1):
    g = a1.group
    ls = a1.class_of(g.simple(1), BasisKind.Simple)
    coords = {x: p.eval_at_one() for x, p in ls.coeffs().items()}
    assert coords == {g.simple(1): 1, g.identity: -1}


def test_tilting_vs_projective_a1(a1):
    g = a1.group
    e, s = g.identity, g.simple(1)
    t_s = a1.class_of(s, BasisKind.Tilting)
    p_e = a1.class_of(e, BasisKind.Projective)
    assert t_s.coeff(s) == ONE and t_s.coeff(e) == v
    assert p_e.coeff(e) == ONE and p_e.coeff(s) == v_pow(-1)
    # graded correspondence: t at y = bar(p at w0 y)
    assert t_s.coeff(e) == p_e.coeff(s).bar()


# -- classes are Hecke elements of the block's own algebra -------------------------

def test_classes_of_two_blocks_never_mix():
    one, other = block("A2"), block("A2")
    X = one.verma(one.group.simple(1))
    Y = other.verma(other.group.simple(1))
    with pytest.raises(MixedGroups):
        X + Y
    with pytest.raises(MixedGroups):
        one.ext_pairing(X, Y)
    with pytest.raises(MixedGroups):
        one.hecke_act(one.hecke.gen(1), Y)
    with pytest.raises(MixedGroups):
        one.hecke_act(other.hecke.gen(1), X)
    assert X != Y


def test_dualize_rejects_another_blocks_class(a2):
    other = block("B2")
    Y = other.verma(other.group.element(3))
    with pytest.raises(MixedGroups):
        a2.dualize(Y)
    assert other.dualize(Y) == other.class_of(other.group.element(3), BasisKind.DualVerma)


def test_block_operators_reject_another_blocks_class():
    one, other = block("A2"), block("A2")
    Y = other.verma(other.group.simple(1))
    for variant in ("theta", "pi_star_pi", "pi_shriek_pi"):
        with pytest.raises(MixedGroups):
            one.wall_crossing(1, Y, variant)
    with pytest.raises(MixedGroups):
        one.shift(Y, 1)
    for kind in BasisKind:
        with pytest.raises(MixedGroups):
            one.coords_in_basis(Y, kind)
    # the same calls on the block's own class still answer
    X = one.verma(one.group.simple(1))
    assert one.wall_crossing(1, X) == X * v_pow(-1) + one.verma(one.group.identity)
    assert one.shift(X, 1) == X * v_pow(-1)
    assert one.coords_in_basis(X, BasisKind.Verma) == {one.group.simple(1): ONE}


def test_k0class_from_verma_coordinates(a2):
    g = a2.group
    e, s1, w0 = g.identity, g.simple(1), g.w0
    X = K0Class(a2, {s1.idx: ONE, w0.idx: v, e.idx: ZERO})
    # one vector type: a class is the Hecke element of the block's own algebra
    assert type(X) is hecke.HeckeElt and X.algebra is a2.hecke
    assert X == a2.verma(s1) + a2.verma(w0) * v
    assert hash(X) == hash(a2.verma(s1) + a2.verma(w0) * v)
    assert X.coeffs() == {s1: ONE, w0: v}
    for kind in BasisKind:
        for x in g.elements():
            cls = a2.class_of(x, kind)
            assert K0Class(a2, {y.idx: p for y, p in cls.coeffs().items()}) == cls
            # a class summed from its coordinates in another basis, as the
            # benchmark checks each basis-change answer
            other = BasisKind.Simple if kind is not BasisKind.Simple else BasisKind.Projective
            total = K0Class(a2, {})
            for y, p in a2.coords_in_basis(cls, other).items():
                total = total + a2.class_of(y, other) * p
            assert total == cls


# -- verifier suites ---------------------------------------------------------------

@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_bott_report(label):
    rep = block(label).verify_bott()
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_characters_report(label):
    rep = block(label).verify_characters()
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_full_suite(label):
    rep = block(label).suite()
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]
