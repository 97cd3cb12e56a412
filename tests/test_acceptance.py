"""Acceptance criteria, one test per criterion.

Everything is exact arithmetic at small rank, so every tolerance is zero;
the time bounds are part of the contract and are asserted.  Each test prints
one pass line (visible with pytest -s or in the captured output).
"""

import time

import pytest

from heckeo.cli import run
from heckeo.hecke import HeckeAlgebra
from heckeo.k0 import BasisKind, K0Block
from heckeo.laurent import LaurentPoly, v_pow
from heckeo.weyl import CartanDatum, build_group

from heckeo.block import build_rank_one
from heckeo.block.catalog import CATALOG_NAMES
from heckeo.block.checks import (
    verify_adjunctions,
    verify_equivalence,
    verify_k0_crosscheck,
    verify_tilting,
)

_groups = {}
_k0 = {}
_hecke = {}


def group(label):
    if label not in _groups:
        _groups[label] = build_group(CartanDatum.parse(label))
    return _groups[label]


def hecke(label):
    if label not in _hecke:
        _hecke[label] = HeckeAlgebra(group(label))
    return _hecke[label]


def k0(label):
    if label not in _k0:
        _k0[label] = K0Block(group(label))
    return _k0[label]


@pytest.fixture(scope="module")
def rank_one():
    return build_rank_one()


def _announce(n, detail):
    print(f"[acceptance] criterion {n}: PASS ({detail})")


def test_criterion_1_hecke_relations():
    t0 = time.monotonic()
    pairs = 0
    for label in ("A1", "A2", "A3", "B2", "G2"):
        alg = hecke(label)
        g = alg.group
        for i in range(1, g.rank + 1):
            h = alg.gen(i)
            quad = alg.mul(h + alg.unit() * LaurentPoly({1: 1}),
                           h - alg.unit() * LaurentPoly({-1: 1}))
            assert quad.is_zero(), f"quadratic relation fails for s_{i} in {label}"
        for x in g.elements():
            hx = alg.std(x)
            for y in g.elements():
                if g.length(g.multiply(x, y)) == g.length(x) + g.length(y):
                    pairs += 1
                    assert alg.mul(hx, alg.std(y)) == alg.std(g.multiply(x, y))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 exceeded 10 s: {elapsed:.2f} s"
    _announce(1, f"quadratic + {pairs} braid products over five types, {elapsed:.2f} s")


def test_criterion_2_kl_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for label in ("A3", "B2"):
        alg = hecke(label)
        for x in alg.group.elements():
            assert alg.kl_element(x, "C") == alg.kl_element_by_bar_solver(x), (
                f"recursion and solver disagree at {x} in {label}"
            )
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 exceeded 60 s: {elapsed:.2f} s"
    _announce(2, f"{checked} elements, recursion = self-duality solver, {elapsed:.2f} s")


def test_criterion_3_hw0_identity():
    checked = 0
    for label in ("A1", "A2", "A3", "B2"):
        alg = hecke(label)
        g = alg.group
        duals = alg.dual_basis("dual_to_bC")
        hw0 = alg.std(g.w0)
        for x in g.elements():
            lhs = alg.mul(hw0, alg.kl_element(x, "C"))
            assert lhs == duals[g.multiply(g.w0, x)], f"fails at {x} in {label}"
            checked += 1
    _announce(3, f"H_w0 C_x equals the dual-basis element at w0 x, {checked} elements")


def test_criterion_4_bott(rank_one):
    for label in ("A2", "A3"):
        blk = k0(label)
        g = blk.group
        lw0 = blk.class_of(g.w0, BasisKind.Simple)
        for x in g.elements():
            l = g.length(g.multiply(x, g.w0))
            expect = LaurentPoly({-l: 1 if l % 2 == 0 else -1})
            assert blk.ext_pairing(blk.verma(x), lw0) == expect
    cat = rank_one.catalog
    ext = cat.ext(cat.modules["Delta_e"], cat.modules["L_s"], 3)
    assert ext == [0, 1, 0, 0], f"rank-one Ext is {ext}"
    _announce(4, "Euler form in A2/A3 plus a genuine rank-one Ext computation")


def test_criterion_5_weyl_character_formula():
    for label in ("A2", "A3"):
        blk = k0(label)
        g = blk.group
        lw0 = blk.class_of(g.w0, BasisKind.Simple)
        for x in g.elements():
            got = lw0.coeff(x).eval_at_one()
            assert got == (-1) ** g.length(g.multiply(x, g.w0))
    _announce(5, "[L_w0] specializes to the alternating Verma sum in A2 and A3")


def test_criterion_6_tilting_characters_and_positivity():
    for label in ("A2", "A3", "B2"):
        blk = k0(label)
        g = blk.group
        w0 = g.w0
        for x in g.elements():
            t = blk.class_of(x, BasisKind.Tilting)
            p = blk.class_of(g.multiply(w0, x), BasisKind.Projective)
            simple_coords = blk.coords_in_basis(blk.verma(x), BasisKind.Simple)
            for y in g.elements():
                # graded tilting character formula
                assert t.coeff(y) == p.coeff(g.multiply(w0, y)).bar()
                # its v=1 shadow is a composition multiplicity
                mult = blk.coords_in_basis(
                    blk.verma(g.multiply(w0, y)), BasisKind.Simple
                ).get(g.multiply(w0, x), LaurentPoly.zero())
                assert t.coeff(y).eval_at_one() == mult.eval_at_one()
            # positivity of the Verma-in-simple expansion
            assert simple_coords.get(x) == LaurentPoly.one()
            for y, poly in simple_coords.items():
                if y == x:
                    continue
                assert all(c > 0 for _, c in poly.items()), (label, x, y)
                assert poly.max_exp() <= -1, (label, x, y)
    _announce(6, "graded tilting character formula and positivity in A2, A3, B2")


def test_criterion_7_rank_one_categorical_suite(rank_one):
    t0 = time.monotonic()
    ctx = rank_one
    rep = verify_adjunctions(ctx)
    assert rep.passed, [c.name for c in rep.failures()]
    for name in CATALOG_NAMES:
        m = ctx.catalog.modules[name]
        ev = ctx.build_ev(m)
        coev = ctx.build_coev(m)
        assert ev.is_chain_map() and ev.is_quasi_iso(), name
        assert coev.is_chain_map() and coev.is_quasi_iso(), name
    rep = verify_tilting(ctx)
    assert rep.passed, [c.name for c in rep.failures()]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 7 exceeded 5 s: {elapsed:.2f} s"
    _announce(
        7,
        f"triangles, transposes, ev/coev on {len(CATALOG_NAMES)} catalog entries, "
        f"tilting switch, {elapsed:.2f} s",
    )


def test_criterion_8_cross_module_oracle(rank_one):
    rep = verify_k0_crosscheck(rank_one)
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]
    # and the equivalence suite agrees with everything it spot-checks
    rep = verify_equivalence(rank_one)
    assert rep.passed, [(c.name, c.detail) for c in rep.failures()]
    _announce(8, "v=1 Grothendieck-group answers match the ungraded block computations")


def test_criterion_9_determinism():
    first = run(["verify", "--type", "A3", "--suite", "all", "--format", "json"])
    second = run(["verify", "--type", "A3", "--suite", "all", "--format", "json"])
    assert first == second
    assert first[0] == 0, "A3 full suite must pass"
    assert first[1].encode("utf-8") == second[1].encode("utf-8")
    _announce(9, "two consecutive A3 verify runs are byte-identical and green")
