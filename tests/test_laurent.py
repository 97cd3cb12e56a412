import pytest
from hypothesis import given, strategies as st

from heckeo.laurent import (
    RULE_V_TO_NEG_VINV,
    RULE_V_TO_VINV,
    LaurentPoly,
    arith,
    v,
    v_pow,
)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)


def test_add_basic():
    assert arith(v, v_pow(-1), "add") == LaurentPoly({1: 1, -1: 1})


def test_mul_basic():
    assert arith(v + 1, v - 1, "mul") == v_pow(2) - 1


def test_sub_cancels_to_zero():
    p = arith(v_pow(2), v_pow(2), "sub")
    assert p.is_zero()
    assert p == LaurentPoly()
    assert p.to_json() == {}


def test_substitution_examples():
    assert (v + v_pow(2)).substitute(RULE_V_TO_VINV) == v_pow(-1) + v_pow(-2)
    assert v.substitute(RULE_V_TO_NEG_VINV) == -v_pow(-1)
    one = LaurentPoly.one()
    assert one.substitute(RULE_V_TO_VINV) == one
    assert one.substitute(RULE_V_TO_NEG_VINV) == one


def test_unknown_rule_and_op():
    with pytest.raises(ValueError):
        v.substitute("nope")
    with pytest.raises(ValueError):
        arith(v, v, "div")


def test_canonical_form_drops_zeros():
    p = LaurentPoly({3: 0, 1: 2, 0: 0})
    assert p.support() == (1,)
    assert p.coeff(3) == 0


def test_pretty_and_json_roundtrip():
    p = v_pow(-1) + 2 + v
    assert str(p) == "v^-1 + 2 + v"
    assert str(LaurentPoly.zero()) == "0"
    assert str(-v) == "-v"
    assert str(3 * v_pow(2) - v_pow(-2)) == "-v^-2 + 3*v^2"
    assert LaurentPoly.from_json(p.to_json()) == p


def test_powers():
    assert v ** 0 == LaurentPoly.one()
    assert v ** 3 == v_pow(3)
    assert (-v) ** -2 == v_pow(-2)
    assert (-v) ** -3 == -v_pow(-3)
    with pytest.raises(ValueError):
        (v + 1) ** -1


def test_eval_and_shift():
    p = v + 3 - v_pow(-2)
    assert p.eval_at_one() == 3
    assert p.shifted(2) == v_pow(3) + 3 * v_pow(2) - LaurentPoly.one()


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(-3, 3), st.integers(-4, 4))
def test_scalar_fast_paths_match_general_product(a, b, k, n):
    # integer scaling, a + k b and the v^n shift skip the general product
    # and the normalising constructor; each must still give canonical form
    assert a * k == a * LaurentPoly.const(k)
    assert a.plus_multiple(b, k) == a + LaurentPoly.const(k) * b
    assert a - b == a + LaurentPoly.const(-1) * b
    assert a.shifted(n) == a * v_pow(n)
    assert a.shifted(n).shifted(-n) == a


@given(polys, st.sampled_from([RULE_V_TO_VINV, RULE_V_TO_NEG_VINV]))
def test_substitute_is_involution(p, rule):
    assert p.substitute(rule).substitute(rule) == p


@given(polys, polys, st.sampled_from([RULE_V_TO_VINV, RULE_V_TO_NEG_VINV]))
def test_substitute_is_ring_hom(a, b, rule):
    assert (a * b).substitute(rule) == a.substitute(rule) * b.substitute(rule)
    assert (a + b).substitute(rule) == a.substitute(rule) + b.substitute(rule)


@given(polys)
def test_hash_consistent_with_eq(p):
    q = LaurentPoly({e: c for e, c in p.items()})
    assert p == q and hash(p) == hash(q)


def test_module_doctests():
    import doctest

    import heckeo.laurent as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
