import json

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import DictLaurentPoly
from heckeo import laurent
from heckeo.laurent import (
    BOUND_LIMIT,
    LaurentPoly,
    accumulate,
    add_product,
    dot,
    intern,
    mapped,
    v,
    v_pow,
)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)


def test_add_basic():
    assert v + v_pow(-1) == LaurentPoly({1: 1, -1: 1})


def test_mul_basic():
    assert (v + 1) * (v - 1) == v_pow(2) - 1


def test_sub_cancels_to_zero():
    p = v_pow(2) - v_pow(2)
    assert p.is_zero()
    assert p == LaurentPoly()
    assert p.to_json() == {}


def test_bar_and_twist_examples():
    assert (v + v_pow(2)).bar() == v_pow(-1) + v_pow(-2)
    assert (v + v_pow(2)).twist() == -v_pow(-1) + v_pow(-2)
    one = LaurentPoly.one()
    assert one.bar() == one and one.twist() == one
    assert LaurentPoly.zero().bar().is_zero() and LaurentPoly.zero().twist().is_zero()


def test_non_integers_are_rejected_not_truncated():
    from fractions import Fraction

    for coeffs in ({0: 2.5, 1: 1}, {0: 2, 1.7: 1}, {0: Fraction(7, 2)}, {0: 0.0}):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)
    for n in (Fraction(7, 2), 2.0, 0.5):
        with pytest.raises(TypeError):
            LaurentPoly.const(n)
    with pytest.raises(TypeError):
        v * 0.5
    assert LaurentPoly({True: 3}) == LaurentPoly.const(3) * v
    assert LaurentPoly.const(True) == 1


def test_pow_rejects_non_integer_exponents():
    from fractions import Fraction

    for n in (-0.5, 2.5, 2.0, Fraction(-1, 2)):
        with pytest.raises(TypeError):
            v ** n
    assert v ** True == v
    assert (-v) ** -3 == -v_pow(-3)


def test_v_pow_rejects_non_integer_exponents():
    from fractions import Fraction

    for n in (2.5, -1.0, Fraction(3, 2)):
        with pytest.raises(TypeError):
            v_pow(n)
    assert v_pow(True) == v


def test_shifted_rejects_non_integer_exponents():
    from fractions import Fraction

    p = 1 + 2 * v
    for n in (0.5, 1.0, Fraction(1, 2)):
        with pytest.raises(TypeError):
            p.shifted(n)
        with pytest.raises(TypeError):
            LaurentPoly.zero().shifted(n)
    assert p.shifted(True) == v + 2 * v ** 2


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
    assert add_product(a, b, LaurentPoly.const(k)) == a + LaurentPoly.const(k) * b
    assert a - b == a + LaurentPoly.const(-1) * b
    assert a.shifted(n) == a * v_pow(n)
    assert a.shifted(n).shifted(-n) == a


involutions = st.sampled_from([LaurentPoly.bar, LaurentPoly.twist])


@given(polys, involutions)
def test_bar_and_twist_are_involutions(p, f):
    assert f(f(p)) == p


@given(polys, polys, involutions)
def test_bar_and_twist_are_ring_homs(a, b, f):
    assert f(a * b) == f(a) * f(b)
    assert f(a + b) == f(a) + f(b)


@given(polys)
def test_bar_and_twist_commute(p):
    # either way round the composite is v -> -v
    minus_v = LaurentPoly({e: -c if e % 2 else c for e, c in p.items()})
    assert p.bar().twist() == p.twist().bar() == minus_v


@given(polys)
def test_hash_consistent_with_eq(p):
    q = LaurentPoly({e: c for e, c in p.items()})
    assert p == q and hash(p) == hash(q)


def test_module_doctests():
    import doctest

    import heckeo.laurent as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0


# -- the packed form against the dict oracle ---------------------------------

# coefficients at and around the digit bounds: 2^30 (two of which sum to
# the digit limit), 2^31 (past which 32-bit digits are not exact), 2^62
# (past which a 64-bit digit is not), and far beyond
EDGES = (2**30, 2**31, 2**62, 10**40)
big_coeffs = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(EDGES).flatmap(lambda c: st.integers(c - 2, c + 2)),
    st.sampled_from(EDGES).flatmap(lambda c: st.integers(-c - 2, -c + 2)),
)
exponents = st.integers(-80, 80)
coeff_maps = st.dictionaries(exponents, big_coeffs, max_size=6)
scalars = st.one_of(st.integers(-3, 3), st.sampled_from((2**30, -(2**31), 2**40, -(10**40))))


def both(m):
    return LaurentPoly(m), DictLaurentPoly(m)


def assert_matches(p, o):
    """Every query of the packed value p agrees with the oracle value o."""
    assert isinstance(p, LaurentPoly) and isinstance(o, DictLaurentPoly)
    assert list(p.items()) == list(o.items())
    assert p.support() == o.support()
    assert p.min_exp() == o.min_exp() and p.max_exp() == o.max_exp()
    assert p.is_zero() == o.is_zero() and bool(p) == bool(o)
    assert p.eval_at_one() == o.eval_at_one()
    assert p.to_json() == o.to_json()
    assert str(p) == str(o)
    # the oracle's repr shows its dict in insertion order, the packed one
    # in exponent order
    assert repr(p) == f"LaurentPoly({dict(sorted(o._c.items()))!r})"
    for e in range(-82, 83, 3):
        assert p.coeff(e) == o.coeff(e)
    for e, _ in o.items():
        assert p.coeff(e) == o.coeff(e) and p.coeff(e + 1) == o.coeff(e + 1)
    assert p == LaurentPoly(dict(o.items())) and hash(p) == hash(LaurentPoly(dict(o.items())))


@settings(max_examples=100, deadline=None)
@given(coeff_maps, coeff_maps, scalars)
def test_binary_operations_match_dict_oracle(ma, mb, k):
    a, oa = both(ma)
    b, ob = both(mb)
    assert_matches(a, oa)
    assert_matches(a + b, oa + ob)
    assert_matches(a - b, oa - ob)
    assert_matches(a * b, oa * ob)
    assert_matches(add_product(a, b, LaurentPoly.const(k)), oa.plus_multiple(ob, k))
    assert_matches(a * k, oa * k)
    assert_matches(k * a, k * oa)
    assert_matches(a + k, oa + k)
    assert_matches(k - a, k - oa)
    assert (a == b) == (oa == ob)
    assert (a == k) == (oa == k)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(coeff_maps, coeff_maps, coeff_maps)
def test_add_product_matches_dict_oracle(ma, mb, mc):
    (a, oa), (b, ob), (c, oc) = both(ma), both(mb), both(mc)
    assert_matches(add_product(a, b, c), oa + ob * oc)
    assert_matches(add_product(a, b, -b), oa - ob * ob)


@settings(max_examples=100, deadline=None)
@given(coeff_maps, st.integers(-80, 80), st.integers(0, 3))
def test_unary_operations_match_dict_oracle(m, n, e):
    a, oa = both(m)
    assert_matches(-a, -oa)
    assert_matches(a.shifted(n), oa.shifted(n))
    assert_matches(a.bar(), oa.bar())
    assert_matches(a.twist(), oa.twist())
    assert_matches(a ** e, oa ** e)
    assert_matches(LaurentPoly.from_json(json.loads(json.dumps(a.to_json()))), oa)


@settings(max_examples=100, deadline=None)
@given(coeff_maps, st.integers(-80, 80))
def test_positive_part_matches_dict_oracle(m, n):
    # shifted, so that spans lie below, across and above v^0
    a, oa = both(m)
    a, oa = a.shifted(n), oa.shifted(n)
    assert_matches(a.positive_part(), DictLaurentPoly({e: c for e, c in oa.items() if e > 0}))


def test_add_product_tightens_narrow_bounds_before_widening(monkeypatch):
    # a running entry's bound is the sum of its terms' bounds: 2v^-1 + v
    # here is bounded by 4 + 1, and v by 2 + 1, and its positive part keeps
    # that bound
    entries = accumulate({0: 3 * v**-1 + v, 1: v + v**2}, [(0, v**-1), (1, v**2)], -1)
    assert entries == {0: 2 * v**-1 + v, 1: v}
    assert [p._b for p in entries.values()] == [5, 3]
    for p in entries.values():
        assert p.positive_part() == v and p.positive_part()._b == p._b

    def loose(m):
        # the value of m, its bound raised past 2^16 by a cancelled constant
        return LaurentPoly(m) + 2**15 - 2**15, DictLaurentPoly(m)

    (a, oa), (b, ob), (c, oc) = loose({0: 1}), loose({-1: 3, 2: -1}), loose({1: 2, 4: 5})
    wide_b, wide_c = loose({0: 2**16, 1: 1}), loose({1: 2**15})
    assert a._b > 2**16 and a._b + b._b * c._b >= BOUND_LIMIT
    table = {}
    intern(table, {0: b})
    key_hash = hash(b)
    # every wide-path step ends in one _from_digits call
    repacks = []
    monkeypatch.setattr(laurent, "_from_digits", lambda *a, f=laurent._from_digits: repacks.append(a) or f(*a))
    got = add_product(a, b, c)
    assert repacks == []
    assert_matches(got, oa + ob * oc)
    # each operand now carries its exact bound, and reads as before
    assert [p._b for p in (a, b, c)] == [1, 4, 7]
    assert hash(b) == key_hash and b == LaurentPoly({-1: 3, 2: -1})
    again = {0: LaurentPoly({-1: 3, 2: -1})}
    intern(table, again)
    assert again[0] is b and len(table) == 1
    # exact bounds that still reach BOUND_LIMIT take the wide path
    (b, ob), (c, oc) = wide_b, wide_c
    repacks.clear()
    got = add_product(a, b, c)
    assert len(repacks) == 1 and b._b == 2**16 + 1 and c._b == 2**15
    assert_matches(got, oa + ob * oc)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coeff_maps, coeff_maps), min_size=1, max_size=8), scalars)
def test_long_chains_match_dict_oracle(pairs, k):
    # sums of products, so that bounds grow past the digit limit and come
    # back down through cancellation
    acc, oacc = LaurentPoly(), DictLaurentPoly()
    for ma, mb in pairs:
        a, oa = both(ma)
        b, ob = both(mb)
        acc = add_product(acc, a * b, LaurentPoly.const(k)) - b
        oacc = oacc.plus_multiple(oa * ob, k) - ob
        assert list(acc.items()) == list(oacc.items())
    assert_matches(acc, oacc)
    back = acc - LaurentPoly(dict(oacc.items()))
    assert back.is_zero() and back == 0 and hash(back) == hash(LaurentPoly())


vectors = st.dictionaries(st.integers(0, 5), coeff_maps, max_size=4)


def vector_pair(vec):
    packed = {k: LaurentPoly(m) for k, m in vec.items() if LaurentPoly(m)}
    return packed, {k: DictLaurentPoly(m) for k, m in vec.items() if k in packed}


# examples: a lone wide term in a dot; five terms 2^29 in a dot, whose
# sum would overflow a 32-bit digit by the fifth; 3 * 2^29 + 2^29, which fits only at a wider
# digit; a sum that cancels to zero and then goes on below its old lowest
# exponent; and scal 0, 1, -1 and v^k, the first with an entry that cancels
MIXED = ({0: {0: 1, 2: -1}, 1: {1: 3}}, {0: {0: -1, 2: 1}, 1: {-2: 5}, 4: {-1: 2}})


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, st.one_of(scalars, coeff_maps))
@example({3: {0: 2**30 - 2}}, {3: {0: 10**40}}, 0)
@example({k: {0: 2**15} for k in range(5)}, {k: {0: 2**14} for k in range(5)}, 2)
@example({0: {0: 3 * 2**29}}, {0: {0: 2**29}}, 1)
@example({0: {1: 1}, 1: {1: 1}, 2: {3: 2}}, {0: {0: 1}, 1: {0: -1}, 2: {-5: 7}}, -1)
@example(*MIXED, 1)
@example(*MIXED, 0)
@example(*MIXED, -1)
@example(*MIXED, {5: 1})
@example(*MIXED, {-3: 1})
def test_vector_loops_match_dict_oracle(va, vb, scal):
    # accumulate and dot do add_product's narrow step inline, not through
    # LaurentPoly's operators
    a, oa = vector_pair(va)
    b, ob = vector_pair(vb)
    s, os_ = (scal, scal) if isinstance(scal, int) else both(scal)
    got = accumulate(dict(a), b.items(), s)
    expect = dict(oa)
    for k, p in ob.items():
        q = expect.get(k, DictLaurentPoly()) + p * os_
        if q.is_zero():
            expect.pop(k, None)
        else:
            expect[k] = q
    assert sorted(got) == sorted(expect)
    for k, p in got.items():
        assert_matches(p, expect[k])
    total = DictLaurentPoly()
    for k, p in oa.items():
        if k in ob:
            total = total + p * ob[k]
    assert_matches(dot(a, b), total)
    assert_matches(dot(b, a), total)


def test_vector_loops_drop_zero_terms():
    zero = LaurentPoly()
    assert accumulate({}, [(0, zero)]) == {} and accumulate({}, [(0, zero)], v) == {}
    assert accumulate({1: v}, [(0, zero), (1, -v)]) == {}
    assert accumulate({1: v}, [(1, zero)], 2**40) == {1: v}
    assert dot({0: zero}, {0: v}).is_zero() and dot({}, {0: v}).is_zero()


def test_middle_binomial_coefficient_past_two_to_the_31():
    p = (1 + v) ** 40
    assert p.coeff(20) == 137846528820 > 2**31
    assert_matches(p, (1 + DictLaurentPoly({1: 1})) ** 40)
    assert p.max_exp() == 40 and p.eval_at_one() == 2**40


def test_plus_multiple_by_two_to_the_40():
    a, oa = both({-3: 5, 0: -1, 7: 2})
    b, ob = both({0: 3, 1: -2**31 + 1})
    got = add_product(a, b, LaurentPoly.const(2**40))
    assert_matches(got, oa.plus_multiple(ob, 2**40))
    assert got.coeff(1) == -(2**31 - 1) * 2**40
    # and back down to the narrow value, equal and equally hashed
    down = add_product(got, b, LaurentPoly.const(-(2**40)))
    assert down == a and hash(down) == hash(a) and down._b < BOUND_LIMIT


def test_wide_constant_through_json_and_str():
    p, o = both({0: 10**30})
    assert_matches(p, o)
    assert str(p) == "1000000000000000000000000000000"
    assert p.to_json() == {"0": 10**30}
    assert LaurentPoly.from_json(json.loads(json.dumps(p.to_json()))) == p
    assert str(p * v - 1) == "-1 + 1000000000000000000000000000000*v"


def test_equal_values_agree_across_digit_widths():
    # (lo, n) = (0, 2^32 + 3) is 3 + v at 32-bit digits and the constant
    # 2^32 + 3 at 64-bit ones; the two must never compare equal
    narrow = 3 + v
    wide = LaurentPoly({0: 2**32 + 3})
    assert (narrow._lo, narrow._n) == (wide._lo, wide._n)
    assert narrow != wide and wide != narrow
    assert wide - 2**32 == 3 and narrow.coeff(1) == 1 and wide.coeff(1) == 0


def test_intern_keeps_equal_digits_at_two_widths_apart():
    # 1 + v and the constant 2^32 + 1 are both packed as n = 2^32 + 1, the
    # first at width 32 and the second at width 64
    narrow, wide = 1 + v, LaurentPoly({0: 2**32 + 1})
    assert narrow != wide
    table = {}
    coeffs = {0: narrow, 1: wide, 2: LaurentPoly({0: 1, 1: 1}), 3: LaurentPoly({0: 2**32 + 1})}
    intern(table, coeffs)
    assert len(table) == 2
    assert [coeffs[k] for k in range(4)] == [narrow, wide, narrow, wide]
    assert coeffs[2] is narrow and coeffs[3] is wide
    again = {0: 1 + v}
    intern(table, again)
    assert len(table) == 2 and again[0] is narrow


def test_intern_works_in_place():
    # the caller's dict is changed, with its keys in their order; a value
    # new to the table stays in place and is what the table now holds, and
    # a value equal to one the table holds is replaced by that one
    held, new = 2 + v**3, LaurentPoly({-1: 4, 2: -1})
    table = {}
    intern(table, {0: held})
    equal = LaurentPoly(dict(held.items()))
    assert equal == held and equal is not held
    coeffs = {7: new, 3: equal, 5: new, 1: held}
    assert intern(table, coeffs) is None
    assert list(coeffs) == [7, 3, 5, 1]
    assert [coeffs[k] for k in (7, 3, 5, 1)] == [new, held, new, held]
    assert coeffs[7] is new and coeffs[5] is new and coeffs[3] is held and coeffs[1] is held
    assert len(table) == 2
    assert any(q is new for q in table.values()) and not any(q is equal for q in table.values())


def test_mapped_calls_once_per_value_and_keeps_the_two_widths_apart():
    narrow, wide = 1 + v, LaurentPoly({0: 2**32 + 1})
    calls = []

    def neg(p):
        calls.append(p)
        return -p

    memo = {}
    coeffs = {0: narrow, 1: wide, 2: LaurentPoly({0: 1, 1: 1})}
    assert mapped(memo, coeffs, neg) == {0: -narrow, 1: -wide, 2: -narrow}
    assert mapped(memo, {5: LaurentPoly({0: 2**32 + 1})}, neg) == {5: -wide}
    assert calls == [narrow, wide]


def test_supported_exponent_span():
    # the packed form is dense in the exponent span; a span of 1000, twice
    # what the Hecke algebras reach, with a coefficient past every digit
    # bound, still matches the oracle within a fraction of a second
    m = {-500: 3, 0: 10**40, 500: -5}
    p, o = both(m)
    assert_matches(p * p, o * o)
    assert_matches((p * p).bar(), (o * o).bar())
    assert (p * p).max_exp() - (p * p).min_exp() == 2000
