import json
import random

import pytest

from heckeo.weyl import (
    CartanDatum,
    EnumerationCapExceeded,
    InadmissibleDatum,
    MalformedWord,
    MixedGroups,
    WeylError,
    build_group,
    weyl_suite,
)

from _oracles import (
    _positive_roots,
    bruhat_rows_by_lifting,
    bruhat_rows_by_subwords,
    compose_signed,
    covers_by_reflections,
    enumerate_by_signed_perms,
    lengths_by_inversions,
    lmult_by_compose,
)


def W(label):
    return build_group(CartanDatum.parse(label))


# -- datum admissibility ----------------------------------------------------

@pytest.mark.parametrize("bad", ["E6", "G3", "F3", "D3", "B1", "C1", "A0", "H2", "X",
                                 pytest.param(("A", True), id="A-bool")])
def test_inadmissible_data(bad):
    with pytest.raises(InadmissibleDatum):
        CartanDatum(*bad) if isinstance(bad, tuple) else CartanDatum.parse(bad)


def test_cap():
    with pytest.raises(EnumerationCapExceeded):
        build_group(CartanDatum("A", 8))
    assert build_group(CartanDatum("A", 4)).order == 120


# -- enumeration oracle -----------------------------------------------------

@pytest.mark.parametrize(
    "label,order,lw0",
    [("A1", 2, 1), ("A2", 6, 3), ("A3", 24, 6), ("B2", 8, 4), ("G2", 12, 6),
     ("C3", 48, 9), ("D4", 192, 12), ("F4", 1152, 24)],
)
def test_orders_and_longest(label, order, lw0):
    g = W(label)
    assert g.order == order
    assert g.length(g.w0) == lw0
    assert g.n_positive_roots == lw0


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4",
                                   "B5", "C3", "D4", "D5", "F4", "G2"])
def test_closed_form_n_counts_the_roots_closed_from_the_cartan_matrix(label):
    datum = CartanDatum.parse(label)
    assert datum.n_positive_roots() == len(_positive_roots(datum.cartan_matrix()))


def test_lengths_match_inversion_oracle():
    for label in ("A2", "B2", "G2", "A3", "D4", "F4"):
        g = W(label)
        oracle = lengths_by_inversions(g)
        for x in g.elements():
            assert g.length(x) == oracle[x.idx]


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "B5", "A6"],
)
def test_tables_match_signed_perm_oracle(label):
    g = W(label)
    oracle = enumerate_by_signed_perms(g.datum)
    assert g._lengths == oracle["lengths"]
    assert g._rmult == oracle["rmult"]
    assert g._inverse == oracle["inverse"]
    assert g._lmult == oracle["lmult"]
    assert g._w0 == oracle["w0"]


# -- multiplication ---------------------------------------------------------

def assert_products_match_signed_perms(g, pairs):
    oracle = enumerate_by_signed_perms(g.datum)
    perms, index = oracle["perms"], oracle["index"]
    for x, y in pairs:
        xy = index[compose_signed(perms[x], perms[y])]
        assert g.multiply(g.element(x), g.element(y)) == g.element(xy), (x, y)


@pytest.mark.parametrize("label", ["G2", "B3", "A4"])
def test_multiply_matches_signed_perm_composition_on_all_pairs(label):
    g = W(label)
    assert_products_match_signed_perms(
        g, [(x, y) for x in range(g.order) for y in range(g.order)]
    )


def test_multiply_matches_signed_perm_composition_on_sampled_f4_pairs():
    g = W("F4")
    rng = random.Random("multiply:F4")
    ids = range(g.order)
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(1000)]
    pairs += [(g.w0.idx, rng.choice(ids)) for _ in range(1000)]
    assert_products_match_signed_perms(g, pairs)


def test_multiply_examples():
    g = W("A2")
    e = g.identity
    s1, s2 = g.simple(1), g.simple(2)
    for x in g.elements():
        assert g.multiply(e, x) == x
        assert g.multiply(x, e) == x
    assert g.length(g.multiply(s1, s2)) == 2
    a1 = W("A1")
    s = a1.simple(1)
    assert a1.multiply(s, s) == a1.identity


def test_multiply_mixed_groups_rejected():
    g1, g2 = W("A2"), W("A2")
    with pytest.raises(MixedGroups):
        g1.multiply(g1.identity, g2.identity)
    with pytest.raises(MixedGroups):
        g1.bruhat_leq(g2.identity, g1.w0)


def test_associativity_random_triples():
    g = W("A3")
    rng = random.Random(0)
    ids = range(g.order)
    for _ in range(300):
        x, y, z = (g.element(rng.choice(ids)) for _ in range(3))
        assert g.multiply(x, g.multiply(y, z)) == g.multiply(g.multiply(x, y), z)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4", "A5"])
def test_left_multiplication_table_matches_compose_oracle(label):
    g = W(label)
    assert g._lmult == lmult_by_compose(g)


@pytest.mark.parametrize("label", ["G2", "A3", "B3", "D4", "F4"])
def test_w0x_table_is_w0_times_x(label):
    # read off the keys, -lam for the key lam of x, in the length-duality check
    g = W(label)
    assert g._w0x == [g._index_mul(g._w0, x) for x in range(g.order)]


def test_inverse_and_w0_involution():
    for label in ("A2", "B2", "G2"):
        g = W(label)
        assert g.multiply(g.w0, g.w0) == g.identity
        for x in g.elements():
            assert g.multiply(x, g.inverse(x)) == g.identity


def test_length_subadditive():
    g = W("B2")
    for x in g.elements():
        for y in g.elements():
            lxy = g.length(g.multiply(x, y))
            assert lxy <= g.length(x) + g.length(y)
            assert (lxy - g.length(x) - g.length(y)) % 2 == 0


def test_exchange_sanity():
    for label in ("A3", "B2", "G2"):
        g = W(label)
        for x in g.elements():
            for i in range(1, g.rank + 1):
                d = g.length(g.left_multiply_gen(i, x)) - g.length(x)
                assert d in (-1, 1)


@pytest.mark.parametrize("i", [0, 3])
def test_left_multiply_gen_rejects_an_index_outside_the_rank(i):
    # neither 0 wrapping to s_2 nor 3 raising a bare IndexError
    g = W("A2")
    with pytest.raises(WeylError):
        g.left_multiply_gen(i, g.identity)


@pytest.mark.parametrize("i", [0, 3, 1.0, True, "1"])
def test_simple_and_left_multiply_gen_reject_a_bad_index(i):
    # neither 0 wrapping to s_2, 3 raising a bare IndexError, True giving
    # s_1 nor 1.0 raising a bare TypeError
    g = W("A2")
    with pytest.raises(WeylError):
        g.left_multiply_gen(i, g.identity)
    with pytest.raises(WeylError):
        g.simple(i)


@pytest.mark.parametrize("idx", [1.0, True, "1", -1, 6])
def test_element_rejects_an_id_that_is_not_an_int_in_range(idx):
    # 1.0 was accepted, and naming the element then raised a TypeError
    g = W("A2")
    with pytest.raises(WeylError):
        g.element(idx)


# -- reduced words ----------------------------------------------------------

def test_reduced_words():
    g = W("A2")
    assert g.reduced_word(g.identity) == ()
    assert g.reduced_word(g.w0) == (1, 2, 1)
    for i in (1, 2):
        assert g.reduced_word(g.simple(i)) == (i,)
    for x in g.elements():
        w = g.reduced_word(x)
        assert len(w) == g.length(x)
        assert g.element_by_word(w) == x


def test_reduced_words_lex_minimal():
    # brute force: enumerate all words of length l(x), keep reduced ones
    g = W("B2")
    for x in g.elements():
        n = g.length(x)
        if n > 3:
            continue
        words = [[]]
        for _ in range(n):
            words = [w + [i] for w in words for i in (1, 2)]
        reduced = [tuple(w) for w in words if g.element_by_word(w) == x]
        assert g.reduced_word(x) == min(reduced)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_first_letters_are_the_smallest_left_descents(label):
    # the one word table, against a scan of every s x by length
    g = W(label)
    for x in g.elements()[1:]:
        descents = [i for i in range(1, g.rank + 1)
                    if g.length(g.left_multiply_gen(i, x)) < g.length(x)]
        assert g._firsts[x.idx] == descents[0] - 1
        assert g.reduced_word(x)[0] == g._firsts[x.idx] + 1


def test_names_and_parse():
    g = W("A2")
    assert g.name(g.identity) == "e"
    assert g.name(g.w0) == "1.2.1"
    assert g.parse_word("1.2.1") == g.w0
    assert g.parse_word("e") == g.identity
    assert g.parse_word("w0") == g.w0
    assert g.parse_word("s") == g.simple(1)
    with pytest.raises(MalformedWord):
        g.parse_word("1.x")
    with pytest.raises(MalformedWord):
        g.element_by_word([3])


def test_cartan_data_and_elements_are_immutable_values():
    a2, g = CartanDatum("A", 2), W("A2")
    assert a2 == CartanDatum.parse("a2") and hash(a2) == hash(CartanDatum("A", 2))
    assert a2 != CartanDatum("B", 2) and a2 != ("A", 2)
    assert repr(a2) == "CartanDatum(letter='A', rank=2)"
    x = g.element(3)
    assert x == g.element(3) and hash(x) == hash(g.element(3)) and repr(x) == g.name(x)
    assert x != W("A2").element(3)
    for obj, field in ((a2, "rank"), (x, "idx"), (x, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert (a2.rank, x.idx) == (2, 3)


@pytest.mark.parametrize("word", [[True, 2], [1.0], ["1"], [1, None]])
def test_element_by_word_rejects_a_letter_that_is_not_an_int(word):
    with pytest.raises(MalformedWord, match="is not an int"):
        W("A2").element_by_word(word)


# -- Bruhat order ------------------------------------------------------------

def test_bruhat_extremes():
    g = W("A2")
    for x in g.elements():
        assert g.bruhat_leq(g.identity, x)
        assert g.bruhat_leq(x, g.w0)
    s1, s2 = g.simple(1), g.simple(2)
    assert g.bruhat_leq(s1, g.multiply(s1, s2))


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "G2"])
def test_bruhat_matches_subword_oracle(label):
    g = W(label)
    rows = bruhat_rows_by_subwords(g)
    for x in g.elements():
        for y in g.elements():
            assert g.bruhat_leq(x, y) == bool((rows[y.idx] >> x.idx) & 1)


def leq_rows(g, ys=None):
    """Row y of the Bruhat order, the bitmask of {x : x <= y}, read from
    bruhat_leq for each id y in `ys` (default: every element)."""
    elts = g.elements()
    return {
        y: sum(1 << x.idx for x in elts if g.bruhat_leq(x, g.element(y)))
        for y in (range(g.order) if ys is None else ys)
    }


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "A4", "D4"])
def test_bruhat_rows_match_subword_oracle(label):
    g = W(label)
    assert leq_rows(g) == bruhat_rows_by_subwords(g)


@pytest.mark.parametrize("label", ["A5", "F4"])
def test_bruhat_sampled_rows_match_subword_oracle(label):
    g = W(label)
    ys = random.Random(f"bruhat:{label}").sample(range(g.order), 50)
    rows = leq_rows(g, ys)
    for y, row in bruhat_rows_by_subwords(g, ys).items():
        assert rows[y] == row, f"row {g.name(g.element(y))} of {label}"


@pytest.mark.parametrize("label", ["B3", "D4", "A5"])
def test_covers_match_subword_oracle_in_order(label):
    g = W(label)
    rows = bruhat_rows_by_subwords(g)
    assert g.bruhat_covers() == [
        (g.element(x), g.element(y))
        for y in range(g.order)
        for x in range(g.order)
        if (rows[y] >> x) & 1 and g.length(g.element(y)) == g.length(g.element(x)) + 1
    ]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_cached_row_masks_match_subword_and_lifting_oracles(label):
    g = W(label)
    subwords = bruhat_rows_by_subwords(g)
    assert g._leq_rows == [subwords[y] for y in range(g.order)]
    assert g._leq_rows == bruhat_rows_by_lifting(g)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                                   "C3", "C4", "D4", "D5", "F4", "G2"])
def test_covers_match_reflection_oracle_in_order(label):
    g = W(label)
    assert list(g._cover_ids()) == covers_by_reflections(g)


@pytest.mark.parametrize("label", ["F4", "B4"])
def test_names_from_a_cold_memo_match_reduced_words(label):
    # longest first, so each name recurses down to the identity
    g = W(label)
    names = {x: g.name(x) for x in reversed(g.elements())}
    for x in g.elements():
        assert names[x] == (".".join(map(str, g.reduced_word(x))) or "e")


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_covers_are_the_id_pairs_as_elements(label):
    g = W(label)
    assert [(a.idx, b.idx) for a, b in g.bruhat_covers()] == list(g._cover_ids())


def test_json_export_builds_no_row_masks():
    g = W("B3")
    "".join(g.json_chunks())
    assert "_leq_rows" not in vars(g)
    weyl_suite(g)
    assert "_leq_rows" in vars(g)


def test_bruhat_partial_order_check_passes_and_catches_length_break(monkeypatch):
    g = W("A3")
    check = {c.name: c for c in weyl_suite(g).checks}["weyl.bruhat_partial_order"]
    assert check.passed, check.detail
    # an extra pair at an element of the same length breaks length refinement
    s1, s2 = g.simple(1), g.simple(2)
    leq = g.bruhat_leq
    monkeypatch.setattr(g, "bruhat_leq", lambda x, y: (x, y) == (s2, s1) or leq(x, y))
    check = {c.name: c for c in weyl_suite(g).checks}["weyl.bruhat_partial_order"]
    assert not check.passed
    assert check.detail == "does not refine length"


def test_bruhat_is_partial_order_refining_length():
    g = W("A3")
    elts = g.elements()
    for x in elts:
        assert g.bruhat_leq(x, x)
        for y in elts:
            if g.bruhat_leq(x, y) and x != y:
                assert g.length(x) < g.length(y)
            if g.bruhat_leq(x, y) and g.bruhat_leq(y, x):
                assert x == y
    # transitivity via bitrows: x<=y and y<=z => x<=z
    rows = leq_rows(g)
    for y in range(g.order):
        for z in range(g.order):
            if (rows[z] >> y) & 1:
                assert rows[y] & rows[z] == rows[y]


def test_covers_and_json_export():
    g = W("A2")
    covers = g.bruhat_covers()
    assert (g.identity, g.simple(1)) in covers
    assert all(g.length(b) == g.length(a) + 1 for a, b in covers)
    data = json.loads("".join(g.json_chunks()))
    assert data["order"] == 6
    assert data["lengths"]["1.2.1"] == 3
    assert ["e", "1"] in data["covers"]


def test_module_doctests():
    import doctest

    import heckeo.weyl as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
