"""Independent brute-force oracles used by the test suite.

Everything in here deliberately avoids the production code paths it is used
to check: Bruhat order comes from the subword property, orders come from
closed formulas, and Hecke products are re-derived from scratch where needed.
"""

from __future__ import annotations

from heckeo.hecke import HeckeAlgebra, HeckeElt
from heckeo.laurent import v
from heckeo.weyl import WeylElt, WeylGroup


def bruhat_leq_bruteforce(W: WeylGroup, x: WeylElt, y: WeylElt) -> bool:
    """x <= y iff x is a product of some subword of a reduced word of y.

    The set of all subword products of a fixed reduced word of y is exactly
    the Bruhat interval [e, y], so membership is a faithful oracle.
    """
    word = W.reduced_word(y)
    reachable = {W.identity.idx}
    for i in word:
        reachable |= {W.right_multiply_gen(W.element(k), i).idx for k in reachable}
    return x.idx in reachable


def _reflect_root(cartan: list[list[int]], i: int, beta: tuple[int, ...]) -> tuple[int, ...]:
    """s_i(beta) = beta - (sum_j beta_j A[i][j]) alpha_i, in simple-root coordinates."""
    pairing = sum(c * a for c, a in zip(beta, cartan[i]))
    return tuple(c - pairing if j == i else c for j, c in enumerate(beta))


def lengths_by_inversions(W: WeylGroup) -> dict[int, int]:
    """Length of every element recomputed as the size of its inversion set:
    the number of positive roots that x sends to negative roots.

    The positive roots are rebuilt here from the Cartan matrix alone, as the
    closure of the simple roots under the simple reflections, and x acts by
    integer reflections along a word for it, so neither the length table nor
    the length of any word is ever read.
    """
    cartan = W.datum.cartan_matrix()
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    positive, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            image = _reflect_root(cartan, i, beta)
            if min(image) >= 0 and image not in positive:
                positive.add(image)
                todo.append(image)
    out = {}
    for x in W.elements():
        word = W.reduced_word(x)
        cur = W.identity
        for i in word:
            cur = W.right_multiply_gen(cur, i)
        assert cur == x
        inversions = 0
        for beta in positive:
            # x(beta) = s_{w_1}(s_{w_2}(... s_{w_k}(beta)))
            for i in reversed(word):
                beta = _reflect_root(cartan, i - 1, beta)
            inversions += min(beta) < 0
        out[x.idx] = inversions
    return out


def kl_by_product_recursion(alg: HeckeAlgebra) -> dict[int, HeckeElt]:
    """C_x for every x by the classical recursion with full Hecke products:
    C_x = C_s * C_{sx} - sum of mu(y, sx) C_y over y < sx with sy < y,
    for the first letter s of a reduced word of x (Kazhdan-Lusztig 1979).

    C_s * C_{sx} goes through the general `HeckeAlgebra.mul`, one `H_s` at
    a time along reduced words, and the table is kept here, so neither the
    left C_s action nor the algebra's own KL memo is ever used.
    """
    g = alg.group
    table = {g.identity.idx: alg.unit()}
    for x in sorted(g.elements(), key=g.length):
        if x == g.identity:
            continue
        s = g.reduced_word(x)[0]
        sx = g.left_multiply_gen(s, x)
        lower = table[sx.idx]
        c = alg.mul(alg.gen(s) + alg.unit() * v, lower)
        for y, p in lower.coeffs().items():
            mu = p.coeff(1)
            if mu and g.length(g.left_multiply_gen(s, y)) < g.length(y):
                c = c - table[y.idx] * mu
        table[x.idx] = c
    return table
