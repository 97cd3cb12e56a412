"""Exact arithmetic in Z[v, v^-1], integer Laurent polynomials in one variable.

A polynomial is stored as an exponent -> coefficient map holding no zero
coefficients, so two polynomials are equal iff their maps are equal.  All
coefficients are Python ints, hence arbitrary precision.

>>> p = v + v**-1
>>> str(p)
'v^-1 + v'
>>> str(p * p)
'v^-2 + 2 + v^2'
>>> p.substitute("v_to_vinv") == p
True
>>> str(v.substitute("v_to_neg_vinv"))
'-v^-1'
"""

from __future__ import annotations

from typing import Iterator, Mapping

RULE_V_TO_VINV = "v_to_vinv"
RULE_V_TO_NEG_VINV = "v_to_neg_vinv"
SUBSTITUTION_RULES = (RULE_V_TO_VINV, RULE_V_TO_NEG_VINV)


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical (zero-free) form."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, n in coeffs.items():
                if n:
                    c[int(e)] = c.get(int(e), 0) + int(n)
                    if not c[int(e)]:
                        del c[int(e)]
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    def max_exp(self) -> int | None:
        return max(self._c) if self._c else None

    # -- ring structure -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other) -> "LaurentPoly":
        o = other if isinstance(other, LaurentPoly) else self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, n in o._c.items():
            m = c.get(e, 0) + n
            if m:
                c[e] = m
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def plus_multiple(self, other: "LaurentPoly", k: int) -> "LaurentPoly":
        """self + k * other for an integer k, in one pass: no product and
        no intermediate polynomial."""
        c = dict(self._c)
        for e, n in other._c.items():
            m = c.get(e, 0) + n * k
            if m:
                c[e] = m
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -n for e, n in self._c.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.plus_multiple(o, -1)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.plus_multiple(self, -1)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            # scaling by an integer needs no convolution
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: n * other for e, n in self._c.items()} if other else {}
            return out
        c: dict[int, int] = {}
        for e1, n1 in self._c.items():
            for e2, n2 in other._c.items():
                e = e1 + e2
                m = c.get(e, 0) + n1 * n2
                if m:
                    c[e] = m
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            # only unit monomials c*v^e with c = +-1 are invertible
            if len(self._c) == 1:
                ((e, cf),) = self._c.items()
                if cf in (1, -1):
                    return LaurentPoly({e * n: cf if n % 2 else 1})
            raise ValueError("negative powers only for unit monomials")
        out = LaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- substitutions -------------------------------------------------

    def substitute(self, rule: str) -> "LaurentPoly":
        """Apply v -> v^-1 or v -> -v^-1 to every monomial."""
        if rule == RULE_V_TO_VINV:
            return LaurentPoly({-e: n for e, n in self._c.items()})
        if rule == RULE_V_TO_NEG_VINV:
            return LaurentPoly({-e: (n if e % 2 == 0 else -n) for e, n in self._c.items()})
        raise ValueError(f"unknown substitution rule: {rule!r}")

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return self.substitute(RULE_V_TO_VINV)

    def shifted(self, n: int) -> "LaurentPoly":
        """Multiply by v^n."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + n: c for e, c in self._c.items()}
        return out

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    # -- serialization / display ---------------------------------------

    def to_json(self) -> dict[str, int]:
        return {str(e): self._c[e] for e in sorted(self._c)}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPoly":
        return cls({int(e): int(n) for e, n in data.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for e in sorted(self._c):
            n = self._c[e]
            if e == 0:
                body = str(abs(n))
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if abs(n) == 1 else f"{abs(n)}*{var}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r})"


def arith(a: LaurentPoly, b: LaurentPoly, op: str) -> LaurentPoly:
    """Exact +, - or * on two Laurent polynomials."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op: {op!r}")


def substitute(p: LaurentPoly, rule: str) -> LaurentPoly:
    return p.substitute(rule)


#: the generator of the ring
v = LaurentPoly({1: 1})

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def v_pow(n: int) -> LaurentPoly:
    """The monomial v^n (any integer n)."""
    return LaurentPoly({n: 1})
