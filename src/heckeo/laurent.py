"""Exact arithmetic in Z[v, v^-1], integer Laurent polynomials in one variable.

A polynomial  c_0 v^lo + c_1 v^(lo+1) + ... + c_(t-1) v^(lo+t-1),  c_0 != 0,
is stored packed, by Kronecker substitution, as two Python ints:

    lo    the lowest exponent (0 for the zero polynomial),
    n     c_0 + c_1 X + ... + c_(t-1) X^(t-1),   X = 2^w,

so the coefficients are the balanced base-X digits of n, each of absolute
value below X/2, and n has no zero digit at the low end.  The digit width w
is 32.  A product is then one int product with the exponents added, a sum
one shift-and-add, v^k moves lo, the involutions v -> v^-1 (`bar`) and
v -> -v^-1 (`twist`) reverse the digits, the positive part (`positive_part`,
the KL bar solver's step) shifts off the digits below v^1, and equality and
hashing compare ints.
Every sum and product is one step a + b c (`add_product`); the vector sums
`accumulate` and `dot` do that step inline per entry, one loop each.

The form is dense in the exponent span: n has one digit per exponent from
min_exp to max_exp, zero or not, so its memory grows with the span, not
with the number of terms, and building it (Horner's rule, which also
reverses a wide value) is quadratic in the span.  The Hecke algebras here
keep exponents within +-2 l(w0), a span under 500 even for E8, where a
product costs microseconds.  A span of 4000 costs about 0.1 s with small
coefficients and seconds with 40-digit ones, and a sparse value such as
1 + v^(10^9) does not fit in memory at all.

Exactness guard.  The digits of n are the coefficients only while every
|c| < 2^(w-1), and coefficients are Python ints of any size.  So each value
carries a bound B >= sum |c|: a sum adds the bounds, a product multiplies
them, and v^k, negation, bar, twist and the positive part keep them.  A
result with B < 2^31 is packed at w = 32.  From 2^31 on, the operands are
repacked at the first multiple w of 32 with B < 2^(w-1), the operation is
done there, and the result is repacked by its exact sum |c|: at w = 32 if
that is below 2^31, else at the first such w.  The width is thus a function
of the polynomial, so (lo, n) at that width is canonical, and no
coefficient, however large, is ever lost or raises.

Bound rule.  A narrow value's bound may be loose.  Only `add_product`
tightens one: when a + b c would reach 2^31 with all three operands narrow,
it first sets each operand's bound to the exact sum |c| of its 32-bit
digits, and only a bound that still reaches 2^31 takes the wide path.  This
changes no answer: a narrow bound is in no `==`, hash or `mapped` key (lo,
n), and exact <= loose < 2^31 keeps the value narrow.

>>> p = v + v**-1
>>> str(p)
'v^-1 + v'
>>> str(p * p)
'v^-2 + 2 + v^2'
>>> p.bar() == p
True
>>> str(v.twist())
'-v^-1'
>>> ((1 + v) ** 40).coeff(20)
137846528820
>>> LaurentPoly({0: 10**30}) * LaurentPoly({1: -(10**30)})
LaurentPoly({1: -1000000000000000000000000000000000000000000000000000000000000})
"""

from __future__ import annotations

import functools
import operator
import struct
from typing import Iterable, Iterator, Mapping

#: the digit width of a value whose coefficients fit it
DIGIT_BITS = 32
DIGIT_MASK = (1 << DIGIT_BITS) - 1
#: a value with a bound below this has exact DIGIT_BITS-bit digits
BOUND_LIMIT = 1 << (DIGIT_BITS - 1)

_new = object.__new__


@functools.lru_cache(maxsize=256)
def _offset(t: int, w: int) -> int:
    """sum of 2^(w-1) X^i over i < t, X = 2^w.  Added to an n with t valid
    digits it makes digit i into c_i + 2^(w-1), in [0, X), with no carry."""
    return ((1 << (w * t)) - 1) // ((1 << w) - 1) << (w - 1)


@functools.lru_cache(maxsize=256)
def _words(t: int) -> struct.Struct:
    """The layout of t little-endian unsigned DIGIT_BITS-bit words."""
    return struct.Struct(f"<{t}I")


def _width(bound: int) -> int:
    """The digit width of a value with this bound: DIGIT_BITS below
    BOUND_LIMIT, else the first multiple w of DIGIT_BITS with bound < 2^(w-1)."""
    return (bound.bit_length() + DIGIT_BITS) // DIGIT_BITS * DIGIT_BITS


def _ndigits(n: int, w: int) -> int:
    """The number t of digits of a valid nonzero n: every |c_i| < 2^(w-1)
    and c_(t-1) != 0 put |n| in [2^(w(t-1)-1), 2^(wt-1)), so t is exact."""
    return n.bit_length() // w + 1


def _digits(n: int, w: int) -> list[int]:
    """The balanced base-2^w digits of a valid n, lowest first."""
    if not n:
        return []
    t = _ndigits(n, w)
    half = 1 << (w - 1)
    raw = (n + _offset(t, w)).to_bytes(t * w >> 3, "little")
    if w == DIGIT_BITS:
        return [u - half for u in _words(t).unpack(raw)]
    k = w >> 3
    return [int.from_bytes(raw[i:i + k], "little") - half for i in range(0, len(raw), k)]


def _pack(cs: list[int], w: int) -> int:
    """The int with balanced base-2^w digits cs, lowest first, each
    |c| < 2^(w-1), by Horner's rule."""
    n = 0
    for c in reversed(cs):
        n = (n << w) + c
    return n


def _make(lo: int, n: int, bound: int) -> "LaurentPoly":
    p = _new(LaurentPoly)
    p._lo = lo
    p._n = n
    p._b = bound
    return p


def _from_digits(lo: int, cs: list[int]) -> "LaurentPoly":
    """The canonical value sum cs[i] v^(lo+i): zeros stripped at both ends,
    the exact bound, and the width that bound gives."""
    i, j = 0, len(cs)
    while j > i and not cs[j - 1]:
        j -= 1
    while i < j and not cs[i]:
        i += 1
    if i == j:
        return ZERO
    cs = cs[i:j]
    bound = sum(map(abs, cs))
    return _make(lo + i, _pack(cs, _width(bound)), bound)


def add_product(a: "LaurentPoly", b: "LaurentPoly", c: "LaurentPoly") -> "LaurentPoly":
    """a + b c, the one arithmetic step every sum and product is made of:
    one int product and one shift-and-add on the packed fields.  When the
    bound of the result reaches BOUND_LIMIT, three narrow operands first
    take their exact bounds (the module docstring's bound rule); a bound
    that still reaches it repacks the operands at the wider digit it gives,
    does the step there, and repacks the result canonically (the guard).  A
    zero result is ZERO itself, so callers may test it by identity.

    >>> str(add_product(v, 1 + v, 1 - v))
    '1 + v - v^2'
    """
    bound = a._b + b._b * c._b
    if bound >= BOUND_LIMIT and max(a._b, b._b, c._b) < BOUND_LIMIT:
        for p in (a, b, c):
            p._b = sum(map(abs, _digits(p._n, DIGIT_BITS)))
        bound = a._b + b._b * c._b
    if bound < BOUND_LIMIT:
        w, x, n = DIGIT_BITS, a._n, b._n * c._n
    else:
        w = _width(bound)
        x = _pack(a._dense(), w)
        n = _pack(b._dense(), w) * _pack(c._dense(), w)
    if not n:
        return a if x else ZERO
    lo = b._lo + c._lo
    if x:
        d = lo - a._lo
        if d >= 0:
            lo, n = a._lo, x + (n << w * d)
        else:
            n += x << -w * d
    if w != DIGIT_BITS:
        return _from_digits(lo, _digits(n, w))
    return _narrow(lo, n, bound)


def _narrow(lo: int, n: int, bound: int) -> "LaurentPoly":
    """The canonical value whose coefficients from v^lo up are the exact 32-bit
    digits of n, under this bound: zero low digits dropped."""
    if not n & DIGIT_MASK:
        if not n:
            return ZERO
        z = ((n & -n).bit_length() - 1) // DIGIT_BITS
        lo, n = lo + z, n >> (DIGIT_BITS * z)
    return _make(lo, n, bound)


def accumulate(out: dict, terms: Iterable, scal: LaurentPoly | int = 1) -> dict:
    """Add each (index, coefficient) pair of `terms`, times `scal`, into the
    sparse vector `out` in place, dropping entries that cancel; returns
    `out`.  Each entry is `add_product`'s narrow step inline, giving the
    value it would; an entry whose bound would reach BOUND_LIMIT is one
    `add_product`, which may tighten `scal`'s bound."""
    if scal.__class__ is not LaurentPoly:
        scal = LaurentPoly.const(scal)
    sl, sn, sb = scal._lo, scal._n, scal._b
    if not sn:
        return out
    unit = sn == 1 and not sl
    get = out.get
    for k, p in terms:
        q = get(k)
        if q is None:
            if unit:
                if p._n:
                    out[k] = p
                continue
            q = ZERO
        bound = q._b + p._b * sb
        if bound >= BOUND_LIMIT:
            r = add_product(q, p, scal)
            sb = scal._b
            if r is ZERO:
                out.pop(k, None)
            else:
                out[k] = r
            continue
        lo, n = p._lo + sl, p._n * sn
        if q._n:
            d = lo - q._lo
            if d >= 0:
                lo, n = q._lo, q._n + (n << DIGIT_BITS * d)
            else:
                n += q._n << -DIGIT_BITS * d
        if not n & DIGIT_MASK:
            if not n:
                out.pop(k, None)
                continue
            z = ((n & -n).bit_length() - 1) // DIGIT_BITS
            lo, n = lo + z, n >> DIGIT_BITS * z
        r = out[k] = _new(LaurentPoly)
        r._lo, r._n, r._b = lo, n, bound
    return out


def dot(a: dict, b: dict) -> LaurentPoly:
    """sum_k a_k b_k over two sparse vectors, kept raw as one (lo, n, bound)
    aligned to its own lowest exponent and made canonical at the end; from
    the first entry whose bound would reach BOUND_LIMIT on, `add_product`."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    lo = n = bound = 0
    entries = iter(a.items())
    for k, p in entries:
        q = get(k)
        if q is None:
            continue
        e, pb = p._lo + q._lo, p._b * q._b
        if not n:
            lo, bound = e, 0
        if bound + pb >= BOUND_LIMIT:
            out = add_product(_narrow(lo, n, bound), p, q)
            for k, p in entries:
                q = get(k)
                if q is not None:
                    out = add_product(out, p, q)
            return out
        m = p._n * q._n
        if e >= lo:
            n += m << DIGIT_BITS * (e - lo)
        else:
            lo, n = e, m + (n << DIGIT_BITS * (lo - e))
        bound += pb
    return _narrow(lo, n, bound)


def mapped(memo: dict, coeffs: dict, f) -> dict:
    """{k: f(p)} for each (k, p) of `coeffs`, calling f once per distinct
    value over all the calls that share `memo`.

    `memo` is keyed on the packed form, so a lookup hashes a tuple of ints,
    not a `LaurentPoly`: (lo, n) for a narrow value, and (lo, n, bound) for a
    wide one, whose bound is exact and so fixes its width.  The width is a
    function of the value, so equal values have equal keys; a pair never
    equals a triple, so equal digits read at the two widths never collide.
    The key is made inline: a call per value would cost more than the
    lookup."""
    out = {}
    get = memo.get
    for k, p in coeffs.items():
        b = p._b
        key = (p._lo, p._n) if b < BOUND_LIMIT else (p._lo, p._n, b)
        q = get(key)
        if q is None:
            q = memo[key] = f(p)
        out[k] = q
    return out


def intern(table: dict, coeffs: dict) -> None:
    """Replace each value of `coeffs`, in place, by the equal value that
    `table` holds, and keep in `table` each value new to it: `mapped` with
    f the identity."""
    coeffs.update(mapped(table, coeffs, lambda p: p))


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical packed form (see the module
    docstring): the fields are `_lo`, `_n` and the coefficient bound `_b`.
    Its size grows with the exponent span max_exp - min_exp, dense or not."""

    __slots__ = ("_lo", "_n", "_b")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, n in coeffs.items():
                n = operator.index(n)
                if n:
                    e = operator.index(e)
                    c[e] = c.get(e, 0) + n
        p = ZERO
        live = [e for e, n in c.items() if n]
        if live:
            lo, hi = min(live), max(live)
            p = _from_digits(lo, [c.get(e, 0) for e in range(lo, hi + 1)])
        self._lo, self._n, self._b = p._lo, p._n, p._b

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return ONE

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        if n.__class__ is not int:
            n = operator.index(n)
        return _make(0, n, abs(n)) if abs(n) < BOUND_LIMIT else cls({0: n})

    # -- queries ------------------------------------------------------

    def _dense(self) -> list[int]:
        """The coefficients of v^lo, v^(lo+1), ..., v^max_exp."""
        return _digits(self._n, _width(self._b))

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return self._n != 0

    def coeff(self, exp: int) -> int:
        n = self._n
        i = exp - self._lo
        if not n or i < 0:
            return 0
        w = _width(self._b)
        if i >= _ndigits(n, w):
            return 0
        return ((n + _offset(i + 1, w)) >> (w * i) & ((1 << w) - 1)) - (1 << (w - 1))

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.items())

    def items(self) -> Iterator[tuple[int, int]]:
        lo = self._lo
        return iter([(lo + i, c) for i, c in enumerate(self._dense()) if c])

    def min_exp(self) -> int | None:
        return self._lo if self._n else None

    def max_exp(self) -> int | None:
        n = self._n
        return self._lo + _ndigits(n, _width(self._b)) - 1 if n else None

    # -- ring structure -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return add_product(self, other, ONE)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _make(self._lo, -self._n, self._b)

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return add_product(self, o, MINUS_ONE)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return add_product(o, self, MINUS_ONE)

    def __mul__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return add_product(ZERO, self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        n = operator.index(n)
        if n < 0:
            # only unit monomials c*v^e with c = +-1 are invertible
            if self._n in (1, -1):
                return _make(self._lo * n, self._n if n % 2 else 1, 1)
            raise ValueError("negative powers only for unit monomials")
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if other.__class__ is not LaurentPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # equal (lo, n) name one polynomial when the widths agree: both
        # narrow, or both wide, whose bound is then the exact sum |c|
        return (
            self._n == other._n
            and self._lo == other._lo
            and (self._b == other._b or (self._b < BOUND_LIMIT and other._b < BOUND_LIMIT))
        )

    def __hash__(self) -> int:
        return hash((self._lo, self._n))

    # -- involutions ----------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1: the digits reverse."""
        return self._reversed(False)

    def twist(self) -> "LaurentPoly":
        """The involution v -> -v^-1: the digits reverse, and each c_e
        takes the sign (-1)^e."""
        return self._reversed(True)

    def _reversed(self, signed: bool) -> "LaurentPoly":
        """A narrow value reverses the words u = c + 2^31 of n + offset with
        `struct`; then us[i] is the digit of v^(lo + t - 1 - i), and the
        sign flip maps u to 2^32 - u.  A wide value is repacked."""
        n, lo = self._n, self._lo
        if not n:
            return self
        if self._b >= BOUND_LIMIT:
            cs = self._dense()
            if signed:
                cs = [-c if e % 2 else c for e, c in enumerate(cs, lo)]
            return _from_digits(1 - lo - len(cs), cs[::-1])
        t = _ndigits(n, DIGIT_BITS)
        off, words = _offset(t, DIGIT_BITS), _words(t)
        us = words.unpack((n + off).to_bytes(4 * t, "little"))[::-1]
        if signed:
            us = list(us)
            us[(lo + t) & 1::2] = [DIGIT_MASK + 1 - u for u in us[(lo + t) & 1::2]]
        return _make(1 - lo - t, int.from_bytes(words.pack(*us), "little") - off, self._b)

    def positive_part(self) -> "LaurentPoly":
        """The terms of positive degree, under this value's bound.  A narrow
        value drops its digits below v^1 with one add and one shift."""
        d = max(1 - self._lo, 0)
        if self._b >= BOUND_LIMIT:
            return _from_digits(self._lo + d, self._dense()[d:])
        n = (self._n + _offset(d, DIGIT_BITS)) >> (DIGIT_BITS * d)
        return _narrow(self._lo + d, n, self._b)

    def shifted(self, n: int) -> "LaurentPoly":
        """Multiply by v^n."""
        if n.__class__ is not int:
            n = operator.index(n)
        return _make(self._lo + n, self._n, self._b) if self._n else self

    def eval_at_one(self) -> int:
        """sum c_i, which is n mod X - 1 taken balanced: X = 1 mod X - 1,
        and |sum c_i| <= the bound < X / 2."""
        if not self._n:
            return 0
        m = (1 << _width(self._b)) - 1
        r = self._n % m
        return r if r <= m >> 1 else r - m

    # -- serialization / display ---------------------------------------

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self.items()}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPoly":
        """The value of a `to_json` map; like the constructor, it is sized
        by the exponent span of the data."""
        return cls({int(e): int(n) for e, n in data.items()})

    def __str__(self) -> str:
        if not self._n:
            return "0"
        parts: list[str] = []
        for e, n in self.items():
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
        return f"LaurentPoly({dict(self.items())!r})"


ZERO = _make(0, 0, 0)
ONE = _make(0, 1, 1)
MINUS_ONE = _make(0, -1, 1)

#: the generator of the ring
v = LaurentPoly({1: 1})


def v_pow(n: int) -> LaurentPoly:
    """The monomial v^n (any integer n)."""
    return _make(operator.index(n), 1, 1)
