"""Small finite fields GF(p^e) and dense univariate polynomials over them.

Field elements are integers 0..q-1 encoding coordinate vectors in the
polynomial basis (base-p digits); arithmetic goes through precomputed
tables, which is the fastest exact representation at oracle scale.
Polynomials are coefficient tuples, ascending in t, with no trailing zeros.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .errors import UnsupportedType

# Monic irreducible polynomials (ascending coefficients, including the
# leading 1) defining GF(p^e) for e in {2, 3}; Conway-style fixed choices.
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
}

Poly = tuple[int, ...]

# The tables are q x q, so time and memory grow as q^2 (and for q = p^e,
# e > 1, inverses are found by search): refuse a larger field first.
_MAX_Q = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise UnsupportedType(f"{q} is not a prime power")
            return p, e
    raise UnsupportedType(f"{q} is not a prime power")


@lru_cache(maxsize=16)
class GF:
    """The finite field with q elements, q = p^e <= 1024, e <= 3.  The
    class is memoized, so GF(q) builds the tables of each q once."""

    def __init__(self, q: int) -> None:
        if q < 2:
            raise UnsupportedType(f"q={q} must be a prime power >= 2")
        if q > _MAX_Q:
            raise UnsupportedType(f"q={q} exceeds the largest supported "
                                  f"field size {_MAX_Q}")
        p, e = _factor_prime_power(q)
        if e > 1 and (p, e) not in _IRREDUCIBLE:
            raise UnsupportedType(
                f"no modulus on file for GF({p}^{e}); supported: "
                + ", ".join(f"{a}^{b}" for a, b in sorted(_IRREDUCIBLE)))
        self.q, self.p, self.e = q, p, e

        if e == 1:
            self._add = [[(x + y) % p for y in range(q)] for x in range(q)]
            self._neg = [-x % p for x in range(q)]
            self._mul = [[x * y % p for y in range(q)] for x in range(q)]
            self._inv = [0] + [pow(x, p - 2, p) for x in range(1, q)]
            return

        def digits(x: int) -> list[int]:
            out = []
            for _ in range(e):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds: Sequence[int]) -> int:
            x = 0
            for d in reversed(ds):
                x = x * p + (d % p)
            return x

        self._add = [[undigits([(a + b) % p for a, b in
                                zip(digits(x), digits(y))])
                      for y in range(q)] for x in range(q)]
        self._neg = [undigits([(-d) % p for d in digits(x)]) for x in range(q)]
        modulus = _IRREDUCIBLE[(p, e)]
        self._mul = []
        for x in range(q):
            row = []
            dx = digits(x)
            for y in range(q):
                dy = digits(y)
                prod = [0] * (2 * e - 1)
                for i, a in enumerate(dx):
                    for j, b in enumerate(dy):
                        prod[i + j] = (prod[i + j] + a * b) % p
                # reduce modulo the defining polynomial
                for k in range(2 * e - 2, e - 1, -1):
                    c = prod[k]
                    if c:
                        prod[k] = 0
                        for i in range(e):
                            prod[k - e + i] = (prod[k - e + i]
                                               - c * modulus[i]) % p
                row.append(undigits(prod[:e]))
            self._mul.append(row)
        self._inv = [0] * q
        for x in range(1, q):
            self._inv[x] = next(y for y in range(1, q)
                                if self._mul[x][y] == 1)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        return self._inv[a]

    def __repr__(self) -> str:
        return f"GF({self.q})"


class PolyRing:
    """Dense polynomial arithmetic over a fixed GF, on coefficient tuples."""

    def __init__(self, field: GF):
        self.field = field
        self.zero: Poly = ()
        self.one: Poly = (1,)
        self.t: Poly = (0, 1)

    def normalize(self, coeffs: Sequence[int]) -> Poly:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def t_power(self, k: int) -> Poly:
        return (0,) * k + (1,)

    def deg(self, a: Poly) -> int:
        return len(a) - 1

    def val(self, a: Poly) -> int | None:
        """t-adic valuation; None for the zero polynomial."""
        for i, c in enumerate(a):
            if c:
                return i
        return None

    def add(self, a: Poly, b: Poly) -> Poly:
        if len(a) < len(b):
            a, b = b, a
        f = self.field
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return self.normalize(out)

    def neg(self, a: Poly) -> Poly:
        f = self.field
        return tuple(f.neg(c) for c in a)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return self.add(a, self.neg(b))

    def mul(self, a: Poly, b: Poly) -> Poly:
        if not a or not b:
            return ()
        f = self.field
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                mrow = f._mul[x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = f.add(out[i + j], mrow[y])
        return self.normalize(out)

    def divmod(self, a: Poly, b: Poly) -> tuple[Poly, Poly]:
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(a)
        db, lead_inv = len(b) - 1, f.inv(b[-1])
        quo = [0] * max(len(a) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c:
                factor = f.mul(c, lead_inv)
                quo[k - db] = factor
                for i, bc in enumerate(b):
                    rem[k - db + i] = f.sub(rem[k - db + i], f.mul(factor, bc))
        return self.normalize(quo), self.normalize(rem)

    def all_of_degree_below(self, d: int):
        """All polynomials with deg < d, i.e. reduced mod t^d, in lex order."""
        q = self.field.q
        for coeffs in itertools.product(range(q), repeat=d):
            yield self.normalize(coeffs)
