"""Small finite fields GF(p^e) and dense univariate polynomials over them.

Field elements are integers 0..q-1 encoding coordinate vectors in the
polynomial basis (base-p digits).  The field's interface is its four
precomputed tables ``add``, ``neg``, ``mul`` and ``inv``, indexed by
elements, which is the fastest exact representation at oracle scale.  For
q = p^e with e > 1, ``mul`` and ``inv`` are built from the powers of t,
which is primitive modulo every polynomial in ``_IRREDUCIBLE``.
Polynomials are coefficient tuples, ascending in t, with no trailing zeros.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import InternalInconsistency, UnsupportedType

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

# The tables are q x q, so time and memory grow as q^2: refuse a larger
# field first.
_MAX_Q = 1024


def _factor_prime_power(q: int) -> tuple[int, int]:
    # the least divisor >= 2 of q is prime
    p = next((k for k in range(2, q + 1) if q % k == 0), None)
    m, e = q, 0
    while p and m % p == 0:
        m //= p
        e += 1
    if p is None or m != 1:
        raise UnsupportedType(f"{q} is not a prime power")
    return p, e


@lru_cache(maxsize=16)
class GF:
    """The finite field with q elements, q = p^e <= 1024, e <= 3.  The
    class is memoized, so GF(q) builds the tables of each q once.

    ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and ``inv[a]`` are the field
    operations (``inv[0]`` is 0)."""

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
            # every row holds the same q int objects, not q^2 new ones
            els = list(range(q))
            self.add = [els[x:] + els[:x] for x in range(q)]
            self.neg = [els[-x % p] for x in range(q)]
            self.mul = [[els[x * y % p] for y in range(q)] for x in range(q)]
            self.inv = [els[0]] + [els[pow(x, p - 2, p)] for x in range(1, q)]
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

        self.add = [[undigits([a + b for a, b in zip(digits(x), digits(y))])
                     for y in range(q)] for x in range(q)]
        self.neg = [undigits([-d for d in digits(x)]) for x in range(q)]
        # powers[k] = t^k: multiply by t, then use t^e = -(modulus below t^e)
        modulus = _IRREDUCIBLE[(p, e)]
        powers = [1]
        for _ in range(q - 2):
            ds = digits(powers[-1])
            top = ds.pop()
            powers.append(undigits([a - top * m
                                    for a, m in zip([0] + ds, modulus)]))
        if sorted(powers) != list(range(1, q)):
            raise InternalInconsistency(
                f"t is not primitive modulo {modulus} in GF({q})")
        log = [0] * q
        for k, x in enumerate(powers):
            log[x] = k
        cyclic = powers * 2
        self.mul = [[0] * q] + [[0] + [cyclic[log[x] + log[y]]
                                       for y in range(1, q)]
                                for x in range(1, q)]
        self.inv = [0] + [powers[-log[x]] for x in range(1, q)]

    def __repr__(self) -> str:
        return f"GF({self.q})"


class PolyRing:
    """Dense polynomial arithmetic over a fixed GF, on coefficient tuples."""

    def __init__(self, field: GF):
        self.field = field
        self.one: Poly = (1,)

    def normalize(self, coeffs: Sequence[int]) -> Poly:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def t_power(self, k: int) -> Poly:
        return (0,) * k + (1,)

    def add(self, a: Poly, b: Poly) -> Poly:
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return self.normalize(out)

    def neg(self, a: Poly) -> Poly:
        neg = self.field.neg
        return tuple(neg[c] for c in a)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return self.add(a, self.neg(b))

    def mul(self, a: Poly, b: Poly) -> Poly:
        if not a or not b:
            return ()
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                mrow = mul[x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add[out[i + j]][mrow[y]]
        return self.normalize(out)
