"""Exact polynomial scalars: the Laurent ring Z[v, v^-1] and its part Z[q].

The formal variable v stands for -q^(1/2), so q = v^2.  Keeping v formal
means no square roots or complex embeddings ever appear; sign bookkeeping
is carried by the parity of v-exponents.

One class, ``Laurent``, implements the ring.  ``QPoly`` is the same class
with its variable named q, built from coefficients ascending from q^0.  In
both, ``low`` is the least exponent with a nonzero coefficient and
``coeffs`` runs from var^low up to the degree, nonzero at both ends; zero
is low 0 with no coefficients.  So ``QPoly([0, 0, 3, 1])``, which is
q^3 + 3q^2, has low 2 and coeffs (3, 1), and its coefficient of q^k is
``coeff(k)``.  Sums and products of a QPoly with a Laurent raise TypeError.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InternalInconsistency


class Laurent:
    """Laurent polynomial in ``var`` with integer coefficients.

    Stored as (low, coeffs) with coeffs ascending from var^low and nonzero
    at both ends; the zero element is (0, ()).
    """

    __slots__ = ("low", "coeffs")
    var = "v"

    def __init__(self, low: int = 0, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        if not (cs and cs[0] and cs[-1]):   # strip zeros by C-level scans
            first = next(filter(None, cs), 0)
            if not first:
                self.low, self.coeffs = 0, ()
                return
            start, rev = cs.index(first), cs[::-1]
            end = len(cs) - rev.index(next(filter(None, rev)))
            low, cs = low + start, cs[start:end]
        self.low, self.coeffs = low, cs

    @classmethod
    def _make(cls, low: int, coeffs: Iterable[int]) -> "Laurent":
        p = object.__new__(cls)
        Laurent.__init__(p, low, coeffs)
        return p

    @classmethod
    def from_int(cls, c: int) -> "Laurent":
        return cls._make(0, (c,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "Laurent":
        """c * var^k."""
        return cls.from_int(c).shifted(k)

    @staticmethod
    def from_qpoly(p: "QPoly") -> "Laurent":
        """Substitute q = v^2."""
        if p.var != "q":
            raise TypeError(f"from_qpoly expects a polynomial in q, got {p!r}")
        out = [0] * (2 * len(p.coeffs))
        out[::2] = p.coeffs
        return Laurent(2 * p.low, out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """The top exponent, with the zero element assigned -1."""
        return self.low + len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.from_int(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return (self.var == other.var and self.low == other.low
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs))

    def __add__(self, other: "Laurent") -> "Laurent":
        if other.var != self.var:
            raise TypeError(f"cannot add {other!r} to {self!r}")
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        low = min(self.low, other.low)
        out = [0] * (max(self.degree, other.degree) - low + 1)
        for p in (self, other):
            for i, c in enumerate(p.coeffs, p.low - low):
                out[i] += c
        return self._make(low, out)

    def __neg__(self) -> "Laurent":
        return self._make(self.low, [-c for c in self.coeffs])

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            return self._make(self.low, [c * other for c in self.coeffs])
        if other.var != self.var:
            raise TypeError(f"cannot multiply {self!r} by {other!r}")
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    out[j] += a * b
        return self._make(self.low + other.low, out)

    __rmul__ = __mul__

    def __call__(self, x):
        """The value at x; defined when low >= 0."""
        if self.low < 0:
            raise ValueError(f"cannot evaluate {self!r}: negative exponent")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.low

    def shifted(self, k: int) -> "Laurent":
        """Multiply by var^k."""
        if not self.coeffs:
            return self
        return self._make(self.low + k, self.coeffs)

    def coeff(self, k: int) -> int:
        """The coefficient of var^k."""
        if 0 <= k - self.low < len(self.coeffs):
            return self.coeffs[k - self.low]
        return 0

    def reverse(self, d: int) -> "Laurent":
        """Return var^d * self(1/var); requires degree <= d."""
        if self.degree > d:
            raise ValueError(f"degree {self.degree} exceeds reversal bound {d}")
        return self._make(d - self.degree, self.coeffs[::-1])

    def as_qpoly(self) -> "QPoly":
        """Rewrite as a polynomial in q = v^2; raises InternalInconsistency
        if any odd v-power or negative exponent is present."""
        if self.var != "v":
            raise TypeError(f"as_qpoly expects a polynomial in v, got {self!r}")
        if self.low < 0:
            raise InternalInconsistency(f"negative v-exponent in {self!r}")
        odd = [k for k, c in enumerate(self.coeffs, self.low) if k % 2 and c]
        if odd:
            raise InternalInconsistency(f"odd v-power v^{odd[0]} in {self!r}")
        return QPoly._make(self.low // 2, self.coeffs[::2])

    def __repr__(self) -> str:
        terms = []
        for k, c in reversed(list(enumerate(self.coeffs, self.low))):
            if not c:
                continue
            x = self.var if k == 1 else f"{self.var}^{k}"
            terms.append(f"{c}" if k == 0 else x if c == 1
                         else f"-{x}" if c == -1 else f"{c}*{x}")
        return " + ".join(terms).replace("+ -", "- ") or "0"


class QPoly(Laurent):
    """Polynomial in q with integer coefficients: a Laurent element with
    low >= 0, built from its coefficients ascending from q^0."""

    __slots__ = ()
    var = "q"

    def __init__(self, coeffs: Iterable[int] = ()):
        Laurent.__init__(self, 0, coeffs)

    def shifted(self, k: int) -> "QPoly":
        if self.coeffs and self.low + k < 0:
            raise ValueError(f"{self!r} times q^{k} is not a polynomial in q")
        return super().shifted(k)


Laurent.ZERO = Laurent()
Laurent.ONE = Laurent.from_int(1)
QPoly.ZERO = QPoly()
QPoly.ONE = QPoly([1])
QPoly.Q = QPoly([0, 1])
