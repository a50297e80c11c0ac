"""Exact polynomial scalars: Z[q] and the Laurent ring Z[v, v^-1].

The formal variable v stands for -q^(1/2), so q = v^2.  Keeping v formal
means no square roots or complex embeddings ever appear; sign bookkeeping
is carried by the parity of v-exponents.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InternalInconsistency


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class QPoly:
    """Polynomial in q with integer coefficients, stored ascending from q^0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _strip(coeffs)

    @staticmethod
    def monomial(k: int, c: int = 1) -> "QPoly":
        if k < 0:
            raise ValueError("QPoly exponents must be >= 0")
        return QPoly([0] * k + [c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return QPoly((0,) * k + self.coeffs)

    def reverse(self, d: int) -> "QPoly":
        """Return q^d * self(1/q); requires degree <= d."""
        if self.degree > d:
            raise ValueError(f"degree {self.degree} exceeds reversal bound {d}")
        padded = self.coeffs + (0,) * (d + 1 - len(self.coeffs))
        return QPoly(padded[::-1])

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                var = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        return " + ".join(terms).replace("+ -", "- ")


QPoly.ZERO = QPoly()
QPoly.ONE = QPoly([1])
QPoly.Q = QPoly([0, 1])


class Laurent:
    """Laurent polynomial in v with integer coefficients.

    Stored as (low, coeffs) with coeffs ascending from v^low and nonzero at
    both ends; the zero element is (0, ()).
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int = 0, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[0] == 0:
            cs.pop(0)
            low += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            low = 0
        self.low = low
        self.coeffs = tuple(cs)

    @staticmethod
    def from_int(c: int) -> "Laurent":
        return Laurent(0, [c])

    @staticmethod
    def v_power(k: int, c: int = 1) -> "Laurent":
        return Laurent(k, [c])

    @staticmethod
    def from_qpoly(p: QPoly) -> "Laurent":
        """Substitute q = v^2."""
        out = [0] * (2 * len(p.coeffs))
        for i, c in enumerate(p.coeffs):
            out[2 * i] = c
        return Laurent(0, out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Laurent.from_int(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs))

    def __add__(self, other: "Laurent") -> "Laurent":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [0] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] += c
        return Laurent(low, out)

    def __neg__(self) -> "Laurent":
        return Laurent(self.low, [-c for c in self.coeffs])

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            return Laurent(self.low, [c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Laurent()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Laurent(self.low + other.low, out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "Laurent":
        """Multiply by v^k."""
        if self.is_zero:
            return self
        return Laurent(self.low + k, self.coeffs)

    def coeff(self, k: int) -> int:
        if self.low <= k <= self.high:
            return self.coeffs[k - self.low]
        return 0

    def as_qpoly(self) -> QPoly:
        """Rewrite as a polynomial in q = v^2.

        Raises InternalInconsistency if any odd v-power or negative exponent
        is present.
        """
        if self.is_zero:
            return QPoly.ZERO
        if self.low < 0:
            raise InternalInconsistency(f"negative v-exponent in {self!r}")
        out = []
        for k in range(self.low, self.high + 1):
            c = self.coeff(k)
            if k % 2:
                if c:
                    raise InternalInconsistency(f"odd v-power v^{k} in {self!r}")
            else:
                while len(out) <= k // 2:
                    out.append(0)
                out[k // 2] = c
        return QPoly(out)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.high, self.low - 1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                var = "v" if k == 1 else f"v^{k}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        return " + ".join(terms).replace("+ -", "- ")


Laurent.ZERO = Laurent()
Laurent.ONE = Laurent.from_int(1)
