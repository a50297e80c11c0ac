"""Verlinde dimensions for SL_n with interval-certified integrality.

The trigonometric sum is evaluated in interval arithmetic at adjustable
precision; the precision doubles until the enclosure is tighter than half
the integrality tolerance, and the nearest integer is returned only when
the certified distance is below the tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath

from .errors import DomainError, IntegralityFailure, TooLarge, UnsupportedType

SUBSET_BUDGET = 1_000_000
TOLERANCE = 1e-6
_MAX_PREC = 4096

# center orders of the simply connected ADE groups
_CENTER = {"E6": 3, "E7": 2, "E8": 1}


@dataclass(frozen=True)
class VerlindeQuery:
    """Inputs for one SL_n dimension: rank parameter n >= 2, genus g >= 0,
    level m >= 1, and the starting precision in bits."""

    n: int
    g: int
    m: int
    precision: int = 64

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n={self.n} must be >= 2")
        if self.g < 0:
            raise DomainError(f"g={self.g} must be >= 0")
        if self.m < 1:
            raise DomainError(f"m={self.m} must be >= 1")
        if self.precision < 8:
            raise DomainError("precision must be at least 8 bits")


def _interval_sum(query: VerlindeQuery, prec: int):
    iv = mpmath.iv
    old = iv.prec
    iv.prec = prec
    try:
        n, g, m = query.n, query.g, query.m
        h = m + n
        pi = +iv.pi
        sins = {}
        for k in range(1, h):
            s = 2 * iv.sin(pi * k / h)
            if 0 in s:
                raise IntegralityFailure(
                    f"sin interval at k={k}/{h} contains zero")
            sins[k] = s ** (g - 1)
        total = iv.mpf(0)
        universe = range(1, h + 1)
        for S in itertools.combinations(universe, n):
            inside = set(S)
            term = iv.mpf(1)
            for s in S:
                for t in universe:
                    if t not in inside:
                        term *= sins[abs(s - t)]
            total += term
        factor = Fraction(n, h) ** g
        total *= iv.mpf(factor.numerator)
        total /= iv.mpf(factor.denominator)
        return total
    finally:
        iv.prec = old


def _certify(query: VerlindeQuery, tol: float) -> tuple[int, float]:
    prec = query.precision
    while True:
        enclosure = _interval_sum(query, prec)
        # endpoint arithmetic must run at working precision, or the width
        # collapses to zero when both endpoints round to the same double
        with mpmath.workprec(prec + 16):
            lo = mpmath.mpf(enclosure.a)
            hi = mpmath.mpf(enclosure.b)
            width = hi - lo
            if width < tol / 2:
                nearest = int(mpmath.nint((lo + hi) / 2))
                residual = float(max(abs(lo - nearest), abs(hi - nearest)))
                if residual >= tol:
                    raise IntegralityFailure(
                        f"value in [{lo}, {hi}] is not within {tol} "
                        "of an integer")
                if nearest <= 0:
                    raise IntegralityFailure(
                        f"certified value {nearest} is not positive")
                return nearest, residual
        if prec >= _MAX_PREC:
            raise IntegralityFailure(
                f"cannot certify at precision {prec} (width {width})")
        prec *= 2


def verlinde_sl(query: VerlindeQuery, tol: float = TOLERANCE) -> int:
    """The certified integer value of the SL_n trigonometric dimension sum."""
    return verlinde_sl_report(query, tol)["dimension"]


def verlinde_sl_report(query: VerlindeQuery, tol: float = TOLERANCE) -> dict:
    """Dimension plus the certified integrality residual, for reporting."""
    if comb(query.n + query.m, query.n) > SUBSET_BUDGET:
        raise TooLarge(f"binomial({query.n + query.m},{query.n}) subsets "
                       f"exceed budget {SUBSET_BUDGET}")
    value, residual = _certify(query, tol)
    return {"n": query.n, "g": query.g, "m": query.m,
            "dimension": value, "residual": residual}


def genus_one_dimension(n: int, m: int) -> int:
    """Closed form binomial(n+m-1, m): the number of level-m weights,
    an independent cross-check of the trigonometric sum at genus one."""
    if n < 2 or m < 1:
        raise DomainError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    return comb(n + m - 1, m)


def level_one_ade(label: str, g: int) -> int:
    """|Z(G)|^g for a simply connected ADE type at level one."""
    if g < 0:
        raise DomainError(f"genus g={g} must be >= 0")
    s = label.strip().replace("_", "").replace(" ", "").upper()
    if not s or s[0] not in "ADE" or not s[1:].isdigit():
        raise UnsupportedType(f"not an ADE label: {label!r}")
    series, rank = s[0], int(s[1:])
    if series == "A":
        if rank < 1:
            raise UnsupportedType(f"A_r needs r >= 1, got {label!r}")
        center = rank + 1
    elif series == "D":
        if rank < 3:
            raise UnsupportedType(f"D_r needs r >= 3, got {label!r}")
        center = 4
    else:
        if s not in _CENTER:
            raise UnsupportedType(f"E series has ranks 6, 7, 8; got {label!r}")
        center = _CENTER[s]
    return center ** g
