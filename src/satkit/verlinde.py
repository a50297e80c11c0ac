"""Verlinde dimensions for SL_n as exact cyclotomic sums.

With h = n + m, an n-subset S of Z/h contributes the product of
2 sin(pi |s - t| / h) over s in S, t not in S, to the power g - 1.  That
product is h^n over the squared product of the distances inside S, and the
sum is invariant under rotation, so the subsets containing 0 are grouped
by their histogram of cyclic distances inside S, once per (n, m).  As
2 sin(pi k / h) = (1 - w^(4k)) w^(h - 2k) with w = exp(2 pi i / 4h), the
sum is evaluated in Z[w] / Phi_4h(w), where being rational is the
checkable statement that every non-constant coefficient vanishes.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod

from .errors import DomainError, IntegralityFailure, TooLarge, UnsupportedType

SUBSET_BUDGET = 1_000_000
# cap on _sum_work; a unit took about 1 ns on a 2-CPU x86-64 host, Python 3.11
SUM_WORK_BUDGET = 10_000_000_000
TOLERANCE = 1e-6

# center orders of the simply connected ADE groups
_CENTER = {"E6": 3, "E7": 2, "E8": 1}


@dataclass(frozen=True)
class VerlindeQuery:
    """Inputs for one SL_n dimension: rank parameter n >= 2, genus g >= 0
    and level m >= 1."""

    n: int
    g: int
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n={self.n} must be >= 2")
        if self.g < 0:
            raise DomainError(f"g={self.g} must be >= 0")
        if self.m < 1:
            raise DomainError(f"m={self.m} must be >= 1")


@functools.lru_cache(maxsize=64)
def _histograms(n: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(c, count) pairs over the n-subsets S of Z/h that contain 0, where
    c[k] counts the pairs inside S at cyclic distance k, for 0 < k <= h/2."""
    h = n + m
    counts = Counter()
    for rest in itertools.combinations(range(1, h), n - 1):
        c = [0] * (h // 2 + 1)
        for s, t in itertools.combinations((0, *rest), 2):
            c[min(t - s, h - t + s)] += 1
        counts[tuple(c)] += 1
    return tuple(counts.items())


def _sum_work(n: int, h: int, g: int) -> int:
    """An upper estimate of the sum's work in machine words: per histogram,
    E multiplications by 1 - zeta^k, each updating h coefficients of at most
    E bits, plus a fixed 64 per update.  Histograms are rotation invariant,
    so Burnside's count of the rotation classes of n-subsets bounds them."""
    e = gcd(h, n)
    classes = sum(comb(h // d, n // d) * sum(gcd(k, d) == 1 for k in range(d))
                  for d in range(1, e + 1) if e % d == 0) // h
    E = n * (n - 1) if g == 0 else abs(g - 1) * n * (h - n)
    return classes * h * E * (64 + E // 64)


def _cyclotomic(N: int) -> list[int]:
    """Phi_N, constant term first: the power series of the product of
    (1 - x^(N/e))^mu(e) over the squarefree divisors e of N."""
    primes = [p for p in range(2, N + 1)
              if N % p == 0 and all(p % q for q in range(2, p))]
    deg = N * prod(p - 1 for p in primes) // prod(primes)
    poly = [1] + [0] * deg
    for r in range(len(primes) + 1):
        for d in (N // prod(e) for e in itertools.combinations(primes, r)):
            if r % 2:   # divide by 1 - x^d
                for i in range(d, deg + 1):
                    poly[i] += poly[i - d]
            else:
                for i in range(deg, d - 1, -1):
                    poly[i] -= poly[i - d]
    return poly


def verlinde_sl(query: VerlindeQuery, tol: float = TOLERANCE) -> int:
    """The exact integer value of the SL_n trigonometric dimension sum."""
    return verlinde_sl_report(query, tol)["dimension"]


def verlinde_sl_report(query: VerlindeQuery, tol: float = TOLERANCE) -> dict:
    """Dimension plus its integrality residual, which is 0.0 for an exact
    sum and so below any positive tolerance."""
    n, g, m = query.n, query.g, query.m
    if comb(n + m, n) > SUBSET_BUDGET:
        raise TooLarge(f"binomial({n + m},{n}) subsets "
                       f"exceed budget {SUBSET_BUDGET}")
    work = _sum_work(n, n + m, g)
    if work > SUM_WORK_BUDGET:
        raise TooLarge(f"sum work estimate {work} exceeds budget "
                       f"{SUM_WORK_BUDGET}")
    if not tol > 0.0:
        raise IntegralityFailure(f"residual 0.0 is not below tol={tol}")
    h = n + m
    total = [0] * (4 * h)   # in Z[w]/(w^4h - 1)
    for c, count in _histograms(n, m):
        a, shift = [1] + [0] * (h - 1), 0
        for k in range(1, len(c)):
            # distance k occurs 2n times from S (n times at k = h/2), twice
            # per pair inside S; genus 0 inverts: inside S squared over h^n
            across = n * (1 + (2 * k < h)) - 2 * c[k]
            e = 2 * c[k] if g == 0 else (g - 1) * across
            for _ in range(e):   # times 1 - zeta^k, with zeta = w^4
                a = [a[j] - a[j - k] for j in range(h)]
            shift += e * (h - 2 * k)
        for j, x in enumerate(a):
            total[(4 * j + shift) % (4 * h)] += count * x
    phi = _cyclotomic(4 * h)
    deg = len(phi) - 1
    for i in range(4 * h - 1, deg - 1, -1):   # reduce mod the monic Phi_4h
        top = total[i]
        for j, p in enumerate(phi):
            total[i - deg + j] -= top * p
    if any(total[1:deg]):
        raise IntegralityFailure(f"sum for n={n}, g={g}, m={m} is not "
                                 "rational: a non-constant term survives")
    value = Fraction(n, h) ** (g - 1) * total[0] / (h ** n if g == 0 else 1)
    if value.denominator != 1 or value <= 0:
        raise IntegralityFailure(f"value {value} is not a positive integer")
    return {"n": n, "g": g, "m": m, "dimension": int(value), "residual": 0.0}


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
