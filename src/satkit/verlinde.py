"""Verlinde dimensions for SL_n as exact cyclotomic sums.

With h = n + m, an n-subset S of Z/h contributes the product of
2 sin(pi |s - t| / h) over s in S, t not in S, to the power g - 1.  That
product is h^n over the squared product of the distances inside S, and the
sum is invariant under rotation, so the subsets containing 0 are grouped
by their histogram of cyclic distances inside S, once per (n, m).  As
2 sin(pi k / h) = (1 - w^(4k)) w^(h - 2k) with w = exp(2 pi i / 4h), the
sum is evaluated in Z[w] / Phi_4h(w), where being rational is the
checkable statement that every non-constant coefficient vanishes.  Each
term's product of factors 1 - w^(4k) is taken in Z[w^4] / (w^(4h) - 1),
packed into one big integer modulo 2^(hB) - 1.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import comb, gcd, prod
from typing import NamedTuple

from .errors import DomainError, IntegralityFailure, TooLarge, UnsupportedType

SUBSET_BUDGET = 1_000_000
# cap on _sum_work, kept as the rule that refuses a query although the
# estimate over-counts the packed sum
SUM_WORK_BUDGET = 10_000_000_000
TOLERANCE = 1e-6

# center orders of the simply connected ADE groups
_CENTER = {"E6": 3, "E7": 2, "E8": 1}


class VerlindeQuery(NamedTuple("VerlindeQuery",
                                [("n", int), ("g", int), ("m", int)])):
    """Inputs for one SL_n dimension: rank parameter n >= 2, genus g >= 0
    and level m >= 1, checked on construction.  An immutable NamedTuple, so
    it also equals the plain tuple (n, g, m)."""

    __slots__ = ()

    def __new__(cls, n: int, g: int, m: int):
        for name, value, least in (("n", n, 2), ("g", g, 0), ("m", m, 1)):
            if value < least:
                raise DomainError(f"{name}={value} must be >= {least}")
        return super().__new__(cls, n, g, m)


@functools.lru_cache(maxsize=64)
def _histograms(n: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(c, count) pairs over the n-subsets S of Z/h that contain 0, where
    c[k] counts the pairs inside S at cyclic distance k, for 0 < k <= h/2,
    by a depth-first walk: an element entering S adds its distances to the
    elements in S, and leaving S takes them away."""
    h = n + m
    dist = [min(k, h - k) for k in range(h)]
    c, counts, chosen, t = [0] * (h // 2 + 1), Counter(), [0], 1
    while True:
        if t + n - len(chosen) <= h:   # room for t and the rest of S
            for s in chosen:
                c[dist[t - s]] += 1
            chosen.append(t)
            if len(chosen) < n:
                t += 1
                continue
            counts[tuple(c)] += 1
        elif len(chosen) == 1:
            return tuple(counts.items())
        t = chosen.pop()   # then go on with its successor
        for s in chosen:
            c[dist[t - s]] -= 1
        t += 1


def _sum_work(n: int, h: int, g: int) -> int:
    """An upper estimate of the sum's work in machine words, as if each
    histogram made E multiplications by 1 - zeta^k of h coefficients of up
    to E bits, plus a fixed 64 per update.  Histograms are rotation invariant,
    so Burnside's count of the rotation classes of n-subsets bounds them.
    At any genus, the walk in _histograms adds and takes away k distances
    at each of the C(h - n + k, k) prefixes of k + 1 elements, 2 (h - n + 1)
    C(h, n - 2) updates in all, each a 64-word Python step (50-110 ns where
    the sum takes 0.3-1.7 ns per word; 2-CPU x86-64, Python 3.11)."""
    e = gcd(h, n)
    classes = sum(comb(h // d, n // d) * sum(gcd(k, d) == 1 for k in range(d))
                  for d in range(1, e + 1) if e % d == 0) // h
    E = n * (n - 1) if g == 0 else abs(g - 1) * n * (h - n)
    return classes * h * E * (64 + E // 64) + 128 * (h - n + 1) * comb(h, n - 2)


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


def _packed_sum(n: int, g: int, m: int) -> list[int]:
    """The sum over histograms in Z[w]/(w^4h - 1), constant term first.

    Z[zeta]/(zeta^h - 1) is packed into Z/M, M = 2^(hB) - 1, with zeta as
    2^B, so a ring product is an integer product folded mod M.  Each term
    is the p-th power of a product of factors 1 - zeta^k, of L1 norm 2, so
    each coefficient is below 2^E (E the total exponent) times C(h-1, n-1):
    a balanced B-bit digit with a bit to spare."""
    h = n + m
    E = n * (n - 1) if g == 0 else (g - 1) * n * (h - n)
    B = E + comb(h - 1, n - 1).bit_length() + 2
    hB, M = h * B, (1 << h * B) - 1

    def fold(x):   # congruent mod M, and |fold(x)| <= M + 4 if |x| < 2^(2hB+2)
        x = (x & M) + (x >> hB)
        return (x & M) + (x >> hB)

    p, acc = 2 if g == 0 else g - 1, [0] * 4   # acc: one per w^r, r < 4
    for c, count in _histograms(n, m):
        x, shift = 1, 0
        for k in range(1, len(c)):
            # distance k occurs 2n times from S (n times at k = h/2), twice
            # per pair inside S; genus 0 inverts: inside S squared over h^n
            across = n * (1 + (2 * k < h)) - 2 * c[k]
            e = c[k] if g == 0 else across if p else 0   # exponent in x
            for _ in range(e):   # times zeta^k - 1; 0 <= x < 2^(hB+1)
                x = (x << B * k) - x
                x = (x & M) + (x >> hB)
            shift += p * e * (3 * h - 2 * k)   # 1 - zeta^k = (zeta^k - 1) w^2h
        y = x   # then y = x^p (x = 1 at p = 0), p's bits from the top
        for bit in bin(p)[3:]:
            y = fold(y * y) if bit == "0" else fold(fold(y * y) * x)
        u, r = divmod(shift % (4 * h), 4)   # w^shift = zeta^u w^r
        acc[r] += count * fold(y << B * u)
    total, mask, half = [0] * (4 * h), (1 << B) - 1, 1 << B - 1
    for r, x in enumerate(acc):   # balanced digits of the least residue
        x = (x + (M >> 1)) % M - (M >> 1)
        for j in range(h):
            total[4 * j + r] = d = ((x & mask) ^ half) - half
            x = (x - d) >> B
    return total


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
    h, total = n + m, _packed_sum(n, g, m)
    phi = _cyclotomic(4 * h)
    deg = len(phi) - 1
    for i in range(4 * h - 1, deg - 1, -1):   # reduce mod the monic Phi_4h
        top = total[i]
        for j, p in enumerate(phi):
            total[i - deg + j] -= top * p
    if any(total[1:deg]):
        raise IntegralityFailure(f"sum for n={n}, g={g}, m={m} is not "
                                 "rational: a non-constant term survives")
    # the value (n / h)^(g - 1) total[0], over h^n at genus 0
    num, den = ((total[0] * n ** (g - 1), h ** (g - 1)) if g
                else (total[0] * h, n * h ** n))
    value, rest = divmod(num, den)
    if rest or value <= 0:
        from fractions import Fraction   # only on this failure path
        raise IntegralityFailure(f"value {Fraction(num, den)} is not a "
                                 "positive integer")
    return {"n": n, "g": g, "m": m, "dimension": value, "residual": 0.0}


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
