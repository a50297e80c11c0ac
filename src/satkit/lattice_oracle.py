"""Brute-force ground truth over small finite fields.

Lattices in the window t^N L0 <= L <= t^-N L0 are rescaled by t^N so that
every matrix is over the polynomial ring GF(q)[t]; each lattice is stored
as its unique column-style Hermite normal form (upper triangular, diagonal
t^d_i with 0 <= d_i <= 2N, entries right of a pivot reduced modulo it).
Relative positions come from t-adic valuations of Smith-form diagonals,
which needs no localization because window quotients are t-power torsion.
"""

from __future__ import annotations

import csv
import itertools
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (DomainError, InternalInconsistency, NonPolynomialCount,
                     ShapeError, SingularMatrix, TooLarge, WindowError)
from .finite_field import GF, Poly, PolyRing
from .polynomials import QPoly
from .root_datum import Vec, make_root_datum

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV = "SATKIT_BUDGET"

Matrix = tuple[tuple[Poly, ...], ...]


def enumeration_budget(explicit: Optional[int] = None) -> int:
    """The cap on candidate forms: ``explicit``, else SATKIT_BUDGET, else
    DEFAULT_BUDGET.  A negative or non-integer value is a DomainError."""
    if explicit is not None:
        if explicit < 0:
            raise DomainError(f"budget={explicit} must be >= 0")
        return explicit
    raw = os.environ.get(BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_BUDGET
    if not raw.isdecimal():
        raise DomainError(
            f"{BUDGET_ENV}={raw!r} is not a non-negative integer")
    return int(raw)


@dataclass(frozen=True)
class LatticeHNF:
    """A window lattice in canonical Hermite form; equality is structural
    and coincides with equality of lattices."""

    n: int
    q: int
    window: int
    mat: Matrix

    def diag_exponents(self) -> tuple[int, ...]:
        return tuple(len(self.mat[i][i]) - 1 for i in range(self.n))


def standard_lattice(n: int, q: int, N: int) -> LatticeHNF:
    ring = PolyRing(GF(q))
    tN = ring.t_power(N)
    rows = tuple(tuple(tN if i == j else () for j in range(n))
                 for i in range(n))
    return LatticeHNF(n, q, N, rows)


def t_power_lattice(mu: Vec, q: int, N: int) -> LatticeHNF:
    """The lattice t^mu L0, rescaled into the window."""
    if any(abs(m) > N for m in mu):
        raise WindowError(f"t^{mu} does not fit in window N={N}")
    ring = PolyRing(GF(q))
    n = len(mu)
    rows = tuple(tuple(ring.t_power(N + mu[i]) if i == j else ()
                       for j in range(n)) for i in range(n))
    return LatticeHNF(n, q, N, rows)


def rewindow(lat: LatticeHNF, N: int) -> LatticeHNF:
    """Represent the same lattice with a larger window parameter."""
    if N < lat.window:
        raise WindowError("can only grow the window")
    if N == lat.window:
        return lat
    ring = PolyRing(GF(lat.q))
    shift = ring.t_power(N - lat.window)
    rows = tuple(tuple(ring.mul(shift, e) for e in row) for row in lat.mat)
    return LatticeHNF(lat.n, lat.q, N, rows)


def candidate_count(n: int, q: int, N: int) -> int:
    """Size of the search space: reduced triangular forms over every diagonal
    profile of the window.  It is the budget measure; the column walk of
    ``enumerate_lattices`` tests far fewer forms."""
    total = 1
    for i in range(n):
        cols_right = n - 1 - i
        total *= sum(q ** (d * cols_right) for d in range(2 * N + 1))
    return total


def _check_budget(n: int, q: int, N: int, budget: Optional[int]) -> None:
    """Raise TooLarge when the window's candidate forms exceed the budget."""
    cap = enumeration_budget(budget)
    est = candidate_count(n, q, N)
    if est > cap:
        raise TooLarge(f"{est} candidate forms exceed budget {cap}")


def _solve_column(ring: PolyRing, upper: Sequence[Sequence[Poly]],
                  rhs: Sequence[Poly], j: int) -> Optional[list[Poly]]:
    """x with upper[i] . x = rhs[i] for i <= j, or None at a remainder.

    Every diagonal entry upper[i][i] must be a power t^d of t, as in every
    Hermite form here, so dividing by it is a shift: the d lowest
    coefficients must vanish and the rest is the quotient."""
    x: list[Poly] = [()] * (j + 1)
    for i in range(j, -1, -1):
        acc = rhs[i]
        row = upper[i]
        for k in range(i + 1, j + 1):
            if x[k]:
                acc = ring.sub(acc, ring.mul(row[k], x[k]))
        d = len(row[i]) - 1
        if any(acc[:d]):
            return None
        x[i] = acc[d:]
    return x


def _profiles(n: int, N: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(2 * N + 1), repeat=n)


def enumerate_lattices(n: int, q: int, N: int,
                       budget: Optional[int] = None,
                       profiles: Optional[Iterable[tuple[int, ...]]] = None,
                       ) -> Iterator[LatticeHNF]:
    """Every lattice of the window exactly once, in a deterministic order.

    Iterates diagonal exponent profiles, then fills the reduced entries
    above the diagonal column by column.  The solve for t^{2N} e_j reads
    only columns <= j, so a prefix of columns is extended only when its
    last column passes; the complete forms that pass every column are the
    forms whose span contains t^{2N} L0 (triangular reduced forms are
    automatically canonical, but not all of them are window lattices).
    """
    if n < 1 or N < 0:
        raise DomainError(f"bad enumeration parameters n={n}, N={N}")
    if profiles is None:
        _check_budget(n, q, N, budget)
        profiles = _profiles(n, N)
    ring = PolyRing(GF(q))
    t2N = ring.t_power(2 * N)
    reduced = [list(ring.all_of_degree_below(d)) for d in range(2 * N + 1)]

    def fill(rows: list[list[Poly]], dexp: tuple[int, ...], j: int):
        if j == n:
            yield LatticeHNF(n, q, N, tuple(map(tuple, rows)))
            return
        rhs = [()] * j + [t2N]
        for col in itertools.product(*(reduced[d] for d in dexp[:j])):
            for i, e in enumerate(col):
                rows[i][j] = e
            if _solve_column(ring, rows, rhs, j) is not None:
                yield from fill(rows, dexp, j + 1)

    for dexp in profiles:
        rows = [[ring.t_power(d) if i == j else () for j in range(n)]
                for i, d in enumerate(dexp)]
        yield from fill(rows, dexp, 1)


def _diag_polys(ring: PolyRing, mat: Sequence[Sequence[Poly]]) -> list[Poly]:
    """Monic diagonal of a Smith-style diagonalization (no chain condition;
    the t-valuation multiset already matches the local elementary divisors)."""
    A = [list(row) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    diags: list[Poly] = []
    top = 0
    while top < min(m, n):
        best = None
        for i in range(top, m):
            for j in range(top, n):
                e = A[i][j]
                if e and (best is None or len(e) < len(best[2])):
                    best = (i, j, e)
        if best is None:
            break
        bi, bj, _ = best
        A[top], A[bi] = A[bi], A[top]
        if bj != top:
            for row in A:
                row[top], row[bj] = row[bj], row[top]
        while True:
            piv = A[top][top]
            dirty = False
            for i in range(top + 1, m):
                e = A[i][top]
                if e:
                    quo, rem = ring.divmod(e, piv)
                    if quo:
                        A[i] = [ring.sub(x, ring.mul(quo, y))
                                for x, y in zip(A[i], A[top])]
                    if rem:
                        A[top], A[i] = A[i], A[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, n):
                e = A[top][j]
                if e:
                    quo, rem = ring.divmod(e, piv)
                    if quo:
                        for i2 in range(top, m):
                            A[i2][j] = ring.sub(A[i2][j],
                                                ring.mul(quo, A[i2][top]))
                    if rem:
                        for row in A:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if not dirty:
                break
        diags.append(ring.monic(A[top][top]))
        top += 1
    return diags


def elementary_divisors(mat: Sequence[Sequence[Sequence[int]]], q: int) -> Vec:
    """t-adic valuations of the Smith diagonal, sorted decreasingly, as a
    dominant GL(n) coweight.  ``mat`` holds ascending coefficient sequences."""
    ring = PolyRing(GF(q))
    rows = [[ring.normalize(e) for e in row] for row in mat]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("elementary_divisors expects a square matrix")
    diags = _diag_polys(ring, rows)
    if len(diags) < n:
        raise SingularMatrix("matrix is singular over GF(q)[t]")
    vals = []
    for d in diags:
        v = ring.val(d)
        assert v is not None
        vals.append(v)
    return tuple(sorted(vals, reverse=True))


def _t_valuations(ring: PolyRing, mat: Sequence[Sequence[Poly]]) -> list[int]:
    """Valuations of the Smith diagonal of a matrix between window lattices,
    with the purity of the divisors asserted (they are powers of t)."""
    diags = _diag_polys(ring, mat)
    if len(diags) < len(mat):
        raise InternalInconsistency("singular matrix between window lattices")
    vals = []
    for d in diags:
        if not ring.is_monomial(d):
            raise InternalInconsistency(
                f"non-t-power divisor {d} between window lattices")
        vals.append(len(d) - 1)
    return vals


def inv_from_standard(lat: LatticeHNF) -> Vec:
    """Relative position inv(L0, lat)."""
    vals = _t_valuations(PolyRing(GF(lat.q)), lat.mat)
    return tuple(sorted((v - lat.window for v in vals), reverse=True))


def relative_position(lat1: LatticeHNF, lat2: LatticeHNF) -> Vec:
    """inv(lat1, lat2): divisors of the matrix of a basis of lat2 in a basis
    of lat1, with the window rescaling cancelled."""
    if (lat1.n, lat1.q, lat1.window) != (lat2.n, lat2.q, lat2.window):
        raise ShapeError("lattices live in different ambient parameters")
    n, N = lat1.n, lat1.window
    ring = PolyRing(GF(lat1.q))
    # Solve H1 X = t^{2N} H2; X is polynomial because t^{2N} L0 <= lat1,
    # and upper triangular because H1 and H2 are.
    t2N = ring.t_power(2 * N)
    cols = []
    for j in range(n):
        rhs = [ring.mul(t2N, lat2.mat[i][j]) for i in range(j + 1)]
        sol = _solve_column(ring, lat1.mat, rhs, j)
        if sol is None:
            raise InternalInconsistency("window solve left a remainder")
        cols.append(sol + [()] * (n - 1 - j))
    vals = _t_valuations(ring, list(zip(*cols)))
    return tuple(sorted((v - 2 * N for v in vals), reverse=True))


def _require_dominant_gl(mu: Vec, name: str = "mu") -> None:
    """GL(n) dominance without a RootDatum: count_cell and brute_convolution
    take bare coweights and have no datum to call require_dominant on."""
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise DomainError(f"{name}={mu} is not dominant for GL({len(mu)})")


def _census_chunk(args) -> dict[Vec, int]:
    n, q, N, chunk = args
    counts: dict[Vec, int] = {}
    for lat in enumerate_lattices(n, q, N, profiles=chunk):
        inv = inv_from_standard(lat)
        counts[inv] = counts.get(inv, 0) + 1
    return counts


def cell_census(n: int, q: int, N: int, budget: Optional[int] = None,
                workers: int = 1) -> dict[Vec, int]:
    """Counts of every relative position inv(L0, .) over the whole window."""
    _check_budget(n, q, N, budget)
    if workers > 1:
        profs = list(_profiles(n, N))
        chunk_size = max(1, len(profs) // (4 * workers))
        chunks = [profs[i:i + chunk_size]
                  for i in range(0, len(profs), chunk_size)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_census_chunk, [(n, q, N, ch) for ch in chunks])
        counts: dict[Vec, int] = {}
        for part in parts:
            for inv, c in part.items():
                counts[inv] = counts.get(inv, 0) + c
        return counts
    return _census_chunk((n, q, N, _profiles(n, N)))


def count_cell(mu: Vec, q: int, N: int, budget: Optional[int] = None,
               workers: int = 1) -> int:
    """Number of lattices at relative position exactly mu from L0."""
    _require_dominant_gl(mu)
    if any(abs(m) > N for m in mu):
        raise WindowError(f"window N={N} does not contain the mu={mu} cell")
    return cell_census(len(mu), q, N, budget=budget, workers=workers).get(mu, 0)


@lru_cache(maxsize=64)
def _window_cells(n: int, q: int, N: int) -> dict[Vec, tuple[LatticeHNF, ...]]:
    """Every lattice of the window, grouped by inv(L0, .): one enumeration
    serves every cell of the window."""
    cells: dict[Vec, list[LatticeHNF]] = {}
    for lat in enumerate_lattices(n, q, N):
        cells.setdefault(inv_from_standard(lat), []).append(lat)
    return {lam: tuple(lats) for lam, lats in cells.items()}


def _cell_members(n: int, q: int, lam: Vec) -> tuple[LatticeHNF, ...]:
    """All lattices with inv(L0, .) = lam, enumerated in the tight window."""
    N = max((abs(x) for x in lam), default=0)
    return _window_cells(n, q, N).get(lam, ())


@lru_cache(maxsize=4096)
def _convolution_histogram(n: int, q: int, lam: Vec, nu: Vec) -> dict:
    """For fixed lam, nu: counts of inv(L', t^nu L0) over the lam-cell."""
    N = max(max((abs(x) for x in lam), default=0),
            max((abs(x) for x in nu), default=0))
    target = t_power_lattice(nu, q, N)
    counts: dict[Vec, int] = {}
    for lat in _cell_members(n, q, lam):
        pos = relative_position(rewindow(lat, N), target)
        counts[pos] = counts.get(pos, 0) + 1
    return counts


def brute_convolution(lam: Vec, mu: Vec, nu: Vec, q: int,
                      budget: Optional[int] = None) -> int:
    """Number of lattices L' with inv(L0, L') = lam and inv(L', t^nu L0) = mu,
    which is the value of the convolution c_lam * c_mu at t^nu."""
    if not (len(lam) == len(mu) == len(nu)):
        raise ShapeError("lam, mu, nu must have equal length")
    _require_dominant_gl(lam, "lam")
    _require_dominant_gl(mu, "mu")
    _require_dominant_gl(nu, "nu")
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    n = len(lam)
    _check_budget(n, q, max((abs(x) for x in lam), default=0), budget)
    return _convolution_histogram(n, q, lam, nu).get(mu, 0)


def interpolate_count(counter: Callable[[int], int],
                      q_list: Sequence[int]) -> QPoly:
    """Lagrange interpolation of a counting function in q.

    All but the last sample determine the polynomial; the last sample is a
    verification point.  Raises NonPolynomialCount (with the witnessing
    prime power) on mismatch or non-integer coefficients.
    """
    qs = list(q_list)
    if len(qs) < 2 or len(set(qs)) != len(qs):
        raise DomainError("need at least two distinct sample points")
    counts = [counter(x) for x in qs]
    xs, ys = qs[:-1], counts[:-1]
    # Newton form via divided differences, exact over Q
    coeffs = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * len(xs)
    poly[0] = coeffs[0]
    base = [Fraction(1)] + [Fraction(0)] * (len(xs) - 1)
    for level in range(1, len(xs)):
        # base *= (x - xs[level-1])
        new = [Fraction(0)] * len(xs)
        for i in range(level):
            new[i + 1] += base[i]
            new[i] -= base[i] * xs[level - 1]
        base = new
        for i in range(level + 1):
            poly[i] += coeffs[level] * base[i]
    check = sum(poly[i] * qs[-1] ** i for i in range(len(poly)))
    if check != counts[-1]:
        raise NonPolynomialCount(
            f"count {counts[-1]} at q={qs[-1]} disagrees with interpolation",
            qs[-1])
    if any(c.denominator != 1 for c in poly):
        raise NonPolynomialCount(
            f"interpolation has non-integer coefficients {poly}", None)
    return QPoly([int(c) for c in poly])


# -- reports ------------------------------------------------------------------

def oracle_report(n: int, q: int, N: int, conv_bound: Optional[int] = None,
                  budget: Optional[int] = None, workers: int = 1) -> dict:
    """Machine-readable census of cells (and optionally convolutions) for
    one (n, q, N)."""
    if conv_bound is not None and conv_bound < 0:
        raise DomainError(f"conv_bound={conv_bound} must be >= 0: "
                          "the convolution box is empty")
    census = cell_census(n, q, N, budget=budget, workers=workers)
    cells = [{"mu": list(mu), "count": census[mu]}
             for mu in sorted(census, reverse=True)]
    convolutions = []
    if conv_bound is not None:
        datum = make_root_datum(f"GL({n})")
        from .root_datum import dominant_coweights_in_box
        doms = list(dominant_coweights_in_box(datum, -conv_bound, conv_bound))
        for lam in doms:
            for mu in doms:
                total = tuple(a + b for a, b in zip(lam, mu))
                for nu in datum.dominant_below(total):
                    convolutions.append({
                        "lambda": list(lam), "mu": list(mu), "nu": list(nu),
                        "count": brute_convolution(lam, mu, nu, q,
                                                   budget=budget)})
    return {"n": n, "q": q, "N": N, "cells": cells,
            "convolutions": convolutions}


def report_to_csv(report: dict, prefix: str) -> list[str]:
    """Write cells (and convolutions, when present) as CSV; returns paths."""
    paths = []
    cells_path = f"{prefix}_cells.csv"
    with open(cells_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "q", "N", "mu", "count"])
        for row in report["cells"]:
            w.writerow([report["n"], report["q"], report["N"],
                        " ".join(map(str, row["mu"])), row["count"]])
    paths.append(cells_path)
    if report["convolutions"]:
        conv_path = f"{prefix}_convolutions.csv"
        with open(conv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "q", "lambda", "mu", "nu", "count"])
            for row in report["convolutions"]:
                w.writerow([report["n"], report["q"],
                            " ".join(map(str, row["lambda"])),
                            " ".join(map(str, row["mu"])),
                            " ".join(map(str, row["nu"])), row["count"]])
        paths.append(conv_path)
    return paths
