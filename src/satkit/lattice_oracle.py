"""Brute-force ground truth over small finite fields.

Lattices in the window t^N L0 <= L <= t^-N L0 are rescaled by t^N so that
every matrix is over the polynomial ring GF(q)[t]; each lattice is stored
as its unique column-style Hermite normal form (upper triangular, diagonal
t^d_i with 0 <= d_i <= 2N, entries right of a pivot reduced modulo it).
The enumeration generates only the columns that keep t^{2N} L0 inside the
form, so no candidate is rejected, in families that differ only in H[0][n-1].
Relative positions are Smith valuations over GF(q)[[t]] of an upper triangular
H with powers of t on its diagonal, less an offset: a Hermite form at N, or the
solved matrix of ``relative_position`` between windows N1 and N2 at N1 + N2.
Below rank 4 the first k sum to the least valuation of a k x k minor of H (a
divisor chain), moving in a family only with val H[0][n-1]; at rank >= 4 and
offset <= 1 they lie in {0, 1, 2}, the rank of H mod t counts the zeros and
val det H fixes the rest.  A row that is e_i mod t adds 1 to that rank and
drops out with its column: one elimination serves a family at each constant
c of H[0][n-1], in at most three runs (c < c*, c*, c > c*).  The census and
cells read runs, n = 3 ties one by one; the divisor rule is one memo.
Otherwise (and in ``elementary_divisors``, which ``oracle_selftest`` checks
on random unimodular products) one local kernel finds them mod t^P, P above
every valuation, checked by val det.  ``convolution_table`` plans a box and
checks its budget per (q, window) before it reads any row's memo.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (DomainError, InternalInconsistency, NonPolynomialCount,
                     ShapeError, SingularMatrix, TooLarge, WindowError)
from .finite_field import GF, Poly, PolyRing
from .polynomials import QPoly
from .root_datum import Vec, dominant_coweights_in_box, make_root_datum

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV = "SATKIT_BUDGET"
# brute-side work bound of a convolution table: per row (q, lam, mu, nu), lam's
# candidate forms (n = 1: one lattice) times (4N + 1)^2, N = max |lam, nu|
_CONVOLUTION_WORK = 2 * 10 ** 9

Matrix = tuple[tuple[Poly, ...], ...]
Profiles = Optional[Iterable[tuple[int, ...]]]
Plan = list[tuple[Vec, Vec, Sequence[Vec]]]   # (lam, mu, every nu) per pair


def enumeration_budget() -> int:
    """The only cap on candidate forms: SATKIT_BUDGET, else DEFAULT_BUDGET.
    A negative or non-integer value is a DomainError."""
    raw = os.environ.get(BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_BUDGET
    if not raw.isdecimal():
        raise DomainError(
            f"{BUDGET_ENV}={raw!r} is not a non-negative integer")
    return int(raw)


class LatticeHNF(NamedTuple):
    """A window lattice in canonical Hermite form, an immutable NamedTuple;
    equality is structural and coincides with equality of lattices."""

    n: int
    q: int
    window: int
    mat: Matrix

    def diag_exponents(self) -> tuple[int, ...]:
        return tuple(len(self.mat[i][i]) - 1 for i in range(self.n))


def _shift(e: Poly, k: int) -> Poly:
    """e * t^k, a shift of the coefficients."""
    return (0,) * k + e if e else ()


def t_power_lattice(mu: Vec, q: int, N: int) -> LatticeHNF:
    """The lattice t^mu L0, rescaled into the window."""
    if any(abs(m) > N for m in mu):
        raise WindowError(f"t^{mu} does not fit in window N={N}")
    n = len(mu)
    rows = tuple(tuple(_shift((1,), N + mu[i]) if i == j else ()
                       for j in range(n)) for i in range(n))
    return LatticeHNF(n, q, N, rows)


def candidate_count(n: int, q: int, N: int) -> int:
    """Size of the search space: reduced triangular forms over every diagonal
    profile of the window.  It is the budget measure; ``enumerate_lattices``
    generates only the window lattices among them."""
    return math.prod(sum(q ** (d * (n - 1 - i)) for d in range(2 * N + 1))
                     for i in range(n))


def _check_budget(n: int, q: int, N: int) -> None:
    """DomainError unless n >= 1 and N >= 0; TooLarge over the budget."""
    if n < 1 or N < 0:
        raise DomainError(f"bad enumeration parameters n={n}, N={N}")
    cap = enumeration_budget()
    est = candidate_count(n, q, N)
    if est > cap:
        raise TooLarge(f"{est} candidate forms exceed budget {cap}")


def _solve_column(ring: PolyRing, upper: Sequence[Sequence[Poly]],
                  rhs: Sequence[Poly], j: int) -> list[Poly]:
    """x with upper[i] . x = rhs[i] for i <= j, zero below row j.

    Every diagonal entry upper[i][i] must be a power t^d of t, as in every
    Hermite form here, so dividing by it is a shift: the d lowest
    coefficients must vanish (else InternalInconsistency) and the rest is
    the quotient."""
    x: list[Poly] = [()] * len(upper)
    for i in range(j, -1, -1):
        acc, row = rhs[i], upper[i]
        for k in range(i + 1, j + 1):
            if x[k] and row[k]:
                acc = ring.sub(acc, ring.mul(row[k], x[k]))
        d = len(row[i]) - 1
        if any(acc[:d]):
            raise InternalInconsistency("window solve left a remainder")
        x[i] = acc[d:]
    return x


def _profiles(n: int, N: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(2 * N + 1), repeat=n)


def _families(n: int, q: int, N: int,
              profiles: Profiles = None) -> Iterator[tuple]:
    """The walk over every window lattice, in families.

    Iterates diagonal exponent profiles, then generates the entries above
    the diagonal column by column, only ever producing valid columns: a
    reduced triangular form is a window lattice exactly when each t^{2N} e_j
    is H x for a polynomial x, and x_j = t^s with s = 2N - d_j.  Row i < j
    reads t^{d_i} x_i + acc_i + H[i][j] t^s = 0, where acc_i sums the terms
    of rows already fixed (solved from j - 1 upward).  So acc_i must vanish
    below min(s, d_i), the coefficients of H[i][j] below d_i - s are forced
    to cancel acc_i, the top min(s, d_i) are free, and x_i is a shift.  A
    family (rows, d, f, m) sets the last free entry H[0][n-1] to f +
    t^{len f} u for each u of degree < m, in ``itertools.product`` order
    (n = 1: f = H[0][0], m = 0); ``rows`` holds the rest till resumed.
    """
    if profiles is None:
        _check_budget(n, q, N)
        profiles = _profiles(n, N)
    ring = PolyRing(GF(q))
    neg = ring.field.neg
    # (H[i][j], x_i) for every free choice when acc_i = 0 and i > 0
    # kept per walk (q^min(s, d) pairs each); census is 10-15% slower without
    unforced: dict[tuple[int, int], list[tuple[Poly, Poly]]] = {}

    def column(rows: list[list[Poly]], dexp: tuple[int, ...], j: int,
               x: list[Poly], i: int) -> Iterator[tuple]:
        if i < 0:
            yield from fill(rows, dexp, j + 1)
            return
        s, d = 2 * N - dexp[j], dexp[i]
        acc: Poly = ()
        for k in range(i + 1, j):
            if x[k]:
                acc = ring.add(acc, ring.mul(rows[i][k], x[k]))
        pairs = None if acc or not i else unforced.get((s, d))
        if pairs is None:
            if any(acc[:min(s, d)]):
                return
            forced = tuple(neg[c] for c in (acc + (0,) * d)[s:d])
            if not i and j == n - 1:
                yield rows, dexp, forced, min(s, d)
                return
            hs = (ring.normalize(forced + top)
                  for top in itertools.product(range(q), repeat=min(s, d)))
            # x_0 is never read; rows i > 0 reuse their unforced lists
            pairs = ((h, ring.neg(ring.add(acc, _shift(h, s))[d:]) if i
                      else ()) for h in hs)
            if i and not acc:
                pairs = unforced[s, d] = list(pairs)
        for rows[i][j], x[i] in pairs:
            yield from column(rows, dexp, j, x, i - 1)

    def fill(rows: list[list[Poly]], dexp: tuple[int, ...], j: int):
        x = [()] * j + [ring.t_power(2 * N - dexp[j])]
        return column(rows, dexp, j, x, j - 1)

    for dexp in profiles:
        rows = [[ring.t_power(d) if i == j else () for j in range(n)]
                for i, d in enumerate(dexp)]
        yield from fill(rows, dexp, 1) if n > 1 else [(rows, dexp,
                                                       rows[0][0], 0)]


def enumerate_lattices(n: int, q: int, N: int, profiles: Profiles = None,
                       ) -> Iterator[LatticeHNF]:
    """Every lattice of the window once: the members of each family."""
    ring = PolyRing(GF(q))
    for family in _families(n, q, N, profiles):
        yield from _members(ring, N, *family)


def _members(ring: PolyRing, N: int, rows: Sequence[Sequence[Poly]], d: Vec,
             f: Poly, m: int) -> Iterator[LatticeHNF]:
    """The lattices of one family of ``_families``, in order."""
    head, tail = tuple(rows[0][:-1]), tuple(map(tuple, rows[1:]))
    return (LatticeHNF(len(d), ring.field.q, N,
                       (head + (ring.normalize(f + top),),) + tail)
            for top in itertools.product(range(ring.field.q), repeat=m))


def _local_valuations(field: GF, mat: Sequence[Sequence[Poly]],
                      P: int) -> Optional[list[int]]:
    """Valuations of the Smith diagonal of a square matrix over GF(q)[[t]],
    computed in GF(q)[t]/(t^P); None when a remaining block vanishes mod t^P,
    that is, when some valuation is >= P (or infinite).

    Each step takes an entry of least valuation v as pivot, inverts its unit
    part mod t^(P-v), clears its column by row operations and drops its row
    and column: the rest of the pivot row has valuation >= v, so column
    operations would clear it without touching the remaining block."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    A = [[list(e[:P]) + [0] * (P - len(e)) for e in row] for row in mat]
    vals = []
    while A:
        v, pr, pc = P, 0, 0
        for r, row in enumerate(A):
            for c, e in enumerate(row):
                for k in range(v):
                    if e[k]:
                        v, pr, pc = k, r, c
                        break
        if v == P:
            return None
        vals.append(v)
        prow = A.pop(pr)
        unit = prow.pop(pc)[v:]
        # w = -1/unit mod t^(P-v), by the power-series recursion
        u0 = inv[unit[0]]
        w = [neg[u0]]
        for k in range(1, P - v):
            acc = 0
            for i in range(1, k + 1):
                acc = add[acc][mul[unit[i]][w[k - i]]]
            w.append(mul[neg[acc]][u0])
        for row in A:
            b = row.pop(pc)
            f = [0] * (P - v)
            for i in range(v, P):
                if b[i]:
                    mrow = mul[b[i]]
                    for k in range(P - i):
                        f[i - v + k] = add[f[i - v + k]][mrow[w[k]]]
            for i, fi in enumerate(f):
                if fi:
                    mrow = mul[fi]
                    for e, pe in zip(row, prow):
                        for k in range(v, P - i):
                            if pe[k]:
                                e[i + k] = add[e[i + k]][mrow[pe[k]]]
    return vals


def elementary_divisors(mat: Sequence[Sequence[Sequence[int]]], q: int) -> Vec:
    """t-adic valuations of the Smith diagonal, sorted decreasingly, as a
    dominant GL(n) coweight.  ``mat`` holds ascending coefficient sequences
    of GF(q) elements, the integers 0..q-1."""
    ring = PolyRing(GF(q))
    try:
        bad = [c for row in mat for e in row for c in e
               if not (isinstance(c, int) and 0 <= c < q)]
    except TypeError:
        raise DomainError("entries must be coefficient sequences") from None
    if bad:
        raise DomainError(f"coefficient {bad[0]!r} is not an element of "
                          f"GF({q}), encoded as 0..{q - 1}")
    rows = [[ring.normalize(e) for e in row] for row in mat]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("elementary_divisors expects a square matrix")
    # val det <= deg det <= sum of the row degrees, when det != 0
    vals = _local_valuations(ring.field, rows,
                             1 + sum(max(map(len, row)) for row in rows))
    if vals is None:
        raise SingularMatrix("matrix is singular over GF(q)[t]")
    return tuple(sorted(vals, reverse=True))


def oracle_selftest(n: int, q: int, N: int, rng) -> dict:
    """Randomized checks, reproducible through a seeded rng: the Smith form
    of diag(t^e) times random unimodular matrices on both sides, and
    inv(l2, l1) = -w0 inv(l1, l2) on random pairs of the window."""
    ring = PolyRing(GF(q))

    def unimodular() -> list[list[Poly]]:
        rows = [[(1,) if i == j else () for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                coeff = ring.normalize([rng.randrange(q) for _ in
                                        range(rng.randrange(1, 3))])
                rows[b] = [ring.add(x, ring.mul(coeff, y))
                           for x, y in zip(rows[b], rows[a])]
        return rows

    def matmul(a, b) -> list[list[Poly]]:
        return [[reduce(ring.add, map(ring.mul, row, col), ())
                 for col in zip(*b)] for row in a]

    checks = {"divisor_invariance": True, "duality": True}
    for _ in range(5):
        exps = sorted((rng.randrange(0, 2 * N + 1) for _ in range(n)),
                      reverse=True)
        M = [[ring.t_power(exps[i]) if i == j else () for j in range(n)]
             for i in range(n)]
        g, h = unimodular(), unimodular()
        if elementary_divisors(matmul(matmul(g, M), h), q) != tuple(exps):
            checks["divisor_invariance"] = False
    lats = list(enumerate_lattices(n, q, N))
    for _ in range(10):
        l1, l2 = rng.choice(lats), rng.choice(lats)
        fwd, bwd = relative_position(l1, l2), relative_position(l2, l1)
        if bwd != tuple(sorted((-x for x in fwd), reverse=True)):
            checks["duality"] = False
    return checks


def _t_valuations(field: GF, mat: Sequence[Sequence[Poly]], P: int,
                  det_val: int) -> list[int]:
    """Valuations of the Smith diagonal of a matrix between window lattices,
    which are all below P; their sum is checked against val det."""
    vals = _local_valuations(field, mat, P)
    if vals is None or sum(vals) != det_val:
        raise InternalInconsistency(
            f"Smith valuations {vals} between window lattices do not sum "
            f"to val det = {det_val}")
    return vals


def _val(h: Poly, absent: int) -> int:
    """t-adic valuation of h, or ``absent`` when h = 0."""
    for i, c in enumerate(h):
        if c:
            return i
    return absent


def _hermite_divisors(d: Sequence[int], v: int, cross: Optional[int] = None,
                      v01: int = 0, v12: int = 0) -> list[int]:
    """val Δ_k, the least valuation of a k x k minor, k <= n <= 3, from d,
    v = val H[0][n-1] and v_ij = val H[i][j] (Σd for 0).  Every minor but
    h01 h12 - t^{d1} h02 is a power of t times at most one entry; that one
    is its lesser term unless its valuation ``cross`` is given."""
    total = sum(d)
    if len(d) < 3:
        return [min(d[0], d[1], v), total] if len(d) == 2 else [total]
    d0, d1, d2 = d
    if cross is None:
        cross = min(v01 + v12, d1 + v)
    return [min(*d, v01, v, v12), min(d0 + d1, d0 + v12, d0 + d2,
                                      v01 + d2, d1 + d2, cross), total]


@lru_cache(maxsize=4096)
def _divisor_position(N: int, d: Vec, *vals) -> Vec:
    """inv(L0, L) at rank n <= 3 from its determinantal divisors, a chain."""
    least = _hermite_divisors(d, *vals)
    pos = [b - a - N for a, b in zip([0] + least, least)]
    if pos != sorted(pos):
        raise InternalInconsistency(
            f"determinantal divisors {least} of a window lattice do "
            f"not give a divisor chain")
    return tuple(reversed(pos))


def _ranks_mod_t(f: GF, mat: Sequence[Sequence[Poly]], cs: range,
                 ) -> list[tuple[int, int]]:
    """Ranks over GF(q) of the constant terms of mat (upper triangular, powers
    of t on its diagonal) with c in place of that of mat[0][n-1], as runs
    (rank, number of c) over cs: r + [a + c b != 0].  The rows that are e_i
    mod t and one elimination of the other rows but row 0 give r; it reduces
    row 0 at c = 0 to a and e_{n-1} to b, with their columns dropped too."""
    n, add, mul, neg, inv = len(mat), f.add, f.mul, f.neg, f.inv
    keep = [0] + [j for j in range(1, n) if mat[j][j] != (1,)
                  or any([e[0] for e in mat[j][j + 1:] if e])]
    free = int(keep[-1] == n - 1)   # 0 when the column of c drops out
    a, *rows = [[row[j][0] if row[j] else 0 for j in keep]
                for row in map(mat.__getitem__, keep)]
    a[-1] = 0 if free else a[-1]
    rows, r = [a, [0] * (len(keep) - 1) + [free], *rows], n - len(keep)
    while len(rows) > 2:   # eliminate all but a and b, reducing them too
        pivot = rows.pop()
        if any(pivot):
            c = next(c for c, x in enumerate(pivot) if x)
            r, m = r + 1, neg[inv[pivot[c]]]
            rows = [[add[x][mul[mul[m][row[c]]][y]] for x, y in
                     zip(row, pivot)] if row[c] else row for row in rows]
    a, b = rows
    if not any(b):
        return [(r + any(a), len(cs))]
    return [(rank, len([*run])) for rank, run in itertools.groupby(
        cs, lambda c: r + any([add[x][mul[c][y]] for x, y in zip(a, b)]))]


def _positions(ring: PolyRing, N: int, rows: Sequence[Sequence], d: Vec,
               f: Poly, m: int) -> list[tuple[Vec, int]]:
    """inv of the members (Smith valuations less N) as runs (position, length)
    in member order: one per block of fixed val H[0][n-1] below rank 4, at
    most three from one ``_ranks_mod_t`` at rank >= 4 and N <= 1, where a
    unit row mod t drops out; an n = 3 tie block and the kernel read each."""
    n, total, q, out = len(d), sum(d), ring.field.q, []
    if n >= 4 and N >= 2:   # the local kernel, per member
        return [(tuple(sorted((v - N for v in _t_valuations(
            ring.field, [[*rows[0][:-1], ring.normalize(f + top)], *rows[1:]],
            2 * N + 1, total)), reverse=True)), 1)
            for top in itertools.product(range(q), repeat=m)]
    if n >= 4:   # N <= 1: valuations in {0, 1, 2}; rank H mod t counts 0s
        c = f[0] if f else 0
        cs = range(q) if m and not f else range(c, c + 1)
        for r, size in _ranks_mod_t(ring.field, rows, cs):
            twos, ones = total - n + r, 2 * (n - r) - total
            if twos < 0 or ones < 0:
                raise InternalInconsistency(f"rank {r} of H mod t and val det "
                                            f"{total} fit no window lattice")
            out.append(((2 - N,) * twos + (1 - N,) * ones + (-N,) * r,
                        size * q ** m // len(cs)))
        return out
    # val (f + t^k u) in product order: u = 0, then blocks of one val u each
    vf, k = _val(f, None), len(f)
    runs = {vf: q ** m} if vf is not None else {total: 1, **{
        v: (q - 1) * q ** (k + m - 1 - v) for v in reversed(range(k, k + m))}}
    fixed, tie, at = (), None, 0
    if n == 3:
        fixed = v01, v12 = _val(rows[0][1], total), _val(rows[1][2], total)
        # h01 h12 - t^{d1} h02 may cancel on a tie below Δ_2 at v = cross = Σd
        if v01 + v12 - d[1] in runs and v01 + v12 < _hermite_divisors(
                d, total, total, v01, v12)[1]:
            tie, h = v01 + v12 - d[1], ring.mul(rows[0][1], rows[1][2])
    for v, length in runs.items():
        if v != tie:
            out.append((_divisor_position(N, d, v, None, *fixed), length))
        else:   # the members of the tie block, one by one
            out += [(_divisor_position(N, d, tie, _val(ring.sub(h, _shift(
                ring.normalize(f + top), d[1])), total), *fixed), 1)
                for top in itertools.islice(
                    itertools.product(range(q), repeat=m), at, at + length)]
        at += length
    return out


def inv_from_standard(lat: LatticeHNF) -> Vec:
    """Relative position inv(L0, lat): the one member of a family."""
    return _positions(PolyRing(GF(lat.q)), lat.window, lat.mat,
                      lat.diag_exponents(), lat.mat[0][-1], 0)[0][0]


def relative_position(lat1: LatticeHNF, lat2: LatticeHNF) -> Vec:
    """inv(lat1, lat2) for lattices of any two windows N1, N2: divisors of
    the matrix X of a basis of lat2 in a basis of lat1, read by
    ``_positions`` at offset N1 + N2, which cancels both rescalings; the
    local kernel runs only at rank >= 4, N1 + N2 >= 2."""
    if (lat1.n, lat1.q) != (lat2.n, lat2.q):
        raise ShapeError("lattices live in different ambient parameters")
    n, N1 = lat1.n, lat1.window
    ring = PolyRing(GF(lat1.q))
    # Solve H1 X = t^{2 N1} H2; X is polynomial because t^{2 N1} L0 <= H1 L0,
    # and upper triangular with powers of t on its diagonal as H1 and H2 are.
    X = list(zip(*[_solve_column(ring, lat1.mat, [_shift(
        lat2.mat[i][j], 2 * N1) for i in range(j + 1)], j) for j in range(n)]))
    d = tuple(len(X[i][i]) - 1 for i in range(n))
    return _positions(ring, N1 + lat2.window, X, d, X[0][-1], 0)[0][0]


def _census_chunk(args) -> Counter:
    n, q, N, chunk = args
    ring, out = PolyRing(GF(q)), Counter()
    for family in _families(n, q, N, chunk):
        for pos, length in _positions(ring, N, *family):
            out[pos] += length
    return out


def clamp_workers(requested: int, chunks: int, cpus: int) -> int:
    """The requested process count, clamped to [1, min(chunks, cpus)]."""
    return max(1, min(requested, chunks, cpus))


def cell_census(n: int, q: int, N: int, workers: int = 1) -> dict[Vec, int]:
    """Counts of every relative position inv(L0, .) over the whole window,
    from at most min(workers, profiles, CPUs) processes."""
    GF(q)   # a bad q is a usage error, whatever the estimate
    _check_budget(n, q, N)
    profs = list(_profiles(n, N))
    workers = clamp_workers(workers, len(profs), len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity")
                            else os.cpu_count() or 1)
    if workers > 1:
        chunk_size = max(1, len(profs) // (4 * workers))
        chunks = [profs[i:i + chunk_size]
                  for i in range(0, len(profs), chunk_size)]
        import multiprocessing   # only here, so importing satkit skips it
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_census_chunk, [(n, q, N, ch) for ch in chunks])
        return sum(parts, Counter())
    return _census_chunk((n, q, N, profs))


def count_cell(mu: Vec, q: int, N: int, workers: int = 1) -> int:
    """Number of lattices at relative position exactly mu from L0."""
    make_root_datum(f"GL({len(mu)})").require_dominant(mu)
    if any(abs(m) > N for m in mu):
        raise WindowError(f"window N={N} does not contain the mu={mu} cell")
    return cell_census(len(mu), q, N, workers=workers).get(mu, 0)


@lru_cache(maxsize=64)
def _window_cells(n: int, q: int, N: int) -> dict[Vec, tuple[LatticeHNF, ...]]:
    """Every lattice of the window, grouped by inv(L0, .), in walk order; the
    histogram's callers have checked the window's budget."""
    ring, cells = PolyRing(GF(q)), {}
    for family in _families(n, q, N, _profiles(n, N)):
        members = _members(ring, N, *family)
        for pos, length in _positions(ring, N, *family):
            cells.setdefault(pos, []).extend(itertools.islice(members, length))
    return {lam: tuple(lats) for lam, lats in cells.items()}


@lru_cache(maxsize=4096)
def _convolution_histogram(q: int, lam: Vec, nu: Vec) -> dict:
    """For fixed lam, nu: counts of inv(L', t^nu L0) = -w0 inv(t^nu L0, L')
    over the lam-cell, enumerated in lam's tight window; t^nu L0 sits in its
    own, so the solve against its diagonal basis is a shift of each row."""
    target = t_power_lattice(nu, q, max(map(abs, nu)))
    cell = _window_cells(len(lam), q, max(map(abs, lam))).get(lam, ())
    return Counter(tuple(-x for x in reversed(relative_position(target, lat)))
                   for lat in cell)


def convolution_table(n: int, q_list: Sequence[int], lo: int, hi: int,
                      ) -> tuple[Plan, list[list[list[int]]]]:
    """The plan of the box and ``brute_convolution`` of its rows, by q, entry
    and nu, after the budget at each q of each window max |lam|, plan order."""
    plan = convolution_plan(n, q_list, lo, hi)
    windows = dict.fromkeys(max(map(abs, lam)) for lam, _, _ in plan)
    for N, q in itertools.product(windows, q_list):
        _check_budget(n, q, N)
    # q outermost: each count reads GF(q) from a memo of 16 fields
    return plan, [[[_convolution_histogram(q, lam, nu).get(mu, 0)
                    for nu in nus] for lam, mu, nus in plan] for q in q_list]


def brute_convolution(lam: Vec, mu: Vec, nu: Vec, q: int) -> int:
    """Count of lattices L' with inv(L0, L') = lam, inv(L', t^nu L0) = mu: the
    value of c_lam * c_mu at t^nu, as one row of ``convolution_table``."""
    if not (len(lam) == len(mu) == len(nu)):
        raise ShapeError("lam, mu, nu must have equal length")
    for v, name in ((lam, "lam"), (mu, "mu"), (nu, "nu")):
        make_root_datum(f"GL({len(lam)})").require_dominant(v, name)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    GF(q)   # a bad q is a usage error, whatever the estimate
    _check_budget(len(lam), q, max(map(abs, lam)))
    return _convolution_histogram(q, lam, nu).get(mu, 0)


def convolution_plan(n: int, q_list: Sequence[int], lo: int, hi: int) -> Plan:
    """(lam, mu, every dominant nu <= lam + mu) for each pair of dominant
    GL(n) coweights with coordinates in [lo, hi], lo <= hi; TooLarge when
    counting them by ``convolution_table`` at every q of q_list is estimated
    above _CONVOLUTION_WORK.  The bounds run cheapest first."""
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    datum = make_root_datum(f"GL({n})")
    for q in q_list:   # a bad q is a usage error, whatever the estimate
        GF(q)

    def refuse_above(work: int) -> None:
        if work > _CONVOLUTION_WORK:
            raise TooLarge(f"certify work estimate exceeds {_CONVOLUTION_WORK}")

    # each of the C(w + n - 1, n)^2 pairs adds >= |q_list|: nu = lam + mu
    refuse_above(math.comb(hi - lo + n, n) ** 2 * len(q_list))
    doms = list(dominant_coweights_in_box(datum, lo, hi))
    per_window = {N: sum(candidate_count(n, q, N) if n > 1 else 1
                         for q in q_list)
                  for N in {max(map(abs, lam)) for lam in doms}}
    forms = {lam: per_window[max(map(abs, lam))] for lam in doms}
    # each pair (lam, mu) adds >= forms(lam): nu = lam + mu has factor >= 1
    refuse_above(len(doms) * sum(forms.values()))
    plan, work = [], 0
    for lam, mu in itertools.product(doms, repeat=2):
        nus = datum.dominant_below(tuple(a + b for a, b in zip(lam, mu)))
        plan.append((lam, mu, nus))
        work += forms[lam] * sum((4 * max(map(abs, lam + nu)) + 1) ** 2
                                 for nu in nus)
        refuse_above(work)
    return plan


def interpolate_count(counter: Callable[[int], int],
                      q_list: Sequence[int]) -> QPoly:
    """Lagrange interpolation of a counting function in q.

    All but the last sample determine the polynomial; the last sample is a
    verification point.  Raises NonPolynomialCount (with the witnessing
    prime power) on mismatch or non-integer coefficients.
    """
    from fractions import Fraction   # only here, so importing satkit skips it
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
    poly = [coeffs[-1]]   # then by Horner: poly (x - x_k) + coeffs[k]
    for c, x0 in zip(reversed(coeffs[:-1]), reversed(xs[:-1])):
        poly = [a - x0 * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += c
    if sum(poly[i] * qs[-1] ** i for i in range(len(poly))) != counts[-1]:
        raise NonPolynomialCount(
            f"count {counts[-1]} at q={qs[-1]} disagrees with interpolation",
            qs[-1])
    if any(c.denominator != 1 for c in poly):
        raise NonPolynomialCount(
            f"interpolation has non-integer coefficients {poly}", None)
    return QPoly([int(c) for c in poly])


# -- reports ------------------------------------------------------------------

def oracle_report(n: int, q: int, N: int, conv_bound: Optional[int] = None,
                  workers: int = 1) -> dict:
    """Machine-readable census of cells (and optionally convolutions) for
    one (n, q, N)."""
    if conv_bound is not None and conv_bound < 0:
        raise DomainError(f"conv_bound={conv_bound} must be >= 0: "
                          "the convolution box is empty")
    census = cell_census(n, q, N, workers=workers)
    cells = [{"mu": list(mu), "count": census[mu]}
             for mu in sorted(census, reverse=True)]
    plan, (table,) = ([], [[]]) if conv_bound is None else convolution_table(
        n, [q], -conv_bound, conv_bound)
    return {"n": n, "q": q, "N": N, "cells": cells, "convolutions": [
        {"lambda": list(lam), "mu": list(mu), "nu": list(nu), "count": c}
        for (lam, mu, nus), counts in zip(plan, table)
        for nu, c in zip(nus, counts)]}


def report_to_csv(report: dict, prefix: str) -> list[str]:
    """Write cells (and convolutions, when present) as CSV; returns paths."""
    import csv
    n, q, words = report["n"], report["q"], lambda v: " ".join(map(str, v))
    tables = [("cells", ["n", "q", "N", "mu", "count"],
               [[n, q, report["N"], words(r["mu"]), r["count"]]
                for r in report["cells"]])]
    if report["convolutions"]:
        tables.append(("convolutions", ["n", "q", "lambda", "mu", "nu", "count"],
                       [[n, q, words(r["lambda"]), words(r["mu"]),
                         words(r["nu"]), r["count"]]
                        for r in report["convolutions"]]))
    paths = []
    for name, header, rows in tables:
        paths.append(f"{prefix}_{name}.csv")
        with open(paths[-1], "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
    return paths
