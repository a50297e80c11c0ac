import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from satkit import lattice_oracle as lo
from satkit.cli import main
from satkit.errors import (DomainError, InternalInconsistency,
                           NonPolynomialCount, ShapeError, SingularMatrix,
                           TooLarge, UnsupportedType, WindowError)
from satkit.finite_field import GF, PolyRing
from satkit.polynomials import QPoly


# -- an independent second oracle: nilpotent-stable subspaces -------------------

def _rref_subspaces(q, m):
    """All subspaces of GF(q)^m as reduced-row-echelon bases."""
    f = GF(q)
    for r in range(m + 1):
        for pivots in itertools.combinations(range(m), r):
            free = [(i, j) for i in range(r) for j in range(m)
                    if j > pivots[i] and j not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * m for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield [tuple(row) for row in rows], pivots


def _in_span(f, rows, pivots, vec):
    v = list(vec)
    for i, p in enumerate(pivots):
        c = v[p]
        if c:
            for j in range(len(v)):
                v[j] = f.add[v[j]][f.neg[f.mul[c][rows[i][j]]]]
    return all(x == 0 for x in v)


def count_shift_stable_subspaces(n, q, N):
    """Subspaces of GF(q)^{2nN} stable under the block-shift nilpotent;
    the classical model for window lattices, independent of Hermite forms."""
    f = GF(q)
    m = 2 * N * n

    def shift(vec):
        out = [0] * m
        for b in range(n):
            for k in range(2 * N - 1):
                out[b * 2 * N + k + 1] = vec[b * 2 * N + k]
        return tuple(out)

    count = 0
    for rows, pivots in _rref_subspaces(q, m):
        if all(_in_span(f, rows, pivots, shift(v)) for v in rows):
            count += 1
    return count


# -- enumeration ----------------------------------------------------------------

def test_rank_one_window():
    lats = list(lo.enumerate_lattices(1, 5, 1))
    assert len(lats) == 3
    exps = sorted(l.diag_exponents() for l in lats)
    assert exps == [(0,), (1,), (2,)]


@pytest.mark.parametrize("n,q,N", [(1, 2, 1), (1, 3, 2), (2, 2, 1), (2, 3, 1)])
def test_enumeration_matches_subspace_oracle(n, q, N):
    ours = sum(1 for _ in lo.enumerate_lattices(n, q, N))
    assert ours == count_shift_stable_subspaces(n, q, N)


def test_enumeration_no_duplicates():
    lats = list(lo.enumerate_lattices(2, 3, 1))
    assert len(set(lats)) == len(lats)


def test_t_power_lattices_are_enumerated():
    lats = set(lo.enumerate_lattices(2, 2, 1))
    for mu in itertools.product((-1, 0, 1), repeat=2):
        assert lo.t_power_lattice(mu, 2, 1) in lats
    with pytest.raises(WindowError):
        lo.t_power_lattice((2, 0), 2, 1)


def test_budget_enforced(monkeypatch):
    monkeypatch.setenv(lo.BUDGET_ENV, "100")
    with pytest.raises(TooLarge):
        list(lo.enumerate_lattices(3, 5, 3))
    with pytest.raises(TooLarge):
        lo.count_cell((1, 0, 0), 5, 3)
    monkeypatch.setenv(lo.BUDGET_ENV, "-1")
    with pytest.raises(DomainError):
        list(lo.enumerate_lattices(2, 2, 1))
    with pytest.raises(DomainError):
        lo.brute_convolution((1, 0), (1, 0), (1, 1), 2)
    # the lam-cell is enumerated in its tight window N=1: 21 forms at q=2
    monkeypatch.setenv(lo.BUDGET_ENV, "20")
    with pytest.raises(TooLarge):
        lo.brute_convolution((1, 0), (1, 0), (1, 1), 2)
    monkeypatch.setenv(lo.BUDGET_ENV, "21")
    assert lo.brute_convolution((1, 0), (1, 0), (1, 1), 2) == 3


@pytest.mark.parametrize("q", [6, 1, 2000])
def test_bad_q_is_refused_before_the_budget(monkeypatch, q):
    # the field is checked first, so the budget's estimate at q never runs
    monkeypatch.setenv(lo.BUDGET_ENV, "1")
    with pytest.raises(UnsupportedType):
        lo.cell_census(2, q, 1)
    with pytest.raises(UnsupportedType):
        lo.brute_convolution((1, 0), (1, 0), (1, 1), q)


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv(lo.BUDGET_ENV, "10")
    with pytest.raises(TooLarge):
        list(lo.enumerate_lattices(2, 2, 1))
    monkeypatch.delenv(lo.BUDGET_ENV)
    assert sum(1 for _ in lo.enumerate_lattices(2, 2, 1)) == 15


def _full_scan(n, q, N):
    """The reference: every reduced triangular form of every diagonal
    profile, kept when each t^{2N} e_j solves by long division."""
    ring = PolyRing(GF(q))
    t2N = ring.t_power(2 * N)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for dexp in itertools.product(range(2 * N + 1), repeat=n):
        choices = [[ring.normalize(c)
                    for c in itertools.product(range(q), repeat=dexp[i])]
                   for i, _ in slots]
        for combo in itertools.product(*choices):
            rows = [[ring.t_power(dexp[i]) if i == j else ()
                     for j in range(n)] for i in range(n)]
            for (i, j), e in zip(slots, combo):
                rows[i][j] = e
            if all(_divides_column(ring, rows, t2N, j) for j in range(n)):
                yield tuple(tuple(r) for r in rows)


def _divides_column(ring, rows, t2N, j):
    x = [()] * (j + 1)
    for i in range(j, -1, -1):
        acc = t2N if i == j else ()
        for k in range(i + 1, j + 1):
            acc = ring.sub(acc, ring.mul(rows[i][k], x[k]))
        x[i], rem = _poly_divmod(ring, acc, rows[i][i])
        if rem:
            return False
    return True


def _poly_divmod(ring, a, b):
    """Long division of polynomials over GF(q): a = quo * b + rem."""
    f = ring.field
    rem = list(a)
    db, lead_inv = len(b) - 1, f.inv[b[-1]]
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        if rem[k]:
            c = f.mul[rem[k]][lead_inv]
            quo[k - db] = c
            for i, bc in enumerate(b):
                rem[k - db + i] = f.add[rem[k - db + i]][f.neg[f.mul[c][bc]]]
    return ring.normalize(quo), ring.normalize(rem)


WALK_CASES = [(1, 3, 2), (2, 4, 2), (2, 9, 1), (3, 2, 1), (3, 4, 1), (4, 2, 1)]


@pytest.mark.parametrize("n,q,N", WALK_CASES)
def test_column_walk_matches_full_scan(n, q, N):
    walk = [lat.mat for lat in lo.enumerate_lattices(n, q, N)]
    assert len(set(walk)) == len(walk)
    assert set(walk) == set(_full_scan(n, q, N))
    profs = list(lo._profiles(n, N))
    chunked = [lat.mat for k in range(0, len(profs), 4)
               for lat in lo.enumerate_lattices(n, q, N,
                                                profiles=profs[k:k + 4])]
    assert sorted(chunked) == sorted(walk)


@pytest.mark.parametrize("n,q,N", WALK_CASES)
def test_census_reads_the_walk(n, q, N):
    """cell_census and _window_cells, which read positions straight off the
    walk, agree with inv_from_standard over enumerate_lattices."""
    ref = Counter(map(lo.inv_from_standard, lo.enumerate_lattices(n, q, N)))
    assert lo.cell_census(n, q, N) == ref
    profs = list(lo._profiles(n, N))
    assert sum((lo._census_chunk((n, q, N, profs[k:k + 4]))
                for k in range(0, len(profs), 4)), Counter()) == ref
    cells = lo._window_cells(n, q, N)
    assert {lam: len(lats) for lam, lats in cells.items()} == ref
    assert all(lo.inv_from_standard(lat) == lam
               for lam, lats in cells.items() for lat in lats)
    walk = {}
    for lat in lo.enumerate_lattices(n, q, N):
        walk.setdefault(lo.inv_from_standard(lat), []).append(lat)
    assert cells == {lam: tuple(lats) for lam, lats in walk.items()}


class _CountingRing(PolyRing):
    """A ring that counts its subtractions: at n = 3, ``_positions``
    subtracts only to read the cross minor of a tie block's members."""
    subs = 0

    def sub(self, a, b):
        self.subs += 1
        return super().sub(a, b)


# (n, q, N): the families whose n = 3 tie block is read member by member
TIE_FAMILIES = {(3, 2, 1): 1, (3, 4, 1): 9, (3, 5, 1): 16}


@pytest.mark.parametrize("n,q,N",
                         WALK_CASES + [(3, 3, 1), (3, 5, 1), (4, 3, 1)])
def test_positions_come_in_runs(n, q, N, monkeypatch):
    """A family's runs cover its q^m members and expand to their
    inv_from_standard in member order; the tie block and the rank rule
    are both reached, and at rank 4 one elimination serves each family."""
    ranks, ranks_mod_t = [], lo._ranks_mod_t
    monkeypatch.setattr(lo, "_ranks_mod_t",
                        lambda *a: ranks.append(a) or ranks_mod_t(*a))
    ring, ties, ranked, runs_read, members = _CountingRing(GF(q)), 0, 0, 0, 0
    families = splits = 0
    for rows, d, f, m in lo._families(n, q, N):
        subs, ranks[:] = ring.subs, []
        runs = lo._positions(ring, N, rows, d, f, m)
        ties += ring.subs > subs
        ranked, runs_read = ranked + len(ranks), runs_read + len(runs)
        members, families = members + q ** m, families + 1
        # runs c < c*, c = c* and c > c* split around an interior c*
        splits += n == 4 and len(runs) == 3
        assert sum(length for _, length in runs) == q ** m
        expected = [lo.inv_from_standard(lat)
                    for lat in lo._members(ring, N, rows, d, f, m)]
        assert [pos for pos, length in runs for _ in range(length)] == expected
    if n == 3:
        assert ties == TIE_FAMILIES.get((n, q, N), ties) > 0
    if n == 4:   # H mod t eliminated once per family, not once per run
        assert ranked == families < runs_read < members
        assert (families, splits > 0) == {(4, 2, 1): (873, False),
                                          (4, 3, 1): (4863, True)}[n, q, N]
    assert runs_read < members or n == 1


@pytest.mark.parametrize("q,N", [(2, 30), (1021, 2), (2, 10)])
def test_rank_one_census_is_immediate(q, N):
    """At n = 1 the window holds 2N + 1 lattices, each a family of one, so
    nothing in the census may grow like q^(2N): (2, 30) and (1021, 2) pass
    the budget, and work over every u of degree up to 2N would not end."""
    start = time.perf_counter()
    census = lo.cell_census(1, q, N)
    assert lo.count_cell((N,), q, N) == 1
    assert time.perf_counter() - start < 1.0
    assert census == {(k,): 1 for k in range(-N, N + 1)}
    assert census == Counter(map(lo.inv_from_standard,
                                 lo.enumerate_lattices(1, q, N)))


@pytest.mark.parametrize("n,N", [(0, 1), (2, -1), (4, -1), (-3, 1)])
def test_census_bad_parameters(n, N):
    for workers in (1, 2):
        with pytest.raises(DomainError,
                           match=f"^bad enumeration parameters n={n}, "
                                 f"N={N}$"):
            lo.cell_census(n, 2, N, workers=workers)


# sha256 of repr(list(enumerate_lattices(*window))) as recorded at an earlier
# commit: every consumer of the walk sees the lattices in this order
@pytest.mark.parametrize("window, digest", [
    ((2, 4, 2),
     "6184539415256f5abba7da1abdb9168c5fbf95905a9afbeb72d79fdd71e0b939"),
    ((3, 3, 1),
     "7684efd4d323444bc7becc604526a13c5035107594bcd22764143853ee1fb302"),
    ((4, 2, 1),
     "6d7d96ddae01d837585ab67c2164d120475131913b96c839cab33c7dec13ca40"),
])
def test_walk_order_is_pinned(window, digest):
    lats = repr(list(lo.enumerate_lattices(*window))).encode()
    assert hashlib.sha256(lats).hexdigest() == digest


def test_two_walks_give_equal_records():
    # equality and hashing are structural: a second walk of the same window
    # builds new objects that equal and hash like the first
    first = list(lo.enumerate_lattices(3, 2, 1))
    second = list(lo.enumerate_lattices(3, 2, 1))
    assert first == second
    assert not any(a is b for a, b in zip(first, second))
    assert [hash(a) for a in first] == [hash(b) for b in second]
    assert len(set(first) | set(second)) == len(first)
    lat = lo.t_power_lattice((1, 0, -1), 2, 1)
    assert lat in set(second)
    assert repr(lat).startswith("LatticeHNF(n=3, q=2, window=1, mat=((")
    assert lat.diag_exponents() == (2, 1, 0)
    for attr in ("n", "q", "window", "mat", "other"):
        with pytest.raises(AttributeError):
            setattr(lat, attr, 0)


@pytest.mark.parametrize("n,q,N", WALK_CASES + [(3, 3, 1)])
def test_census_matches_the_kernel_route(n, q, N):
    """The census reads positions off valuations per family; the Smith
    kernel on each lattice's Hermite form is a route that shares neither
    the divisor rule nor the rank rule.  (3, 3, 1) has members whose cross
    minor cancels."""
    field = GF(q)
    ref = Counter(tuple(sorted((v - N for v in lo._t_valuations(
        field, lat.mat, 2 * N + 1, sum(lat.diag_exponents()))), reverse=True))
        for lat in lo.enumerate_lattices(n, q, N))
    assert lo.cell_census(n, q, N) == ref
    if (n, q, N) == (3, 3, 1):
        ring = PolyRing(GF(q))
        assert any(_cross_minor_cancels(ring, lat)
                   for lat in lo.enumerate_lattices(n, q, N))


def test_column_walk_prunes(monkeypatch):
    """The walk generates only valid columns, so it never runs the column
    solve to test a candidate."""
    def refuse(*args):
        raise AssertionError("enumerate_lattices tested a candidate column")

    monkeypatch.setattr(lo, "_solve_column", refuse)
    assert sum(1 for _ in lo.enumerate_lattices(3, 5, 1)) == 2607


def test_solve_column_skips_zero_entries():
    # against a diagonal basis, as for t^nu L0, a solve is a shift per row
    calls = []

    class Counting(PolyRing):
        def mul(self, a, b):
            calls.append((a, b))
            return super().mul(a, b)

    upper = [[(0, 1), (), ()], [(), (1,), ()], [(), (), (0, 0, 1)]]
    rhs = [(0, 2), (1, 1), (0, 0, 1)]
    assert lo._solve_column(Counting(GF(3)), upper, rhs, 2) == [
        (2,), (1, 1), (1,)]
    assert calls == []
    # zero below row j; a remainder under the diagonal shift is refused
    assert lo._solve_column(PolyRing(GF(3)), upper, rhs, 0) == [(2,), (), ()]
    with pytest.raises(InternalInconsistency, match="window solve left"):
        lo._solve_column(PolyRing(GF(3)), upper, [(1,)], 0)


def _macdonald_count(mu, q):
    """#Gr_mu(F_q) = q^<2rho,mu> P_n(1/q) / prod_k P_{m_k}(1/q), with
    P_m(x) = (1-x)...(1-x^m) and m_k the multiplicities of the entries."""
    def P(m):
        out = Fraction(1)
        for i in range(1, m + 1):
            out *= 1 - Fraction(1, q ** i)
        return out

    value = Fraction(q) ** sum(a - b for a, b in itertools.combinations(mu, 2))
    value *= P(len(mu))
    for m in (mu.count(x) for x in set(mu)):
        value /= P(m)
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize("n,q,N", [(2, 4, 2), (2, 8, 1), (2, 9, 2),
                                   (3, 4, 1), (3, 5, 1), (4, 2, 1),
                                   (4, 3, 1), (5, 2, 1)])
def test_census_matches_macdonald(n, q, N, monkeypatch):
    # (5, 2, 1) has 8,788,689 candidate forms
    monkeypatch.setenv("SATKIT_BUDGET", "10000000")
    dominant = [mu for mu in itertools.product(range(N, -N - 1, -1), repeat=n)
                if list(mu) == sorted(mu, reverse=True)]
    assert lo.cell_census(n, q, N) == \
        {mu: _macdonald_count(mu, q) for mu in dominant}


# -- elementary divisors and relative position -----------------------------------

def test_elementary_divisors_basic():
    assert lo.elementary_divisors([[(1,), ()], [(), (1,)]], 3) == (0, 0)
    assert lo.elementary_divisors(
        [[(0, 0, 1), ()], [(), (0, 1)]], 3) == (2, 1)
    assert lo.elementary_divisors(
        [[(), (0, 1)], [(0, 0, 0, 1), ()]], 2) == (3, 1)


def test_elementary_divisors_bad_coefficient():
    for coeff in (5, -1):
        with pytest.raises(DomainError, match=f"coefficient {coeff} "):
            lo.elementary_divisors([[(coeff,)]], 3)
    with pytest.raises(DomainError, match="coefficient -1 "):
        lo.elementary_divisors([[(1,), (0, -1)], [(), (1,)]], 4)


@pytest.mark.parametrize("mat", [[[5]], [[(1,), 3]], [5], 5])
def test_elementary_divisors_bare_integer(mat):
    with pytest.raises(DomainError, match="coefficient sequences"):
        lo.elementary_divisors(mat, 3)


def test_elementary_divisors_singular():
    with pytest.raises(SingularMatrix):
        lo.elementary_divisors([[(1,), (1,)], [(1,), (1,)]], 2)


def _random_unimodular(ring, n, rng):
    rows = [[(1,) if i == j else () for j in range(n)] for i in range(n)]
    for _ in range(6 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        coeff = ring.normalize([rng.randrange(ring.field.q) for _ in range(2)])
        rows[b] = [ring.add(x, ring.mul(coeff, y))
                   for x, y in zip(rows[b], rows[a])]
    return rows


def _matmul(ring, A, B):
    n = len(A)
    return [[_dot(ring, A, B, i, j, n) for j in range(n)] for i in range(n)]


def _dot(ring, A, B, i, j, n):
    acc = ()
    for k in range(n):
        acc = ring.add(acc, ring.mul(A[i][k], B[k][j]))
    return acc


def test_elementary_divisors_unimodular_invariance():
    rng = random.Random(5)
    for q in (2, 3):
        ring = PolyRing(GF(q))
        for _ in range(8):
            n = rng.choice((2, 3))
            exps = sorted((rng.randrange(0, 4) for _ in range(n)),
                          reverse=True)
            M = [[ring.t_power(exps[i]) if i == j else ()
                  for j in range(n)] for i in range(n)]
            base = lo.elementary_divisors(M, q)
            assert base == tuple(exps)
            g = _random_unimodular(ring, n, rng)
            h = _random_unimodular(ring, n, rng)
            assert lo.elementary_divisors(_matmul(ring, _matmul(ring, g, M),
                                                  h), q) == base


# -- an independent route to Smith valuations: determinantal divisors ----------

def _det(ring, M):
    """Determinant over GF(q)[t] by Laplace expansion along the first row."""
    if not M:
        return (1,)
    acc = ()
    for c, e in enumerate(M[0]):
        if e:
            minor = [row[:c] + row[c + 1:] for row in M[1:]]
            term = ring.mul(e, _det(ring, minor))
            acc = ring.sub(acc, term) if c % 2 else ring.add(acc, term)
    return acc


def _val(a):
    """t-adic valuation of a polynomial; None for the zero polynomial."""
    return next((i for i, c in enumerate(a) if c), None)


def _divisor_valuations(ring, M):
    """Smith valuations, decreasing, or None for a singular matrix: the
    first k valuations sum to the least valuation of a k x k minor."""
    n = len(M)
    least = [0]
    for k in range(1, n + 1):
        vals = [_val(_det(ring, [[M[r][c] for c in cols] for r in rows]))
                for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(n), k)]
        vals = [v for v in vals if v is not None]
        if not vals:
            return None
        least.append(min(vals))
    return tuple(sorted((least[k] - least[k - 1] for k in range(1, n + 1)),
                        reverse=True))


def _cofactor(ring, M, r, c):
    det = _det(ring, [row[:c] + row[c + 1:] for k, row in enumerate(M)
                      if k != r])
    return ring.neg(det) if (r + c) % 2 else det


def _reference_position(ring, lat1, lat2):
    """inv(lat1, lat2) from adj(H1) H2 = det(H1) H1^-1 H2: lat_k is
    t^-N_k H_k L0, so the divisors count from val det H1 + N2 - N1."""
    n = lat1.n
    adj = [[_cofactor(ring, lat1.mat, j, i) for j in range(n)]
           for i in range(n)]
    shift = sum(lat1.diag_exponents()) + lat2.window - lat1.window
    vals = _divisor_valuations(ring, _matmul(ring, adj, lat2.mat))
    return tuple(v - shift for v in vals)


@pytest.mark.parametrize("n,q,N", [(2, 3, 2), (3, 2, 1), (3, 3, 1)])
def test_inv_from_standard_matches_divisors(n, q, N):
    ring = PolyRing(GF(q))
    for lat in lo.enumerate_lattices(n, q, N):
        ref = tuple(v - N for v in _divisor_valuations(ring, lat.mat))
        assert lo.inv_from_standard(lat) == ref


def test_relative_position_matches_divisors():
    ring = PolyRing(GF(2))
    lats = list(lo.enumerate_lattices(2, 2, 2))
    for l1, l2 in itertools.product(lats, repeat=2):
        assert lo.relative_position(l1, l2) == \
            _reference_position(ring, l1, l2)
    rng = random.Random(11)
    ring = PolyRing(GF(3))
    lats = list(lo.enumerate_lattices(3, 3, 1))
    for _ in range(2000):
        l1, l2 = rng.choice(lats), rng.choice(lats)
        assert lo.relative_position(l1, l2) == \
            _reference_position(ring, l1, l2)
    # rank 4 at N = 1: relative_position goes through the kernel
    rng = random.Random(19)
    ring = PolyRing(GF(2))
    lats = list(lo.enumerate_lattices(4, 2, 1))
    for _ in range(200):
        l1, l2 = rng.choice(lats), rng.choice(lats)
        assert lo.relative_position(l1, l2) == \
            _reference_position(ring, l1, l2)


def test_relative_position_across_windows_matches_divisors(monkeypatch):
    """Lattices of two different windows need no common one: the solve at
    offset N1 + N2 agrees with the adjugate, in both orders."""
    kernel, calls = lo._local_valuations, []
    monkeypatch.setattr(lo, "_local_valuations",
                        lambda *args: calls.append(1) or kernel(*args))

    def check(n, q, N1, N2, pairs=None):
        ring = PolyRing(GF(q))
        firsts = list(lo.enumerate_lattices(n, q, N1))
        seconds = list(lo.enumerate_lattices(n, q, N2))
        rng = random.Random(n * q + N1 + N2)
        sample = (itertools.product(firsts, seconds) if pairs is None else
                  [(rng.choice(firsts), rng.choice(seconds))
                   for _ in range(pairs)])
        for l1, l2 in sample:
            for a, b in ((l1, l2), (l2, l1)):
                assert lo.relative_position(a, b) == \
                    _reference_position(ring, a, b)

    check(2, 2, 1, 2)
    check(2, 3, 1, 2, pairs=300)
    check(3, 2, 1, 2, pairs=150)
    assert not calls
    # rank 4: offset N1 + N2 = 1 takes the rank rule, 2 the kernel
    check(4, 2, 1, 0, pairs=60)
    assert not calls
    check(4, 2, 1, 1, pairs=60)
    assert len(calls) == 120


def test_relative_position_of_t_powers_across_windows():
    """inv(t^mu L0, t^nu L0) is nu - mu sorted decreasingly, whichever
    windows hold the two lattices."""
    checked = Counter()
    for n, most in ((1, 2), (2, 2), (3, 2), (4, 1)):
        for N1, N2 in itertools.product(range(most + 1), repeat=2):
            box1 = itertools.product(range(-N1, N1 + 1), repeat=n)
            box2 = list(itertools.product(range(-N2, N2 + 1), repeat=n))
            for mu in box1:
                l1 = lo.t_power_lattice(mu, 2, N1)
                for nu in box2:
                    assert lo.relative_position(
                        l1, lo.t_power_lattice(nu, 2, N2)) == tuple(
                        sorted((b - a for a, b in zip(mu, nu)), reverse=True))
                    checked[n] += 1
    assert checked == {1: 9 ** 2, 2: 35 ** 2, 3: 153 ** 2, 4: 82 ** 2}


def test_relative_position_needs_no_kernel_below_rank_4(monkeypatch,
                                                        capsys):
    """Below rank 4 relative_position reads its solved matrix by the
    divisor rule, so neither it nor certify reaches the local kernel."""
    def refuse(*args):
        raise AssertionError("the local kernel ran below rank 4")

    monkeypatch.setattr(lo, "_local_valuations", refuse)
    for window in [(2, 3, 1), (3, 2, 1)]:
        lats = list(lo.enumerate_lattices(*window))
        for l1, l2 in itertools.product(lats, repeat=2):
            lo.relative_position(l1, l2)
    lo._convolution_histogram.cache_clear()   # a memo hit would skip the call
    lo._window_cells.cache_clear()
    assert main(["certify", "--n", "3", "--q", "2,3", "--coord-min", "0",
                 "--coord-max", "1"]) == 0
    assert capsys.readouterr().err == "40 rows, all match\n"


def _random_matrix(ring, n, rng, low=0):
    """Entries of valuation >= low and degree < low + 3."""
    return [[ring.normalize([0] * low + [rng.randrange(ring.field.q)
                                         for _ in range(3)])
             for _ in range(n)] for _ in range(n)]


def test_elementary_divisors_match_divisors():
    rng = random.Random(13)
    for q in (2, 3, 4, 5):
        ring = PolyRing(GF(q))
        for trial in range(30):
            n, low = rng.choice((2, 3)), 5 if trial % 3 == 0 else 0
            M = _random_matrix(ring, n, rng, low)
            g = _random_unimodular(ring, n, rng)
            h = _random_unimodular(ring, n, rng)
            for A in (M, _matmul(ring, _matmul(ring, g, M), h)):
                ref = _divisor_valuations(ring, A)
                if ref is None:
                    with pytest.raises(SingularMatrix):
                        lo.elementary_divisors(A, q)
                else:
                    assert lo.elementary_divisors(A, q) == ref
                    assert min(ref) >= low


def test_elementary_divisors_rank_deficient():
    rng = random.Random(17)
    for q in (2, 3, 5):
        ring = PolyRing(GF(q))
        for _ in range(10):
            M = _random_matrix(ring, 3, rng)[:2]
            a, b = (ring.normalize([rng.randrange(q) for _ in range(2)])
                    for _ in range(2))
            M.append([ring.add(ring.mul(a, x), ring.mul(b, y))
                      for x, y in zip(*M)])
            assert _divisor_valuations(ring, M) is None
            with pytest.raises(SingularMatrix):
                lo.elementary_divisors(M, q)


def test_valuation_sum_guard(monkeypatch):
    """A Smith kernel whose valuations miss val det is caught."""
    # rank 4 at N = 1: relative_position goes through the kernel
    lat = lo.t_power_lattice((1, 0, 0, -1), 3, 1)
    std = lo.t_power_lattice((0, 0, 0, 0), 3, 1)
    # rank 4 at N = 2: inv_from_standard goes through the kernel
    wide = lo.t_power_lattice((1, 0, 0, -1), 3, 2)
    monkeypatch.setattr(lo, "_local_valuations", lambda *args: [0, 0, 0, 0])
    with pytest.raises(InternalInconsistency):
        lo.inv_from_standard(wide)
    with pytest.raises(InternalInconsistency):
        lo.relative_position(std, lat)
    monkeypatch.setattr(lo, "_local_valuations", lambda *args: None)
    with pytest.raises(InternalInconsistency):
        lo.inv_from_standard(wide)


def test_rank_rule_guard(monkeypatch):
    """A rank mod t that no valuations in {0, 1, 2} can meet is caught, by
    inv_from_standard and by the census: full rank with val det 4 leaves -4
    ones, rank 0 with val det 0 leaves -4 twos."""
    monkeypatch.setattr(lo, "_ranks_mod_t",
                        lambda field, mat, cs: [(len(mat), len(cs))])
    with pytest.raises(InternalInconsistency, match="rank 4 of H mod t"):
        lo.inv_from_standard(lo.t_power_lattice((1, 0, 0, -1), 3, 1))
    with pytest.raises(InternalInconsistency, match="rank 4 of H mod t"):
        lo.cell_census(4, 2, 1)
    monkeypatch.setattr(lo, "_ranks_mod_t",
                        lambda field, mat, cs: [(0, len(cs))])
    with pytest.raises(InternalInconsistency, match="rank 0 of H mod t"):
        lo.inv_from_standard(lo.t_power_lattice((-1, -1, -1, -1), 3, 1))
    with pytest.raises(InternalInconsistency, match="rank 0 of H mod t"):
        lo.cell_census(4, 2, 1)


def test_divisor_chain_guard(monkeypatch):
    """Determinantal divisors whose differences decrease are caught, by
    inv_from_standard, relative_position and the census."""
    lo._divisor_position.cache_clear()   # a memo hit would skip the call
    monkeypatch.setattr(lo, "_hermite_divisors",
                        lambda d, *vals: [2, 3, 6][:len(d)])
    for mu in [(1, -1), (1, 0, -1)]:
        lat = lo.t_power_lattice(mu, 3, 1)
        with pytest.raises(InternalInconsistency, match="divisor chain"):
            lo.inv_from_standard(lat)
        with pytest.raises(InternalInconsistency, match="divisor chain"):
            lo.relative_position(lo.t_power_lattice((0,) * len(mu), 3, 1), lat)
        with pytest.raises(InternalInconsistency, match="divisor chain"):
            lo.cell_census(len(mu), 3, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_rank_rule_matches_kernel(q):
    """At rank 4 and N <= 1 inv_from_standard reads the valuations off the
    rank of H mod t and val det; the local kernel and, on a sample, the
    determinantal divisors are independent routes to them."""
    field, ring = GF(q), PolyRing(GF(q))
    lats = list(lo.enumerate_lattices(4, q, 1))
    for lat in lats:
        vals = lo._t_valuations(field, lat.mat, 3, sum(lat.diag_exponents()))
        assert lo.inv_from_standard(lat) == \
            tuple(sorted((v - 1 for v in vals), reverse=True))
    for lat in random.Random(q).sample(lats, 150):
        assert lo.inv_from_standard(lat) == \
            tuple(v - 1 for v in _divisor_valuations(ring, lat.mat))
    assert lo.cell_census(4, q, 0) == {(0, 0, 0, 0): 1}


def _rank_by_span(f, A):
    """The rank of A over GF(q), from the size q^rank of its row space,
    listed combination by combination: no elimination."""
    span = {(0,) * len(A[0])}
    for row in A:
        span = {tuple(f.add[x][f.mul[c][y]] for x, y in zip(v, row))
                for v in span for c in range(f.q)}
    return next(r for r in range(len(A) + 1) if f.q ** r == len(span))


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (4, 4), (5, 3)])
def test_ranks_mod_t_match_the_row_space(n, q):
    """_ranks_mod_t agrees at every c with the row space of the constant
    terms, on random upper triangular matrices with powers of t on the
    diagonal, whose rows with pivot 1 need not be e_i mod t; over all of
    GF(q) as runs, and over each single c."""
    rng, f, ring = random.Random(n * q), GF(q), PolyRing(GF(q))
    splits = unreduced = 0
    for _ in range(300):
        mat = [[ring.t_power(rng.choice((0, 0, 1, 2))) if i == j else
                ring.normalize([rng.choice((0, rng.randrange(q))), 1])
                if j > i else () for j in range(n)] for i in range(n)]
        consts = [[e[0] if e else 0 for e in row] for row in mat]
        expected = [_rank_by_span(f, [[*consts[0][:-1], c], *consts[1:]])
                    for c in range(q)]
        runs = lo._ranks_mod_t(f, mat, range(q))
        assert [rank for rank, size in runs for _ in range(size)] == expected
        assert all(lo._ranks_mod_t(f, mat, range(c, c + 1)) ==
                   [(expected[c], 1)] for c in range(q))
        splits += len(runs) == 3
        unreduced += any(row[i] and any(row[i + 1:])
                         for i, row in enumerate(consts[1:], 1))
    assert unreduced > 0 and (splits > 0 or q == 2)


def test_rank_rule_reads_unreduced_solves(monkeypatch):
    """At rank 4 with N1 + N2 = 1, relative_position reads its solved matrix
    X by the rank rule.  Against L0 in window 0, inv(L0, lat) is
    inv_from_standard(lat) and inv(lat, L0) its -w0, on every lattice of
    (4, 2, 1) and (4, 3, 1).  Solved against lat, X is no Hermite form:
    23,284 of them have a row with pivot 1 and a nonzero constant right of
    it, a row that is not e_i mod t."""
    ranks_mod_t, unreduced = lo._ranks_mod_t, []

    def spy(field, mat, cs):
        unreduced.append(any(
            row[i] == (1,) and any(e[0] for e in row[i + 1:] if e)
            for i, row in enumerate(mat)))
        return ranks_mod_t(field, mat, cs)

    monkeypatch.setattr(lo, "_ranks_mod_t", spy)
    for q in (2, 3):
        std = lo.t_power_lattice((0, 0, 0, 0), q, 0)
        for lat in lo.enumerate_lattices(4, q, 1):
            mu = lo.inv_from_standard(lat)
            assert lo.relative_position(std, lat) == mu
            assert lo.relative_position(lat, std) == \
                tuple(-x for x in reversed(mu))
    assert sum(unreduced) == 23284


CLOSED_FORM_WINDOWS = ([(2, q, N) for q in (2, 3, 4, 9) for N in (0, 1, 2)]
                       + [(2, 2, 3)] + [(3, q, 1) for q in (2, 3, 4, 5)]
                       + [(3, 2, 2)])


def _cross_minor_cancels(ring, lat):
    """Whether the two terms of h01 h12 - t^{d1} h02, the one 2 x 2 minor of
    a rank-3 Hermite form that is a difference, share a valuation below the
    least valuation of a 2 x 2 minor, the sum of the two smallest Smith
    valuations: they cancel, and the terms alone would give too small a
    value."""
    M = lat.mat
    d1 = lat.diag_exponents()[1]
    terms = [ring.mul(M[0][1], M[1][2]), ring.mul(ring.t_power(d1), M[0][2])]
    if not all(terms) or _val(terms[0]) != _val(terms[1]):
        return False
    return _val(terms[0]) < sum(_divisor_valuations(ring, M)[1:])


def test_closed_form_matches_kernel():
    """At rank <= 3 inv_from_standard reads the determinantal divisors; the
    local kernel is an independent route to the same valuations."""
    cancelled = 0
    for n, q, N in CLOSED_FORM_WINDOWS:
        field, ring = GF(q), PolyRing(GF(q))
        for lat in lo.enumerate_lattices(n, q, N):
            vals = lo._t_valuations(field, lat.mat, 2 * N + 1,
                                    sum(lat.diag_exponents()))
            assert lo.inv_from_standard(lat) == \
                tuple(sorted((v - N for v in vals), reverse=True))
            cancelled += n == 3 and _cross_minor_cancels(ring, lat)
    assert cancelled > 0


def test_relative_position_identity_and_translation():
    for lat in lo.enumerate_lattices(2, 2, 1):
        assert lo.relative_position(lat, lat) == (0, 0)
    std = lo.t_power_lattice((0, 0), 3, 2)
    for mu in [(1, 0), (2, -1), (0, -2), (1, 1)]:
        target = lo.t_power_lattice(mu, 3, 2)
        assert lo.relative_position(std, target) == \
            tuple(sorted(mu, reverse=True))


def test_relative_position_duality():
    rng = random.Random(9)
    lats = list(lo.enumerate_lattices(2, 3, 1))
    for _ in range(25):
        l1, l2 = rng.choice(lats), rng.choice(lats)
        fwd = lo.relative_position(l1, l2)
        bwd = lo.relative_position(l2, l1)
        assert bwd == tuple(sorted((-x for x in fwd), reverse=True))


def test_relative_position_window_mismatch():
    """Different windows give the reference value; a different n or q is
    a ShapeError."""
    ring = PolyRing(GF(2))
    a = lo.t_power_lattice((1, 0), 2, 1)
    b = lo.t_power_lattice((2, -1), 2, 2)
    assert lo.relative_position(a, b) == _reference_position(ring, a, b) \
        == (1, -1)
    with pytest.raises(ShapeError):
        lo.relative_position(a, lo.t_power_lattice((0, 0, 0), 2, 1))
    for other in (lo.t_power_lattice((0, 0), 3, 1),
                  lo.t_power_lattice((0, 0), 3, 2)):
        with pytest.raises(ShapeError):
            lo.relative_position(a, other)
        with pytest.raises(ShapeError):
            lo.relative_position(other, a)


def test_rewindow_preserves_position():
    """L0 at window 0 reads the same position as inv_from_standard, which
    reads each lattice at its own window."""
    std = lo.t_power_lattice((0, 0), 2, 0)
    for N in (1, 2):
        for lat in lo.enumerate_lattices(2, 2, N):
            assert lo.relative_position(std, lat) == \
                lo.inv_from_standard(lat)


# -- counting -------------------------------------------------------------------

def test_count_cell_frozen_values():
    assert lo.count_cell((0, 0), 2, 1) == 1
    assert lo.count_cell((1, 0), 2, 1) == 3      # |P^1(F_2)|
    assert lo.count_cell((1, -1), 2, 1) == 6     # q^2 + q
    assert lo.count_cell((1, 0), 4, 1) == 5
    assert lo.count_cell((1, 0, 0), 3, 1) == 13  # |P^2(F_3)|


def test_count_cell_window_saturation():
    for mu in [(1, 0), (1, -1), (1, 1)]:
        assert lo.count_cell(mu, 2, 1) == lo.count_cell(mu, 2, 2)


def test_count_cell_validation():
    with pytest.raises(WindowError):
        lo.count_cell((2, 0), 3, 1)
    with pytest.raises(DomainError):
        lo.count_cell((0, 1), 3, 1)


def test_census_totality():
    for n, q, N in [(1, 3, 1), (2, 2, 1), (2, 3, 1)]:
        census = lo.cell_census(n, q, N)
        assert sum(census.values()) == \
            sum(1 for _ in lo.enumerate_lattices(n, q, N))
        assert all(mu == tuple(sorted(mu, reverse=True)) for mu in census)


def test_census_parallel_matches_serial():
    assert lo.cell_census(2, 3, 1, workers=2) == lo.cell_census(2, 3, 1)
    assert lo.cell_census(3, 3, 1, workers=2) == lo.cell_census(3, 3, 1)


@pytest.mark.parametrize("requested, cpus, size", [
    (10 ** 9, 64, 9),   # (2, 2, 1) has 9 diagonal profiles
    (10 ** 9, 2, 2),
    (3, 64, 3),
    (1, 64, None),
    (0, 64, None),
])
def test_census_clamps_its_workers(monkeypatch, requested, cpus, size):
    import multiprocessing

    sizes = []

    class FakePool:
        # records its size and maps in this process: no process starts
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(lo.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    census = lo.cell_census(2, 2, 1, workers=requested)
    assert sizes == ([] if size is None else [size])
    assert census == lo.cell_census(2, 2, 1)


def test_brute_convolution_frozen_values():
    assert lo.brute_convolution((1, 0), (1, 0), (1, 1), 2) == 3
    assert lo.brute_convolution((1, 0), (1, 0), (2, 0), 2) == 1
    assert lo.brute_convolution((1, 0), (1, 0), (0, 0), 2) == 0
    assert lo.brute_convolution((1, -1), (1, -1), (1, -1), 2) == 1
    assert lo.brute_convolution((1, -1), (1, -1), (1, -1), 3) == 2
    assert lo.brute_convolution((1, -1), (1, -1), (0, 0), 3) == 12


def test_brute_convolution_commutes():
    doms = [(1, 0), (1, 1), (1, -1), (2, 0)]
    for lam, mu in itertools.product(doms, repeat=2):
        total = tuple(a + b for a, b in zip(lam, mu))
        for nu in [total, (total[0] - 1, total[1] + 1)]:
            if nu[0] < nu[1]:
                continue
            assert lo.brute_convolution(lam, mu, nu, 2) == \
                lo.brute_convolution(mu, lam, nu, 2)


def test_brute_convolution_validation():
    with pytest.raises(ShapeError):
        lo.brute_convolution((1, 0), (1, 0, 0), (1, 1), 2)
    with pytest.raises(DomainError):
        lo.brute_convolution((0, 1), (1, 0), (1, 1), 2)


@pytest.mark.parametrize("n, box", [(1, (-2, 2)), (2, (-1, 1)), (3, (0, 1))])
def test_convolution_table_rows_are_brute_convolution(n, box):
    q_list = [2, 3, 4]
    plan, table = lo.convolution_table(n, q_list, *box)
    assert plan == lo.convolution_plan(n, q_list, *box)
    assert table == [[[lo.brute_convolution(lam, mu, nu, q) for nu in nus]
                      for lam, mu, nus in plan] for q in q_list]


def test_brute_convolution_of_unequal_sums_reads_no_budget(monkeypatch):
    # no lattice has these positions, so a zero budget refuses nothing
    monkeypatch.setenv(lo.BUDGET_ENV, "0")
    assert lo.brute_convolution((1, 0), (1, 0), (1, 0), 2) == 0
    assert lo.brute_convolution((2, -1), (0, 0), (3, 0), 3) == 0
    with pytest.raises(TooLarge):
        lo.brute_convolution((1, 0), (1, 0), (1, 1), 2)
    # the input is checked before the sums: lengths, then each coweight
    with pytest.raises(ShapeError, match="must have equal length"):
        lo.brute_convolution((0, 1), (1, 0, 0), (1, 1), 2)
    with pytest.raises(DomainError, match=r"lam=\(0, 1\) is not dominant"):
        lo.brute_convolution((0, 1), (1, 0), (5, 5), 2)


def test_interpolate_count():
    p = lo.interpolate_count(lambda q: lo.count_cell((1, 0), q, 1), [2, 3, 5])
    assert p == QPoly([1, 1])
    p = lo.interpolate_count(lambda q: lo.count_cell((1, -1), q, 1),
                             [2, 3, 5, 7])
    assert p == QPoly([0, 1, 1])
    p = lo.interpolate_count(
        lambda q: lo.brute_convolution((1, 0), (1, 0), (1, 1), q), [2, 3, 5])
    assert p == QPoly([1, 1])


def test_interpolate_count_detects_non_polynomial():
    with pytest.raises(NonPolynomialCount) as info:
        lo.interpolate_count(lambda q: 2 ** q, [2, 3, 5])
    assert info.value.args[1] == 5
    with pytest.raises(DomainError):
        lo.interpolate_count(lambda q: q, [2])


def test_oracle_report_and_csv(tmp_path):
    report = lo.oracle_report(2, 2, 1, conv_bound=1)
    assert report["n"] == 2 and report["q"] == 2 and report["N"] == 1
    assert sum(r["count"] for r in report["cells"]) == 15
    assert any(r["count"] == 3 and r["mu"] == [1, 0]
               for r in report["cells"])
    assert {"lambda": [1, 0], "mu": [1, 0], "nu": [1, 1], "count": 3} in \
        report["convolutions"]
    paths = lo.report_to_csv(report, str(tmp_path / "r"))
    assert len(paths) == 2
    text = (tmp_path / "r_cells.csv").read_text()
    assert "1 0,3" in text
