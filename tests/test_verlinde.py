"""Verlinde dimensions, checked against closed forms and against the fusion
ring at level m, which shares no code with satkit."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from satkit import cli
from satkit.errors import (DomainError, IntegralityFailure, TooLarge,
                           UnsupportedType)
from satkit.verlinde import (VerlindeQuery, _histograms, _packed_sum,
                             _sum_work, genus_one_dimension, level_one_ade,
                             verlinde_sl, verlinde_sl_report)


def test_frozen_values():
    assert verlinde_sl(VerlindeQuery(2, 1, 1)) == 2
    assert verlinde_sl(VerlindeQuery(2, 1, 3)) == 4
    assert verlinde_sl(VerlindeQuery(2, 2, 1)) == 4
    assert verlinde_sl(VerlindeQuery(3, 2, 1)) == 9
    assert verlinde_sl(VerlindeQuery(8, 2, 8)) == 5_758_168_862_848


def test_genus_zero_is_one_at_any_level():
    # a single conformal block on the sphere with no insertions
    for m in range(1, 6):
        assert verlinde_sl(VerlindeQuery(2, 0, m)) == 1


def test_genus_one_cross_check():
    for n in range(2, 6):
        for m in range(1, 6):
            assert verlinde_sl(VerlindeQuery(n, 1, m)) == \
                genus_one_dimension(n, m)


def test_level_one_is_center_power():
    for n in range(2, 5):
        for g in range(0, 4):
            assert verlinde_sl(VerlindeQuery(n, g, 1)) == n ** g
            assert level_one_ade(f"A{n - 1}", g) == n ** g


def test_monotone_in_level():
    for n in (2, 3):
        for g in (0, 1, 2):
            values = [verlinde_sl(VerlindeQuery(n, g, m)) for m in range(1, 6)]
            assert values == sorted(values)


def test_residual_certified():
    for query in [VerlindeQuery(5, 3, 5), VerlindeQuery(4, 2, 4)]:
        report = verlinde_sl_report(query)
        assert report["residual"] < 1e-6
        assert report["dimension"] > 0


def test_genus_one_dimension_values():
    assert genus_one_dimension(2, 3) == 4
    assert genus_one_dimension(3, 1) == 3
    assert genus_one_dimension(3, 2) == 6


def test_level_one_ade_values():
    assert level_one_ade("E8", 0) == 1
    assert level_one_ade("E8", 9) == 1
    assert level_one_ade("A1", 3) == 8
    assert level_one_ade("D4", 2) == 16
    assert level_one_ade("E6", 2) == 9
    assert level_one_ade("E7", 3) == 8


def test_level_one_ade_rejects_bad_labels():
    for label in ["B2", "C3", "F4", "E5", "E9", "X1", ""]:
        with pytest.raises(UnsupportedType):
            level_one_ade(label, 1)
    with pytest.raises(DomainError):
        level_one_ade("A1", -1)


def test_query_validation():
    for args, message in [((1, 1, 1), "n=1 must be >= 2"),
                          ((2, -1, 1), "g=-1 must be >= 0"),
                          ((2, 1, 0), "m=0 must be >= 1")]:
        with pytest.raises(DomainError) as exc:
            VerlindeQuery(*args)
        assert str(exc.value) == message


def test_query_is_an_immutable_record():
    query = VerlindeQuery(3, 2, 4)
    assert repr(query) == "VerlindeQuery(n=3, g=2, m=4)"
    assert (query.n, query.g, query.m) == (3, 2, 4)
    assert query == VerlindeQuery(n=3, g=2, m=4) != VerlindeQuery(4, 2, 3)
    assert query == (3, 2, 4)   # a NamedTuple equals its plain tuple
    assert hash(query) == hash(VerlindeQuery(3, 2, 4))
    assert len({query, VerlindeQuery(3, 2, 4), VerlindeQuery(4, 2, 3)}) == 2
    for attr in ("n", "g", "m", "level"):
        with pytest.raises(AttributeError):
            setattr(query, attr, 5)


@pytest.mark.parametrize("n, g, m, constant", [
    (2, 2, 1, 1), (2, 2, 1, 4), (2, 0, 2, 1), (3, 1, 1, 0), (2, 3, 1, -4),
    (4, 0, 1, 3)])
def test_value_off_the_integers_is_refused(monkeypatch, capsys, n, g, m,
                                           constant):
    # a constant term the final division leaves a fraction of, or not > 0;
    # the message gives the value as a reduced fraction, computed over Q
    h = n + m
    monkeypatch.setattr("satkit.verlinde._packed_sum",
                        lambda n, g, m: [constant] + [0] * (4 * h - 1))
    value = Fraction(n, h) ** (g - 1) * constant / (h ** n if g == 0 else 1)
    message = f"value {value} is not a positive integer"
    with pytest.raises(IntegralityFailure) as exc:
        verlinde_sl(VerlindeQuery(n, g, m))
    assert str(exc.value) == message
    assert cli.main(["verlinde", "--n", str(n), "--g", str(g),
                     "--m", str(m)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"satkit: check failed: {message}\n"


def test_subset_budget():
    with pytest.raises(TooLarge):
        verlinde_sl(VerlindeQuery(30, 1, 30))


def test_sum_work_budget():
    # both pass the subset budget; the sums would take minutes
    for query in [VerlindeQuery(2, 200000, 2), VerlindeQuery(2, 2, 1412)]:
        with pytest.raises(TooLarge, match="sum work"):
            verlinde_sl(query)
    assert verlinde_sl(VerlindeQuery(2, 7200, 2)) % 2 == 0


def reference_walk_updates(n, m):
    """Distance updates of the depth-first walk in _histograms: every
    prefix {0, t_1 < ... < t_k} that leaves room for the rest of S adds its
    k new distances and later takes them away."""
    h = n + m
    return sum(2 * k for k in range(1, n)
               for rest in itertools.combinations(range(1, h), k)
               if rest[-1] + n - k <= h)


def test_sum_work_bounds_the_updates():
    """The estimate counts at least one update of h coefficients per actual
    histogram and multiplication, at the weight the estimate gives each,
    and 64 per distance update of the histogram walk, at every genus."""
    for n, m in [(2, 2), (2, 7), (3, 3), (4, 4), (4, 6), (6, 6), (7, 3),
                 (9, 1), (10, 2)]:
        h = n + m
        walk = 64 * reference_walk_updates(n, m)
        for g in (0, 2, 5):
            E = n * (n - 1) if g == 0 else (g - 1) * n * (h - n)
            actual = len(_histograms(n, m)) * h * E * (64 + E // 64)
            assert actual + walk <= _sum_work(n, h, g), (n, m, g)
        assert _sum_work(n, h, 1) == walk


def test_sum_work_counts_the_walk_at_level_one():
    # one rotation class of subsets, so the walk's ~2n^3/3 updates dominate
    with pytest.raises(TooLarge, match="sum work"):
        verlinde_sl(VerlindeQuery(1000, 2, 1))
    assert verlinde_sl(VerlindeQuery(300, 2, 1)) == level_one_ade("A299", 2)


# The per-factor reference: every histogram counted over all pairs of every
# subset, and every factor 1 - zeta^k applied as one pass over h coefficients.

def reference_histograms(n, m):
    h = n + m
    counts = Counter()
    for rest in itertools.combinations(range(1, h), n - 1):
        c = [0] * (h // 2 + 1)
        for s, t in itertools.combinations((0, *rest), 2):
            c[min(t - s, h - t + s)] += 1
        counts[tuple(c)] += 1
    return dict(counts)


def reference_sum(n, g, m):
    h = n + m
    total = [0] * (4 * h)
    for c, count in reference_histograms(n, m).items():
        a, shift = [1] + [0] * (h - 1), 0
        for k in range(1, len(c)):
            across = n * (1 + (2 * k < h)) - 2 * c[k]
            e = 2 * c[k] if g == 0 else (g - 1) * across
            for _ in range(e):
                a = [a[j] - a[j - k] for j in range(h)]
            shift += e * (h - 2 * k)
        for j, x in enumerate(a):
            total[(4 * j + shift) % (4 * h)] += count * x
    return total


_SMALL = [(n, m) for n in range(2, 12) for m in range(1, 13 - n)]


def test_histograms_match_pair_count():
    for n, m in _SMALL:
        assert dict(_histograms(n, m)) == reference_histograms(n, m), (n, m)


def test_packed_sum_matches_per_factor_loop():
    for n, m in _SMALL:
        for g in range(7):
            assert _packed_sum(n, g, m) == reference_sum(n, g, m), (n, g, m)


@pytest.mark.parametrize("n, g, m", [(2, 7200, 2), (4, 12, 4)])
def test_packed_sum_with_wide_coefficients(n, g, m):
    total = reference_sum(n, g, m)
    assert max(map(abs, total)) > 2 ** 64
    same = _packed_sum(n, g, m) == total   # too long for pytest to print
    assert same


# The fusion-ring route (Beauville, "Conformal blocks, fusion rules and the
# Verlinde formula", 1996): dim V_g = Tr(Omega^(g-1)) with
# Omega = sum over lam of N_lam N_lam^T.

def _alcove(n, m):
    """The level-m weights of SL_n as partitions with at most n - 1 rows and
    first part at most m, by size and then lexicographically, so that every
    weight comes after those below it in dominance order."""
    return sorted((lam for lam in itertools.product(range(m + 1), repeat=n - 1)
                   if all(a >= b for a, b in zip(lam, lam[1:]))),
                  key=lambda lam: (sum(lam), lam))


def _add_strip(lam, k, n, m):
    """Fusion with the minuscule omega_k: lam plus a vertical k-strip, full
    columns of n boxes removed, and every result of level above m dropped."""
    out = []
    for rows in itertools.combinations(range(n), k):
        nu = [x + (i in rows) for i, x in enumerate(lam + (0,))]
        if all(a >= b for a, b in zip(nu, nu[1:])) and nu[0] - nu[-1] <= m:
            out.append(tuple(x - nu[-1] for x in nu[:-1]))
    return out


def _fusion_product(n, m):
    """The number of alcove weights and prod(a, b), the fusion product of
    the a-th and b-th weights as {index: multiplicity}.

    The product e_k s_low, with low the weight lam less its first column of
    k boxes, is s_lam plus terms below lam, so each N_lam follows by
    unitriangular elimination.  As N_lam,nu^kappa = N_nu,lam^kappa, only
    the products with a >= b are computed."""
    weights = _alcove(n, m)
    index = {lam: i for i, lam in enumerate(weights)}
    strips = {}

    def strip(i, k):
        if (i, k) not in strips:
            strips[i, k] = [index[nu]
                            for nu in _add_strip(weights[i], k, n, m)]
        return strips[i, k]

    table = {(0, 0): {0: 1}}

    def prod(a, b):
        return table[max(a, b), min(a, b)]

    for a, lam in enumerate(weights[1:], 1):
        k = sum(1 for x in lam if x)
        low = index[tuple(max(x - 1, 0) for x in lam)]
        others = [nu for nu in strip(low, k) if nu != a]
        for b in range(a + 1):
            vec = Counter()
            for c, x in prod(low, b).items():
                for d in strip(c, k):
                    vec[d] += x
            for nu in others:
                for c, x in prod(nu, b).items():
                    vec[c] -= x
            table[a, b] = {c: x for c, x in vec.items() if x}
    return len(weights), prod


def _omega(size, prod):
    """Omega[mu][kappa] = sum over lam, nu of N_lam,mu^nu N_lam,kappa^nu."""
    omega = [[0] * size for _ in range(size)]
    for lam in range(size):
        columns = {}
        for mu in range(size):
            for nu, x in prod(lam, mu).items():
                columns.setdefault(nu, []).append((mu, x))
        for column in columns.values():
            for mu, x in column:
                for kappa, y in column:
                    omega[mu][kappa] += x * y
    return omega


def _matmul(a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(acc)
    return out


def _inverse_trace(omega):
    """Tr(Omega^-1) by Gauss-Jordan elimination over Q on sparse rows.
    Omega is positive definite (lam = 0 gives the identity), so every
    diagonal pivot is nonzero."""
    size = len(omega)
    rows = [{**{j: Fraction(x) for j, x in enumerate(r) if x},
             size + i: Fraction(1)} for i, r in enumerate(omega)]
    for col, pivot in enumerate(rows):
        inv = 1 / pivot[col]
        for j in pivot:
            pivot[j] *= inv
        for row in rows:
            f = row.get(col) if row is not pivot else None
            if f:
                for j, x in pivot.items():
                    value = row.get(j, 0) - f * x
                    if value:
                        row[j] = value
                    else:
                        del row[j]
    return sum(row.get(size + i, 0) for i, row in enumerate(rows))


def fusion_dimensions(n, m, genera):
    """{g: Tr(Omega^(g-1))}, with the rational inverse at genus 0."""
    size, prod = _fusion_product(n, m)
    omega = _omega(size, prod)
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    out = {}
    for g in genera:
        if g == 0:
            out[g] = _inverse_trace(omega)
            continue
        half = identity
        for _ in range((g - 1) // 2):
            half = _matmul(half, omega)
        other = half if (g - 1) % 2 == 0 else _matmul(half, omega)
        out[g] = sum(half[i][j] * other[j][i]
                     for i in range(size) for j in range(size))
    return out


def test_fusion_ring_matches_criterion_7_grid():
    for n in range(2, 6):
        for m in range(1, 6):
            expected = fusion_dimensions(n, m, range(4))
            for g, dim in expected.items():
                assert verlinde_sl(VerlindeQuery(n, g, m)) == dim, (n, g, m)


@pytest.mark.parametrize("n, m", [(2, 9), (3, 7), (6, 3), (7, 2)])
def test_fusion_ring_beyond_the_grid(n, m):
    for g, dim in fusion_dimensions(n, m, range(6)).items():
        assert verlinde_sl(VerlindeQuery(n, g, m)) == dim, (n, g, m)
