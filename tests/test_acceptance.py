"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; everything is exact arithmetic
except the Verlinde integrality residual (< 1e-6).

Criterion 8 appears twice: the attainable part (integer polynomials in q,
nonnegative values at every tested prime power, support bound, top
coefficient 1) passes; the literal coefficientwise-nonnegativity claim is
mathematically false (the (1,-1)-coefficient of c_(1,-1)*c_(1,-1) in GL(2)
is the Hall value q - 1) and is kept as a strict xfail rather than being
weakened silently.
"""

import itertools
import time

import pytest

from satkit import hecke_satake as hs
from satkit import lattice_oracle as lo
from satkit import weyl_rep as wr
from satkit.cli import run_certification
from satkit.polynomials import QPoly
from satkit.root_datum import (Dominance, dominant_coweights_in_box,
                               make_root_datum)
from satkit.verlinde import (VerlindeQuery, genus_one_dimension,
                             level_one_ade, verlinde_sl_report)

GL2 = make_root_datum("GL(2)")
GL3 = make_root_datum("GL(3)")

VERLINDE_TOL = 1e-6


def report(num, ok, detail):
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _bk_grid_gl2():
    grid = []
    for mu in dominant_coweights_in_box(GL2, -4, 4):
        if sum(abs(x) for x in mu) <= 4:
            grid.append(mu)
    return grid


def _bk_grid_gl3():
    # the largest desk-scale family under the dim_rep cap: partitions with
    # at most 8 boxes, plus central shifts to exercise twist invariance
    grid = []
    for a in range(0, 9):
        for b in range(0, min(a, 8 - a) + 1):
            grid.append((a, b, 0))
    grid += [(3, 2, 1), (2, 1, -1), (1, 0, -1)]
    return grid


def test_criterion_1_oracle_satake_gl2():
    start = time.monotonic()
    result = run_certification(2, [2, 3, 4], -1, 2)
    elapsed = time.monotonic() - start
    mism = [r for r in result["rows"] if not r["match"]]
    # the named identity: c_(1,0) * c_(1,0) = c_(2,0) + (q+1) c_(1,1)
    prod = hs.structure_constants(GL2, (1, 0), (1, 0))
    named = (set(prod) == {(2, 0), (1, 1)}
             and prod[(2, 0)] == 1
             and prod[(1, 1)] == QPoly([1, 1]))
    ok = not mism and named and elapsed < 120
    report(1, ok, f"GL(2) oracle equivalence, {len(result['rows'])} rows, "
                  f"q in (2,3,4), {elapsed:.1f}s")
    assert not mism, mism[:5]
    assert named
    assert elapsed < 120


def test_criterion_2_oracle_satake_gl3():
    start = time.monotonic()
    result = run_certification(3, [2, 3], 0, 1)
    elapsed = time.monotonic() - start
    mism = [r for r in result["rows"] if not r["match"]]
    ok = not mism and elapsed < 600
    report(2, ok, f"GL(3) oracle equivalence, {len(result['rows'])} rows, "
                  f"q in (2,3), {elapsed:.1f}s")
    assert not mism, mism[:5]
    assert elapsed < 600


def test_criterion_3_brylinski_kostant():
    checked = 0
    for datum, grid in [(GL2, _bk_grid_gl2()), (GL3, _bk_grid_gl3())]:
        for mu in grid:
            assert wr.dim_rep(datum, mu) <= 3000
            for lam in datum.dominant_below(mu):
                bk = wr.bk_oracle(datum, mu, lam)
                m = wr.lusztig_q_analog(datum, mu, lam)
                assert bk == m, (datum.label, mu, lam, bk, m)
                checked += 1
    report(3, True, f"filtration oracle == q-analog on {checked} pairs")


def test_criterion_4_q_one_specialization():
    checked = 0
    for datum, grid in [(GL2, _bk_grid_gl2()), (GL3, _bk_grid_gl3())]:
        for mu in grid:
            mults = wr.weight_multiplicities(datum, mu)
            for lam in datum.dominant_below(mu):
                m = wr.lusztig_q_analog(datum, mu, lam)
                assert m(1) == mults[lam], (datum.label, mu, lam)
                checked += 1
    report(4, True, f"m(1) == Freudenthal multiplicity on {checked} pairs")


def test_criterion_5_semismallness_law():
    qs = [2, 3, 4, 5, 7]
    doms = list(dominant_coweights_in_box(GL2, -1, 2))
    checked = 0
    for lam, mu in itertools.product(doms, repeat=2):
        total = tuple(a + b for a, b in zip(lam, mu))
        tens = wr.tensor_decompose(GL2, lam, mu)
        for nu in GL2.dominant_below(total):
            poly = lo.interpolate_count(
                lambda q: lo.brute_convolution(lam, mu, nu, q), qs)
            bound = GL2.height2(tuple(a - b for a, b in zip(total, nu))) // 2
            mult = tens.get(nu, 0)
            assert poly.degree <= bound, (lam, mu, nu, poly)
            assert (poly.degree == bound) == (mult > 0), (lam, mu, nu, poly)
            if mult:
                assert poly.coeffs[-1] == mult, (lam, mu, nu, poly)
            checked += 1
    report(5, True, f"degree/leading-coefficient law on {checked} "
                    f"interpolated fibers over q in {qs}")


def test_criterion_6_schubert_dimension():
    cases = {
        GL2: [((1, 0), [2, 3, 4]), ((2, 0), [2, 3, 4, 5]),
              ((1, -1), [2, 3, 4, 5]), ((2, 1), [2, 3, 4])],
        GL3: [((1, 0, 0), [2, 3, 4, 5]), ((1, 1, 0), [2, 3, 4, 5])],
    }
    lines = []
    for datum, rows in cases.items():
        for mu, qs in rows:
            N = max(abs(x) for x in mu)
            poly = lo.interpolate_count(lambda q: lo.count_cell(mu, q, N), qs)
            dim = datum.height2(mu)
            assert poly.degree == dim, (mu, poly)
            assert poly.coeffs[-1] == 1, (mu, poly)
            lines.append(f"{mu}:{poly}")
    report(6, True, "monic cell-count polynomials " + "; ".join(lines))


def test_criterion_7_verlinde_integrality():
    start = time.monotonic()
    for n in range(2, 6):
        for m in range(1, 6):
            for g in range(0, 4):
                out = verlinde_sl_report(VerlindeQuery(n, g, m),
                                         tol=VERLINDE_TOL)
                assert out["residual"] < VERLINDE_TOL
                assert out["dimension"] > 0
                if g == 1:
                    assert out["dimension"] == genus_one_dimension(n, m)
                if m == 1:
                    assert out["dimension"] == n ** g
    for g in range(0, 6):
        assert level_one_ade("E8", g) == 1
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    report(7, ok, f"certified integers on n<=5, m<=5, g<=3 grid "
                  f"({elapsed:.1f}s)")
    assert elapsed < 60


def _criterion_8_grid():
    for lam, mu in itertools.product(
            dominant_coweights_in_box(GL2, -1, 2), repeat=2):
        yield GL2, lam, mu
    for lam, mu in itertools.product(
            dominant_coweights_in_box(GL3, 0, 1), repeat=2):
        yield GL3, lam, mu


def test_criterion_8_structure_constants_support_and_values():
    checked = 0
    for datum, lam, mu in _criterion_8_grid():
        consts = hs.structure_constants(datum, lam, mu)
        total = tuple(a + b for a, b in zip(lam, mu))
        assert consts[total] == 1
        for nu, poly in consts.items():
            assert datum.leq(nu, total)
            for q in (2, 3, 4, 5, 7):
                assert poly(q) >= 0
            checked += 1
    report(8, True, f"support bound, unit top coefficient, and nonnegative "
                    f"values on {checked} structure constants "
                    "(coefficientwise form: see the xfailed companion)")


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: coefficientwise nonnegativity of c-basis structure "
    "constants is false; the (1,-1)-coefficient of c_(1,-1)*c_(1,-1) in "
    "GL(2) is the Hall polynomial q - 1, confirmed by the lattice oracle "
    "(count 1 at q=2, 2 at q=3).  Values at prime powers are nonnegative; "
    "see the companion test and the decisions ledger."))
def test_criterion_8_coefficientwise_positivity_as_stated():
    failures = []
    for datum, lam, mu in _criterion_8_grid():
        for nu, poly in hs.structure_constants(datum, lam, mu).items():
            if any(c < 0 for c in poly.coeffs):
                failures.append((datum.label, lam, mu, nu, str(poly)))
    if failures:
        report(8, False, f"coefficientwise positivity fails at "
                         f"{len(failures)} grid points, e.g. "
                         f"{failures[0]}")
    assert not failures


def test_criterion_9_partial_order_laws():
    checked = 0
    for datum in (GL2, GL3):
        box = list(itertools.product(range(-3, 4), repeat=datum.dim))
        leq = {}
        for lam, mu in itertools.product(box, repeat=2):
            leq[(lam, mu)] = datum.dominance_leq(lam, mu)
        for lam in box:
            assert leq[(lam, lam)] is Dominance.LE
        for lam, mu in itertools.product(box, repeat=2):
            rel = leq[(lam, mu)]
            if rel is Dominance.INCOMPARABLE_COMPONENTS:
                assert leq[(mu, lam)] is Dominance.INCOMPARABLE_COMPONENTS
                continue
            if rel is Dominance.LE and lam != mu:
                assert leq[(mu, lam)] is Dominance.NOT_LE  # antisymmetry
        # transitivity: lam <= mid and mid <= upper imply lam <= upper
        below = {}
        for lam, mu in itertools.product(box, repeat=2):
            if leq[(lam, mu)] is Dominance.LE:
                below.setdefault(mu, []).append(lam)
        for mid in box:
            lower = below.get(mid, [])
            for upper, lowers in below.items():
                if mid in lowers:
                    for lam in lower:
                        assert leq[(lam, upper)] is Dominance.LE
                        checked += 1
    report(9, True, f"reflexive, antisymmetric, transitive "
                    f"({checked} transitivity triples)")
