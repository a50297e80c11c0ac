import itertools

import pytest

from satkit import schubert as sch
from satkit import weyl_rep as wr
from satkit.errors import (DomainError, EmptyFiber, EmptyIntersection,
                           ShapeError)
from satkit.root_datum import dominant_coweights_in_box, make_root_datum
from weyl_reference import REFERENCE_LABELS, reference_highest_weights

GL2 = make_root_datum("GL(2)")
GL3 = make_root_datum("GL(3)")
GL4 = make_root_datum("GL(4)")


def test_schubert_dim():
    assert sch.schubert_dim(GL2, (1, 0)) == 1
    assert sch.schubert_dim(GL2, (1, -1)) == 2
    assert sch.schubert_dim(GL4, (1, 1, 1, 1)) == 0
    with pytest.raises(DomainError):
        sch.schubert_dim(GL2, (0, 1))


def test_schubert_dim_additive():
    doms = [v for v in dominant_coweights_in_box(GL3, -2, 2)]
    for mu, nu in itertools.product(doms[:8], doms[:8]):
        s = tuple(a + b for a, b in zip(mu, nu))
        assert sch.schubert_dim(GL3, s) == (sch.schubert_dim(GL3, mu)
                                            + sch.schubert_dim(GL3, nu))


def test_closure_cells():
    assert sch.closure_cells(GL2, (2, 0)) == ((1, 1), (2, 0))
    assert sch.closure_cells(GL2, (1, 0)) == ((1, 0),)
    assert sch.closure_cells(GL3, (2, 1, 0)) == ((1, 1, 1), (2, 1, 0))


def test_parity():
    assert sch.parity(GL2, (1, 0)) == "odd"
    assert sch.parity(GL2, (1, 1)) == "even"
    assert sch.parity(GL2, (1, -1)) == "even"


def test_parity_constant_on_closures():
    for mu in dominant_coweights_in_box(GL3, -2, 2):
        p = sch.parity(GL3, mu)
        for lam in sch.closure_cells(GL3, mu):
            assert sch.parity(GL3, lam) == p


def test_minuscule():
    assert sch.is_minuscule(GL4, (1, 1, 0, 0))
    assert sch.is_minuscule(GL2, (1, 0))
    assert not sch.is_minuscule(GL2, (2, 0))
    assert not sch.is_minuscule(GL2, (0, 0))


def test_quasi_minuscule():
    assert sch.is_quasi_minuscule(GL2, (1, -1))
    assert not sch.is_quasi_minuscule(GL2, (2, 0))
    assert not sch.is_quasi_minuscule(GL2, (1, 0))
    assert not sch.is_quasi_minuscule(GL2, (0, 0))
    assert sch.is_quasi_minuscule(GL3, (1, 0, -1))


def test_minuscule_closures_are_single_cells():
    for d in (GL2, GL3, GL4):
        for mu in dominant_coweights_in_box(d, -1, 2):
            if sch.is_minuscule(d, mu):
                assert sch.closure_cells(d, mu) == (mu,)


def test_parabolic_flag_dim():
    assert sch.parabolic_flag_dim(GL2, (0, 0)) == 0
    assert sch.parabolic_flag_dim(GL2, (1, 0)) == 1
    assert sch.parabolic_flag_dim(GL3, (1, 0, -1)) == 3


def test_parabolic_flag_dim_wrong_length_is_a_shape_error():
    for datum, mu in [(GL2, (1, 0, -1)), (make_root_datum("GL(1)"), (1, 0))]:
        with pytest.raises(ShapeError, match=f"length {datum.dim}"):
            sch.parabolic_flag_dim(datum, mu)


def test_opposite_codim():
    assert sch.opposite_codim(GL2, (0, 0)) == 0
    assert sch.opposite_codim(GL2, (1, 0)) == 0
    # the quasi-minuscule opposite variety is a divisor
    assert sch.opposite_codim(GL2, (1, -1)) == 1


def test_mv_cycle_dim_extremes():
    for mu in [(2, 0), (3, 1), (2, -1)]:
        top = sch.mv_cycle_dim(GL2, mu, mu)
        assert top == sch.schubert_dim(GL2, mu)
        w0mu = tuple(reversed(mu))
        assert sch.mv_cycle_dim(GL2, w0mu, mu) == 0
    assert sch.mv_cycle_dim(GL2, (1, 1), (2, 0)) == 1
    with pytest.raises(EmptyIntersection):
        sch.mv_cycle_dim(GL2, (3, -1), (2, 0))


def test_mv_cycle_dim_range():
    for d, box in [(GL2, (-2, 2)), (GL3, (-1, 2))]:
        for mu in dominant_coweights_in_box(d, *box):
            top = sch.schubert_dim(d, mu)
            for lam in wr.weight_multiplicities(d, mu):
                v = sch.mv_cycle_dim(d, lam, mu)
                assert 0 <= v <= top
                assert (v == top) == (lam == mu)


def test_satake_fiber_dim_bound():
    assert sch.satake_fiber_dim_bound(GL2, [(1, 0), (1, 0)], (2, 0)) == 0
    assert sch.satake_fiber_dim_bound(GL2, [(1, 0), (1, 0)], (1, 1)) == 1
    assert sch.satake_fiber_dim_bound(GL2, [(1, -1), (1, -1)], (0, 0)) == 2
    with pytest.raises(EmptyFiber):
        sch.satake_fiber_dim_bound(GL2, [(1, 0)], (2, -1))


def test_mv_basis_table():
    assert sch.mv_basis_table(GL2, (2, 0)) == [
        ((2, 0), 2, 1), ((1, 1), 1, 1), ((0, 2), 0, 1)]
    assert sch.mv_basis_table(GL2, (1, 0)) == [((1, 0), 1, 1), ((0, 1), 0, 1)]
    assert sch.mv_basis_table(GL2, (0, 0)) == [((0, 0), 0, 1)]


def test_mv_basis_counts_sum_to_dimension():
    for mu in [(2, 0), (2, 1, 0), (1, 0, -1)]:
        d = GL2 if len(mu) == 2 else GL3
        rows = sch.mv_basis_table(d, mu)
        assert sum(r[2] for r in rows) == wr.dim_rep(d, mu)


@pytest.mark.parametrize("label", REFERENCE_LABELS)
def test_mv_basis_rows_match_mv_cycle_dim(label):
    datum, mus = reference_highest_weights(label)
    for mu in mus:
        for lam, dim, _ in sch.mv_basis_table(datum, mu):
            assert dim == sch.mv_cycle_dim(datum, lam, mu), (mu, lam)


def test_mv_basis_table_json():
    rows = sch.mv_basis_table_json(GL2, (1, 0))
    assert rows[0] == {"lambda": [1, 0], "dim": 1, "count": 1}
