import pytest

from satkit.errors import InternalInconsistency
from satkit.polynomials import Laurent, QPoly


def test_qpoly_normalization():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0, 0]).is_zero
    assert QPoly().degree == -1
    assert QPoly([0, 1]).degree == 1


def test_qpoly_ring_ops():
    p = QPoly([1, 1])       # 1 + q
    q = QPoly([0, 1])       # q
    assert p + q == QPoly([1, 2])
    assert p - p == QPoly.ZERO
    assert p * q == QPoly([0, 1, 1])
    assert 3 * p == QPoly([3, 3])
    assert (p * p)(2) == p(2) ** 2 == 9


def test_qpoly_eval_and_shift():
    p = QPoly([2, 0, 1])
    assert p(3) == 11
    assert p.shift(2) == QPoly([0, 0, 2, 0, 1])
    assert QPoly.monomial(3, 5) == QPoly([0, 0, 0, 5])


def test_qpoly_reverse():
    # q^d * p(1/q) within degree bound d
    p = QPoly([0, 1])            # q
    assert p.reverse(1) == QPoly([1])
    assert p.reverse(3) == QPoly([0, 0, 1])
    assert QPoly([1, 2, 3]).reverse(2) == QPoly([3, 2, 1])
    with pytest.raises(ValueError):
        QPoly([1, 1, 1]).reverse(1)


def test_laurent_normalization():
    x = Laurent(-2, [0, 1, 0, 3, 0])
    assert x.low == -1 and x.coeffs == (1, 0, 3)
    assert Laurent(5, []).is_zero
    assert Laurent(5, [0, 0]).low == 0


def test_laurent_ring_ops():
    v = Laurent.v_power(1)
    vinv = Laurent.v_power(-1)
    assert v * vinv == Laurent.ONE
    assert (v + vinv) * (v - vinv) == Laurent.v_power(2) - Laurent.v_power(-2)
    assert (v * 0).is_zero
    assert v.shifted(3) == Laurent.v_power(4)


def test_laurent_from_qpoly_and_back():
    p = QPoly([1, 2, 3])
    x = Laurent.from_qpoly(p)
    assert x.coeff(0) == 1 and x.coeff(2) == 2 and x.coeff(4) == 3
    assert x.coeff(1) == 0
    assert x.as_qpoly() == p


def test_laurent_as_qpoly_rejects_odd_and_negative():
    with pytest.raises(InternalInconsistency):
        Laurent.v_power(1).as_qpoly()
    with pytest.raises(InternalInconsistency):
        Laurent.v_power(-2).as_qpoly()
    assert Laurent.v_power(2).as_qpoly() == QPoly([0, 1])


def test_repr_smoke():
    assert repr(QPoly([1, 0, 2])) == "2*q^2 + 1"
    assert repr(QPoly.ZERO) == "0"
    assert "v" in repr(Laurent.v_power(3))
