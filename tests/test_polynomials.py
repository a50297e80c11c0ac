import random
from fractions import Fraction

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
    assert p.shifted(2) == QPoly([0, 0, 2, 0, 1])
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
    v = Laurent.monomial(1)
    vinv = Laurent.monomial(-1)
    assert v * vinv == Laurent.ONE
    assert (v + vinv) * (v - vinv) == Laurent.monomial(2) - Laurent.monomial(-2)
    assert (v * 0).is_zero
    assert v.shifted(3) == Laurent.monomial(4)


def test_laurent_from_qpoly_and_back():
    p = QPoly([1, 2, 3])
    x = Laurent.from_qpoly(p)
    assert x.coeff(0) == 1 and x.coeff(2) == 2 and x.coeff(4) == 3
    assert x.coeff(1) == 0
    assert x.as_qpoly() == p


def test_laurent_as_qpoly_rejects_odd_and_negative():
    with pytest.raises(InternalInconsistency):
        Laurent.monomial(1).as_qpoly()
    with pytest.raises(InternalInconsistency):
        Laurent.monomial(-2).as_qpoly()
    assert Laurent.monomial(2).as_qpoly() == QPoly([0, 1])


def test_repr_smoke():
    assert repr(QPoly([1, 0, 2])) == "2*q^2 + 1"
    assert repr(QPoly.ZERO) == "0"
    assert "v" in repr(Laurent.monomial(3))


# -- the one class: seeded checks against a test-local evaluation ------------

def _value(p, x):
    """p at x, term by term; x a nonzero Fraction when p has negative terms."""
    return sum(c * x ** k for k, c in enumerate(p.coeffs, p.low))


def _normal(p):
    """Stripped at both ends, and zero stored as (0, ())."""
    return (p.coeffs[0] and p.coeffs[-1]) if p.coeffs else p.low == 0


def _random(rng, cls):
    coeffs = [rng.choice([0, rng.randint(-4, 4)]) for _ in range(rng.randint(0, 6))]
    return QPoly(coeffs) if cls is QPoly else Laurent(rng.randint(-4, 4), coeffs)


@pytest.mark.parametrize("cls, points", [
    (QPoly, [-3, -1, 0, 1, 2, 5]),
    (Laurent, [Fraction(-3, 2), Fraction(-1), Fraction(1, 3), Fraction(2)]),
], ids=["QPoly", "Laurent"])
def test_evaluation_is_a_ring_homomorphism(cls, points):
    rng = random.Random(16)
    for _ in range(300):
        p, r = _random(rng, cls), _random(rng, cls)
        c = rng.randint(-5, 5)
        k = rng.randint(0 if cls is QPoly else -3, 3)
        d = max(p.degree, 0) + rng.randint(0, 2)
        results = [p + r, p - r, -p, p * r, c * p, p * c, p.shifted(k),
                   p.reverse(d)]
        assert all(type(x) is cls and _normal(x) for x in results)
        add, sub, neg, mul, cp, pc, shifted, rev = results
        for x in points:
            px, rx = _value(p, x), _value(r, x)
            assert _value(add, x) == px + rx
            assert _value(sub, x) == px - rx
            assert _value(neg, x) == -px
            assert _value(mul, x) == px * rx
            assert _value(cp, x) == _value(pc, x) == c * px
            assert _value(shifted, x) == x ** k * px
            if x:
                assert _value(rev, x) == x ** d * _value(p, 1 / Fraction(x))
            if cls is QPoly:
                assert p(x) == px and mul(x) == px * rx


def test_low_and_coeffs_of_qpoly():
    p = QPoly([0, 0, 3, 1])          # q^3 + 3q^2
    assert (p.low, p.coeffs, p.degree) == (2, (3, 1), 3)
    assert [p.coeff(k) for k in range(5)] == [0, 0, 3, 1, 0]
    assert p == QPoly.monomial(2) * QPoly([3, 1]) == QPoly([3, 1]).shifted(2)
    assert p.reverse(3) == QPoly([1, 3])


def test_qpoly_laurent_round_trip():
    rng = random.Random(160)
    for _ in range(300):
        p = _random(rng, QPoly)
        x = Laurent.from_qpoly(p)
        assert type(x) is Laurent and _normal(x)
        assert all(x.coeff(k) == p.coeff(k // 2) * (k % 2 == 0)
                   for k in range(-2, 2 * p.degree + 3))
        assert x.as_qpoly() == p and type(x.as_qpoly()) is QPoly


@pytest.mark.parametrize("poly, text", [
    (QPoly(), "0"),
    (Laurent(), "0"),
    (QPoly([1]), "1"),
    (QPoly([-1]), "-1"),
    (QPoly([0, 1]), "q"),
    (QPoly([0, 0, -3, 1]), "q^3 - 3*q^2"),
    (QPoly([2, -1, 1]), "q^2 - q + 2"),
    (QPoly([0, -1, 0, 5]), "5*q^3 - q"),
    (Laurent(-1, [1]), "v^-1"),
    (Laurent(-3, [-2, 0, 0, 1, 1]), "v + 1 - 2*v^-3"),
    (Laurent(1, [-1]), "-v"),
    (Laurent(-2, [3, 0, -1]), "-1 + 3*v^-2"),
    (Laurent(2, [1, 0, -4]), "-4*v^4 + v^2"),
])
def test_repr_table(poly, text):
    assert repr(poly) == text


def test_equality_and_hash():
    assert QPoly([3]) == 3 and QPoly() == 0 and QPoly([0, 1]) != 0
    assert Laurent.from_int(-2) == -2 and Laurent(1, [1]) != 1
    assert QPoly([1]) != Laurent.ONE and Laurent.ONE != QPoly.ONE
    assert QPoly.Q != Laurent.monomial(1)
    same = [QPoly([1, 1]), QPoly([1, 1, 0]), QPoly.ONE + QPoly.Q,
            (QPoly.Q * QPoly([1, 1])).shifted(-1)]
    assert all(p == same[0] for p in same)
    assert len({hash(p) for p in same}) == 1
    assert len({Laurent(-1, [2, 0]), Laurent(-2, [0, 2]),
                Laurent.monomial(-1, 2)}) == 1


def test_removed_names_are_gone():
    assert not hasattr(Laurent, "v_power") and not hasattr(Laurent, "high")
    assert not hasattr(QPoly, "shift")


def test_q_and_v_do_not_mix():
    v, q = Laurent.monomial(1), QPoly.Q
    for op in (lambda: Laurent.ONE + q, lambda: q - v, lambda: Laurent.ZERO + q,
               lambda: q * v, lambda: v * q, lambda: Laurent.from_qpoly(v),
               lambda: q.as_qpoly()):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):
        QPoly.monomial(-1)
    with pytest.raises(ValueError):
        q.shifted(-2)
    assert q.shifted(-1) == 1 and QPoly.ZERO.shifted(-1) == 0

