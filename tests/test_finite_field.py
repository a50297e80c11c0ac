import itertools

import pytest

from satkit.errors import UnsupportedType
from satkit.finite_field import _IRREDUCIBLE, GF, PolyRing


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49])
def test_field_axioms(q):
    f = GF(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # spot-check associativity/distributivity on small triples
    sample = list(elems)[: min(q, 5)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_multiplicative_group_is_cyclic_of_right_order():
    for q in (4, 8, 9):
        f = GF(q)
        for a in range(1, q):
            x, order = a, 1
            while x != 1:
                x = f.mul(x, a)
                order += 1
            assert (q - 1) % order == 0


def test_moduli_are_irreducible():
    # degree <= 3 is irreducible iff rootless
    for (p, e), coeffs in _IRREDUCIBLE.items():
        for x in range(p):
            value = sum(c * x ** i for i, c in enumerate(coeffs)) % p
            assert value != 0, f"modulus for GF({p}^{e}) has root {x}"


def test_prime_field_inverses():
    p = 1021
    f = GF(p)
    assert all(f._inv[x] * x % p == 1 for x in range(1, p))


def test_unsupported_q():
    with pytest.raises(UnsupportedType):
        GF(6)
    with pytest.raises(UnsupportedType):
        GF(16)   # e = 4 not on file
    with pytest.raises(UnsupportedType):
        GF(1)
    with pytest.raises(UnsupportedType, match="1024"):
        GF(1031)   # prime, but refused before any q x q table is built


def test_poly_arithmetic():
    ring = PolyRing(GF(3))
    a = (1, 2, 1)        # 1 + 2t + t^2
    b = (2, 1)           # 2 + t
    assert ring.add(a, ring.neg(a)) == ()
    prod = ring.mul(a, b)
    quo, rem = ring.divmod(prod, b)
    assert quo == a and rem == ()
    quo, rem = ring.divmod(ring.add(prod, (1,)), b)
    assert rem == (1,)
    assert ring.divmod(prod, a) == (b, ())


def test_poly_valuation_and_monomial():
    ring = PolyRing(GF(2))
    assert ring.val(()) is None
    assert ring.val((0, 0, 1, 1)) == 2
    assert ring.t_power(3) == (0, 0, 0, 1)


def test_all_of_degree_below():
    ring = PolyRing(GF(2))
    assert list(ring.all_of_degree_below(0)) == [()]
    assert sorted(ring.all_of_degree_below(2)) == [(), (0, 1), (1,), (1, 1)]


def test_poly_divmod_random_roundtrip():
    import random
    rng = random.Random(3)
    ring = PolyRing(GF(5))
    for _ in range(50):
        a = ring.normalize([rng.randrange(5) for _ in range(rng.randrange(6))])
        b = ring.normalize([rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        if not b:
            continue
        quo, rem = ring.divmod(a, b)
        assert ring.add(ring.mul(quo, b), rem) == a
        assert len(rem) < len(b) or not rem
