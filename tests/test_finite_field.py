import itertools
import random

import pytest

from satkit.errors import InternalInconsistency, UnsupportedType
from satkit.finite_field import _IRREDUCIBLE, GF, PolyRing, _factor_prime_power


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49])
def test_field_axioms(q):
    f = GF(q)
    elems = range(q)
    for a in elems:
        assert f.add[a][0] == a
        assert f.mul[a][1] == a
        assert f.add[a][f.neg[a]] == 0
        if a:
            assert f.mul[a][f.inv[a]] == 1
    # spot-check associativity/distributivity on small triples
    sample = list(elems)[: min(q, 5)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]
        assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]


def test_multiplicative_group_is_cyclic_of_right_order():
    for q in (4, 8, 9):
        f = GF(q)
        for a in range(1, q):
            x, order = a, 1
            while x != 1:
                x = f.mul[x][a]
                order += 1
            assert (q - 1) % order == 0


def _reference_mul(p, e, x, y):
    """x * y in GF(p^e): multiply the base-p digit vectors as polynomials
    in t and reduce by the monic modulus on file."""
    dx = [x // p ** i % p for i in range(e)]
    dy = [y // p ** i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, a in enumerate(dx):
        for j, b in enumerate(dy):
            prod[i + j] += a * b
    modulus = _IRREDUCIBLE[(p, e)]
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        for i in range(e + 1):
            prod[k - e + i] -= c * modulus[i]
    return sum(d % p * p ** i for i, d in enumerate(prod[:e]))


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 125, 343])
def test_extension_tables_match_polynomial_reference(q):
    f = GF(q)
    assert len(f.mul) == q and all(len(row) == q for row in f.mul)
    if q <= 49:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for x, y in pairs:
        assert f.mul[x][y] == _reference_mul(f.p, f.e, x, y), (x, y)
    assert f.inv[0] == 0
    for x in range(1, q):
        assert _reference_mul(f.p, f.e, x, f.inv[x]) == 1, x


def test_non_primitive_modulus_is_refused(monkeypatch):
    # t^2 + 1 is irreducible over GF(3), but t has order 4, not 8
    monkeypatch.setitem(_IRREDUCIBLE, (3, 2), (1, 0, 1))
    GF.cache_clear()
    try:
        with pytest.raises(InternalInconsistency, match="primitive"):
            GF(9)
    finally:
        GF.cache_clear()


def test_moduli_are_irreducible():
    # degree <= 3 is irreducible iff rootless
    for (p, e), coeffs in _IRREDUCIBLE.items():
        for x in range(p):
            value = sum(c * x ** i for i, c in enumerate(coeffs)) % p
            assert value != 0, f"modulus for GF({p}^{e}) has root {x}"


def test_prime_field_inverses():
    p = 1021
    f = GF(p)
    assert all(f.inv[x] * x % p == 1 for x in range(1, p))


def test_prime_field_tables_share_one_element_list():
    f = GF(1021)
    ids = {id(x) for x in f.add[0]}
    assert len(ids) == 1021
    assert all(id(x) in ids for table in (f.add, f.mul) for row in table
               for x in row)
    assert all(id(x) in ids for x in f.neg + f.inv)


def test_factor_prime_power_matches_trial_division():
    primes = [p for p in range(2, 5000)
              if all(p % k for k in range(2, int(p ** 0.5) + 1))]
    powers = {p ** e: (p, e) for p in primes for e in range(1, 13)}
    for q in range(-2, 5000):
        if q in powers:
            assert _factor_prime_power(q) == powers[q]
        else:
            with pytest.raises(UnsupportedType):
                _factor_prime_power(q)


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
    assert ring.sub(a, b) == (2, 1, 1)
    assert ring.mul(a, b) == (2, 2, 1, 1)
    assert ring.mul(a, ()) == ()


def test_poly_valuation_and_monomial():
    ring = PolyRing(GF(2))
    assert ring.t_power(3) == (0, 0, 0, 1)
