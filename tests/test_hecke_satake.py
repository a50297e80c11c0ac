import itertools
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from satkit import hecke_satake as hs
from satkit import weyl_rep as wr
from satkit.cli import main
from satkit.errors import DomainError
from satkit.polynomials import Laurent, QPoly
from satkit.root_datum import dominant_coweights_in_box, make_root_datum

GL2 = make_root_datum("GL(2)")
GL3 = make_root_datum("GL(3)")
GL1 = make_root_datum("GL(1)")


def lau(*qcoeffs):
    return Laurent.from_qpoly(QPoly(qcoeffs))


def test_element_normalization():
    h = hs.HeckeElement(GL2, {(1, 0): Laurent.ZERO, (2, 0): Laurent.ONE})
    assert h.support == [(2, 0)]
    with pytest.raises(DomainError):
        hs.HeckeElement(GL2, {(0, 1): Laurent.ONE})


def test_hecke_coefficients_must_be_laurent():
    assert hs.HeckeElement(GL2, {(1, 0): 2}).coeff((1, 0)) == Laurent.from_int(2)
    with pytest.raises(TypeError):
        hs.HeckeElement(GL2, {(1, 0): QPoly.Q})


def test_non_dominant_support_names_datum():
    with pytest.raises(DomainError, match=r"support element=\(0, 1, 0\) "
                       r"is not dominant for GL\(3\)"):
        hs.VirtualCharacter(GL3, {(2, 0, 0): 1, (0, 1, 0): 1})


def test_ic_function():
    assert hs.ic_function(GL2, (0, 0)) == hs.c_basis(GL2, (0, 0))
    assert hs.ic_function(GL2, (1, 0)) == hs.c_basis(GL2, (1, 0))
    f20 = hs.ic_function(GL2, (2, 0))
    assert f20 == hs.HeckeElement(
        GL2, {(2, 0): Laurent.ONE, (1, 1): Laurent.ONE})


def test_elements_of_one_label_compare_equal():
    # _Span compares datums by identity; one datum per label makes that work
    assert (hs.c_basis(make_root_datum("GL(2)"), (1, 0))
            == hs.c_basis(make_root_datum("GL(2)"), (1, 0)))
    assert hs.c_basis(make_root_datum("GL2"), (1, 0)) == hs.c_basis(GL2, (1, 0))


def test_repeated_convolve_request_reuses_ic_functions(capsys):
    argv = ["convolve", "--type", "C", "--rank", "2",
            "--lam", "1,0", "--mu", "0,1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    misses = hs.ic_function.cache_info().misses
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert hs.ic_function.cache_info().misses == misses


def test_satake_transform_examples():
    s = hs.satake_transform(GL2, hs.c_basis(GL2, (1, 1)))
    assert s == hs.chi_basis(GL2, (1, 1))
    s = hs.satake_transform(GL2, hs.c_basis(GL2, (1, 0)))
    assert s == hs.VirtualCharacter(GL2, {(1, 0): Laurent.monomial(1)})
    s = hs.satake_transform(GL2, hs.c_basis(GL2, (2, 0)))
    assert s == hs.VirtualCharacter(
        GL2, {(2, 0): Laurent.monomial(2), (1, 1): Laurent.from_int(-1)})


def test_inverse_satake_examples():
    assert hs.inverse_satake(GL2, hs.chi_basis(GL2, (0, 0))) == \
        hs.c_basis(GL2, (0, 0))
    assert hs.inverse_satake(GL2, hs.chi_basis(GL2, (1, 1))) == \
        hs.c_basis(GL2, (1, 1))
    out = hs.inverse_satake(GL2, hs.chi_basis(GL2, (2, 0)))
    assert out == hs.HeckeElement(GL2, {(2, 0): Laurent.monomial(-2),
                                        (1, 1): Laurent.monomial(-2)})


def test_satake_round_trip_random():
    rng = random.Random(7)
    for d in (GL2, GL3):
        doms = list(dominant_coweights_in_box(d, -2, 2))
        for _ in range(12):
            support = rng.sample(doms, k=min(5, len(doms)))
            coeffs = {mu: Laurent(rng.randrange(-2, 3),
                                  [rng.randrange(-3, 4) for _ in range(3)])
                      for mu in support}
            h = hs.HeckeElement(d, coeffs)
            assert hs.inverse_satake(d, hs.satake_transform(d, h)) == h
            chi = hs.VirtualCharacter(d, coeffs)
            assert hs.satake_transform(d, hs.inverse_satake(d, chi)) == chi


def _satake_by_max_scan(d, h):
    """S(h) by the plain back-substitution: each step takes the highest
    pending weight with a max() over all of them."""
    rest, out = dict(h.coeffs), {}
    while rest:
        mu = max(rest, key=lambda m: (d.height2(m), m))
        c = rest.pop(mu)
        if c:
            out[mu] = c.shifted(d.height2(mu))
            for lam, a in hs.ic_function(d, mu).coeffs.items():
                if lam != mu:
                    rest[lam] = rest.get(lam, Laurent.ZERO) - c * a
    return hs.VirtualCharacter(d, out)


@pytest.mark.parametrize("label, lo, hi", [
    ("GL(3)", -1, 2), ("B2", 0, 3), ("C2", 0, 3), ("G2", 0, 2)])
def test_satake_transform_matches_max_scan(label, lo, hi):
    d = make_root_datum(label)
    doms = list(dominant_coweights_in_box(d, lo, hi))
    for mu in doms:
        c = hs.c_basis(d, mu)
        assert hs.satake_transform(d, c) == _satake_by_max_scan(d, c), mu
    rng = random.Random(5)
    for _ in range(10):   # linearity over the memo of basis transforms
        coeffs = {mu: Laurent(rng.randrange(-2, 3),
                              [rng.randrange(-3, 4) for _ in range(2)])
                  for mu in rng.sample(doms, k=min(4, len(doms)))}
        h = hs.HeckeElement(d, coeffs)
        assert hs.satake_transform(d, h) == _satake_by_max_scan(d, h)


def test_satake_gl2_long_ray_is_quick():
    # the max() scan took 5-8 s here; height order takes one pass
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "satkit.cli", "satake", "--type", "GL",
         "--rank", "2", "--mu", "6000,0"],
        capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 3.0


def test_convolution_frozen_examples():
    assert hs.convolve_basis(GL2, (1, 0), (1, 0)) == hs.HeckeElement(
        GL2, {(2, 0): Laurent.ONE, (1, 1): lau(1, 1)})
    assert hs.convolve_basis(GL2, (1, 0), (1, 1)) == hs.c_basis(GL2, (2, 1))
    # quasi-minuscule square: the theta-coefficient is the Hall value q - 1
    assert hs.convolve_basis(GL2, (1, -1), (1, -1)) == hs.HeckeElement(
        GL2, {(2, -2): Laurent.ONE, (1, -1): lau(-1, 1), (0, 0): lau(0, 1, 1)})
    assert hs.convolve_basis(GL3, (1, 0, 0), (1, 0, 0)) == hs.HeckeElement(
        GL3, {(2, 0, 0): Laurent.ONE, (1, 1, 0): lau(1, 1)})


def test_unit_element():
    for lam in [(1, 0), (2, -1), (0, 0)]:
        assert hs.convolve_basis(GL2, (0, 0), lam) == hs.c_basis(GL2, lam)
        assert hs.convolve_basis(GL2, lam, (0, 0)) == hs.c_basis(GL2, lam)


def test_gl1_is_group_algebra():
    assert hs.convolve_basis(GL1, (2,), (3,)) == hs.c_basis(GL1, (5,))
    assert hs.convolve_basis(GL1, (-1,), (1,)) == hs.c_basis(GL1, (0,))


def test_commutativity_and_associativity():
    rng = random.Random(11)
    doms = list(dominant_coweights_in_box(GL2, -1, 2))
    for _ in range(6):
        a, b, c = (hs.c_basis(GL2, rng.choice(doms)) for _ in range(3))
        ab = hs.hecke_convolve(GL2, a, b)
        assert ab == hs.hecke_convolve(GL2, b, a)
        assert hs.hecke_convolve(GL2, ab, c) == \
            hs.hecke_convolve(GL2, a, hs.hecke_convolve(GL2, b, c))


def test_support_bound_and_cartan_coefficient():
    doms = list(dominant_coweights_in_box(GL2, -1, 2))
    for lam, mu in itertools.product(doms, repeat=2):
        prod = hs.convolve_basis(GL2, lam, mu)
        top = tuple(a + b for a, b in zip(lam, mu))
        assert prod.coeff(top) == Laurent.ONE
        for nu in prod.coeffs:
            assert GL2.leq(nu, top)


def test_degree_law_matches_tensor_multiplicities():
    doms = list(dominant_coweights_in_box(GL2, -2, 2))
    for lam, mu in itertools.product(doms, repeat=2):
        tens = wr.tensor_decompose(GL2, lam, mu)
        total = tuple(a + b for a, b in zip(lam, mu))
        for nu, c in hs.structure_constants(GL2, lam, mu).items():
            bound = GL2.height2(tuple(a - b for a, b in zip(total, nu))) // 2
            mult = tens.get(nu, 0)
            assert c.degree <= bound
            if mult:
                assert c.degree == bound and c.coeffs[-1] == mult
            else:
                assert c.degree < bound


def test_evaluate_at():
    prod = hs.convolve_basis(GL2, (1, 0), (1, 0))
    assert hs.evaluate_at(GL2, prod, 2) == {(2, 0): 1, (1, 1): 3}
    assert hs.evaluate_at(GL2, hs.c_basis(GL2, (3, 1)), 9) == {(3, 1): 1}
    assert hs.evaluate_at(GL2, hs.ic_function(GL2, (2, 0)), 3) == {
        (2, 0): 1, (1, 1): 1}
    with pytest.raises(DomainError):
        hs.evaluate_at(GL2, prod, 1)


def test_evaluate_at_rejects_odd_powers():
    h = hs.HeckeElement(GL2, {(1, 0): Laurent.monomial(1)})
    from satkit.errors import InternalInconsistency
    with pytest.raises(InternalInconsistency):
        hs.evaluate_at(GL2, h, 2)


def test_json_serialization():
    prod = hs.convolve_basis(GL2, (1, 0), (1, 0))
    rows = prod.to_json()
    assert {"coweight": [1, 1], "v_low": 0, "coeffs_v": [1, 0, 1]} in rows
    assert {"coweight": [2, 0], "v_low": 0, "coeffs_v": [1]} in rows
