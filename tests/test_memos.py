"""Every memo in satkit is a functools.lru_cache with a finite maxsize, and
root data carry no memo of their own.

The walk finds each object with ``cache_info`` among the attributes of every
satkit module and of every class defined there, so a memo added later without
a bound fails here."""

import importlib
import inspect
import itertools
import pkgutil
from collections.abc import Mapping

import pytest

import satkit
from satkit import hecke_satake as hs
from satkit import lattice_oracle as lo
from satkit import root_datum, schubert
from satkit import weyl_rep as wr
from satkit.cli import run_certification
from satkit.errors import TooLarge
from satkit.finite_field import GF
from satkit.root_datum import make_root_datum


def _memos():
    for info in pkgutil.iter_modules(satkit.__path__):
        module = importlib.import_module(f"satkit.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                yield f"{info.name}.{name}", value
            cls = inspect.unwrap(value)   # a memoized class, such as GF
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for attr, member in vars(cls).items():
                    if hasattr(member, "cache_info"):
                        yield f"{info.name}.{name}.{attr}", member


def test_every_memo_is_bounded():
    memos = dict(_memos())
    assert {"root_datum._gl_datum", "root_datum._simple_datum",
            "root_datum._dominant_below", "weyl_rep._freudenthal",
            "weyl_rep._kostant_table", "weyl_rep._explicit_module",
            "hecke_satake.ic_function", "hecke_satake._tensor",
            "hecke_satake._basis_transform", "hecke_satake.convolve_basis",
            "lattice_oracle._window_cells", "lattice_oracle._divisor_position",
            "lattice_oracle._convolution_histogram",
            "finite_field.GF", "verlinde._histograms",
            "cli.build_parser"} <= set(memos)
    for name, memo in memos.items():
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name
    for label in ("GL(1)", "GL(3)", "A2", "B3", "C2", "D4", "G2"):
        datum = make_root_datum(label)
        assert not hasattr(datum, "_caches"), label


def test_divisor_rule_runs_once_per_process():
    """A repeated census or relative-position pass reads the divisor rule's
    memo: it adds no miss."""
    rule = lo._divisor_position
    lo.cell_census(2, 3, 2)
    misses = rule.cache_info().misses
    assert lo.cell_census(2, 3, 2) and rule.cache_info().misses == misses
    lats = list(lo.enumerate_lattices(2, 3, 1))
    for _ in range(2):
        misses = rule.cache_info().misses
        for l1, l2 in itertools.product(lats, repeat=2):
            lo.relative_position(l1, l2)
    assert rule.cache_info().misses == misses


def test_memoized_walks_hand_out_copies():
    """An edit of a memoized walk fails, so no caller's edit reaches the memo
    that the next caller reads."""
    gl3, b3 = make_root_datum("GL(3)"), make_root_datum("B3")
    for datum, mu in ((gl3, (3, 1, 0)), (b3, (1, 0, 1))):
        below = datum.dominant_below(mu)
        kept = list(below)
        with pytest.raises(AttributeError):
            below.append(mu)
        with pytest.raises(AttributeError):
            below.reverse()
        assert list(datum.dominant_below(mu)) == kept
        weights = wr.weight_multiplicities(datum, mu)
        kept = dict(weights)
        with pytest.raises(TypeError):
            weights[mu] = 99
        with pytest.raises(AttributeError):
            weights.pop(next(iter(kept)))
        assert dict(wr.weight_multiplicities(datum, mu)) == kept
        assert wr.weight_multiplicity(datum, mu, mu) == 1


def test_memoized_product_is_shared_read_only():
    gl2 = make_root_datum("GL(2)")
    product = hs.convolve_basis(gl2, (1, 0), (1, 0))
    assert hs.convolve_basis(gl2, (1, 0), (1, 0)) is product
    kept = dict(product.coeffs)
    with pytest.raises(TypeError):
        product.coeffs[next(iter(kept))] = 0
    assert dict(hs.convolve_basis(gl2, (1, 0), (1, 0)).coeffs) == kept
    consts = hs.structure_constants(gl2, (1, 0), (1, 0))
    kept = dict(consts)
    consts.clear()
    assert hs.structure_constants(gl2, (1, 0), (1, 0)) == kept


def test_memos_hand_out_values_no_caller_can_edit():
    """A memoized value is handed out as it is, never as a copy, and an edit
    of it fails; so a caller that tries leaves later certifications intact."""
    gl2, b3, mu = make_root_datum("GL(2)"), make_root_datum("B3"), (1, 0, 1)
    memoized = {
        "dominant_below": lambda: b3.dominant_below(mu),
        "closure_cells": lambda: schubert.closure_cells(b3, mu),
        "weight_multiplicities": lambda: wr.weight_multiplicities(b3, mu),
        "convolve_basis": lambda: hs.convolve_basis(gl2, (1, 0), (1, 0)).coeffs,
        "ic_function": lambda: hs.ic_function(b3, mu).coeffs,
        "satake_transform": lambda: hs.satake_transform(
            b3, hs.c_basis(b3, mu)).coeffs,
        "GF.add": lambda: GF(5).add,
        "GF.add row": lambda: GF(5).add[1],
        "GF.mul": lambda: GF(9).mul,
        "GF.mul row": lambda: GF(9).mul[2],
    }
    for name, get in memoized.items():
        value = get()
        key = next(iter(value)) if isinstance(value, Mapping) else 0
        with pytest.raises(AttributeError):
            value.clear()
        with pytest.raises(TypeError):
            value[key] = value[key]
        assert get() is value, name
    hs.structure_constants(gl2, (1, 0), (1, 0)).clear()   # a dict of its own
    assert run_certification(2, [2, 3], -1, 1)["all_match"]


def test_each_product_is_checked_once_per_process(monkeypatch):
    real, calls = hs.hecke_convolve, []
    monkeypatch.setattr(hs, "hecke_convolve",
                        lambda *args: calls.append(args) or real(*args))
    hs.convolve_basis.cache_clear()
    rows = run_certification(2, [2, 3], -1, 1)["rows"]
    assert len(calls) == 36   # the dominant pairs of the box, not per q
    assert run_certification(2, [2, 3], -1, 1)["rows"] == rows
    assert len(calls) == 36


def test_refused_walk_caches_nothing(monkeypatch):
    monkeypatch.setattr(root_datum, "_DOMINANT_BUDGET", 10)
    gl2 = make_root_datum("GL(2)")
    before = root_datum._dominant_below.cache_info().currsize
    for mu in ((77, -77), (78, -77)):
        with pytest.raises(TooLarge):
            gl2.dominant_below(mu)
    assert root_datum._dominant_below.cache_info().currsize == before
