"""Every memo in satkit is a functools.lru_cache with a finite maxsize, and
root data carry no memo of their own.

The walk finds each object with ``cache_info`` among the attributes of every
satkit module and of every class defined there, so a memo added later without
a bound fails here."""

import importlib
import inspect
import pkgutil

import satkit
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
            "weyl_rep._kostant_table", "weyl_rep._explicit_module",
            "hecke_satake.ic_function", "hecke_satake._tensor",
            "hecke_satake._basis_transform",
            "lattice_oracle._window_cells",
            "lattice_oracle._convolution_histogram",
            "finite_field.GF", "verlinde._histograms",
            "cli.build_parser"} <= set(memos)
    for name, memo in memos.items():
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name
    for label in ("GL(1)", "GL(3)", "A2", "B3", "C2", "D4", "G2"):
        datum = make_root_datum(label)
        assert not hasattr(datum, "_caches"), label
