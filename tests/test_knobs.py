"""No public satkit callable takes a budget or a size cap as a parameter:
the lattice enumeration reads its budget from SATKIT_BUDGET alone, and the
other caps are module constants.

The walk visits every public function of every satkit module and every
public method of every class defined there, so a knob added later as a
parameter fails here.  The same walk, private names included, resolves
every annotation."""

import importlib
import inspect
import pkgutil
import typing

import satkit
from satkit import lattice_oracle as lo

_KNOBS = {"budget", "dim_cap"}


def _public_callables(private=False):
    for info in pkgutil.iter_modules(satkit.__path__):
        module = importlib.import_module(f"satkit.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") and not private:
                continue
            obj = inspect.unwrap(value)   # a memoized class, such as GF
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj.__init__
                for attr, member in vars(obj).items():
                    # a staticmethod's function; not NamedTuple's __new__
                    member = getattr(member, "__func__", member)
                    if ((private or not attr.startswith("_"))
                            and inspect.isfunction(member)
                            and member.__module__ == module.__name__):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_public_callable_takes_a_budget():
    found = dict(_public_callables())
    assert {"lattice_oracle.enumerate_lattices", "lattice_oracle.cell_census",
            "lattice_oracle.count_cell", "lattice_oracle.brute_convolution",
            "lattice_oracle.oracle_report", "cli.run_certification",
            "weyl_rep.bk_oracle"} <= set(found)
    for name, fn in found.items():
        params = set(inspect.signature(fn).parameters)
        assert not params & _KNOBS, name


def test_satkit_budget_is_read_in_one_place():
    for info in pkgutil.iter_modules(satkit.__path__):
        module = importlib.import_module(f"satkit.{info.name}")
        source = inspect.getsource(module)
        if module is lo:
            body = inspect.getsource(lo.enumeration_budget)
            assert source.count("os.environ") == body.count("os.environ") == 1
        else:
            assert "os.environ" not in source, info.name


def test_every_annotation_resolves():
    # with postponed annotations, a name the module does not import fails
    # only when something, such as typing.get_type_hints, resolves it
    found = dict(_public_callables(private=True))
    assert {"lattice_oracle.oracle_selftest",
            "weyl_rep.ExplicitModule._content"} <= set(found)
    unresolved = {}
    for name, fn in found.items():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved[name] = str(exc)
    assert unresolved == {}
