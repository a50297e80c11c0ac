"""Outside-in tracing of satkit's layers.

``Tracer.install`` replaces the public functions of each layer module (and
the ``RootDatum`` methods listed below) with wrappers that record a span per
call.  The replacement is made in every satkit module that binds the
function, so calls between functions of one module, and names imported
into another module, are caught too.  Nothing inside satkit changes.

A span is ``(name, start, end, parent, request)``; spans stay in memory and
are handed out at the end of a pass.  ``layer_metrics`` turns them into
calls and self times: a span's duration minus the time its children cover.

``finite_field`` and ``polynomials`` get no spans: they are leaf arithmetic
called millions of times per pass, so a wrapper would mostly time itself.
Their cost shows up as self time of the spans that call them.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter

LAYERS = {
    "lattice_oracle": ["enumerate_lattices", "relative_position",
                       "inv_from_standard", "brute_convolution", "cell_census"],
    "weyl_rep": ["lusztig_q_analog", "q_kostant_partition", "tensor_decompose",
                 "weight_multiplicities", "bk_oracle"],
    "root_datum": ["make_root_datum", "RootDatum.weyl_group",
                   "RootDatum.dominant_below"],
    "hecke_satake": ["satake_transform", "inverse_satake", "character_product",
                     "ic_function", "convolve_basis", "evaluate_at"],
    "verlinde": ["verlinde_sl_report"],
}
REQUEST_SPAN = "cli"


def _candidates_in_profile(q: int, dexp) -> int:
    """Reduced upper-triangular forms with diagonal t^dexp: the entries
    right of pivot i range over polynomials of degree < dexp[i]."""
    n = len(dexp)
    return q ** sum(d * (n - 1 - i) for i, d in enumerate(dexp))


def candidate_count(n: int, q: int, N: int) -> int:
    """Candidate forms over all diagonal profiles of the window N."""
    total = 1
    for i in range(n):
        total *= sum(q ** (d * (n - 1 - i)) for d in range(2 * N + 1))
    return total


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.request = -1
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._clock = time.perf_counter

    # -- spans ----------------------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = self._clock()
        self.stack.pop()
        self.spans[sid] = (name, start, end, self.stack[-1], self.request)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self.calls[name] += 1
        sid = self._open()
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start)

    def request_span(self, index: int, fn, *args):
        self.request = index
        return self.call(REQUEST_SPAN, fn, *args)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _traced_iter(self, name: str, gen):
        """Time spent inside each next() of a generator, one span each."""
        while True:
            sid = self._open()
            start = self._clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(sid, name, start)
            self.counters["lattices_accepted"] += 1
            yield item

    # -- layer-specific wrappers ------------------------------------------------

    def _wrap_enumerate(self, name: str, fn):
        sig = inspect.signature(fn)

        def counted(q, profiles):
            for dexp in profiles:
                self.counters["candidates_scanned"] += _candidates_in_profile(q, dexp)
                yield dexp

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            bound = sig.bind(*args, **kwargs)
            params = bound.arguments
            if params.get("profiles") is not None:
                params["profiles"] = counted(params["q"], params["profiles"])
            else:
                self.counters["candidates_scanned"] += candidate_count(
                    params["n"], params["q"], params["N"])
            return self._traced_iter(name, fn(*bound.args, **bound.kwargs))
        return wrapper

    def _wrap_q_kostant(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if not result.is_zero:
                self.counters["weyl_terms_nonzero"] += 1
            return result
        return wrapper

    def _wrap_verlinde(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(query, *args, **kwargs):
            self.counters["verlinde_subsets"] += math.comb(query.n + query.m, query.n)
            return self.call(name, fn, query, *args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function found in the imported satkit modules.

        A function the code no longer has is skipped; its metrics read 0.
        """
        special = {"lattice_oracle.enumerate_lattices": self._wrap_enumerate,
                   "weyl_rep.q_kostant_partition": self._wrap_q_kostant,
                   "verlinde.verlinde_sl_report": self._wrap_verlinde}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "satkit" or key.startswith("satkit.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"satkit.{layer}")
            if module is None:
                continue
            for qual in names:
                metric = f"{layer}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name, None)
                    fn = getattr(cls, attr, None)
                    if fn is not None:
                        setattr(cls, attr, self._wrap(metric, fn))
                    continue
                fn = getattr(module, qual, None)
                if fn is None:
                    continue
                wrapper = special.get(metric, self._wrap)(metric, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "counters": dict(self.counters)}


# -- reporting ----------------------------------------------------------------

COUNT_METRICS = [
    "lattice_oracle.enumerate_lattices.calls",
    "lattice_oracle.candidates_scanned",
    "lattice_oracle.lattices_accepted",
    "lattice_oracle.relative_position.calls",
    "lattice_oracle.inv_from_standard.calls",
    "lattice_oracle.brute_convolution.calls",
    "weyl_rep.lusztig_q_analog.calls",
    "weyl_rep.q_kostant_partition.calls",
    "root_datum.weyl_group.calls",
    "hecke_satake.ic_function.calls",
    "hecke_satake.convolve_basis.calls",
    "verlinde.verlinde_sl_report.calls",
    "verlinde.subsets",
]
RATIO_METRICS = [
    "lattice_oracle.window_accept_ratio",
    "lattice_oracle.enumerations_per_brute_call",
    "weyl_rep.weyl_terms_nonzero_ratio",
    "trace.layer_coverage",
]
SELF_METRICS = [
    "lattice_oracle.enumerate_lattices.self_s",
    "lattice_oracle.relative_position.self_s",
    "lattice_oracle.inv_from_standard.self_s",
    "lattice_oracle.brute_convolution.self_s",
    "lattice_oracle.cell_census.self_s",
    "weyl_rep.lusztig_q_analog.self_s",
    "weyl_rep.q_kostant_partition.self_s",
    "weyl_rep.tensor_decompose.self_s",
    "weyl_rep.weight_multiplicities.self_s",
    "weyl_rep.bk_oracle.self_s",
    "root_datum.weyl_group.self_s",
    "root_datum.dominant_below.self_s",
    "root_datum.make_root_datum.self_s",
    "hecke_satake.satake_transform.self_s",
    "hecke_satake.inverse_satake.self_s",
    "hecke_satake.character_product.self_s",
    "hecke_satake.ic_function.self_s",
    "hecke_satake.convolve_basis.self_s",
    "hecke_satake.evaluate_at.self_s",
    "verlinde.verlinde_sl_report.self_s",
    "cli.self_s",
]
OVERHEAD_METRIC = "trace.overhead_s"
UNITS = {**{m: "count" for m in COUNT_METRICS},
         **{m: "ratio" for m in RATIO_METRICS},
         **{m: "s" for m in SELF_METRICS},
         "verlinde.subsets_per_s": "1/s",
         OVERHEAD_METRIC: "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    spans = dump["spans"]
    calls, counters = Counter(dump["calls"]), Counter(dump["counters"])
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Counter = Counter()
    request_s = 0.0
    for sid, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - covered[sid]
        if name == REQUEST_SPAN:
            request_s += end - start
    out: dict[str, float] = {}
    for metric in COUNT_METRICS:
        if metric.endswith(".calls"):
            out[metric] = calls[metric[:-len(".calls")]]
    out["lattice_oracle.candidates_scanned"] = counters["candidates_scanned"]
    out["lattice_oracle.lattices_accepted"] = counters["lattices_accepted"]
    out["verlinde.subsets"] = counters["verlinde_subsets"]
    for metric in SELF_METRICS:
        out[metric] = self_s[metric[:-len(".self_s")]]
    out["lattice_oracle.window_accept_ratio"] = _ratio(
        counters["lattices_accepted"], counters["candidates_scanned"])
    out["lattice_oracle.enumerations_per_brute_call"] = _ratio(
        calls["lattice_oracle.enumerate_lattices"],
        calls["lattice_oracle.brute_convolution"])
    out["weyl_rep.weyl_terms_nonzero_ratio"] = _ratio(
        counters["weyl_terms_nonzero"], calls["weyl_rep.q_kostant_partition"])
    out["verlinde.subsets_per_s"] = _ratio(
        counters["verlinde_subsets"],
        self_s["verlinde.verlinde_sl_report"])
    out["trace.layer_coverage"] = _ratio(request_s - self_s[REQUEST_SPAN], request_s)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
