"""Output checks that do not import or call satkit.

Every payload is compared with references captured once from the CLI
(``reference.json``, written by ``capture.py``) and, where a closed form
exists, with values computed here:

- census: Macdonald's count of each Schubert cell over F_q,
  #Gr_mu(F_q) = q^{sum_{i<j}(mu_i - mu_j)} P_n(1/q) / prod_k P_{m_k}(1/q)
  with P_r(x) = prod_{i<=r}(1 - x^i) and m_k the multiplicities in mu
  (Macdonald, Spherical functions on a group of p-adic type, 1971);
- certify: ``all_match`` is true;
- verlinde: genus 0 gives 1 and genus 1 gives binomial(n+m-1, m);
- qanalog: m_poly at q = 1 is the Freudenthal multiplicity, and the
  Brylinski-Kostant oracle agrees where it was asked for.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional

SCHEMA = "satkit/1"
VERLINDE_TOLERANCE = 1e-6
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def parse_options(argv: list[str]) -> dict[str, object]:
    """``--key value`` pairs of an argv; a bare ``--flag`` maps to True."""
    opts: dict[str, object] = {}
    rest = argv[1:]
    i = 0
    while i < len(rest):
        key = rest[i]
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            opts[key] = rest[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def certify_key(n: int, lo: int, hi: int, q: int) -> str:
    return f"{n}|{lo}|{hi}|{q}"


def census_key(n: int, q: int, N: int) -> str:
    return f"{n}|{q}|{N}"


def verlinde_key(n: int, g: int, m: int) -> str:
    return f"{n}|{g}|{m}"


def _poincare(r: int, x: Fraction) -> Fraction:
    out = Fraction(1)
    for i in range(1, r + 1):
        out *= 1 - x ** i
    return out


def macdonald_count(mu: tuple[int, ...], q: int) -> int:
    """Number of F_q-points of the GL(n) Schubert cell of dominant mu."""
    n = len(mu)
    x = Fraction(1, q)
    value = Fraction(q) ** sum(mu[i] - mu[j]
                               for i in range(n) for j in range(i + 1, n))
    value *= _poincare(n, x)
    for _, group in itertools.groupby(mu):
        value /= _poincare(len(list(group)), x)
    if value.denominator != 1:
        raise ValueError(f"non-integral cell count {value} at mu={mu}")
    return int(value)


def census_cells(n: int, q: int, N: int) -> list[dict]:
    """The cells list an ``oracle`` payload must carry: every dominant mu
    with |mu_i| <= N, in decreasing lexicographic order, with its count."""
    doms = [mu for mu in itertools.product(range(N, -N - 1, -1), repeat=n)
            if all(mu[i] >= mu[i + 1] for i in range(n - 1))]
    return [{"mu": list(mu), "count": macdonald_count(mu, q)} for mu in doms]


def _check_certify(opts, payload, ref) -> Optional[str]:
    if payload.get("all_match") is not True:
        return "all_match is not true"
    n, lo, hi = int(opts["--n"]), int(opts["--coord-min"]), int(opts["--coord-max"])
    qs = [int(x) for x in opts["--q"].split(",")]
    blocks: dict[tuple, dict[int, list]] = {}   # (lam, mu) -> q -> [(nu, value)]
    for q in qs:
        rows = ref["certify"].get(certify_key(n, lo, hi, q))
        if rows is None:
            return f"no reference for n={n} q={q} box [{lo},{hi}]"
        for lam, mu, nu, value in rows:
            per_q = blocks.setdefault((tuple(lam), tuple(mu)), {})
            per_q.setdefault(q, []).append((nu, value))
    expected_rows = [
        {"lambda": list(lam), "mu": list(mu), "nu": nu, "q": q,
         "symbolic": value, "brute": value, "match": True}
        for (lam, mu), per_q in blocks.items()
        for q in qs for nu, value in per_q.get(q, [])]
    expected = {"schema": SCHEMA, "n": n, "q_list": qs, "coord_min": lo,
                "coord_max": hi, "rows": expected_rows, "all_match": True}
    return None if payload == expected else "rows differ from the reference"


def _check_oracle(opts, payload, ref) -> Optional[str]:
    n, q, N = int(opts["--n"]), int(opts["--q"]), int(opts["--window"])
    cells = census_cells(n, q, N)
    expected = {"schema": SCHEMA, "n": n, "q": q, "N": N, "cells": cells,
                "convolutions": []}
    if payload != expected:
        return "cell counts differ from Macdonald's formula"
    if ref["census"].get(census_key(n, q, N)) != cells:
        return "cell counts differ from the reference"
    return None


def _check_verlinde(opts, payload, ref) -> Optional[str]:
    n, g, m = int(opts["--n"]), int(opts["--g"]), int(opts["--m"])
    dim = payload.get("dimension")
    if set(payload) != {"schema", "n", "g", "m", "dimension", "residual"}:
        return f"unexpected keys {sorted(payload)}"
    if (payload["schema"], payload["n"], payload["g"], payload["m"]) != (SCHEMA, n, g, m):
        return "query echo differs"
    if g == 0 and dim != 1:
        return f"genus 0 gave {dim}, not 1"
    if g == 1 and dim != math.comb(n + m - 1, m):
        return f"genus 1 gave {dim}, not binomial({n + m - 1}, {m})"
    if dim != ref["verlinde"].get(verlinde_key(n, g, m)):
        return f"dimension {dim} differs from the reference"
    residual = payload["residual"]
    if not (isinstance(residual, (int, float)) and 0 <= residual < VERLINDE_TOLERANCE):
        return f"residual {residual} outside [0, {VERLINDE_TOLERANCE})"
    return None


def _check_symbolic(argv, payload, ref) -> Optional[str]:
    entry = ref["symbolic"].get(" ".join(argv))
    if entry is None:
        return "no reference for this request"
    if argv[0] == "qanalog":
        if sum(payload.get("m_poly", [])) != entry["freudenthal"]:
            return "m_poly(1) differs from the Freudenthal multiplicity"
        if "--bk-oracle" in argv and payload.get("agree") is not True:
            return "Brylinski-Kostant oracle disagrees"
    return None if payload == entry["payload"] else "payload differs from the reference"


def check(argv: list[str], rc, stdout: str, ref: dict) -> Optional[str]:
    """None when the request's output is right, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if not isinstance(payload, dict):
        return "payload is not a JSON object"
    opts = parse_options(argv)
    if argv[0] == "certify":
        return _check_certify(opts, payload, ref)
    if argv[0] == "oracle":
        return _check_oracle(opts, payload, ref)
    if argv[0] == "verlinde":
        return _check_verlinde(opts, payload, ref)
    return _check_symbolic(argv, payload, ref)
