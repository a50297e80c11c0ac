"""Capture the reference payloads that ``checks.py`` compares against.

    python3 perfbench/capture.py

runs every request the workload pools can generate through ``satkit.cli``
of this checkout and writes ``perfbench/reference.json``.  The references
were captured once, at the commit that introduced the benchmark; capturing
them again from changed code would let the checks agree with a regression,
so do it only when a workload pool grows, and from that same commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import satkit.cli as cli                          # noqa: E402
from satkit import weyl_rep                       # noqa: E402
from satkit.root_datum import make_root_datum     # noqa: E402

import checks                                     # noqa: E402
import workloads as wl                            # noqa: E402
from run import git_sha                           # noqa: E402


def payload(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def certify_units():
    for lo, hi, qs, _ in wl.CERTIFY_BOXES:
        for q in qs:
            yield 2, lo, hi, q
            for sub in range(lo, hi - wl.CERTIFY_SUB_WIDTH + 1):
                if (sub, sub + wl.CERTIFY_SUB_WIDTH) != (lo, hi):
                    yield 2, sub, sub + wl.CERTIFY_SUB_WIDTH, q
    opts = checks.parse_options(wl.CERTIFY_N3)
    for q in opts["--q"].split(","):
        yield 3, int(opts["--coord-min"]), int(opts["--coord-max"]), int(q)


def freudenthal(argv: list[str]) -> int:
    opts = checks.parse_options(argv)
    kind, rank = opts["--type"].upper(), opts["--rank"]
    datum = make_root_datum(f"GL({rank})" if kind == "GL" else f"{kind}{rank}")
    mu = tuple(int(x) for x in opts["--mu"].split(","))
    lam = tuple(int(x) for x in opts["--lam"].split(","))
    return weyl_rep.weight_multiplicity(datum, mu, lam)


def main() -> int:
    ref = {"captured_at": git_sha(), "certify": {}, "census": {},
           "symbolic": {}, "verlinde": {}}
    for n, lo, hi, q in certify_units():
        report = payload(["certify", "--n", str(n), "--q", str(q),
                          "--coord-min", str(lo), "--coord-max", str(hi)])
        assert report["all_match"], (n, lo, hi, q)
        ref["certify"][checks.certify_key(n, lo, hi, q)] = [
            [r["lambda"], r["mu"], r["nu"], r["brute"]] for r in report["rows"]]
    for n, q, N, _ in wl.CENSUS_POOL:
        cells = payload(["oracle", "--n", str(n), "--q", str(q), "--window",
                         str(N), "--workers", "1"])["cells"]
        if cells != checks.census_cells(n, q, N):
            raise SystemExit(f"census ({n}, {q}, {N}) differs from Macdonald's formula")
        ref["census"][checks.census_key(n, q, N)] = cells
    for _, alternatives in wl.SYMBOLIC_POOL:
        for text in alternatives:
            argv = text.split()
            entry = {"payload": payload(argv)}
            if argv[0] == "qanalog":
                entry["freudenthal"] = freudenthal(argv)
            ref["symbolic"][text] = entry
    queries = [(n, g, m) for n, m in wl.VERLINDE_PAIRS
               for g in range(wl.VERLINDE_MAX_GENUS + 1)] + wl.VERLINDE_FIXED
    for n, g, m in queries:
        ref["verlinde"][checks.verlinde_key(n, g, m)] = payload(
            wl.verlinde_argv(n, g, m))["dimension"]
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
