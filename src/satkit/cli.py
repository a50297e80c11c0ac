"""Command-line front end.

Subcommands: geom, qanalog, convolve, satake, oracle, certify, verlinde.
All payload output is deterministic JSON on stdout (schema-versioned, no
timestamps); human summaries go to stderr.  Exit codes: 0 success,
1 certification mismatch, 2 usage/parse error, 3 resource budget exceeded.
The SATKIT_BUDGET environment variable caps enumeration sizes.  The CLI does
no field arithmetic: ``oracle --selftest`` runs ``lo.oracle_selftest``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import hecke_satake as hs
from . import lattice_oracle as lo
from . import schubert
from . import verlinde as vl
from . import weyl_rep as wr
from .errors import (DomainError, IntegralityFailure, InternalInconsistency,
                     NonPolynomialCount, SatkitError, ShapeError, TooLarge,
                     UnsupportedType)
from .root_datum import Dominance, RootDatum, Vec, make_root_datum

SCHEMA = "satkit/1"


def _parse_coweight(text: str) -> Vec:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise DomainError(f"cannot parse coweight {text!r}: "
                          "expected comma-separated integers")


def _parse_qlist(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(" ", "").split(",")]
    except ValueError:
        raise DomainError(f"cannot parse q list {text!r}")


def _datum(args) -> RootDatum:
    if args.rank < 1:
        raise DomainError(f"rank={args.rank} must be >= 1")
    return make_root_datum(f"{args.type.upper()}{args.rank}")


def _leaf(x, indent: str) -> Optional[str]:
    """json.dumps(x, indent=2) at indent when x is a scalar, an empty
    container or a list of ints; None for any other value."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is int:
        return repr(x)
    if type(x) is bool:
        return "true" if x else "false"
    if not x or not isinstance(x, (list, tuple, dict)):
        return json.dumps(x)
    if type(x) is list and all(type(v) is int for v in x):
        return _ints(x, indent)
    return None


def _ints(x: list, indent: str) -> str:
    """json.dumps(x, indent=2) of a list of ints x, at indent."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(map(repr, x)) + indent + "]" if x else "[]"


def _rows(first, indent: str) -> Callable[[object], Optional[str]]:
    """The writer of list elements shaped like first (its str keys and value
    types, each int, bool or list of ints) through one % template, each int
    list formatted once per tuple; None for an element of another shape."""
    kinds = tuple(map(type, first.values())) if type(first) is dict else ()
    if not kinds or {*kinds} - {int, bool, list} or {*map(type, first)} != {str}:
        return lambda row: None
    keys, inner, texts = tuple(first), indent + "  ", {}
    template = "{" + ",".join(f"{inner}{_leaf(k, inner).replace('%', '%%')}: %s"
                              for k in keys) + indent + "}"
    lists = [i for i, kind in enumerate(kinds) if kind is list]
    bools = [i for i, kind in enumerate(kinds) if kind is bool]

    def write(row) -> Optional[str]:
        values = [*row.values()] if type(row) is dict and tuple(row) == keys else ()
        if tuple(map(type, values)) != kinds:
            return None
        for i in lists:   # each list of ints formatted once per tuple
            v = values[i]
            if not {*map(type, v)} <= {int}:
                return None
            if (text := texts.get(t := tuple(v))) is None:
                text = texts[t] = _ints(v, inner)
            values[i] = text
        for i in bools:
            values[i] = "true" if values[i] else "false"
        return template % tuple(values)
    return write


def _json(x, indent: str = "\n") -> Iterator[str]:
    """json.dumps(x, indent=2), byte for byte, in chunks (with an indent,
    json.dumps takes its pure-Python encoder): a dict item by item, a list
    element by element, its dicts through ``_rows``."""
    inner, leaf = indent + "  ", _leaf(x, indent)
    if leaf is not None:
        yield leaf
    elif isinstance(x, dict):
        sep = "{"
        for k, v in x.items():
            key = _leaf(k if isinstance(k, str) else json.dumps(k), inner)
            if (value := _leaf(v, inner)) is None:
                yield f"{sep}{inner}{key}: "
                yield from _json(v, inner)
            else:
                yield f"{sep}{inner}{key}: {value}"
            sep = ","
        yield indent + "}"
    else:
        write, sep = _rows(x[0], inner), "["
        for v in x:
            text = write(v) or _leaf(v, inner) or "".join(_json(v, inner))
            yield sep + inner + text
            sep = ","
        yield indent + "]"


def _write(*parts: Iterable[str]) -> None:
    """The one writer of stdout: the chunks of each part, in order."""
    try:
        for part in parts:
            sys.stdout.writelines(part)
    except BrokenPipeError:
        # the reader left: the rest, and the flush at exit, go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(payload: dict, summary: str) -> None:
    _write(_json(payload), "\n")
    print(summary, file=sys.stderr)


def _qpoly_json(p) -> list[int]:
    """Coefficients of a QPoly ascending from q^0."""
    return [0] * p.low + list(p.coeffs)


def cmd_geom(args) -> int:
    datum = _datum(args)
    mu = _parse_coweight(args.mu)
    payload = {
        "schema": SCHEMA,
        "datum": datum.label,
        "mu": list(mu),
        "dim": schubert.schubert_dim(datum, mu),
        "parity": schubert.parity(datum, mu),
        "minuscule": schubert.is_minuscule(datum, mu),
        "quasi_minuscule": schubert.is_quasi_minuscule(datum, mu),
        "opposite_codim": schubert.opposite_codim(datum, mu),
        "closure_cells": [list(l) for l in schubert.closure_cells(datum, mu)],
        "mv_table": schubert.mv_basis_table_json(datum, mu),
    }
    _emit(payload, f"{datum.label}: cell of {list(mu)} has dimension "
                   f"{payload['dim']} with {len(payload['closure_cells'])} strata")
    return 0


def cmd_qanalog(args) -> int:
    datum = _datum(args)
    mu = _parse_coweight(args.mu)
    lam = _parse_coweight(args.lam)
    m = wr.lusztig_q_analog(datum, mu, lam)
    payload = {"schema": SCHEMA, "datum": datum.label,
               "mu": list(mu), "lambda": list(lam),
               "m_poly": _qpoly_json(m)}
    order = datum.dominance_leq(lam, mu)
    if order is Dominance.INCOMPARABLE_COMPONENTS:
        payload["a_poly"] = []
        payload["note"] = "component mismatch"
    elif order is Dominance.LE:
        payload["a_poly"] = _qpoly_json(wr.stalk_from_q_analog(datum, mu, lam, m))
    else:
        payload["a_poly"] = None
        payload["note"] = "lambda not below mu"
    if args.bk_oracle:
        bk = wr.bk_oracle(datum, mu, lam)
        payload["bk_poly"] = _qpoly_json(bk)
        payload["agree"] = bk == m
    _emit(payload, f"m = {m}")
    return 0


def cmd_convolve(args) -> int:
    datum = _datum(args)
    lam = _parse_coweight(args.lam)
    mu = _parse_coweight(args.mu)
    product = hs.convolve_basis(datum, lam, mu)
    payload = {"schema": SCHEMA, "datum": datum.label,
               "lambda": list(lam), "mu": list(mu),
               "terms": product.to_json()}
    _emit(payload, f"c_{list(lam)} * c_{list(mu)}: "
                   f"{len(payload['terms'])} terms")
    return 0


def cmd_satake(args) -> int:
    datum = _datum(args)
    mu = _parse_coweight(args.mu)
    chi = hs.satake_transform(datum, hs.c_basis(datum, mu))
    payload = {"schema": SCHEMA, "datum": datum.label, "mu": list(mu),
               "transform_of": "c_basis", "terms": chi.to_json()}
    _emit(payload, f"S(c_{list(mu)}): {len(payload['terms'])} terms")
    return 0


def cmd_oracle(args) -> int:
    n, q, N = args.n, args.q, args.window
    if args.workers < 1:
        raise DomainError(f"--workers={args.workers} must be >= 1")
    report = lo.oracle_report(n, q, N, conv_bound=args.conv_bound,
                              workers=args.workers)
    payload = {"schema": SCHEMA, **report}
    if args.selftest:
        import random   # only here, so importing satkit skips it
        rng = random.Random(args.seed)
        payload["selftest"] = lo.oracle_selftest(n, q, N, rng)
    if args.csv:
        try:
            paths = lo.report_to_csv(report, args.csv)
        except OSError as exc:
            raise DomainError(f"{exc.filename}: {exc.strerror}")
        print("wrote " + ", ".join(paths), file=sys.stderr)
    _emit(payload, f"GL({n}) over F_{q}, window {N}: "
                   f"{sum(r['count'] for r in report['cells'])} lattices in "
                   f"{len(report['cells'])} cells")
    return 0 if all(payload.get("selftest", {}).values()) else 1


def run_certification(n: int, q_list: Sequence[int], coord_min: int,
                      coord_max: int) -> dict:
    """Compare symbolic convolution against brute lattice counts for every
    dominant pair in the coordinate box and every admissible nu."""
    if coord_min > coord_max:
        raise DomainError(f"empty coordinate box [{coord_min}, {coord_max}]"
                          ": nothing to certify")
    plan, brute_table = lo.convolution_table(n, q_list, coord_min, coord_max)
    datum = make_root_datum(f"GL({n})")
    rows = []
    for (lam, mu, admissible), *by_q in zip(plan, *brute_table):
        consts = hs.structure_constants(datum, lam, mu)
        for q, counts in zip(q_list, by_q):
            for nu, brute in zip(admissible, counts):
                sym = consts[nu](q) if nu in consts else 0
                rows.append({"lambda": list(lam), "mu": list(mu),
                             "nu": list(nu), "q": q, "symbolic": sym,
                             "brute": brute, "match": sym == brute})
    return {"schema": SCHEMA, "n": n, "q_list": list(q_list),
            "coord_min": coord_min, "coord_max": coord_max,
            "rows": rows, "all_match": all(r["match"] for r in rows)}


def cmd_certify(args) -> int:
    q_list = _parse_qlist(args.q_list)
    coord_min = args.coord_min if args.coord_min is not None else -args.bound
    coord_max = args.coord_max if args.coord_max is not None else args.bound
    report = run_certification(args.n, q_list, coord_min, coord_max)
    _emit(report, f"{len(report['rows'])} rows, "
                  f"{'all match' if report['all_match'] else 'MISMATCHES'}")
    return 0 if report["all_match"] else 1


def _batch_queries(path: str) -> list[vl.VerlindeQuery]:
    """Parse a JSON-lines file of {n, g, m} objects; blank lines are skipped.
    Every bad line is a DomainError that names the file and the line."""
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: cannot decode ({exc.reason})")
    queries = []
    for lineno, raw in enumerate(raw_lines, 1):
        if not raw.strip():
            continue
        where = f"{path} line {lineno}"
        try:
            spec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{where}: not JSON ({exc.msg})")
        if not isinstance(spec, dict):
            raise DomainError(f"{where}: expected a JSON object")
        for key in ("n", "g", "m"):
            if key not in spec:
                raise DomainError(f"{where}: missing key {key!r}")
            if type(spec[key]) is not int:
                raise DomainError(f"{where}: {key} must be an integer")
        try:
            queries.append(vl.VerlindeQuery(spec["n"], spec["g"], spec["m"]))
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}")
    return queries


def _digits(value: int) -> str:
    """value for a stderr summary: itself up to 80 digits, else its length."""
    text = str(value)
    return text if len(text) <= 80 else f"<{len(text)} digits>"


# the flags each verlinde mode may combine
_VERLINDE_MODES = ({"--batch"}, {"--ade", "--g"}, {"--n", "--g", "--m"})


def cmd_verlinde(args) -> int:
    given = [flag for flag in ("--batch", "--ade", "--n", "--g", "--m")
             if getattr(args, flag[2:]) is not None]
    if not any(set(given) <= mode for mode in _VERLINDE_MODES):
        raise DomainError("use one of --batch, --ade with --g, or --n --g "
                          "--m; got " + " ".join(given))
    if args.batch is not None:
        lines = [{**vl.verlinde_sl_report(query), "schema": SCHEMA}
                 for query in _batch_queries(args.batch)]
        _write(json.dumps(out) + "\n" for out in lines)
        print(f"{len(lines)} queries", file=sys.stderr)
        return 0
    if args.ade is not None:
        if args.g is None:
            raise DomainError("--ade requires --g")
        dim = vl.level_one_ade(args.ade, args.g)
        _emit({"schema": SCHEMA, "type": args.ade, "g": args.g,
               "dimension": dim},
              f"level-one {args.ade}, genus {args.g}: {_digits(dim)}")
        return 0
    if args.n is None or args.g is None or args.m is None:
        raise DomainError("need --n, --g and --m (or --ade/--batch)")
    report = vl.verlinde_sl_report(vl.VerlindeQuery(args.n, args.g, args.m))
    report["schema"] = SCHEMA
    _emit(report, f"dim = {_digits(report['dimension'])} "
                  f"(residual {report['residual']:.2e})")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The `satkit` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="satkit",
        description="Exact affine-Grassmannian combinatorics with a "
                    "finite-field lattice oracle.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized self-checks (reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_datum(p):
        p.add_argument("--type", required=True,
                       help="group series: GL, A, B, C, D, or G")
        p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("geom", help="Schubert-cell geometry of one coweight")
    add_datum(p)
    p.add_argument("--mu", required=True, help="coweight, e.g. 2,0")
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("qanalog", help="Lusztig q-analog and stalk polynomial")
    add_datum(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--lam", "--lambda", dest="lam", required=True)
    p.add_argument("--bk-oracle", action="store_true",
                   help="also run the explicit filtration oracle (type A)")
    p.set_defaults(func=cmd_qanalog)

    p = sub.add_parser("convolve", help="product c_lambda * c_mu")
    add_datum(p)
    p.add_argument("--lam", "--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("satake", help="Satake transform of c_mu")
    add_datum(p)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_satake)

    p = sub.add_parser("oracle", help="brute-force lattice census over F_q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--window", "-N", type=int, required=True)
    p.add_argument("--conv-bound", type=int, default=None,
                   help="also tabulate convolutions on this coordinate box")
    p.add_argument("--csv", default=None, help="CSV path prefix")
    p.add_argument("--workers", type=int, default=1,
                   help="enumeration processes (default: 1)")
    p.add_argument("--selftest", action="store_true",
                   help="run seeded randomized invariance checks")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="same as satkit --seed")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("certify",
                       help="symbolic vs brute convolution certification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", dest="q_list", required=True,
                   help="comma-separated prime powers, e.g. 2,3")
    p.add_argument("--bound", type=int, default=1,
                   help="coordinates range over [-bound, bound]")
    p.add_argument("--coord-min", type=int, default=None)
    p.add_argument("--coord-max", type=int, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verlinde", help="exact Verlinde dimensions")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--ade", default=None, help="ADE label for level one")
    p.add_argument("--batch", default=None,
                   help="JSON-lines file of {n, g, m} queries")
    p.set_defaults(func=cmd_verlinde)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact results (a Verlinde dimension) may exceed Python's default limit
    # on int-to-str digits; lift it for this command only
    digits_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"satkit: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (DomainError, UnsupportedType, ShapeError) as exc:
        print(f"satkit: {exc}", file=sys.stderr)
        return 2
    except (IntegralityFailure, NonPolynomialCount,
            InternalInconsistency) as exc:
        print(f"satkit: check failed: {exc}", file=sys.stderr)
        return 1
    except SatkitError as exc:
        print(f"satkit: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digits_limit)


if __name__ == "__main__":
    sys.exit(main())
