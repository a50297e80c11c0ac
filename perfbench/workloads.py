"""Seeded request lists for the four benchmark workloads.

A request is the argv of one ``satkit`` CLI invocation.  Each workload has a
fixed pool; the seed picks among equal-cost alternatives and fixes the order,
so every seed gives a list of about the same total work.  That keeps run
times comparable across seeds while the program still sees varied inputs.
"""

from __future__ import annotations

import random

# certify, n = 2: each (box, q) is first touched by a single-q request, whose
# latency therefore carries the brute-force cost.  Later requests send a
# seeded q subset on a seeded three-wide sub-box of the same box: every
# lattice they need is already in the module-level memos, and only the light
# Hecke side is recomputed.  The memo keys are per q, so giving each box its
# own q values makes the work of a list independent of its order.  A list
# has 34 requests, so the p90 tail sits 3.4 requests from the top of a pass:
# among the latencies of the one n = 3 request that pays its enumeration
# (the fourth slowest), not between it and the fifth, a quarter cheaper.
# Rows: (coord_min, coord_max, q values, memo-hitting requests per list).
CERTIFY_BOXES = [
    (-2, 2, (2, 3), 6),
    (-2, 1, (4,), 5),
    (-1, 2, (5,), 5),
    (-1, 1, (7, 8, 9), 7),
]
CERTIFY_SUBSET = 2           # at most this many q values per memo hit
CERTIFY_SUB_WIDTH = 2        # memo hits use boxes [lo, lo + 2]
CERTIFY_N3 = ["certify", "--n", "3", "--q", "2,3",
              "--coord-min", "0", "--coord-max", "1"]
CERTIFY_N3_COUNT = 4         # the first pays the enumeration, the rest hit

# oracle: (n, q, window, requests per list).  No memo is shared between
# censuses, so the seed only shuffles.  The p90 tail sits four requests from
# the top of a list, so (3, 4, 1) comes three times, as the fourth to sixth
# slowest: the tail is then a latency of that one census, not a blend of
# two censuses three times apart in cost.  Likewise the median sits inside
# the nine (3, 2, 1) and (2, 3, 2) censuses of 20-35 ms, with fourteen
# cheaper ones below them, not at the step up to (2, 2, 3).
CENSUS_POOL = [
    (3, 5, 1, 1), (2, 9, 2, 1), (4, 2, 1, 1), (3, 4, 1, 3), (2, 5, 2, 1),
    (3, 3, 1, 4), (2, 3, 2, 3), (3, 2, 1, 6), (2, 4, 2, 3), (2, 2, 3, 3),
    (2, 2, 2, 7), (2, 2, 1, 7),
]

# symbolic: (requests per list, equal-cost alternatives).  Every request
# builds a fresh root datum, as the CLI does, so per-datum caches start cold.
# The five heaviest requests, among which the p90 tail falls, have no
# alternatives of a different cost.  The 25 requests that take 3-17 ms
# (qanalog/convolve/satake/geom at G2, geom at GL5, --bk-oracle) make the
# median a latency from inside that group: with 20 of them the median was
# its slowest member, next to a jump to 25-40 ms.  The GL3 --bk-oracle
# request (6 ms) is not an alternative to the GL4 ones (14 ms), so that the
# seed does not move requests across the median.
SYMBOLIC_POOL = [
    (1, ["satake --type GL --rank 7 --mu 1,0,0,0,0,0,0",
         "satake --type GL --rank 7 --mu 1,1,0,0,0,0,0"]),
    (1, ["qanalog --type GL --rank 6 --mu 2,1,0,0,0,0 --lam 1,1,1,0,0,0",
         "qanalog --type GL --rank 6 --mu 3,2,1,0,0,0 --lam 1,1,1,1,1,1"]),
    (1, ["qanalog --type D --rank 5 --mu 0,1,0,0,0 --lam 0,0,0,0,0",
         "qanalog --type D --rank 5 --mu 2,0,0,0,0 --lam 0,0,0,0,0"]),
    (1, ["qanalog --type A --rank 5 --mu 1,0,0,0,1 --lam 0,0,0,0,0"]),
    (1, ["qanalog --type C --rank 4 --mu 2,0,0,0 --lam 0,0,0,0",
         "qanalog --type C --rank 4 --mu 0,1,0,0 --lam 0,0,0,0"]),
    (1, ["qanalog --type B --rank 4 --mu 0,1,0,0 --lam 0,0,0,0",
         "qanalog --type B --rank 4 --mu 2,0,0,0 --lam 0,0,0,0"]),
    (2, ["qanalog --type GL --rank 5 --mu 2,1,0,0,0 --lam 1,1,1,0,0",
         "qanalog --type GL --rank 5 --mu 3,1,0,0,0 --lam 1,1,1,1,0"]),
    (3, ["qanalog --type G --rank 2 --mu 2,0 --lam 0,0",
         "qanalog --type G --rank 2 --mu 0,2 --lam 0,0"]),
    (3, ["qanalog --type GL --rank 4 --mu 2,1,1,0 --lam 1,1,1,1 --bk-oracle",
         "qanalog --type GL --rank 4 --mu 2,2,0,0 --lam 1,1,1,1 --bk-oracle"]),
    (1, ["qanalog --type GL --rank 3 --mu 3,1,0 --lam 2,1,1 --bk-oracle"]),
    (2, ["convolve --type GL --rank 5 --lam 1,0,0,0,0 --mu 1,1,0,0,0",
         "convolve --type GL --rank 5 --lam 1,1,0,0,0 --mu 1,1,0,0,0"]),
    (1, ["convolve --type C --rank 4 --lam 1,0,0,0 --mu 1,0,0,0"]),
    (6, ["convolve --type G --rank 2 --lam 1,0 --mu 0,1"]),
    (1, ["satake --type B --rank 4 --mu 1,0,0,0"]),
    (1, ["satake --type GL --rank 5 --mu 2,1,1,0,0"]),
    (6, ["satake --type G --rank 2 --mu 1,1"]),
    (6, ["geom --type GL --rank 5 --mu 2,1,0,0,0",
         "geom --type G --rank 2 --mu 2,1"]),
    (2, ["geom --type C --rank 4 --mu 1,1,0,0",
         "geom --type B --rank 4 --mu 1,1,0,0"]),
]

# verlinde: pair i of VERLINDE_PAIRS comes back at the three genera i, i+1,
# i+2 (mod 5), so every genus 0-4 occurs and each (n, m) is asked at several.
# The genera are fixed, not seeded: light queries cost 3-80 ms depending on
# the genus, and a seeded genus would move the median request.  The heavy
# queries sit at fixed genera too; (7, 2, 7) needs extra precision doublings.
# The p90 tail sits five to six requests from the top of a list, so the two
# queries of about 300 ms, (5, 4, 7) and (6, 4, 6), come five times between
# them, as the third to seventh slowest: the tail is then a latency from
# inside that group, not a blend of queries that differ by a third.
# The median sits among the five queries of 13-19 ms, (3, g, 7) and
# (7, g, 3); the two extra (2, g, 2) queries of about 2 ms put it at the
# middle of that group, not at its edge next to the 21-30 ms queries.
VERLINDE_PAIRS = [(2, 2), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7), (4, 4),
                  (4, 6), (4, 7), (5, 3), (5, 5), (6, 4), (7, 2), (7, 3)]
VERLINDE_GENERA = 3
VERLINDE_MAX_GENUS = 4
VERLINDE_FIXED = ([(n, g, m) for n, m in [(5, 7), (6, 6), (7, 5)]
                   for g in (0, 2, 4)] + [(7, 1, 7), (7, 2, 7)]
                  + [(5, 4, 7), (6, 4, 6), (6, 4, 6)]
                  + [(2, 3, 2), (2, 4, 2)])                        # (n, g, m)


def _certify_argv(n: int, qs, lo: int, hi: int) -> list[str]:
    return ["certify", "--n", str(n), "--q", ",".join(map(str, qs)),
            "--coord-min", str(lo), "--coord-max", str(hi)]


def certify_requests(rng: random.Random) -> list[list[str]]:
    firsts = [((lo, hi), q) for lo, hi, qs, _ in CERTIFY_BOXES for q in qs]
    firsts.append(("n3", None))
    rng.shuffle(firsts)
    # seq holds (argv, memo keys first touched by this request or None)
    seq = [(CERTIFY_N3 if box == "n3" else _certify_argv(2, [q], *box),
            (box, q)) for box, q in firsts]
    repeats = [((lo, hi), qs) for lo, hi, qs, count in CERTIFY_BOXES
               for _ in range(count)]
    repeats += [("n3", None)] * (CERTIFY_N3_COUNT - 1)
    rng.shuffle(repeats)
    for box, qs in repeats:
        if box == "n3":
            argv, needs = CERTIFY_N3, {("n3", None)}
        else:
            subset = rng.sample(qs, min(CERTIFY_SUBSET, len(qs)))
            lo = rng.randint(box[0], box[1] - CERTIFY_SUB_WIDTH)
            argv = _certify_argv(2, subset, lo, lo + CERTIFY_SUB_WIDTH)
            needs = {(box, q) for q in subset}
        # a memo-hitting request must come after the requests that fill it
        earliest = 1 + max(i for i, (_, key) in enumerate(seq) if key in needs)
        seq.insert(rng.randint(earliest, len(seq)), (argv, None))
    return [argv for argv, _ in seq]


def census_requests(rng: random.Random) -> list[list[str]]:
    reqs = [["oracle", "--n", str(n), "--q", str(q), "--window", str(N),
             "--workers", "1"]
            for n, q, N, count in CENSUS_POOL for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


def symbolic_requests(rng: random.Random) -> list[list[str]]:
    reqs = [rng.choice(alts).split()
            for count, alts in SYMBOLIC_POOL for _ in range(count)]
    rng.shuffle(reqs)
    return reqs


def verlinde_argv(n: int, g: int, m: int) -> list[str]:
    return ["verlinde", "--n", str(n), "--g", str(g), "--m", str(m)]


def verlinde_requests(rng: random.Random) -> list[list[str]]:
    reqs = [verlinde_argv(n, (i + k) % (VERLINDE_MAX_GENUS + 1), m)
            for i, (n, m) in enumerate(VERLINDE_PAIRS)
            for k in range(VERLINDE_GENERA)]
    reqs += [verlinde_argv(n, g, m) for n, g, m in VERLINDE_FIXED]
    rng.shuffle(reqs)
    return reqs


GENERATORS = {
    "certify": certify_requests,
    "census": census_requests,
    "symbolic": symbolic_requests,
    "verlinde": verlinde_requests,
}


def requests(workload: str, seed: int) -> list[list[str]]:
    """The request list of one workload for one seed (deterministic)."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
