"""satkit benchmark: whole CLI requests end to end, and each layer by tracing.

One run::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

builds the workload's request list from the seed (``workloads.py``) and runs
it in passes until ``--seconds`` are used, at least three passes.  Each pass
is a fresh interpreter (``worker.py``) in which one client sends the list as
a closed loop of in-process ``satkit.cli.main(argv)`` calls.  Every payload is
checked (``checks.py``).  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance and the per-pass values, and stderr gets a readable table.

``--trace 0`` reports the end-to-end metrics, with tracing off.  Their
timings are in reference seconds (``calibrate.py``): each request's measured
time divided by the host's speed at that moment, as a fixed kernel run just
before and just after the request shows it.  The measured times are kept in
the provenance line.

- ``wall_s``: seconds to finish the list (sum of request latencies), median
  over passes;
- ``req_p50_ms``, ``req_tail_ms``: median and tail request latency, pooled
  over the passes; the tail is the highest of p99/p95/p90/p75/p50 that keeps
  at least ten requests beyond it in three passes (``tail_percentile``);
- ``ok_ratio``: requests that exited 0 with a correct payload over requests
  attempted (1 - failed_ratio; the contract forbids a metric that reads 0);
- ``peak_rss_mb``: peak resident memory of a pass's process, median;
- ``setup_s``: seconds to import ``satkit.cli`` (mpmath included) in a fresh
  interpreter, median of several, calibrated the same way.

``--trace 1`` alternates plain and traced passes over the same list and
reports the per-layer metrics of ``tracer.py``: calls and counts per pass,
self times as medians over the traced passes, and ``trace.overhead_s``, the
traced minus the plain wall time.

Two more modes are not part of the measured contract::

    python3 perfbench/run.py --repeat 10 [--workload W ...] [--trace 0|1]
    python3 perfbench/run.py --baseline

``--repeat`` runs each workload N times with seeds ``--seed`` ... ``--seed``+N-1,
alternating the workloads, and prints median and quartiles per metric,
marking UNSTEADY any metric whose quartile spread exceeds a tenth of its
median.  ``--baseline`` times the ROADMAP baseline commands once each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate   # noqa: E402
import checks      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

MIN_PASSES = 3
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
SETUP_REPEATS = 11
LAST_PASS_START_S = 90     # after the run's start; with WORKER_TIMEOUT_S,
                           # keeps a run under 180 s
WORKER_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 10
UNSTEADY_SPREAD = 0.10
END_TO_END_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_CODE = (f"import sys, time; sys.path.append({str(HERE)!r}); "
              "import calibrate as c; before = c.sample(); "
              "t = time.perf_counter(); import satkit.cli; "
              "t = time.perf_counter() - t; after = c.sample(); import satkit; "
              "print(c.to_reference(t, before, after), t, satkit.__file__)")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SATKIT_BUDGET")}
    env["PYTHONHASHSEED"] = "0"
    return env


def tail_percentile(requests_per_pass: int) -> int:
    """Highest ladder percentile with TAIL_BEYOND requests beyond it in
    MIN_PASSES passes; fixed per workload since list length is."""
    total = requests_per_pass * MIN_PASSES
    return next(p for p in TAIL_LADDER if total * (100 - p) / 100 >= TAIL_BEYOND)


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside
    a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "kernel_s": statistics.median(calibrate.sample()
                                          for _ in range(5))}


def require_checkout() -> None:
    if not (ROOT / "src" / "satkit" / "cli.py").is_file():
        raise BenchError(f"no satkit sources under {ROOT / 'src'}")


# -- one run ---------------------------------------------------------------------

def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of satkit.cli in fresh interpreters, in reference and
    in measured seconds; the first import compiles bytecode and is not
    counted."""
    env = _env()
    env["PYTHONPATH"] = str(ROOT / "src")
    samples, measured = [], []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing satkit.cli failed: {proc.stderr.strip()}")
        seconds, raw, origin = proc.stdout.split(maxsplit=2)
        if not Path(origin.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"satkit imported from {origin.strip()}")
        samples.append(float(seconds))
        measured.append(float(raw))
    return samples[1:], measured[1:]


def run_pass(requests: list[list[str]], trace: bool) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({"requests": requests, "trace": trace}),
            capture_output=True, text=True, cwd=ROOT, env=_env(),
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines[:-1]]
    if len(results) != len(requests):
        raise BenchError(f"worker answered {len(results)} of {len(requests)} requests")
    last = json.loads(lines[-1])
    cal = last["cal"]
    measured = [r["s"] for r in results]
    return {"latencies": [calibrate.to_reference(s, cal[i], cal[i + 1])
                          for i, s in enumerate(measured)],
            "measured": measured, "cal": cal,
            "rcs": [r["rc"] for r in results],
            "stdouts": [r["stdout"] for r in results],
            "rss_mb": last["rss_kb"] / 1024, "trace": last.get("trace")}


def run_passes(requests, trace: bool, seconds: int,
               run_started: float) -> list[tuple[bool, dict]]:
    """Plain passes (or plain/traced pairs when tracing) until the time is
    used; a new step starts only if its predicted end is in time."""
    kinds = [False, True] if trace else [False]
    min_steps = 1 if trace else MIN_PASSES
    started = time.perf_counter()
    done, step_times = [], []
    while True:
        now = time.perf_counter()
        if len(step_times) >= min_steps and (
                now - started + statistics.median(step_times) > seconds
                or now - run_started > LAST_PASS_START_S):
            return done
        t0 = time.perf_counter()
        done += [(kind, run_pass(requests, kind)) for kind in kinds]
        step_times.append(time.perf_counter() - t0)


def single_run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    run_started = time.perf_counter()
    requests = workloads.requests(workload, seed)
    reference = checks.load_reference()
    setup, setup_measured = ([], []) if trace else measure_setup()
    passes = run_passes(requests, trace, seconds, run_started)

    attempted = failed = 0
    reasons: dict[str, int] = {}
    for _, p in passes:
        for argv, rc, out in zip(requests, p["rcs"], p["stdouts"]):
            attempted += 1
            why = checks.check(argv, rc, out, reference)
            if why is not None:
                failed += 1
                key = f"{' '.join(argv)}: {why}"
                reasons[key] = reasons.get(key, 0) + 1

    plain = [p for kind, p in passes if not kind]
    walls = [sum(p["latencies"]) for p in plain]
    per_pass = [{"traced": kind, "wall_s": sum(p["latencies"]),
                 "measured_wall_s": sum(p["measured"]),
                 "kernel_median_s": statistics.median(p["cal"]),
                 "peak_rss_mb": p["rss_mb"]} for kind, p in passes]
    tail_p = tail_percentile(len(requests))
    if trace:
        traced = [p for kind, p in passes if kind]
        layer = [tracer.layer_metrics(p["trace"]) for p in traced]
        for row, values in zip([r for r in per_pass if r["traced"]], layer):
            row["layer"] = values
        values = tracer.median_metrics(layer)
        values[tracer.OVERHEAD_METRIC] = (
            statistics.median(sum(p["latencies"]) for p in traced)
            - statistics.median(walls))
        units = tracer.UNITS
    else:
        pooled = [s for p in plain for s in p["latencies"]]
        values = {
            "wall_s": statistics.median(walls),
            "req_p50_ms": 1000 * statistics.median(pooled),
            "req_tail_ms": 1000 * statistics.quantiles(
                pooled, n=100, method="inclusive")[tail_p - 1],
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS

    for reason, count in sorted(reasons.items()):
        print(f"FAILED x{count}: {reason}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={int(trace)}: {len(passes)} passes of "
          f"{len(requests)} requests, req_tail_ms = p{tail_p}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:48s} {value:16.6f} {units[name]}", file=sys.stderr)
    print(json.dumps({"provenance": {**provenance(), "workload": workload,
                                     "seed": seed, "seconds": seconds,
                                     "trace": int(trace),
                                     "requests_per_pass": len(requests),
                                     "tail_percentile": tail_p,
                                     "setup_samples_s": setup,
                                     "setup_measured_s": setup_measured,
                                     "passes": per_pass}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


# -- repeat mode -------------------------------------------------------------------

def quartile_row(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat(names: list[str], runs: int, seed: int, seconds: int, trace: int,
           out_path: str | None) -> int:
    records = []
    for i in range(runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed + i), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed + i}: exit {proc.returncode}\n"
                      f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            records.append({"workload": workload, "seed": seed + i,
                            "provenance": json.loads(lines[-2])["provenance"],
                            "result": result})
            print(f"{workload} seed {seed + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
    print(f"provenance: {json.dumps(provenance())}; runs per workload: {runs}; "
          f"seconds: {seconds}; trace: {trace}")
    print(f"{'workload':10s} {'metric':48s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s} unit")
    for workload in names:
        mine = [r["result"] for r in records if r["workload"] == workload]
        wrong = sum(1 for r in mine if not r["correct"])
        for metric, first in mine[0]["metrics"].items():
            med, q1, q3, spread = quartile_row([r["metrics"][metric]["value"]
                                                for r in mine])
            flag = "  UNSTEADY" if spread > UNSTEADY_SPREAD else ""
            print(f"{workload:10s} {metric:48s} {med:14.6f} {q1:14.6f} "
                  f"{q3:14.6f} {spread:8.3f} {first['unit']}{flag}")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"{workload:10s} {'failed_ratio':48s} {failed / attempted:14.6f} "
              f"({wrong} incorrect runs)")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"provenance": provenance(), "runs": records}, fh, indent=1)
    return 0


# -- ROADMAP baseline --------------------------------------------------------------

BASELINE = [   # (label, set-up code, timed statement)
    ("certify --n 2 --q 2,3,4,5,7 --coord-min -2 --coord-max 2",
     "import contextlib, io, satkit.cli as c",
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    c.main('certify --n 2 --q 2,3,4,5,7 --coord-min -2 --coord-max 2'.split())"),
    ("cell_census(3, 5, 1)",
     "from satkit.lattice_oracle import cell_census",
     "cell_census(3, 5, 1)"),
    ("ic_function(GL(7), (2,1,0,0,0,0,0))",
     "from satkit.hecke_satake import ic_function\n"
     "from satkit.root_datum import make_root_datum",
     "ic_function(make_root_datum('GL(7)'), (2, 1, 0, 0, 0, 0, 0))"),
    ("verlinde --n 8 --g 2 --m 8",
     "import contextlib, io, satkit.cli as c",
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    c.main('verlinde --n 8 --g 2 --m 8'.split())"),
]


def baseline() -> int:
    """Time each ROADMAP baseline command once, in a fresh interpreter,
    after its imports; not gated, for refreshing the ROADMAP table."""
    env = _env()
    env["PYTHONPATH"] = str(ROOT / "src")
    print(f"provenance: {json.dumps(provenance())}")
    for label, setup, statement in BASELINE:
        code = (f"{setup}\nimport sys, time\nt = time.perf_counter()\n"
                f"{statement}\nprint(time.perf_counter() - t, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{label}: failed\n{proc.stderr.strip()}", file=sys.stderr)
            return 1
        print(f"{label:60s} {float(proc.stderr.split()[-1]):9.3f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run each workload N times and report quartiles")
    parser.add_argument("--out", help="with --repeat: write all results here")
    parser.add_argument("--baseline", action="store_true",
                        help="time the ROADMAP baseline commands once")
    args = parser.parse_args(argv)
    try:
        require_checkout()
        if args.baseline:
            return baseline()
        if args.repeat:
            return repeat(args.workload or list(workloads.GENERATORS),
                          args.repeat, args.seed, args.seconds, args.trace,
                          args.out)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload for a single run")
        return single_run(args.workload[0], args.seed, args.seconds,
                          bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
