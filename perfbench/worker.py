"""One pass of a request list in a fresh interpreter.

Reads ``{"requests": [argv, ...], "trace": bool}`` on stdin and imports
satkit from ``src/`` of the checkout this file sits in.  One client runs the
list as a closed loop: each request is ``satkit.cli.main(argv)`` in this
process with stdout and stderr captured, and the next starts when it
returns.  Module-level memos therefore carry from request to request, as in
a notebook or a long ``--batch`` file, but never from pass to pass.

Writes one JSON line per request (exit code, seconds, captured stdout) and a
last line with the peak resident memory, the calibration samples and, when
tracing, the spans.  A calibration sample (``calibrate.py``) is taken before
the first request and after each request, so request i lies between samples
i and i + 1.
Exits 3 when satkit cannot be imported from this checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.load(sys.stdin)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import satkit.cli as cli
    except ImportError as exc:
        print(f"worker: cannot import satkit from {src}: {exc}", file=sys.stderr)
        return 3
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: satkit came from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    cal = [calibrate.sample()]
    for index, argv in enumerate(spec["requests"]):
        captured, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
            start = time.perf_counter()
            try:
                rc = (tracer.request_span(index, cli.main, argv) if tracer
                      else cli.main(argv))
            except SystemExit as exc:          # argparse rejects the argv
                rc = exc.code
            except Exception:                   # a traceback is a failed request
                rc = "exception: " + traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
        cal.append(calibrate.sample())
        out.write(json.dumps({"rc": rc, "s": seconds,
                              "stdout": captured.getvalue()}) + "\n")
    last = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cal": cal}
    if tracer:
        last["trace"] = tracer.dump()
    out.write(json.dumps(last) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
