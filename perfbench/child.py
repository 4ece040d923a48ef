"""One pass of a workload in a fresh interpreter.

Usage: python3 -I child.py <src dir> <job.json | ->

Imports `orl.cli`, prints `ready` (the parent times set-up up to this line),
then calls `orl.cli.dispatch(argv)` once per command of the job with stdout
and stderr captured, and prints one JSON line with the results.  With job
`-` it stops after `ready`.  A traced job installs the tracer after `ready`
and writes the trace to the job's `trace` path at the end.
"""

import contextlib
import io
import json
import os
import sys
import time


def peak_rss_mib() -> float:
    """This process's own peak RSS.  `ru_maxrss` is not used: Linux carries
    the spawning parent's RSS at exec into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orl.cli  # noqa: E402

import_s = time.perf_counter() - t0
print("ready", flush=True)
if sys.argv[2] == "-":
    sys.exit(0)

with open(sys.argv[2]) as fh:
    job = json.load(fh)
tracer = None
if job["trace"]:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

results = []
first = last = None
for idx, cmd in enumerate(job["commands"]):
    if cmd["needs"] and not os.path.exists(cmd["needs"]):
        results.append(None)
        continue
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        scope = tracer.command(idx) if tracer else contextlib.nullcontext()
        try:
            with scope:
                code = orl.cli.dispatch(cmd["argv"])
        except Exception as exc:  # a leaked exception is a failed command
            code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    first = start if first is None else first
    last = end
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-500:],
                    "seconds": end - start})

if tracer:
    tracer.write(job["trace"])
print(json.dumps({
    "import_s": import_s,
    "wall_s": last - first,
    "rss_mib": peak_rss_mib(),
    "results": results,
}))
