"""The orl benchmark: one workload, one seed, one line of JSON metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in perfbench/workloads.py, metric names and units in
BENCHMARK.json, and what each per-layer metric should move in
perfbench/predictions.json.  Each pass runs in a fresh child interpreter
(perfbench/child.py) that calls `orl.cli.dispatch` once per command; passes
run one at a time.  Only process-level measures are used (`perf_counter` and
the child's own peak RSS); nothing system-wide is traced or cache-controlled.

With `--trace 0` the run repeats untraced passes while the next one would
still end within `--seconds` (there is always one), compares output digests
between passes and reports the end-to-end metrics as medians.  With
`--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; the trace is written to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SPAWNS = 7  # set-up samples besides the one of each pass
CHILD_TIMEOUT_S = 150


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(root: Path, workdir: Path, job: str) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its `ready` line; returns it with the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(HERE / "child.py"), str(root / "src"), job],
        cwd=workdir, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line != "ready\n":
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        raise RunError(f"child did not start: {line!r} {err.strip()[-400:]}")
    return proc, setup_s


def digest(workdir: Path, idx: int, result: dict) -> str:
    """Exit code, stdout and the non-manifest files a command wrote."""
    h = hashlib.sha256(json.dumps([result["code"], result["stdout"]]).encode())
    out = workdir / "out" / f"c{idx}"
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file() and not path.name.endswith(".manifest.json"):
                h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / "perfbench" / "_work"
        self.dir = self.work / f"{workload}-s{seed}-{os.getpid()}"
        (self.dir / "in").mkdir(parents=True)
        self.commands = WORKLOADS[workload](seed, self.dir / "in")
        self.setup_s: list[float] = []
        self.passes: list[dict] = []
        self.digests: dict[int, str] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def setup_samples(self) -> None:
        self.spawn_setup()  # warm-up: the first import may compile bytecode
        for _ in range(SETUP_SPAWNS):
            self.setup_s.append(self.spawn_setup())

    def spawn_setup(self) -> float:
        proc, setup_s = spawn(self.root, self.dir, "-")
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        return setup_s

    def run_pass(self, trace_path: str | None = None) -> dict:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        job = self.dir / "job.json"
        job.write_text(json.dumps({"commands": self.commands, "trace": trace_path}))
        proc, setup_s = spawn(self.root, self.dir, str(job))
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"pass exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise RunError(f"child exited {proc.returncode}: {err.strip()[-400:]}")
        report = json.loads(out)
        self.setup_s.append(setup_s)
        for idx, (cmd, result) in enumerate(zip(self.commands, report["results"])):
            if result is None:  # an optional command whose input was not written
                continue
            self.attempted += 1
            try:
                problem = CHECKS[cmd["check"]](cmd, result["code"], result["stdout"], self.dir)
            except (OSError, ValueError, LookupError, TypeError) as exc:
                problem = f"output unreadable: {exc!r}"
            if problem is None:
                d = digest(self.dir, idx, result)
                if self.digests.setdefault(idx, d) != d:
                    problem = "output differs from an earlier pass"
            if problem:
                self.fail(idx, f"{problem} {result['stderr'].strip()[-200:]}")
        report["bytes_written"] = sum(
            p.stat().st_size for p in (self.dir / "out").rglob("*") if p.is_file()
        ) if (self.dir / "out").is_dir() else 0
        self.passes.append(report)
        return report

    def fail(self, idx: int, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"command {idx} {' '.join(self.commands[idx]['argv'])}: {problem}")

    def cross_check_nodes(self, trace: dict) -> None:
        """The traced node count of each exhausted search equals the `nodes`
        field of the upper certificate the command emitted."""
        searched = tracer.exhausted_nodes(trace)
        for idx, cmd in enumerate(self.commands):
            if cmd["check"] != "ramsey_exact":
                continue
            value = cmd["params"]["value"]
            upper = self.dir / cmd["argv"][-1] / f"upper_N{value}.json"
            if not upper.is_file():  # already failed its output check
                continue
            emitted = json.loads(upper.read_text())["nodes"]
            if searched.get(idx) != [(value, emitted)]:
                self.fail(idx, f"traced exhausted searches {searched.get(idx)} "
                               f"disagree with the certificate's {emitted} nodes at N={value}")

    def end_to_end(self, seconds: float) -> dict:
        self.setup_samples()
        start = time.perf_counter()
        while True:  # stop before a pass that would end after `seconds`
            self.run_pass()
            elapsed = time.perf_counter() - start
            if elapsed * (len(self.passes) + 1) / len(self.passes) > seconds:
                break
        median = lambda key: statistics.median(p[key] for p in self.passes)
        return {
            "wall_s": median("wall_s"),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mib": median("rss_mib"),
            "ok_rate": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict:
        untraced = self.run_pass()
        trace_path = self.work / f"trace-{self.workload}-s{self.seed}.json"
        traced = self.run_pass(str(trace_path))
        trace = json.loads(trace_path.read_text())
        self.cross_check_nodes(trace)
        metrics = tracer.summarize(trace)
        metrics["cli.bytes_written"] = traced["bytes_written"]
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in self.passes)
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        trace["run"] = {
            "workload": self.workload, "seed": self.seed, "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(), "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": traced["wall_s"], "metrics": metrics, "errors": self.errors,
        }
        trace_path.write_text(json.dumps(trace))
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orl" / "cli.py").is_file():
        print("error: run from the root of an orl checkout (src/orl/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    predicted = json.loads((HERE / "predictions.json").read_text())["per_layer"]
    if set(predicted) != {m["name"] for m in spec["per_layer"]}:
        raise AssertionError("predictions.json and BENCHMARK.json name different metrics")

    run = Run(root, args.workload, args.seed)
    try:
        values = run.per_layer() if args.trace else run.end_to_end(args.seconds)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if set(values) != {m["name"] for m in wanted}:
        raise AssertionError(f"computed metrics differ from BENCHMARK.json: {sorted(values)}")
    for line in run.errors:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
