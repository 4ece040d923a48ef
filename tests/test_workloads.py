"""Every benchmark workload's commands pass the benchmark's own output
checks, so a change to a certificate, report or witness format fails here
and not only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# the fewest commands one seed-7 pass checks: ramsey-exact's corpus is fixed,
# montecarlo runs 24 to 48 and embed 64; matrix is one scan and 4 samples
MIN_CHECKED = {"ramsey-exact": 21, "montecarlo": 24, "embed": 64, "matrix": 5}


@pytest.mark.parametrize("workload", MIN_CHECKED)
def test_benchmark_workload_passes_its_checks(tmp_path, workload):
    # perfbench/ is imported read-only: -B writes no bytecode next to it
    code = (
        "import contextlib, io, json, os, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "from orl.cli import dispatch\n"
        "os.mkdir('in')\n"
        "problems, checked = [], 0\n"
        "for cmd in workloads.WORKLOADS[sys.argv[3]](7, Path('in')):\n"
        "    if cmd['needs'] and not os.path.exists(cmd['needs']):\n"
        "        continue\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = dispatch(cmd['argv'])\n"
        "    problem = workloads.CHECKS[cmd['check']](cmd, status, out.getvalue(), Path.cwd())\n"
        "    checked += 1\n"
        "    if problem:\n"
        "        problems.append([cmd['argv'], problem])\n"
        "print(json.dumps({'checked': checked, 'problems': problems}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(ROOT / "src"), str(ROOT / "perfbench"),
         workload],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["problems"] == []
    assert seen["checked"] >= MIN_CHECKED[workload]
