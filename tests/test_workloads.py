"""The benchmark's ramsey-exact and montecarlo commands pass its own output
checks, so a change to the certificate or report format fails here and not
only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ramsey-exact", "montecarlo"])
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
    assert seen["checked"] >= 21  # 21 commands in ramsey-exact, 24 to 48 in montecarlo
