"""The benchmark's tracer still finds every function it patches."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_tree():
    # a renamed or deleted traced function makes install() raise
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer; Tracer().install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
