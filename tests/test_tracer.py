"""The benchmark's tracer still finds every function it patches, and still
sees the calls it times."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_tree(tmp_path):
    # a renamed or deleted traced function makes install() raise; a call
    # that bypasses the module attribute the tracer patched loses its span
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer; tracer = Tracer(); tracer.install()\n"
        "from orl.cli import dispatch\n"
        "assert dispatch(['construct', 'eff', '3', '2', '-o', 'eff.og']) == 0\n"
        "assert dispatch(['embed', 'tee', '--host', 'eff.og', '--parts', '2,2,2,2,2,2',\n"
        "                 '--n', '3', '--k', '2']) == 0\n"
        "print(' '.join(sorted({span['name'] for span in tracer.spans})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    spans = proc.stdout.splitlines()[-1].split()
    assert "embedder.tee_pipeline" in spans
    assert "embedder.largest_nested_matching" in spans
