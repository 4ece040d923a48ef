"""The benchmark's tracer still finds every function it patches, and still
sees the calls it times."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_tree(tmp_path):
    # a renamed or deleted traced function makes install() raise; a call
    # that bypasses the module attribute the tracer patched loses its span
    # or leaves its counter at zero
    (tmp_path / "k3.og").write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer; tracer = Tracer(); tracer.install()\n"
        "from orl.cli import dispatch\n"
        "assert dispatch(['construct', 'eff', '3', '2', '-o', 'eff.og']) == 0\n"
        "assert dispatch(['embed', 'tee', '--host', 'eff.og', '--parts', '2,2,2,2,2,2',\n"
        "                 '--n', '3', '--k', '2']) == 0\n"
        "assert dispatch(['ramsey', 'exact', '--pattern', 'k3.og', '--nmax', '6',\n"
        "                 '--emit-cert', 'certs']) == 0\n"
        "for cert in ('certs/lower_N5.col', 'certs/upper_N6.json'):\n"
        "    assert dispatch(['verify', '--cert', cert, '--pattern', 'k3.og']) == 0\n"
        "assert dispatch(['experiment', 'montecarlo', '--pattern', 'k3.og', '--t', '3',\n"
        "                 '--s', '2', '--trials', '4', '--seed', '1', '--report', 'mc.jsonl']) == 0\n"
        "print(json.dumps({'spans': sorted({span['name'] for span in tracer.spans}),\n"
        "                  'counters': tracer.counters}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    spans, counters = seen["spans"], seen["counters"]
    for name in ("embedder.tee_pipeline", "embedder.largest_nested_matching",
                 "ramsey.ordered_ramsey", "ramsey.avoiding_coloring",
                 "ramsey.verify_certificate", "stochastic.monte_carlo_avoidance",
                 "stochastic.blown_up_random_coloring"):
        assert name in spans, name
    # calls per counter; `patterns.pattern_contained` is not asserted here
    assert counters["core.search_embedding"][0] > 0
    assert counters["embedder.find_monochromatic"][0] > 0
