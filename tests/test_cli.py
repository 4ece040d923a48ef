"""Command-line surface: round trips, exit codes, manifests, replay."""

import json

import pytest

from orl.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, dispatch
from orl.constructions import parse_blocks
from orl.core import parse_coloring, parse_ordered_graph, parse_unordered_graph


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

CONSTRUCT_CASES = [
    (["altpath", "7"], 7),
    (["nestmatch", "3"], 6),
    (["kbip", "3", "2"], 5),
    (["altcycle", "8"], 8),
    (["blowup", "4", "2"], 8),
    (["tee", "3", "2"], 12),
    (["eff", "3", "2"], 12),
    (["tworeg", "3", "4"], 7),
    (["tworeg", "4", "6", "--bipartite"], 10),
    (["quadlb", "9"], 9),
]


@pytest.mark.parametrize("params,n", CONSTRUCT_CASES)
def test_construct_round_trips(tmp_path, capsys, params, n):
    out = tmp_path / "g.og"
    code, _, _ = run(capsys, "construct", *params, "-o", str(out))
    assert code == EXIT_OK
    g = parse_ordered_graph(out.read_text())
    assert g.n == n
    manifest = json.loads((tmp_path / "g.og.manifest.json").read_text())
    assert manifest["argv"][0] == "construct"
    if params[0] in ("altcycle", "blowup", "tee", "eff"):
        blocked = parse_blocks((tmp_path / "g.og.blocks").read_text(), g)
        assert blocked.blocks
    if params[0] == "quadlb":
        col = parse_coloring((tmp_path / "g.col").read_text())
        assert col.n == 8


def test_construct_stdout_and_errors(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "altpath", "3")
    assert code == EXIT_OK and out == "og 3 2\ne 1 3\ne 2 3\n"
    code, _, err = run(capsys, "construct", "altpath", "0")
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run(capsys, "construct", "quadlb", "10")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------

def test_ramsey_exact_k3(tmp_path, capsys):
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    certdir = tmp_path / "certs"
    code, out, _ = run(
        capsys, "ramsey", "exact", "--pattern", str(pattern),
        "--emit-cert", str(certdir),
    )
    assert code == EXIT_OK and out.strip() == "6"
    code, out, _ = run(
        capsys, "ramsey", "verify",
        "--cert", str(certdir / "lower_N5.col"), "--pattern", str(pattern),
    )
    assert code == EXIT_OK and out.strip() == "true"
    code, out, _ = run(
        capsys, "verify",
        "--cert", str(certdir / "upper_N6.json"), "--pattern", str(pattern),
    )
    assert code == EXIT_OK and out.strip() == "true"


def test_ramsey_exact_capped(tmp_path, capsys):
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out, _ = run(
        capsys, "ramsey", "exact", "--pattern", str(pattern), "--nmax", "4"
    )
    assert code == EXIT_INCONCLUSIVE and out.strip() == ">= 5"


def test_verify_rejects_bad_certificate(tmp_path, capsys):
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    bad = tmp_path / "bad.col"
    bad.write_text("col 3\nc 1 2 R\nc 1 3 R\nc 2 3 R\n")
    code, out, _ = run(capsys, "verify", "--cert", str(bad), "--pattern", str(pattern))
    assert code == EXIT_INCONCLUSIVE and out.strip() == "false"


def test_ramsey_minmax(tmp_path, capsys):
    graph = tmp_path / "m4.adj"
    graph.write_text("adj 4 2\ne 1 2\ne 3 4\n")
    code, out, _ = run(
        capsys, "ramsey", "minmax", "--graph", str(graph), "--nmax", "8"
    )
    assert code == EXIT_OK
    assert "minr 5" in out and "maxr 6" in out
    assert out.count("ordering") == 3


def test_ramsey_count_regular(capsys):
    code, out, _ = run(capsys, "ramsey", "count-regular", "--rho", "2", "--n", "5")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "exact 12"


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_altpath_and_none(tmp_path, capsys):
    host = tmp_path / "host.og"
    host.write_text("og 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    code, out, _ = run(capsys, "embed", "altpath", "--host", str(host), "--n", "3")
    assert code == EXIT_OK and out.strip() == "1 2 3"
    empty = tmp_path / "empty.og"
    empty.write_text("og 4 0\n")
    code, out, _ = run(capsys, "embed", "altpath", "--host", str(empty), "--n", "3")
    assert code == EXIT_INCONCLUSIVE and out.startswith("NONE")


def test_embed_tee_pipeline(tmp_path, capsys):
    dispatch(["construct", "eff", "3", "2", "-o", str(tmp_path / "f.og")])
    capsys.readouterr()
    code, out, _ = run(
        capsys, "embed", "tee", "--host", str(tmp_path / "f.og"),
        "--parts", "2,2,2,2,2,2", "--n", "3", "--k", "2", "--eps", "1/8",
    )
    assert code == EXIT_OK
    assert out.strip() == " ".join(str(v) for v in range(1, 13))


def test_embed_blowup_stage_report(tmp_path, capsys):
    empty = tmp_path / "empty.og"
    empty.write_text("og 12 0\n")
    code, out, _ = run(
        capsys, "embed", "blowup", "--host", str(empty),
        "--parts", "2,2,2,2,2,2", "--n", "3", "--k", "2",
    )
    assert code == EXIT_INCONCLUSIVE and "bipartite-cliques" in out


# ---------------------------------------------------------------------------
# sample / experiment / matrix
# ---------------------------------------------------------------------------

def test_sample_commands_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.og", tmp_path / "b.og"
    assert dispatch(["sample", "matching", "--n", "5", "--seed", "4", "-o", str(a)]) == EXIT_OK
    assert dispatch(["sample", "matching", "--n", "5", "--seed", "4", "-o", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    g = parse_ordered_graph(a.read_text())
    assert g.n == 10 and g.m == 5


def test_sample_regular_and_coloring(tmp_path, capsys):
    out = tmp_path / "g.adj"
    code, _, _ = run(
        capsys, "sample", "regular", "--rho", "2", "--n", "6", "--seed", "8",
        "--mode", "exact", "-o", str(out),
    )
    assert code == EXIT_OK
    g = parse_unordered_graph(out.read_text())
    assert all(g.degree(v) == 2 for v in range(1, 7))
    colf = tmp_path / "c.col"
    code, _, _ = run(
        capsys, "sample", "coloring", "--t", "3", "--s", "2", "--seed", "5",
        "-o", str(colf),
    )
    assert code == EXIT_OK
    assert parse_coloring(colf.read_text()).n == 6


def test_experiment_montecarlo_jsonl(tmp_path, capsys):
    pattern = tmp_path / "nm2.og"
    pattern.write_text("og 4 2\ne 1 4\ne 2 3\n")
    report = tmp_path / "mc.jsonl"
    code, _, _ = run(
        capsys, "experiment", "montecarlo", "--pattern", str(pattern),
        "--t", "3", "--s", "2", "--trials", "4", "--seed", "11",
        "--report", str(report),
    )
    assert code == EXIT_OK
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(lines) == 5  # 4 trials + summary
    assert all("outcome" in line for line in lines[:-1])
    assert lines[-1]["summary"] == "avoidance_fraction"


def test_experiment_coverage_and_pairprob(tmp_path, capsys):
    graph = tmp_path / "nm3.og"
    graph.write_text("og 6 3\ne 1 6\ne 2 5\ne 3 4\n")
    code, out, _ = run(
        capsys, "experiment", "coverage", "--og", str(graph),
        "--parts", "3", "--max-size", "2", "--trials", "3", "--seed", "2",
    )
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["summary"] == "min_covered"
    code, out, _ = run(
        capsys, "experiment", "pairprob", "--n", "5", "--trials", "3", "--seed", "6"
    )
    assert code == EXIT_OK
    for line in out.splitlines():
        record = json.loads(line)
        assert record["holds"]


def test_matrix_commands(tmp_path, capsys):
    a = tmp_path / "a.mat"
    a.write_text("mat 2 2\n11\n11\n")
    b = tmp_path / "b.mat"
    b.write_text("mat 2 2\n10\n01\n")
    code, out, _ = run(capsys, "matrix", "contains", "--a", str(a), "--b", str(b))
    assert code == EXIT_OK and out.strip() == "true"
    code, out, _ = run(capsys, "matrix", "contains", "--a", str(b), "--b", str(a))
    assert code == EXIT_INCONCLUSIVE and out.strip() == "false"
    code, out, _ = run(capsys, "matrix", "complement", "--a", str(b))
    assert code == EXIT_OK and out == "mat 2 2\n01\n10\n"
    code, out, _ = run(capsys, "matrix", "unavoid", "--n", "2", "--size", "2")
    assert code == EXIT_OK and out.startswith("false")


def test_matrix_conversions(tmp_path, capsys):
    m = tmp_path / "m.og"
    m.write_text("og 4 2\ne 1 4\ne 2 3\n")
    code, out, _ = run(capsys, "matrix", "from-matching", "--og", str(m))
    assert code == EXIT_OK and out == "mat 2 2\n01\n10\n"
    c = tmp_path / "c.col"
    c.write_text("col 2\nc 1 2 R\n")
    code, out, _ = run(capsys, "matrix", "from-coloring", "--col", str(c))
    assert code == EXIT_OK and out == "mat 1 1\n1\n"


# ---------------------------------------------------------------------------
# manifests and replay
# ---------------------------------------------------------------------------

def test_manifest_contents_and_replay(tmp_path, capsys):
    out = tmp_path / "m.og"
    assert dispatch(["sample", "matching", "--n", "6", "--seed", "42", "-o", str(out)]) == EXIT_OK
    manifest_path = tmp_path / "m.og.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["seed"] == 42
    assert "threads" not in manifest
    assert manifest["outputs"][0]["path"] == str(out)
    replay_dir = tmp_path / "replay"
    code, out_text, _ = run(
        capsys, "replay", str(manifest_path), "--outdir", str(replay_dir)
    )
    assert code == EXIT_OK and "byte-identically" in out_text
    assert (replay_dir / "m.og").read_bytes() == out.read_bytes()


def test_replay_detects_tampering(tmp_path, capsys):
    out = tmp_path / "m.og"
    dispatch(["sample", "matching", "--n", "6", "--seed", "42", "-o", str(out)])
    manifest_path = tmp_path / "m.og.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][0]["sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    code, out_text, _ = run(
        capsys, "replay", str(manifest_path), "--outdir", str(tmp_path / "r2")
    )
    assert code == 3 and "MISMATCH" in out_text


def test_usage_errors(tmp_path, capsys):
    assert dispatch(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
    bad = tmp_path / "bad.og"
    bad.write_text("og 2 1\ne 2 2\n")
    code, _, err = run(capsys, "ramsey", "exact", "--pattern", str(bad))
    assert code == EXIT_USAGE and "line 2" in err
    code, _, err = run(capsys, "embed", "altpath", "--host", str(tmp_path / "nope.og"), "--n", "2")
    assert code == EXIT_USAGE


def test_threads_option_is_gone(capsys):
    # the search is single-process; a worker-count option would be ignored
    assert dispatch(["--threads", "2", "construct", "altpath", "3"]) == EXIT_USAGE
    code, _, err = run(capsys, "construct", "altpath", "3", "--threads", "2")
    assert code == EXIT_USAGE and "unrecognized arguments: --threads" in err
