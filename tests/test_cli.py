"""Command-line surface: round trips, exit codes, manifests, replay."""

import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_og_text
from orl import cli, ramsey, stochastic
from orl.cli import EXIT_INCONCLUSIVE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, dispatch
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
        capsys, "verify",
        "--cert", str(certdir / "lower_N5.col"), "--pattern", str(pattern),
    )
    assert code == EXIT_OK and out.strip() == "true"
    code, _, _ = run(
        capsys, "ramsey", "verify",
        "--cert", str(certdir / "lower_N5.col"), "--pattern", str(pattern),
    )
    assert code == EXIT_USAGE
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


def test_ramsey_exact_stops_at_the_copy_table_bound(tmp_path, capsys, monkeypatch):
    # K3's table in K_6 (2220 bits) exceeds a bound of 1060 bits, its table in
    # K_5: stop there as at the --nmax cap
    monkeypatch.setattr(ramsey, "MAX_TABLE_BITS", 1060)
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    certdir = tmp_path / "certs"
    code, out, _ = run(
        capsys, "ramsey", "exact", "--pattern", str(pattern), "--emit-cert", str(certdir)
    )
    assert code == EXIT_INCONCLUSIVE and out.strip() == ">= 6"
    assert (certdir / "lower_N5.col").exists() and not (certdir / "upper_N6.json").exists()


def test_ramsey_exact_isolated_vertices_do_not_count_against_the_bound(tmp_path, capsys):
    # C(22, 12) = 646646 images but C(14, 4) = 1001 copies: only the four
    # non-isolated vertices set a copy, so the search reaches the value
    pattern = tmp_path / "gap.og"
    pattern.write_text("og 12 2\ne 1 2\ne 11 12\n")
    certdir = tmp_path / "certs"
    code, out, _ = run(
        capsys, "ramsey", "exact", "--pattern", str(pattern), "--nmax", "40",
        "--emit-cert", str(certdir),
    )
    assert code == EXIT_OK and out.strip() == "22"
    for cert in ("lower_N21.col", "upper_N22.json"):
        code, out, _ = run(
            capsys, "verify", "--cert", str(certdir / cert), "--pattern", str(pattern)
        )
        assert code == EXIT_OK and out.strip() == "true", cert


def test_ramsey_exact_upper_certificate_counts_decisions(tmp_path, capsys):
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    certdir = tmp_path / "certs"
    code, _, _ = run(
        capsys, "ramsey", "exact", "--pattern", str(pattern), "--emit-cert", str(certdir)
    )
    assert code == EXIT_OK
    upper = json.loads((certdir / "upper_N6.json").read_text())
    assert (upper["nodes"], upper["prunes"]) == (19, 10)


def test_verify_rejects_bad_certificate(tmp_path, capsys):
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    bad = tmp_path / "bad.col"
    bad.write_text("col 3\nc 1 2 R\nc 1 3 R\nc 2 3 R\n")
    code, out, _ = run(capsys, "verify", "--cert", str(bad), "--pattern", str(pattern))
    assert code == EXIT_INCONCLUSIVE and out.strip() == "false"


@pytest.mark.parametrize(
    "payload, field",
    [('{"kind": "upper"}', "`N`"), ('{"kind": "upper", "N": 6}', "`pattern`"), ("[1, 2]", "object"),
     ('{"kind": "upper", "N": -1, "pattern": "og 3 3\\ne 1 2\\ne 1 3\\ne 2 3\\n"}',
      "field `N` must be non-negative")],
)
def test_verify_rejects_malformed_upper_certificate(tmp_path, capsys, payload, field):
    pattern = tmp_path / "k3.og"
    pattern.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    cert = tmp_path / "upper_N6.json"
    cert.write_text(payload)
    code, _, err = run(capsys, "verify", "--cert", str(cert), "--pattern", str(pattern))
    assert code == EXIT_USAGE and field in err and str(cert) in err


def test_verify_upper_certificate_of_another_pattern_is_false_without_search(
    tmp_path, capsys, monkeypatch
):
    k3 = tmp_path / "k3.og"
    k3.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    certs = tmp_path / "certs"
    assert dispatch(["ramsey", "exact", "--pattern", str(k3), "--emit-cert", str(certs)]) == 0
    capsys.readouterr()

    def no_search(*args):
        raise RuntimeError("verify searched")

    monkeypatch.setattr(ramsey, "avoiding_coloring", no_search)
    other = tmp_path / "m.og"
    other.write_text("og 4 2\ne 1 4\ne 2 3\n")
    cert = str(certs / "upper_N6.json")
    code, out, err = run(capsys, "verify", "--cert", cert, "--pattern", str(other))
    assert (code, out, err) == (EXIT_INCONCLUSIVE, "false\n", "")
    # the same certificate against its own pattern reaches the search
    code, _, err = run(capsys, "verify", "--cert", cert, "--pattern", str(k3))
    assert code == EXIT_INTERNAL and "verify searched" in err


def test_verify_past_the_copy_bound_is_inconclusive_without_search(
    tmp_path, capsys, monkeypatch
):
    # K3's copy table in K_1000 exceeds MAX_TABLE_BITS: the search at N = 1000
    # cannot be re-run, which is neither true nor false nor a malformed file
    k3 = tmp_path / "k3.og"
    k3.write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    cert = tmp_path / "upper_N1000.json"
    cert.write_text(json.dumps({"kind": "upper", "N": 1000, "pattern": k3.read_text()}))

    def no_search(*args):
        raise RuntimeError("verify searched")

    monkeypatch.setattr(ramsey, "avoiding_coloring", no_search)
    code, out, err = run(capsys, "verify", "--cert", str(cert), "--pattern", str(k3))
    assert (code, out) == (EXIT_INCONCLUSIVE, "")
    assert err == (f"{cert}: cannot re-run the search at N = 1000: C(1000, 3) = 166167000"
                   f" copies x (499500 pairs + 32 x 3 index bits) = 83016368532000 table bits"
                   f" exceed MAX_TABLE_BITS = 268435456\n")


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
    code, out, _ = run(capsys, "embed", "altpath", "--host", str(host), "--n", "4")
    assert code == EXIT_OK and out.strip() == "1 2 3 4"
    # a path longer than the host is a usage error, not a failed removal stage
    code, out, err = run(capsys, "embed", "altpath", "--host", str(host), "--n", "5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --n 5: must be at most the host size 4\n"
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


ALTPATH_12 = ("altpath", "--n", "12")
BLOWUP = ("blowup", "--parts", ",".join(["6"] * 40), "--n", "4", "--k", "2")
ALTPATH_6 = ("altpath", "--n", "6")
TEE = ("tee", "--parts", ",".join(["4"] * 10), "--n", "2", "--k", "1", "--eps", "1/8")
# hosts 0-1 are N = 240, p = 0.5 and hosts 2-4 N = 40, p = 0.8, drawn in
# that order from random.Random(20261018)
EMBED_GOLDEN = [
    (0, ALTPATH_12, "1 2 4 5 6 7 52 180 204 225 235 239"),
    (0, BLOWUP, "25 26 55 56 73 74 79 80"),
    (1, ALTPATH_12, "1 2 3 4 5 7 18 189 202 230 233 240"),
    (1, BLOWUP, "19 20 79 80 133 135 217 219"),
    (2, ALTPATH_6, "1 2 3 6 38 39"),
    (2, TEE, "10 11 12 14 33 38"),
    (3, ALTPATH_6, "1 2 3 8 36 38"),
    (3, TEE, "10 11 12 13 33 37"),
    (4, ALTPATH_6, "1 2 3 5 37 40"),
    (4, TEE, "13 14 15 16 33 37"),
]


@pytest.mark.parametrize(
    "host, argv, expected", EMBED_GOLDEN, ids=[f"h{h}-{a[0]}" for h, a, _ in EMBED_GOLDEN]
)
def test_embed_large_host_golden(tmp_path, capsys, host, argv, expected):
    gen = random.Random(20261018)
    texts = [random_og_text(gen, 240, 0.5) for _ in range(2)]
    texts += [random_og_text(gen, 40, 0.8) for _ in range(3)]
    path = tmp_path / "h.og"
    path.write_text(texts[host])
    code, out, _ = run(capsys, "embed", argv[0], "--host", str(path), *argv[1:])
    assert (code, out) == (EXIT_OK, expected + "\n")


# sha256 over the exit code and stdout of the 400 commands of
# test_embed_pipelines_golden_digest, in order
EMBED_PIPELINES_DIGEST = "bae8f6f7efec394c927b7f340ff9723b051f212313efa338f6fc6e2c7e575430"


def test_embed_pipelines_golden_digest(tmp_path, capsys):
    # one `embed blowup` and one `embed tee` on each of 200 seeded hosts, in
    # two or more equal intervals
    gen = random.Random(25)
    path = tmp_path / "h.og"
    digest = hashlib.sha256()
    reached = set()
    for _ in range(200):
        big_n = gen.choice((12, 18, 24, 36, 40))
        density = gen.uniform(0.3, 0.9)
        size = gen.choice([s for s in range(1, big_n // 2 + 1) if big_n % s == 0])
        path.write_text(random_og_text(gen, big_n, density))
        parts = ",".join([str(size)] * (big_n // size))
        n, k = str(gen.randint(2, 4)), str(gen.randint(1, 3))
        eps = gen.choice(("1/8", "1/4", "1/2", "3/4", "1"))
        for argv in (("blowup",), ("tee", "--eps", eps)):
            code, out, _ = run(capsys, "embed", argv[0], "--host", str(path), "--parts", parts,
                               "--n", n, "--k", k, *argv[1:])
            digest.update(f"{code}\n{out}".encode())
            reached.add((argv[0], out.split()[1] if out.startswith("NONE") else None))
    assert reached == {
        ("blowup", None), ("blowup", "alternating-path"), ("blowup", "bipartite-cliques"),
        ("tee", None), ("tee", "interval-links"), ("tee", "long-right-legs"),
        ("tee", "second-matching"), ("tee", "supported-left-legs"),
    }
    assert digest.hexdigest() == EMBED_PIPELINES_DIGEST


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


def test_sample_regular_exact_up_to_the_count_limit(capsys):
    # K_10 minus a perfect matching, from an index into its 945 graphs
    code, out, _ = run(capsys, "sample", "regular", "--rho", "8", "--n", "10", "--seed", "1")
    assert code == EXIT_OK
    g = parse_unordered_graph(out)
    assert g.m == 40 and all(g.degree(v) == 8 for v in range(1, 11))
    # K_8, whose stub pairings the configuration model almost never makes simple
    code, out, _ = run(capsys, "sample", "regular", "--rho", "7", "--n", "8", "--seed", "1")
    assert (code, parse_unordered_graph(out).m) == (EXIT_OK, 28)


def test_sample_regular_and_coloring(tmp_path, capsys):
    out = tmp_path / "g.adj"
    code, _, _ = run(
        capsys, "sample", "regular", "--rho", "2", "--n", "6", "--seed", "8", "-o", str(out),
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


def test_experiment_montecarlo_shape_defaults_to_the_pair_count(tmp_path, capsys):
    pattern = tmp_path / "m.og"
    pattern.write_text("og 16 8\n" + "".join(f"e {i} {17 - i}\n" for i in range(1, 9)))
    code, out, _ = run(capsys, "experiment", "montecarlo", "--pattern", str(pattern),
                       "--trials", "2", "--seed", "3")
    summary = json.loads(out.splitlines()[-1])
    assert code == EXIT_OK
    assert (summary["t"], summary["s"]) == stochastic.matching_blowup_shape(8) == (1, 16)


def test_experiment_coverage_and_pairprob(tmp_path, capsys):
    graph = tmp_path / "nm3.og"
    graph.write_text("og 6 3\ne 1 6\ne 2 5\ne 3 4\n")
    code, out, _ = run(
        capsys, "experiment", "coverage", "--og", str(graph),
        "--parts", "3", "--max-size", "2", "--trials", "3", "--seed", "2",
    )
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["summary"] == "min_covered"
    # `experiment pairprob` printed one constant per trial and is gone
    code, _, err = run(capsys, "experiment", "pairprob", "--n", "5", "--seed", "6")
    assert code == EXIT_USAGE and "invalid choice: 'pairprob'" in err


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


# test_matrix_commands_golden_digest, in order
MATRIX_COMMANDS_DIGEST = "359a985e0e258ec05cf78690781922c01cb3317112bed9f24d99baff1812595c"


def test_matrix_commands_golden_digest(tmp_path, capsys):
    # 300 seeded inputs through `contains`, `complement`, `from-matching` and
    # `from-coloring` in both colors, then `unavoid` in both modes for
    # n <= 4 and size <= 4
    gen = random.Random(27)
    a, b, og, col, out = (tmp_path / f for f in ("a.mat", "b.mat", "m.og", "c.col", "o.mat"))
    digest = hashlib.sha256()
    codes = []

    def record(*argv):
        out.unlink(missing_ok=True)
        code, stdout, _ = run(capsys, "matrix", *argv)
        digest.update(f"{code}\n{stdout}".encode())
        if out.exists():
            digest.update(out.read_bytes())
        codes.append((argv[0], code))

    def mat_text(rows, cols, density):
        lines = ("".join("1" if gen.random() < density else "0" for _ in range(cols))
                 for _ in range(rows))
        return f"mat {rows} {cols}\n" + "".join(f"{line}\n" for line in lines)

    for _ in range(300):
        a.write_text(mat_text(gen.randint(1, 8), gen.randint(1, 8), gen.uniform(0.2, 0.9)))
        b.write_text(mat_text(gen.randint(1, 4), gen.randint(1, 4), gen.uniform(0.2, 0.7)))
        record("contains", "--a", str(a), "--b", str(b))
        record("complement", "--a", str(a), "-o", str(out))
        n = gen.randint(1, 8)
        pi = list(range(1, n + 1))
        gen.shuffle(pi)
        edges = [(i, n + p) for i, p in enumerate(pi, 1)]
        if gen.random() < 0.1:  # an edge inside one half: not a cross matching
            edges[0] = (1, 2) if n > 1 else (1, 3)
        og.write_text(f"og {max(2 * n, 3)} {n}\n" + "".join(f"e {i} {j}\n" for i, j in edges))
        record("from-matching", "--og", str(og), "-o", str(out))
        big_n = gen.choice((1, 2, 4, 6, 8, 10, 12, 14, 16))
        red = gen.random()
        col.write_text(f"col {big_n}\n" + "".join(
            f"c {i} {j} {'R' if gen.random() < red else 'B'}\n"
            for i in range(1, big_n + 1) for j in range(i + 1, big_n + 1)
        ))
        for color in ("R", "B"):
            record("from-coloring", "--col", str(col), "--color", color, "-o", str(out))
    for n in range(1, 5):
        for size in range(1, 5):
            record("unavoid", "--n", str(n), "--size", str(size))
            record("unavoid", "--n", str(n), "--size", str(size), "--mode", "sample",
                   "--trials", str(gen.randint(1, 60)), "--seed", str(gen.randrange(1000)))
    assert set(codes) == {
        ("contains", EXIT_OK), ("contains", EXIT_INCONCLUSIVE), ("complement", EXIT_OK),
        ("from-matching", EXIT_OK), ("from-matching", EXIT_USAGE),
        ("from-coloring", EXIT_OK), ("from-coloring", EXIT_USAGE),
        ("unavoid", EXIT_OK), ("unavoid", EXIT_INCONCLUSIVE),
    }
    assert digest.hexdigest() == MATRIX_COMMANDS_DIGEST


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


NESTED_3 = "og 6 3\ne 1 6\ne 2 5\ne 3 4\n"


def replay(capsys, manifest_path, outdir):
    code, out_text, _ = run(capsys, "replay", str(manifest_path), "--outdir", str(outdir))
    return code, out_text


def test_replay_montecarlo_with_certificate(tmp_path, capsys):
    # benchmark shape: the report cites the certificate written beside it;
    # N = t*s = 5 is below the pattern's 6 vertices, so every trial avoids
    pattern = tmp_path / "nm3.og"
    pattern.write_text(NESTED_3)
    out = tmp_path / "out" / "c0"
    assert dispatch([
        "experiment", "montecarlo", "--pattern", str(pattern), "--t", "1", "--s", "5",
        "--trials", "3", "--seed", "4", "--report", f"{out}/report.jsonl",
        "--emit-cert", str(out),
    ]) == EXIT_OK
    report = (out / "report.jsonl").read_text()
    assert f"{out}/avoid_N5.col" in report
    replay_dir = tmp_path / "replay"
    code, out_text = replay(capsys, out / "avoid_N5.col.manifest.json", replay_dir)
    assert code == EXIT_OK and "replayed 2 output(s) byte-identically" in out_text
    assert (replay_dir / "report.jsonl").read_text() == report
    assert (replay_dir / "avoid_N5.col").read_bytes() == (out / "avoid_N5.col").read_bytes()


def test_replay_outputs_with_the_same_basename(tmp_path, capsys):
    pattern = tmp_path / "nm3.og"
    pattern.write_text(NESTED_3)
    assert dispatch([
        "experiment", "montecarlo", "--pattern", str(pattern), "--t", "1", "--s", "5",
        "--trials", "2", "--seed", "9", "--report", str(tmp_path / "a" / "x" / "r.jsonl"),
        "--emit-cert", str(tmp_path / "b" / "x"),
    ]) == EXIT_OK
    replay_dir = tmp_path / "replay"
    code, out_text = replay(capsys, tmp_path / "b" / "x" / "avoid_N5.col.manifest.json", replay_dir)
    assert code == EXIT_OK and "replayed 2 output(s) byte-identically" in out_text
    assert (replay_dir / "a" / "x" / "r.jsonl").is_file()
    assert (replay_dir / "b" / "x" / "avoid_N5.col").is_file()


def test_replay_keeps_an_explicit_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "run.json"
    assert dispatch([
        "--manifest", str(manifest_path), "sample", "matching", "--n", "6", "--seed", "3",
        "-o", str(tmp_path / "m.og"),
    ]) == EXIT_OK
    recorded = manifest_path.read_bytes()
    code, out_text = replay(capsys, manifest_path, tmp_path / "replay")
    assert code == EXIT_OK and "byte-identically" in out_text
    assert manifest_path.read_bytes() == recorded
    assert sorted(p.name for p in (tmp_path / "replay").iterdir()) == ["m.og"]


def test_replay_minmax_certificate_tree(tmp_path, capsys):
    graph = tmp_path / "m4.adj"
    graph.write_text("adj 4 2\ne 1 2\ne 3 4\n")
    certs = tmp_path / "certs"
    assert dispatch([
        "ramsey", "minmax", "--graph", str(graph), "--nmax", "8", "--emit-cert", str(certs),
    ]) == EXIT_OK
    (manifest_path,) = certs.rglob("*.manifest.json")
    recorded = json.loads(manifest_path.read_text())["outputs"]
    replay_dir = tmp_path / "replay"
    code, out_text = replay(capsys, manifest_path, replay_dir)
    assert code == EXIT_OK
    assert f"replayed {len(recorded)} output(s) byte-identically" in out_text
    assert len({Path(entry["path"]).parent.name for entry in recorded}) == 3


def test_replay_rejects_a_write_outside_the_recorded_directory(tmp_path, capsys):
    out = tmp_path / "a" / "m.og"
    dispatch(["sample", "matching", "--n", "6", "--seed", "42", "-o", str(out)])
    manifest_path = tmp_path / "a" / "m.og.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["argv"][-1] = str(tmp_path / "b" / "m.og")
    manifest_path.write_text(json.dumps(manifest))
    code, _ = replay(capsys, manifest_path, tmp_path / "replay")
    assert code == EXIT_INTERNAL
    assert not (tmp_path / "b").exists()


def test_usage_errors(tmp_path, capsys):
    assert dispatch(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
    bad = tmp_path / "bad.og"
    bad.write_text("og 2 1\ne 2 2\n")
    code, _, err = run(capsys, "ramsey", "exact", "--pattern", str(bad))
    assert code == EXIT_USAGE and "line 2" in err
    code, _, err = run(capsys, "embed", "altpath", "--host", str(tmp_path / "nope.og"), "--n", "2")
    assert code == EXIT_USAGE


K3 = "og 3 3\ne 1 2\ne 1 3\ne 2 3\n"

MALFORMED_FILE_CASES = [
    # (argv with {f} the malformed file, its text, the message after the path)
    (["embed", "altpath", "--host", "{f}", "--n", "2"], "og 2 1\ne 2 2\n",
     "line 2: self-loop at vertex 2"),
    (["ramsey", "minmax", "--graph", "{f}", "--nmax", "5"], "adj 3 1\ne 1 4\n",
     "line 2: endpoint out of range 1..3"),
    (["verify", "--cert", "{f}.col", "--pattern", "{d}/k3.og"], "col 2\nc 1 2 G\n",
     "line 2: color must be R or B"),
    (["matrix", "contains", "--a", "{f}", "--b", "{d}/one.mat"], "mat 2 2\n01\n\n1\n",
     "line 4: expected a row of 2 0/1 characters"),
    (["verify", "--cert", "{f}.json", "--pattern", "{d}/k3.og"], '{"kind": "upper",\n"N": }',
     "Expecting value: line 2 column 6 (char 23)"),
    (["verify", "--cert", "{f}.json", "--pattern", "{d}/k3.og"],
     '{"kind": "upper", "N": 6, "pattern": "og 3 1\\ne 1 1\\n"}',
     "line 2: self-loop at vertex 1"),
    # header counts that cannot size a list once leaked as an OverflowError
    (["embed", "altpath", "--host", "{f}", "--n", "2"], "og 100000000000000000000 0\n",
     "line 1: header value 100000000000000000000 is too large"),
    (["ramsey", "minmax", "--graph", "{f}", "--nmax", "5"], "adj 100000000000000000000 0\n",
     "line 1: header value 100000000000000000000 is too large"),
    (["verify", "--cert", "{f}.col", "--pattern", "{d}/k3.og"], "col 100000000000000000000\n",
     "line 1: header value 100000000000000000000 is too large"),
    (["verify", "--cert", "{f}.col", "--pattern", "{d}/k3.og"], "col 5000000000\n",
     "line 1: coloring is not total: 12499999997500000000 pairs missing"),
]


def test_header_too_large_for_memory_is_a_usage_error(tmp_path):
    # `og 200000000 0` asks the line reader for a list of 2 * 10^8 entries;
    # the child caps its own address space at 1 GiB, so that request fails
    # with a MemoryError, which must be reported as bad input
    host = tmp_path / "big.og"
    host.write_text("og 200000000 0\n")
    code = (
        "import resource, sys; sys.path.insert(0, sys.argv[1])\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from orl.cli import dispatch\n"
        "sys.exit(dispatch(['embed', 'altpath', '--host', sys.argv[2], '--n', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(Path(cli.__file__).parents[1]), str(host)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == f"error: {host}: too large to read\n"


@pytest.mark.parametrize("argv, text, message", MALFORMED_FILE_CASES)
def test_malformed_file_error_names_the_path(tmp_path, capsys, argv, text, message):
    (tmp_path / "k3.og").write_text(K3)
    (tmp_path / "one.mat").write_text("mat 1 1\n1\n")
    argv = [arg.format(f=tmp_path / "bad", d=tmp_path) for arg in argv]
    bad = next(arg for arg in argv if "bad" in arg)
    Path(bad).write_text(text)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE and err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "manifest, field",
    [
        ({}, "`argv`"),
        ([1], "manifest must be a JSON object"),
        ({"argv": ["construct", 3], "outputs": []}, "`argv`"),
        ({"argv": ["construct", "altpath", "3", "--seed", "1"], "outputs": []}, "`argv`"),
        ({"argv": ["construct", "altpath", "3"]}, "`outputs`"),
        ({"argv": ["construct", "altpath", "3"], "outputs": [1]}, "manifest output"),
        ({"argv": ["construct", "altpath", "3"], "outputs": [{"path": "p.og"}]}, "`sha256`"),
        ({"argv": ["replay", "{m}", "--outdir", "{d}"], "outputs": []}, "`argv`"),
        ({"argv": ["--manifest", "{d}/x.json", "replay", "{m}", "--outdir", "{d}"],
          "outputs": []}, "`argv`"),
        # recorded with options and an action that are gone
        ({"argv": ["sample", "regular", "--rho", "2", "--n", "6", "--seed", "3", "--mode",
                   "exact"], "outputs": []}, "`argv` is not an orl command line"),
        ({"argv": ["experiment", "montecarlo", "--pattern", "{m}", "--config-n", "4",
                   "--seed", "1"], "outputs": []}, "`argv` is not an orl command line"),
        ({"argv": ["experiment", "pairprob", "--n", "5", "--seed", "1"], "outputs": []},
         "`argv` is not an orl command line"),
    ],
)
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, manifest, field):
    path = tmp_path / "m.json"
    text = json.dumps(manifest).replace("{m}", str(path)).replace("{d}", str(tmp_path / "r"))
    path.write_text(text)
    code, _, err = run(capsys, "replay", str(path), "--outdir", str(tmp_path / "r"))
    assert code == EXIT_USAGE and f"{path}: " in err and field in err
    assert "RecursionError" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["matrix", "unavoid", "--size", "4"], "--n"),
        (["matrix", "unavoid", "--n", "2"], "--size"),
        (["matrix", "contains", "--b", "b.mat"], "--a"),
        (["matrix", "contains", "--a", "a.mat"], "--b"),
        (["matrix", "complement"], "--a"),
        (["matrix", "from-matching"], "--og"),
        (["matrix", "from-coloring"], "--col"),
        (["sample", "matching", "--seed", "1"], "--n"),
        (["sample", "regular", "--n", "4", "--seed", "1"], "--rho"),
        (["sample", "regular", "--rho", "2", "--seed", "1"], "--n"),
        (["sample", "coloring", "--s", "2", "--seed", "1"], "--t"),
        (["sample", "coloring", "--t", "2", "--seed", "1"], "--s"),
        (["experiment", "coverage", "--parts", "2", "--max-size", "2", "--seed", "1"],
         "--og or --graph"),
        (["matrix", "unavoid", "--n", "2", "--size", "3", "--mode", "sample"], "--seed"),
    ],
)
def test_missing_option_is_a_usage_error(capsys, argv, flag):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE and flag in err and "NoneType" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ramsey", "count-regular", "--rho", "2", "--n", "0"], "--n"),
        (["sample", "regular", "--rho", "2", "--n", "-4", "--seed", "1"], "--n"),
        (["experiment", "coverage", "--og", "{d}/k3.og", "--parts", "2", "--max-size", "2",
          "--seed", "1", "--trials", "0"], "--trials"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--seed", "1", "--trials", "0"],
         "--trials"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--t", "2", "--s", "2",
          "--seed", "1", "--trials", "0"], "--trials"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--t", "2", "--s", "2",
          "--seed", "1", "--trials", "-3"], "--trials"),
        (["matrix", "unavoid", "--n", "2", "--size", "3", "--mode", "sample", "--trials", "0",
          "--seed", "1"], "--trials"),
        (["matrix", "unavoid", "--n", "2", "--size", "3", "--mode", "sample", "--trials", "-4",
          "--seed", "1"], "--trials"),
        (["experiment", "coverage", "--og", "{d}/k3.og", "--parts", "-1", "--max-size", "-3",
          "--seed", "1"], "--parts"),
        (["experiment", "coverage", "--og", "{d}/k3.og", "--parts", "2", "--max-size", "0",
          "--seed", "1"], "--max-size"),
        (["embed", "blowup", "--host", "{d}/k3.og", "--n", "2", "--parts", "1,x"], "--parts"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "2", "--parts", "1,1"], "--parts"),
        (["embed", "altpath", "--host", "{d}/k3.og", "--n", "0"], "--n"),
        (["embed", "blowup", "--host", "{d}/k3.og", "--n", "2", "--parts", "1,1,1", "--k", "-1"],
         "--k"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "3", "--k", "-2", "--parts", "1,1,1"],
         "--k"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "0", "--parts", "1,1,1"], "--n"),
        (["matrix", "unavoid", "--n", "0", "--size", "3"], "--n"),
        (["matrix", "unavoid", "--n", "2", "--size", "-1"], "--size"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "1", "--parts", "1,1,1", "--eps", "abc"],
         "--eps"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "1", "--parts", "1,1,1", "--eps", "2"],
         "--eps"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "1", "--parts", "1,1,1", "--eps", "0"],
         "--eps"),
        (["ramsey", "count-regular", "--rho", "abc", "--n", "4"], "--rho"),
        (["ramsey", "count-regular", "--rho", "-2", "--n", "4"], "--rho"),
        (["sample", "regular", "--rho", "1/x", "--n", "4", "--seed", "1"], "--rho"),
        (["sample", "regular", "--rho", "0", "--n", "4", "--seed", "1"], "--rho"),
        (["ramsey", "exact", "--pattern", "{d}/k3.og", "--nmax", "2"],
         "--nmax 2: must be at least the pattern size 3"),
        (["ramsey", "minmax", "--graph", "{d}/k3.adj", "--nmax", "2"],
         "--nmax 2: must be at least the pattern size 3"),
        (["sample", "coloring", "--t", "0", "--s", "2", "--seed", "1"], "argument --t: must"),
        (["sample", "coloring", "--t", "2", "--s", "0", "--seed", "1"], "argument --s: must"),
        (["sample", "matching", "--n", "0", "--seed", "1"], "argument --n: must"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--t", "0", "--s", "2",
          "--seed", "1"], "argument --t: must"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--t", "2", "--s", "0",
          "--seed", "1"], "argument --s: must"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--t", "2", "--seed", "1"],
         "error: --t and --s must be given together"),
        (["experiment", "montecarlo", "--pattern", "{d}/k2.og", "--seed", "1"],
         "error: --t and --s are required for a pattern on 2 vertices"),
        (["ramsey", "count-regular", "--rho", "2", "--n", "11"],
         "error: --n 11: exact enumeration is limited to n <= 10"),
        (["sample", "regular", "--rho", "2", "--n", "0", "--seed", "1"], "argument --n: must"),
        (["ramsey", "count-regular", "--rho", "2", "--n", "-4"], "argument --n: must"),
        (["experiment", "montecarlo", "--pattern", "{d}/k3.og", "--s", "2", "--seed", "1"],
         "error: --t and --s must be given together"),
        (["experiment", "coverage", "--og", "{d}/k3.og", "--parts", "2", "--max-size", "2",
          "--seed", "1", "--t", "2"], "unrecognized arguments: --t 2"),
        (["matrix", "unavoid", "--n", "2", "--size", "3", "--mode", "sample", "--tr", "2",
          "--se", "3"], "unrecognized arguments: --tr 2 --se 3"),
        (["embed", "blowup", "--host", "{d}/k3.og", "--n", "2", "--parts", "2,1"], "--parts"),
        (["embed", "tee", "--host", "{d}/k3.og", "--n", "2", "--parts", "0,3"], "--parts"),
        (["matrix", "unavoid", "--n", "9", "--size", "9", "--mode", "sample", "--seed", "1"],
         "error: sample mode is limited to n <= 8 unless n > N"),
    ],
)
def test_option_out_of_range_is_a_usage_error(tmp_path, capsys, argv, flag):
    (tmp_path / "k3.og").write_text("og 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    (tmp_path / "k3.adj").write_text("adj 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    (tmp_path / "k2.og").write_text("og 2 1\ne 1 2\n")
    code, _, err = run(capsys, *(a.replace("{d}", str(tmp_path)) for a in argv))
    assert code == EXIT_USAGE and flag in err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("rho, n", [("5/2", "3"), ("7/2", "4")])
def test_sample_regular_rejects_degrees_above_n_minus_1(rho, n):
    # the degree-(d + 1) vertices would need degree n; the command runs in a
    # subprocess so that a sampler that never returns fails instead of hanging
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "orl.cli", "sample", "regular", "--rho", rho, "--n", n,
         "--seed", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == "error: no graph realizes these parameters\n"
    assert proc.stdout == ""


def test_sample_regular_configuration_gives_up_on_complete_graphs():
    # past EXACT_COUNT_LIMIT the configuration model draws, and a pairing of
    # K_11's 110 stubs is simple about 4e-17 of the time: it stops after its
    # bound with exit 2; the timeout turns a sampler that keeps reshuffling
    # into a failure instead of a stall
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "orl.cli", "sample", "regular", "--rho", "10", "--n", "11",
            "--seed", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == EXIT_INCONCLUSIVE, proc.stderr
    assert proc.stderr == "no simple pairing in 10000 configuration-model shuffles\n"
    assert proc.stdout == ""


FOREIGN_OPTION_CASES = [
    (["matrix", "contains", "--a", "{d}/a.mat", "--b", "{d}/a.mat", "--seed", "5"], "--seed"),
    (["matrix", "contains", "--a", "{d}/a.mat", "--b", "{d}/a.mat", "-o", "{d}/x.mat"], "-o"),
    (["embed", "altpath", "--host", "{d}/h.og", "--n", "3", "--eps", "9"], "--eps"),
    (["sample", "matching", "--n", "3", "--seed", "1", "--mode", "exact"], "--mode"),
    (["construct", "altpath", "3", "--bipartite"], "--bipartite"),
    (["sample", "matching", "--n", "3", "--seed", "1", "--t", "3"], "--t"),
    (["experiment", "coverage", "--og", "{d}/m.og", "--graph", "{d}/m.adj", "--parts", "2",
      "--max-size", "2", "--seed", "1"], "--graph"),
    (["matrix", "unavoid", "--n", "1", "--size", "1", "--trials", "5"], "--trials"),
    (["matrix", "unavoid", "--n", "1", "--size", "1", "--seed", "3"], "--seed"),
]


@pytest.mark.parametrize("argv, flag", FOREIGN_OPTION_CASES)
def test_option_of_another_action_is_a_usage_error(tmp_path, capsys, argv, flag):
    # every input exists, so only the option that this action does not read can fail
    (tmp_path / "a.mat").write_text("mat 2 2\n11\n11\n")
    (tmp_path / "h.og").write_text("og 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    (tmp_path / "m.og").write_text("og 4 2\ne 1 4\ne 2 3\n")
    (tmp_path / "m.adj").write_text("adj 4 2\ne 1 4\ne 2 3\n")
    code, _, err = run(capsys, *(arg.format(d=tmp_path) for arg in argv))
    assert code == EXIT_USAGE and flag in err


def test_no_parser_takes_a_prefix_of_an_option():
    # with prefix matching, --t (montecarlo) would pass as coverage's --trials
    parsers, count = [cli.build_parser()], 0
    while parsers:
        parser = parsers.pop()
        assert parser.allow_abbrev is False, parser.prog
        count += 1
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert count > 27  # the root, the action groups and the 27 actions


def test_manifest_records_no_seed_for_an_unseeded_action(tmp_path, capsys):
    a = tmp_path / "a.mat"
    a.write_text("mat 2 2\n10\n01\n")
    out = tmp_path / "c.mat"
    assert dispatch(["matrix", "complement", "--a", str(a), "-o", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "c.mat.manifest.json").read_text())
    assert manifest["seed"] is None
    # the exhaustive scan reads no seed; the sampled one records its seed
    m = tmp_path / "u.json"
    assert dispatch(["--manifest", str(m), "matrix", "unavoid", "--n", "1", "--size", "1"]) == EXIT_OK
    assert json.loads(m.read_text())["seed"] is None
    assert dispatch(["--manifest", str(m), "matrix", "unavoid", "--n", "1", "--size", "1",
                     "--mode", "sample", "--trials", "2", "--seed", "3"]) == EXIT_INCONCLUSIVE
    assert json.loads(m.read_text())["seed"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "tee", "--host", "{d}/h.og", "--parts", "2,2", "--n", "2", "--eps", "1/0"],
        ["ramsey", "count-regular", "--rho", "5/0", "--n", "4"],
    ],
)
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "h.og").write_text("og 4 0\n")
    code, _, err = run(capsys, *(arg.format(d=tmp_path) for arg in argv))
    assert code == EXIT_USAGE and "zero denominator" in err


def readme_commands() -> list[str]:
    """The code lines of README "Command line", `\\` continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 26 and all(line.startswith("orl ") for line in commands)
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_unexpected_exception_is_an_internal_fault(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("not an input error")

    monkeypatch.setattr(cli.patterns, "permutation_unavoidable", broken)
    code, _, err = run(capsys, "matrix", "unavoid", "--n", "1", "--size", "1")
    assert code == EXIT_INTERNAL
    assert "Traceback" in err and "TypeError: not an input error" in err


def test_matrix_contains_deep_pattern(tmp_path, capsys):
    a = tmp_path / "a.mat"
    a.write_text("mat 1500 1\n" + "1\n" * 1500)
    b = tmp_path / "b.mat"
    b.write_text("mat 1200 1\n" + "1\n" * 1200)
    code, out, _ = run(capsys, "matrix", "contains", "--a", str(a), "--b", str(b))
    assert code == EXIT_OK and out.strip() == "true"


def test_threads_option_is_gone(capsys):
    # the search is single-process; a worker-count option would be ignored
    assert dispatch(["--threads", "2", "construct", "altpath", "3"]) == EXIT_USAGE
    code, _, err = run(capsys, "construct", "altpath", "3", "--threads", "2")
    assert code == EXIT_USAGE and "unrecognized arguments: --threads" in err


def test_cli_import_loads_what_commands_use_and_no_dataclasses():
    # start-up is paid by every `orl` run: `import orl.cli` loads every orl
    # module and the stdlib modules the commands use, so none is deferred
    # into a command, and not `dataclasses`, which drags in `inspect`
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import orl.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(Path(cli.__file__).parents[1])],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {
        "orl.core", "orl.constructions", "orl.embedder", "orl.patterns", "orl.rng",
        "orl.ramsey", "orl.stochastic", "hashlib", "json", "fractions", "argparse",
    } <= loaded
