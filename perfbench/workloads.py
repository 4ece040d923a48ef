"""Workloads: seeded inputs, the command list of one pass, and output checks.

Inputs come from `random.Random(seed)`, never from orl's own generator, so a
change to the program's PRNG cannot change a workload.  Every path in a
command is relative to the pass directory: inputs live in `in/`, and command
`i` writes only under `out/c<i>/`, so its outputs can be digested on their
own.  The checks in this module import no orl code.
"""

from __future__ import annotations

import functools
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Optional

# (file stem, vertex count, edges, ordered Ramsey value)
RAMSEY_CORPUS = (
    ("k3", 3, ((1, 2), (1, 3), (2, 3)), 6),
    ("m12_34", 4, ((1, 2), (3, 4)), 6),
    ("m14_23", 4, ((1, 4), (2, 3)), 6),
    ("g12_14_23", 4, ((1, 2), (1, 4), (2, 3)), 9),
    ("g12_13_24", 4, ((1, 2), (1, 3), (2, 4)), 9),
    ("g12_23_24", 4, ((1, 2), (2, 3), (2, 4)), 9),
    ("g13_14_23_24", 4, ((1, 3), (1, 4), (2, 3), (2, 4)), 10),
)
RAMSEY_NMAX = 10

# montecarlo: random permutation matchings on 2 * MC_PAIRS positions against
# blown-up colorings of K_{MC_T * MC_S}.  With 10 pairs on 24 positions most
# trials avoid the pattern, so each trial is a full memo-on search and the
# cost of a pass varies little between seeds.
MC_PATTERNS, MC_PAIRS, MC_T, MC_S, MC_TRIALS = 24, 10, 8, 3, 6

# embed: large hosts for altpath/blowup, mid-size dense hosts for tee.  Tee
# on sparser hosts has a heavy-tailed cost (seconds for a few hosts in a
# hundred), which would swamp the pass time.
BIG_HOSTS, BIG_N, BIG_P = 12, 240, 0.5
ALT_N = 12
BLOWUP_PARTS, BLOWUP_N, BLOWUP_K = (6,) * 40, 4, 2
TEE_HOSTS, TEE_N, TEE_P = 40, 40, 0.8
TEE_PARTS, TEE_NPAIRS, TEE_K, TEE_EPS = (4,) * 10, 2, 1, "1/8"

# matrix: the exhaustive 2-in-4 scan plus seeded samples of 3-in-6
MATRIX_SAMPLES, MATRIX_TRIALS = 4, 1000

EMBED_STAGES = {
    "no-surviving-edge", "bipartite-cliques", "alternating-path", "triangles",
    "long-right-legs", "split-index", "supported-left-legs", "first-matching",
    "interval-links", "second-matching",
}


def write_og(path: Path, n: int, edges) -> None:
    edges = sorted(edges)
    path.write_text(
        f"og {n} {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges)
    )


@functools.lru_cache(maxsize=None)  # inputs do not change within a run
def read_og(path: Path) -> tuple[int, set]:
    lines = path.read_text().split("\n")
    n = int(lines[0].split()[1])
    edges = set()
    for line in lines[1:]:
        if line:
            _, i, j = line.split()
            edges.add((int(i), int(j)))
    return n, edges


def random_host(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]


def random_matching(rng: random.Random, pairs: int) -> list[tuple[int, int]]:
    targets = list(range(pairs + 1, 2 * pairs + 1))
    rng.shuffle(targets)
    return [(i + 1, t) for i, t in enumerate(targets)]


def command(argv: list[str], check: str, needs: Optional[str] = None, **params) -> dict:
    """One CLI call; `check` names its checker, `needs` a file it reads
    that an earlier command may or may not have written."""
    return {"argv": argv, "check": check, "needs": needs, "params": params}


# ---------------------------------------------------------------------------
# command lists
# ---------------------------------------------------------------------------

def ramsey_exact(seed: int, indir: Path) -> list[dict]:
    # seed-independent on purpose: the values are goldens
    cmds = []
    for stem, n, edges, value in RAMSEY_CORPUS:
        pattern = f"in/{stem}.og"
        write_og(indir / f"{stem}.og", n, edges)
        out = f"out/c{len(cmds)}"
        cmds.append(command(
            ["ramsey", "exact", "--pattern", pattern, "--nmax", str(RAMSEY_NMAX),
             "--emit-cert", out],
            "ramsey_exact", value=value,
        ))
        for cert in (f"{out}/lower_N{value - 1}.col", f"{out}/upper_N{value}.json"):
            cmds.append(command(["verify", "--cert", cert, "--pattern", pattern], "true"))
    return cmds


def montecarlo(seed: int, indir: Path) -> list[dict]:
    rng = random.Random(seed)
    cmds = []
    for k in range(MC_PATTERNS):
        pattern = f"in/m{k}.og"
        write_og(indir / f"m{k}.og", 2 * MC_PAIRS, random_matching(rng, MC_PAIRS))
        out = f"out/c{len(cmds)}"
        run_seed = rng.randrange(1 << 32)
        cmds.append(command(
            ["experiment", "montecarlo", "--pattern", pattern, "--t", str(MC_T),
             "--s", str(MC_S), "--trials", str(MC_TRIALS), "--seed", str(run_seed),
             "--report", f"{out}/report.jsonl", "--emit-cert", out],
            "montecarlo", seed=run_seed, out=out,
        ))
        cert = f"{out}/avoid_N{MC_T * MC_S}.col"
        cmds.append(command(["verify", "--cert", cert, "--pattern", pattern], "true", needs=cert))
    return cmds


def embed(seed: int, indir: Path) -> list[dict]:
    rng = random.Random(seed)
    cmds = []
    for k in range(BIG_HOSTS):
        host = f"in/h{k}.og"
        write_og(indir / f"h{k}.og", BIG_N, random_host(rng, BIG_N, BIG_P))
        cmds.append(command(
            ["embed", "altpath", "--host", host, "--n", str(ALT_N)],
            "embed", host=host, pattern=["altpath", ALT_N],
        ))
        cmds.append(command(
            ["embed", "blowup", "--host", host, "--parts", ",".join(map(str, BLOWUP_PARTS)),
             "--n", str(BLOWUP_N), "--k", str(BLOWUP_K)],
            "embed", host=host, pattern=["blowup", BLOWUP_N, BLOWUP_K],
        ))
    for k in range(TEE_HOSTS):
        host = f"in/t{k}.og"
        write_og(indir / f"t{k}.og", TEE_N, random_host(rng, TEE_N, TEE_P))
        cmds.append(command(
            ["embed", "tee", "--host", host, "--parts", ",".join(map(str, TEE_PARTS)),
             "--n", str(TEE_NPAIRS), "--k", str(TEE_K), "--eps", TEE_EPS],
            "embed", host=host, pattern=["tee", TEE_NPAIRS, TEE_K],
        ))
    return cmds


def matrix(seed: int, indir: Path) -> list[dict]:
    rng = random.Random(seed)
    cmds = [command(["matrix", "unavoid", "--n", "2", "--size", "4"], "true")]
    for _ in range(MATRIX_SAMPLES):
        cmds.append(command(
            ["matrix", "unavoid", "--n", "3", "--size", "6", "--mode", "sample",
             "--trials", str(MATRIX_TRIALS), "--seed", str(rng.randrange(1 << 32))],
            "matrix_sample",
        ))
    return cmds


WORKLOADS = {
    "ramsey-exact": ramsey_exact,
    "montecarlo": montecarlo,
    "embed": embed,
    "matrix": matrix,
}


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason
# ---------------------------------------------------------------------------

def check_ramsey_exact(cmd, code, stdout, workdir: Path) -> Optional[str]:
    value = cmd["params"]["value"]
    if code != 0 or stdout.strip() != str(value):
        return f"expected exit 0 and {value}, got exit {code}: {stdout.strip()!r}"
    out = workdir / cmd["argv"][-1]
    if not (out / f"lower_N{value - 1}.col").is_file():
        return "lower certificate missing"
    upper = json.loads((out / f"upper_N{value}.json").read_text())
    if upper.get("N") != value or not isinstance(upper.get("nodes"), int):
        return "upper certificate has the wrong N or no node count"
    return None


def check_true(cmd, code, stdout, workdir: Path) -> Optional[str]:
    if code != 0 or stdout.strip() != "true":
        return f"expected exit 0 and true, got exit {code}: {stdout.strip()!r}"
    return None


def check_montecarlo(cmd, code, stdout, workdir: Path) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    seed, out = cmd["params"]["seed"], cmd["params"]["out"]
    cert = f"{out}/avoid_N{MC_T * MC_S}.col"
    records = [json.loads(line) for line in (workdir / out / "report.jsonl").read_text().splitlines()]
    trials, summary = records[:-1], records[-1]
    if [r["trial"] for r in trials] != list(range(MC_TRIALS)):
        return "report does not list every trial once"
    avoided = 0
    for r in trials:
        if r["seed"] != seed ^ r["trial"] or r["outcome"] not in ("avoided", "contained"):
            return f"bad trial record {r}"
        hit = r["outcome"] == "avoided"
        avoided += hit
        if r["certificate"] != (cert if hit else None):
            return f"trial {r['trial']} cites the wrong certificate"
    if summary != {"summary": "avoidance_fraction", "value": str(Fraction(avoided, MC_TRIALS)),
                   "t": MC_T, "s": MC_S}:
        return f"bad summary {summary}"
    if avoided:
        head = (workdir / cert).read_text().split("\n", 1)[0]
        if head != f"col {MC_T * MC_S}":
            return "certificate header is wrong"
    return None


def pattern_edges(kind: str, n: int, k: int = 1) -> tuple[int, set]:
    """Edges of the alternating path, its k-blow-up or the tee gadget."""
    order = list(range(1, n + 1, 2)) + list(range(n if n % 2 == 0 else n - 1, 0, -2))
    pos = {v: i for i, v in enumerate(order, start=1)}
    path = {tuple(sorted((pos[v], pos[v + 1]))) for v in range(1, n)}
    if kind == "altpath":
        return n, path
    if kind == "blowup":
        block = lambda i: range((i - 1) * k + 1, i * k + 1)
        return n * k, {(u, v) for i, j in path for u in block(i) for v in block(j)}
    edges = {(i, 2 * n + 1 - i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for w in range(2 * n + (i - 1) * k + 1, 2 * n + i * k + 1):
            edges |= {(i, w), (2 * n + 1 - i, w)}
    return (k + 2) * n, edges


def check_embed(cmd, code, stdout, workdir: Path) -> Optional[str]:
    if code == 2:
        match = re.fullmatch(r"NONE (\S+)", stdout.strip())
        return None if match and match.group(1) in EMBED_STAGES else f"bad NONE line {stdout!r}"
    if code != 0:
        return f"exit {code}"
    size, edges = pattern_edges(*cmd["params"]["pattern"])
    host_n, host = read_og(workdir / cmd["params"]["host"])
    image = [int(tok) for tok in stdout.split()]
    if len(image) != size or not all(1 <= v <= host_n for v in image):
        return f"witness has the wrong length or range: {image}"
    if any(a >= b for a, b in zip(image, image[1:])):
        return "witness is not strictly increasing"
    for a, b in edges:
        if (image[a - 1], image[b - 1]) not in host:
            return f"pattern edge {a}-{b} maps to a non-edge"
    return None


def contained(a: list[str], p: list[str]) -> bool:
    """Brute force: some row and column selections of `a` cover the 1s of `p`."""
    ones = [(r, c) for r, row in enumerate(p) for c, x in enumerate(row) if x == "1"]
    return any(
        all(a[rows[r]][cols[c]] == "1" for r, c in ones)
        for rows in combinations(range(len(a)), len(p))
        for cols in combinations(range(len(a[0])), len(p[0]))
    )


def check_matrix_sample(cmd, code, stdout, workdir: Path) -> Optional[str]:
    lines = stdout.split()
    if code == 2 and stdout.strip() == "true (sampled)":
        return None
    if code != 0 or not lines or lines[0] != "false":
        return f"unexpected exit {code}: {stdout.strip()[:80]!r}"
    # false, then `mat R C` and R rows for the matrix, the same for the pattern
    rows = int(lines[2])
    a = lines[4:4 + rows]
    p = lines[4 + rows + 3:]
    flipped = ["".join("1" if x == "0" else "0" for x in row) for row in a]
    if contained(a, p) or contained(flipped, p):
        return "the reported counterexample contains the pattern"
    return None


CHECKS = {
    "ramsey_exact": check_ramsey_exact,
    "true": check_true,
    "montecarlo": check_montecarlo,
    "embed": check_embed,
    "matrix_sample": check_matrix_sample,
}
