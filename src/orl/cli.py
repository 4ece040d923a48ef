"""Single command-line entry point wiring all modules.

Every run that writes files also writes a JSON run manifest beside its
first output (command line, seed, input hashes, output hashes, timings).
`orl replay <manifest> --outdir <dir>` re-runs the recorded argv verbatim
and checks byte-identical reproduction. Only where files land changes: an
output lands under `--outdir` at its path relative to the deepest common
directory of the recorded outputs' parents, and replay looks for it there.
A replay writes nothing outside `--outdir` and no manifest of its own.

Each action (`matrix contains`, `construct tee`, ...) is its own argparse
subparser that declares only the options it reads, so an option of another
action is a usage error. The parser is built once per process, on the
first `dispatch`.

Exit codes: 0 computed, 1 usage error, 2 capped/inconclusive/not found,
3 internal fault.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import orl
from orl import constructions, embedder, patterns, ramsey, stochastic
from orl.core import (
    BLUE,
    OrderedGraph,
    RED,
    parse_coloring,
    parse_ordered_graph,
    parse_unordered_graph,
    serialize_coloring,
    serialize_ordered_graph,
    serialize_unordered_graph,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INTERNAL = 3


class RunContext:
    """Collects inputs/outputs of one invocation for the manifest.

    `redirect`, set only by a replay, maps each output path to the file
    actually written; `outputs` keeps the paths the command asked for.
    """

    def __init__(self, argv: list[str], redirect: Optional[Callable[[str], Path]] = None):
        self.argv = list(argv)
        self.redirect = redirect
        self.seed: Optional[int] = None
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.started = time.time()

    def read(self, path: str, parse: Callable[[str], Any]) -> Any:
        """`parse` of the text of the file at `path`, the one way commands read
        files; a ValueError (a FormatError, a JSON or decoding error) is raised
        again with the path in front: `g.og: line 2: ...`.  A MemoryError
        (a header that claims more than memory holds) is one too."""
        p = Path(path)
        self.inputs.append(p)
        try:
            return parse(p.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except MemoryError:
            raise ValueError(f"{path}: too large to read") from None

    def write_text(self, path: str, text: str) -> None:
        target = self.redirect(path) if self.redirect else Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        self.outputs.append(Path(path))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(ctx: RunContext, override: Optional[str]) -> Optional[Path]:
    if not ctx.outputs and override is None:
        return None
    target = Path(override if override is not None else f"{ctx.outputs[0]}.manifest.json")
    manifest = {
        "tool": "orl",
        "version": orl.__version__,
        "python": sys.version.split()[0],
        "argv": ctx.argv,
        "seed": ctx.seed,
        "inputs": [
            {"path": str(p), "sha256": _sha256(p)} for p in ctx.inputs if p.exists()
        ],
        "outputs": [
            {"path": str(p), "sha256": _sha256(p)} for p in ctx.outputs
        ],
        "wall_time_s": round(time.time() - ctx.started, 6),
        "timestamp": int(ctx.started),
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def _parse_fraction(option: str, text: str, at_most: Optional[int] = None) -> Fraction:
    """A positive fraction option, at most `at_most` when given; a
    ValueError names the option."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option} {text}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{option} {text}: {exc}") from None
    if value <= 0:
        raise ValueError(f"{option} {text}: must be positive")
    if at_most is not None and value > at_most:
        raise ValueError(f"{option} {text}: must lie in (0, {at_most}]")
    return value


def _parse_parts(text: str, n: int) -> int:
    """The common size of the `--parts` intervals, which must be equal,
    positive and sum to n; a ValueError names the option."""
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--parts {text}: {exc}") from None
    if len(set(sizes)) != 1 or sizes[0] < 1:
        raise ValueError(f"--parts {text}: interval sizes must be equal and positive")
    if sum(sizes) != n:
        raise ValueError(f"--parts {text}: interval sizes must sum to the host size {n}")
    return sizes[0]


def _count(text: str) -> int:
    """The argparse type of a count option: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fields(record, label: str, **kinds: type) -> list:
    """The named fields of the JSON object `record`, each checked to have its
    type in `kinds` (a bool is not an int); else a ValueError naming it."""
    if type(record) is not dict:
        raise ValueError(f"{label} must be a JSON object")
    for name, kind in kinds.items():
        if type(record.get(name)) is not kind:
            raise ValueError(f"{label} field `{name}` must be of type {kind.__name__}")
    return [record[name] for name in kinds]


def _emit(ctx: RunContext, path: Optional[str], text: str) -> None:
    """Write `text` to `path`, or to stdout when no path was given."""
    if path:
        ctx.write_text(path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

# kind -> (integer parameter names, builder); `tworeg` takes any number of
# cycle lengths and is built in `cmd_construct`
CONSTRUCTIONS = {
    "altpath": (("n",), constructions.alternating_path),
    "nestmatch": (("pairs",), constructions.nested_matching),
    "kbip": (("r", "s"), constructions.complete_bipartite),
    "altcycle": (("m",), constructions.alternating_cycle),
    "blowup": (("n", "k"), constructions.blowup_path),
    "tee": (("n", "k"), constructions.tee_graph),
    "eff": (("n", "k"), constructions.eff_graph),
    "quadlb": (("n",), constructions.quadratic_lb_instance),
}


def cmd_construct(args, ctx: RunContext) -> int:
    if args.kind == "tworeg":
        spec = constructions.TwoRegularSpec(tuple(args.lengths))
        built = constructions.order_two_regular(spec, bipartite_mode=args.bipartite)
    else:
        names, build = CONSTRUCTIONS[args.kind]
        built = build(*(getattr(args, name) for name in names))
    blocked = coloring = None
    if isinstance(built, constructions.BlockedOrderedGraph):
        blocked, graph = built, built.graph
    elif isinstance(built, tuple):  # quadlb: the graph and its interval coloring
        graph, coloring = built
    else:
        graph = built

    out = args.out
    outputs = [(out, serialize_ordered_graph(graph))]
    if blocked is not None:
        outputs.append((out and out + ".blocks", constructions.serialize_blocks(blocked)))
    if coloring is not None:
        outputs.append((out and str(Path(out).with_suffix(".col")), serialize_coloring(coloring)))
    for path, text in outputs:
        _emit(ctx, path, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def cmd_embed(args, ctx: RunContext) -> int:
    host = ctx.read(args.host, parse_ordered_graph)
    if args.algo == "altpath":
        if args.n > host.n:
            raise ValueError(f"--n {args.n}: must be at most the host size {host.n}")
        emb = embedder.find_alternating_path(host, args.n)
        stage = None if emb else "no-surviving-edge"
    else:
        d = _parse_parts(args.parts, host.n)
        if args.algo == "blowup":
            result = embedder.blowup_pipeline(host, d, args.n, args.k)
        else:
            eps = _parse_fraction("--eps", args.eps, at_most=1)
            result = embedder.tee_pipeline(host, d, args.n, args.k, eps)
        emb, stage = result.embedding, result.failed_stage
    if emb is None:
        print(f"NONE {stage}")
        return EXIT_INCONCLUSIVE
    print(" ".join(str(v) for v in emb.image))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------

def _emit_ramsey_certs(ctx: RunContext, outdir: str, result: ramsey.RamseyResult) -> None:
    base = Path(outdir)
    if result.lower is not None:
        ctx.write_text(str(base / f"lower_N{result.lower.n}.col"), serialize_coloring(result.lower))
    if result.upper is not None:
        payload = {
            "kind": "upper",
            "N": result.value,
            "nodes": result.upper.nodes,
            "prunes": result.upper.prunes,
            "pattern": serialize_ordered_graph(result.pattern),
        }
        ctx.write_text(
            str(base / f"upper_N{result.value}.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )


def _check_nmax(nmax: Optional[int], size: int) -> None:
    """`--nmax` below the pattern size is a ValueError naming the option."""
    if nmax is not None and nmax < size:
        raise ValueError(f"--nmax {nmax}: must be at least the pattern size {size}")


def cmd_ramsey_exact(args, ctx: RunContext) -> int:
    pattern = ctx.read(args.pattern, parse_ordered_graph)
    _check_nmax(args.nmax, pattern.n)
    result = ramsey.ordered_ramsey(pattern, args.nmax)
    if args.emit_cert:
        _emit_ramsey_certs(ctx, args.emit_cert, result)
    print(result.describe())
    return EXIT_OK if result.exact else EXIT_INCONCLUSIVE


def cmd_ramsey_minmax(args, ctx: RunContext) -> int:
    graph = ctx.read(args.graph, parse_unordered_graph)
    _check_nmax(args.nmax, graph.n)
    report = ramsey.min_max_ordered_ramsey(graph, args.nmax)
    for order, res in report.results:
        edges = ",".join(f"{a}-{b}" for a, b in res.pattern.sorted_edges())
        print(f"ordering {' '.join(map(str, order))} edges {edges} OR {res.describe()}")
    print(f"minr {report.minr.describe()}")
    print(f"maxr {report.maxr.describe()}")
    if args.emit_cert:
        for idx, (_, res) in enumerate(report.results):
            sub = str(Path(args.emit_cert) / f"ordering{idx}")
            _emit_ramsey_certs(ctx, sub, res)
    capped = any(not res.exact for _, res in report.results)
    return EXIT_INCONCLUSIVE if capped else EXIT_OK


def _upper_certificate(text: str) -> tuple[OrderedGraph, int]:
    """The pattern and N of an upper certificate as `_emit_ramsey_certs` writes it."""
    kind, n, pattern = _fields(json.loads(text), "json certificate", kind=str, N=int, pattern=str)
    if kind != "upper":
        raise ValueError("json certificate field `kind` must be 'upper'")
    if n < 0:
        raise ValueError("json certificate field `N` must be non-negative")
    return parse_ordered_graph(pattern), n


def cmd_verify(args, ctx: RunContext) -> int:
    pattern = ctx.read(args.pattern, parse_ordered_graph)
    if Path(args.cert).suffix == ".json":
        own, cert = ctx.read(args.cert, _upper_certificate)
    else:
        own, cert = pattern, ctx.read(args.cert, parse_coloring)
    # an upper certificate for another pattern is false without a search, and
    # one whose copy table would pass the bound is inconclusive without one
    if own == pattern and isinstance(cert, int):
        overflow = ramsey.table_overflow(pattern, cert)
        if overflow:
            print(f"{args.cert}: cannot re-run the search at N = {cert}: {overflow}",
                  file=sys.stderr)
            return EXIT_INCONCLUSIVE
    ok = own == pattern and ramsey.verify_certificate(pattern, cert)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def cmd_ramsey_count_regular(args, ctx: RunContext) -> int:
    rho = _parse_fraction("--rho", args.rho)
    limit = ramsey.EXACT_COUNT_LIMIT
    if args.n > limit:
        raise ValueError(f"--n {args.n}: exact enumeration is limited to n <= {limit}")
    report = ramsey.count_rho_regular(rho, args.n)
    print(f"exact {report.exact_count}")
    if report.formula_lower_bound is not None:
        print(f"formula {report.formula_lower_bound!r}")
    else:
        print("formula n/a")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args, ctx: RunContext) -> int:
    if args.what == "matching":
        graph = stochastic.sample_permutation_matching(args.n, args.seed)
        text = serialize_ordered_graph(graph)
    elif args.what == "regular":
        rho = _parse_fraction("--rho", args.rho)
        graph = stochastic.sample_rho_regular(rho, args.n, args.seed)
        if graph is None:
            print(f"no simple pairing in {stochastic.MAX_RESHUFFLES} configuration-model"
                  " shuffles", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        text = serialize_unordered_graph(graph)
    else:
        coloring = stochastic.blown_up_random_coloring(args.t, args.s, args.seed)
        text = serialize_coloring(coloring)
    _emit(ctx, args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _report_lines(args, ctx: RunContext, lines: list[dict]) -> None:
    payload = "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"
    _emit(ctx, args.report, payload)


def cmd_experiment_coverage(args, ctx: RunContext) -> int:
    if args.og:
        graph = ctx.read(args.og, parse_ordered_graph)
    elif args.graph:
        graph = ctx.read(args.graph, parse_unordered_graph)
    else:
        raise ValueError("`experiment coverage` requires --og or --graph")
    trials = stochastic.coverage_experiment(
        graph, args.parts, args.max_size, args.trials, args.seed
    )
    lines = [
        {
            "trial": k,
            "seed": tr.seed,
            "covered_pairs": tr.covered_pairs,
            "parts": tr.part_count,
            "max_size": tr.max_size,
        }
        for k, tr in enumerate(trials)
    ]
    lines.append(
        {"summary": "min_covered", "value": min(tr.covered_pairs for tr in trials)}
    )
    _report_lines(args, ctx, lines)
    return EXIT_OK


def cmd_experiment_montecarlo(args, ctx: RunContext) -> int:
    if (args.t is None) != (args.s is None):
        raise ValueError("--t and --s must be given together")
    pattern = ctx.read(args.pattern, parse_ordered_graph)
    if args.t is not None:
        t, s = args.t, args.s
    elif pattern.n < 3:
        raise ValueError(f"--t and --s are required for a pattern on {pattern.n} vertices")
    else:  # the blow-up shape for a random matching with the pattern's pair count
        t, s = stochastic.matching_blowup_shape((pattern.n + 1) // 2)
    report = stochastic.monte_carlo_avoidance(pattern, t, s, args.trials, args.seed)
    cert_path = None
    if report.certificate is not None and args.emit_cert:
        cert_path = str(Path(args.emit_cert) / f"avoid_N{s * t}.col")
        ctx.write_text(cert_path, serialize_coloring(report.certificate))
    lines = [
        {
            "trial": tr.trial,
            "seed": tr.seed,
            "outcome": "avoided" if tr.avoided else "contained",
            "certificate": cert_path if tr.avoided else None,
        }
        for tr in report.trials
    ]
    lines.append(
        {
            "summary": "avoidance_fraction",
            "value": str(report.avoidance_fraction),
            "t": t,
            "s": s,
        }
    )
    _report_lines(args, ctx, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def cmd_matrix_contains(args, ctx: RunContext) -> int:
    a = ctx.read(args.a, patterns.parse_matrix)
    b = ctx.read(args.b, patterns.parse_matrix)
    ok = patterns.pattern_contained(a, b)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def cmd_matrix_unavoid(args, ctx: RunContext) -> int:
    if args.mode == "sample" and args.seed is None:
        raise ValueError("`matrix unavoid --mode sample` requires --seed")
    if args.mode == "exhaustive" and (args.trials is not None or args.seed is not None):
        raise ValueError("--trials and --seed need `--mode sample`")
    report = patterns.permutation_unavoidable(
        args.n, args.size, mode=args.mode,
        trials=1000 if args.trials is None else args.trials, seed=args.seed or 0,
    )
    if report.holds:
        print("true" if report.exhaustive else "true (sampled)")
        return EXIT_OK if report.exhaustive else EXIT_INCONCLUSIVE
    print("false")
    sys.stdout.write(patterns.serialize_matrix(report.counterexample_matrix))
    sys.stdout.write(patterns.serialize_matrix(report.counterexample_pattern))
    return EXIT_OK


def cmd_matrix(args, ctx: RunContext) -> int:
    """`complement`, `from-matching` and `from-coloring`: one matrix out."""
    if args.action == "complement":
        matrix = patterns.complement(ctx.read(args.a, patterns.parse_matrix))
    elif args.action == "from-matching":
        matrix = patterns.matching_matrix(ctx.read(args.og, parse_ordered_graph))
    else:
        coloring = ctx.read(args.col, parse_coloring)
        matrix = patterns.coloring_matrix(coloring, args.color)
    _emit(ctx, args.out, patterns.serialize_matrix(matrix))
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _replay_manifest(text: str) -> tuple[list[str], dict[str, str]]:
    """The recorded argv and output digests of a run manifest; the argv must
    parse and must not be a replay, so a replay never runs itself."""
    argv, outputs = _fields(json.loads(text), "manifest", argv=list, outputs=list)
    if not all(type(arg) is str for arg in argv):
        raise ValueError("manifest field `argv` must be a list of strings")
    try:
        command = _parser().parse_args(argv).command
    except SystemExit:
        raise ValueError("manifest field `argv` is not an orl command line") from None
    if command == "replay":
        raise ValueError("manifest field `argv` must not be a replay")
    return argv, dict(_fields(out, "manifest output", path=str, sha256=str) for out in outputs)


def cmd_replay(args, ctx: RunContext) -> int:
    argv, recorded = ctx.read(args.manifest, _replay_manifest)
    parents = [os.path.dirname(os.path.abspath(path)) for path in recorded]
    base = Path(os.path.commonpath(parents)) if parents else None
    outdir = Path(args.outdir)

    def replayed(path: str) -> Path:
        """Where the replay writes, and then looks for, the output `path`."""
        absolute = Path(os.path.abspath(path))
        if base is None or not absolute.is_relative_to(base):
            raise ValueError(f"replay: {path} is not under the recorded outputs' directory")
        return outdir / absolute.relative_to(base)

    code = dispatch(argv, redirect=replayed)
    if code not in (EXIT_OK, EXIT_INCONCLUSIVE):
        print(f"replay: command exited with {code}")
        return EXIT_INTERNAL
    mismatches = 0
    for original, digest in recorded.items():
        found = replayed(original)
        if not found.is_file() or _sha256(found) != digest:
            print(f"MISMATCH {original} -> {found if found.is_file() else 'missing'}")
            mismatches += 1
    if mismatches:
        return EXIT_INTERNAL
    print(f"replayed {len(recorded)} output(s) byte-identically")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes no prefix of an option for the option, so
    that an option of another action never passes as one of this action's.
    `add_subparsers` builds nested parsers with the class of their parent."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The `orl` parser: one subparser per action, declaring only the
    options that action reads."""
    parser = _Parser(
        prog="orl", description="ordered Ramsey constructions, searches, and certificates"
    )
    parser.add_argument("--manifest", default=None, help="override the run-manifest path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named ordered graph")
    p.set_defaults(func=cmd_construct)
    csub = p.add_subparsers(dest="kind", required=True)
    for kind, (names, _) in CONSTRUCTIONS.items():
        q = csub.add_parser(kind)
        for name in names:
            q.add_argument(name, type=int)
    q = csub.add_parser("tworeg")
    q.add_argument("lengths", nargs="+", type=int, help="cycle lengths")
    q.add_argument("--bipartite", action="store_true", help="even-cycle mode")
    for q in csub.choices.values():
        q.add_argument("-o", "--out", default=None)

    p = sub.add_parser("embed", help="run a witness-extraction algorithm")
    p.set_defaults(func=cmd_embed)
    asub = p.add_subparsers(dest="algo", required=True)
    for algo in ("altpath", "blowup", "tee"):
        q = asub.add_parser(algo)
        q.add_argument("--host", required=True)
        q.add_argument("--n", type=_count, required=True)
        if algo != "altpath":
            q.add_argument("--parts", required=True, help="comma-separated equal interval sizes")
            q.add_argument("--k", type=_count, default=1)
        if algo == "tee":
            q.add_argument("--eps", default="1/8", help="rational like 1/8")

    p = sub.add_parser("ramsey", help="exact ordered Ramsey computations")
    rsub = p.add_subparsers(dest="action", required=True)

    q = rsub.add_parser("exact")
    q.add_argument("--pattern", required=True)
    q.add_argument("--nmax", type=int, default=None)
    q.add_argument("--emit-cert", default=None)
    q.set_defaults(func=cmd_ramsey_exact)

    q = rsub.add_parser("minmax")
    q.add_argument("--graph", required=True)
    q.add_argument("--nmax", type=int, required=True)
    q.add_argument("--emit-cert", default=None)
    q.set_defaults(func=cmd_ramsey_minmax)

    q = rsub.add_parser("count-regular")
    q.add_argument("--rho", required=True, help="rational like 5/2")
    q.add_argument("--n", type=_count, required=True)
    q.set_defaults(func=cmd_ramsey_count_regular)

    p = sub.add_parser("sample", help="seeded random models")
    p.set_defaults(func=cmd_sample)
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("-o", "--out", default=None)
    ssub = p.add_subparsers(dest="what", required=True)
    q = ssub.add_parser("matching", parents=[seeded])
    q.add_argument("--n", type=_count, required=True)
    q = ssub.add_parser("regular", parents=[seeded])
    q.add_argument("--rho", required=True, help="rational like 5/2")
    q.add_argument("--n", type=_count, required=True)
    q = ssub.add_parser("coloring", parents=[seeded])
    q.add_argument("--t", type=_count, required=True)
    q.add_argument("--s", type=_count, required=True)

    p = sub.add_parser("experiment", help="seeded experiments (JSON lines)")
    esub = p.add_subparsers(dest="what", required=True)

    q = esub.add_parser("coverage")
    source = q.add_mutually_exclusive_group()
    source.add_argument("--og", default=None)
    source.add_argument("--graph", default=None)
    q.add_argument("--parts", type=_count, required=True)
    q.add_argument("--max-size", type=_count, required=True)
    q.add_argument("--trials", type=_count, default=20)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_experiment_coverage)

    q = esub.add_parser("montecarlo")
    q.add_argument("--pattern", required=True)
    q.add_argument("--t", type=_count, default=None, help="with --s; default from the pattern")
    q.add_argument("--s", type=_count, default=None, help="with --t")
    q.add_argument("--trials", type=_count, default=20)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--emit-cert", default=None)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_experiment_montecarlo)

    p = sub.add_parser("matrix", help="binary matrix pattern operations")
    msub = p.add_subparsers(dest="action", required=True)

    q = msub.add_parser("contains")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.set_defaults(func=cmd_matrix_contains)

    q = msub.add_parser("unavoid")
    q.add_argument("--n", type=_count, required=True)
    q.add_argument("--size", type=_count, required=True)
    q.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    q.add_argument("--trials", type=_count, default=None, help="sample mode only (default 1000)")
    q.add_argument("--seed", type=int, default=None, help="sample mode only, and required there")
    q.set_defaults(func=cmd_matrix_unavoid)

    for action, source in (("complement", "--a"), ("from-matching", "--og"),
                           ("from-coloring", "--col")):
        q = msub.add_parser(action)
        q.add_argument(source, required=True)
        if action == "from-coloring":
            q.add_argument("--color", choices=[RED, BLUE], default=RED)
        q.add_argument("-o", "--out", default=None)
        q.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify", help="verify a certificate against a pattern")
    p.add_argument("--cert", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    p.add_argument("manifest")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first `dispatch`."""
    return build_parser()


def dispatch(argv: list[str], redirect: Optional[Callable[[str], Path]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    ctx = RunContext(argv, redirect)
    ctx.seed = getattr(args, "seed", None)
    try:
        code = args.func(args, ctx)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # anything else is a fault in orl, not in its input or arguments;
        # traceback is imported only on this path to keep start-up lean
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    if args.command != "replay" and redirect is None:
        write_manifest(ctx, args.manifest)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
