"""Single command-line entry point wiring all modules.

Every run that writes files also writes a JSON run manifest beside its
first output (command line, seed, input hashes, output hashes, timings);
`orl replay <manifest> --outdir <dir>` re-executes the recorded command
with outputs redirected and checks byte-identical reproduction.

Exit codes: 0 computed, 1 usage error, 2 capped/inconclusive/not found,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

import orl
from orl import constructions, embedder, patterns, ramsey, stochastic
from orl.core import (
    BLUE,
    FormatError,
    IntervalPartition,
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
    """Collects inputs/outputs of one invocation for the manifest."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self.seed: Optional[int] = None
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.output_args: list[str] = []  # argv tokens that are output locations
        self.started = time.time()

    def read_text(self, path: str) -> str:
        p = Path(path)
        self.inputs.append(p)
        return p.read_text(encoding="utf-8")

    def write_text(self, path: str, text: str) -> None:
        p = Path(path)
        if p.parent and not p.parent.exists():
            p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
        self.outputs.append(p)

    def note_output_arg(self, value: Optional[str]) -> None:
        if value is not None:
            self.output_args.append(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(ctx: RunContext, override: Optional[str]) -> Optional[Path]:
    if not ctx.outputs and override is None:
        return None
    if override is not None:
        target = Path(override)
    else:
        target = Path(str(ctx.outputs[0]) + ".manifest.json")
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
        "output_args": ctx.output_args,
        "wall_time_s": round(time.time() - ctx.started, 6),
        "timestamp": int(ctx.started),
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_parts(text: Optional[str], n: int) -> IntervalPartition:
    if text is None:
        raise ValueError("--parts is required for this algorithm")
    sizes = tuple(int(tok) for tok in text.split(","))
    return IntervalPartition(n, sizes)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args, ctx: RunContext) -> int:
    kind = args.kind
    params = args.params
    blocked = None
    coloring = None

    def want(count: int) -> list[int]:
        if len(params) != count:
            raise ValueError(f"`{kind}` expects {count} integer parameter(s)")
        return [int(p) for p in params]

    if kind == "altpath":
        (n,) = want(1)
        graph = constructions.alternating_path(n)
    elif kind == "nestmatch":
        (pairs,) = want(1)
        graph = constructions.nested_matching(pairs)
    elif kind == "kbip":
        r, s = want(2)
        graph = constructions.complete_bipartite(r, s)
    elif kind == "altcycle":
        (m,) = want(1)
        blocked = constructions.alternating_cycle(m)
        graph = blocked.graph
    elif kind == "blowup":
        n, k = want(2)
        blocked = constructions.blowup_path(n, k)
        graph = blocked.graph
    elif kind == "tee":
        n, k = want(2)
        blocked = constructions.tee_graph(n, k)
        graph = blocked.graph
    elif kind == "eff":
        n, k = want(2)
        blocked = constructions.eff_graph(n, k)
        graph = blocked.graph
    elif kind == "tworeg":
        lengths = tuple(int(p) for p in params)
        spec = constructions.TwoRegularSpec(lengths)
        graph = constructions.order_two_regular(spec, bipartite_mode=args.bipartite)
    elif kind == "quadlb":
        (n,) = want(1)
        graph, coloring = constructions.quadratic_lb_instance(n)
    else:
        raise ValueError(f"unknown construction `{kind}`")

    text = serialize_ordered_graph(graph)
    if args.out:
        ctx.write_text(args.out, text)
        if blocked is not None:
            ctx.write_text(args.out + ".blocks", constructions.serialize_blocks(blocked))
        if coloring is not None:
            ctx.write_text(
                str(Path(args.out).with_suffix(".col")), serialize_coloring(coloring)
            )
    else:
        sys.stdout.write(text)
        if blocked is not None:
            sys.stdout.write(constructions.serialize_blocks(blocked))
        if coloring is not None:
            sys.stdout.write(serialize_coloring(coloring))
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def cmd_embed(args, ctx: RunContext) -> int:
    host = parse_ordered_graph(ctx.read_text(args.host))
    if args.algo == "altpath":
        emb = embedder.find_alternating_path(host, args.n)
        stage = None if emb else "no-surviving-edge"
    elif args.algo == "blowup":
        parts = _parse_parts(args.parts, host.n)
        result = embedder.blowup_pipeline(host, parts, args.n, args.k)
        emb, stage = result.embedding, result.failed_stage
    elif args.algo == "tee":
        parts = _parse_parts(args.parts, host.n)
        eps = _parse_fraction(args.eps)
        result = embedder.tee_pipeline(host, parts, args.n, args.k, eps)
        emb, stage = result.embedding, result.failed_stage
    else:
        raise ValueError(f"unknown embed algorithm `{args.algo}`")
    if emb is None:
        print(f"NONE {stage}")
        return EXIT_INCONCLUSIVE
    print(" ".join(str(v) for v in emb.image))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------

def _emit_ramsey_certs(ctx: RunContext, outdir: str, result) -> None:
    base = Path(outdir)
    if result.lower is not None:
        ctx.write_text(
            str(base / f"lower_N{result.lower.N}.col"),
            serialize_coloring(result.lower.coloring),
        )
    if result.upper is not None:
        payload = {
            "kind": "upper",
            "N": result.upper.N,
            "nodes": result.upper.stats.nodes if result.upper.stats else None,
            "prunes": result.upper.stats.prunes if result.upper.stats else None,
            "pattern": serialize_ordered_graph(result.upper.pattern),
        }
        ctx.write_text(
            str(base / f"upper_N{result.upper.N}.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )


def cmd_ramsey_exact(args, ctx: RunContext) -> int:
    pattern = parse_ordered_graph(ctx.read_text(args.pattern))
    nmax = args.nmax if args.nmax is not None else ramsey.default_nmax(pattern)
    result = ramsey.ordered_ramsey(pattern, nmax)
    if args.emit_cert:
        ctx.note_output_arg(args.emit_cert)
        _emit_ramsey_certs(ctx, args.emit_cert, result)
    print(result.describe())
    return EXIT_OK if result.exact else EXIT_INCONCLUSIVE


def cmd_ramsey_minmax(args, ctx: RunContext) -> int:
    graph = parse_unordered_graph(ctx.read_text(args.graph))
    report = ramsey.min_max_ordered_ramsey(graph, args.nmax)
    for pattern, order, res in report.results:
        edges = ",".join(f"{a}-{b}" for a, b in pattern.sorted_edges())
        print(f"ordering {' '.join(map(str, order))} edges {edges} OR {res.describe()}")
    print(f"minr {report.minr.describe()}")
    print(f"maxr {report.maxr.describe()}")
    if args.emit_cert:
        ctx.note_output_arg(args.emit_cert)
        for idx, (_, _, res) in enumerate(report.results):
            sub = str(Path(args.emit_cert) / f"ordering{idx}")
            _emit_ramsey_certs(ctx, sub, res)
    capped = any(not res.exact for _, _, res in report.results)
    return EXIT_INCONCLUSIVE if capped else EXIT_OK


def cmd_verify(args, ctx: RunContext) -> int:
    pattern = parse_ordered_graph(ctx.read_text(args.pattern))
    cert_path = Path(args.cert)
    if cert_path.suffix == ".json":
        payload = json.loads(ctx.read_text(args.cert))
        if payload.get("kind") != "upper":
            raise ValueError("json certificates must have kind 'upper'")
        stored = parse_ordered_graph(payload["pattern"])
        if stored != pattern:
            print("false")
            return EXIT_INCONCLUSIVE
        cert = ramsey.Certificate("upper", pattern, int(payload["N"]))
    else:
        coloring = parse_coloring(ctx.read_text(args.cert))
        cert = ramsey.Certificate("lower", pattern, coloring.n, coloring=coloring)
    ok = ramsey.verify_certificate(cert)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def cmd_ramsey_count_regular(args, ctx: RunContext) -> int:
    rho = _parse_fraction(args.rho)
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
    ctx.seed = args.seed
    if args.what == "matching":
        graph = stochastic.sample_permutation_matching(args.n, args.seed)
        text = serialize_ordered_graph(graph)
    elif args.what == "regular":
        graph = stochastic.sample_rho_regular(
            _parse_fraction(args.rho), args.n, args.seed, mode=args.mode
        )
        text = serialize_unordered_graph(graph)
    elif args.what == "coloring":
        coloring = stochastic.blown_up_random_coloring(args.t, args.s, args.seed)
        text = serialize_coloring(coloring)
    else:
        raise ValueError(f"unknown sample kind `{args.what}`")
    if args.out:
        ctx.write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _report_lines(args, ctx: RunContext, lines: list[dict]) -> None:
    payload = "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"
    if args.report:
        ctx.write_text(args.report, payload)
    else:
        sys.stdout.write(payload)


def cmd_experiment_pairprob(args, ctx: RunContext) -> int:
    ctx.seed = args.seed
    n = args.n
    lines = []
    for k in range(args.trials):
        gen = stochastic.stream_for_trial(args.seed, k)
        d = 2
        picks = gen.subset(n, min(n, 2 * d))
        left = [frozenset({picks[0]}), frozenset({picks[1]})]
        rpicks = gen.subset(n, min(n, 2 * d))
        right = [frozenset({n + rpicks[0]}), frozenset({n + rpicks[1]})]
        query = stochastic.PairSetQuery(
            tuple(left), tuple(right), ((1, 1), (1, 2), (2, 1), (2, 2))
        )
        exact = stochastic.matching_pair_probability(query, n)
        s_cap = 1  # |X_d| * |Y_d| with singleton sets
        bound = stochastic.pairset_avoidance_bound(d, 4, s_cap, n)
        lines.append(
            {
                "trial": k,
                "seed": args.seed ^ k,
                "exact": str(exact),
                "bound": bound,
                "bound_applies": bound < 1,
                "holds": (not bound < 1) or float(exact) < bound,
            }
        )
    _report_lines(args, ctx, lines)
    return EXIT_OK


def cmd_experiment_coverage(args, ctx: RunContext) -> int:
    ctx.seed = args.seed
    if args.og:
        graph = parse_ordered_graph(ctx.read_text(args.og))
    else:
        graph = parse_unordered_graph(ctx.read_text(args.graph))
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
    ctx.seed = args.seed
    pattern = parse_ordered_graph(ctx.read_text(args.pattern))
    if args.config_n is not None:
        cfg = stochastic.ExperimentConfig.for_matching(
            args.config_n, args.trials, args.seed
        )
        t, s = cfg.blowup_shape()
    else:
        if args.t is None or args.s is None:
            raise ValueError("either --config-n or both --t and --s are required")
        t, s = args.t, args.s
    report = stochastic.monte_carlo_avoidance(pattern, t, s, args.trials, args.seed)
    cert_path = None
    if report.certificate is not None and args.emit_cert:
        ctx.note_output_arg(args.emit_cert)
        cert_path = str(Path(args.emit_cert) / f"avoid_N{s * t}.col")
        ctx.write_text(cert_path, serialize_coloring(report.certificate.coloring))
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

def cmd_matrix(args, ctx: RunContext) -> int:
    if args.action == "contains":
        a = patterns.parse_matrix(ctx.read_text(args.a))
        b = patterns.parse_matrix(ctx.read_text(args.b))
        ok = patterns.pattern_contained(a, b)
        print("true" if ok else "false")
        return EXIT_OK if ok else EXIT_INCONCLUSIVE
    if args.action == "complement":
        a = patterns.parse_matrix(ctx.read_text(args.a))
        text = patterns.serialize_matrix(patterns.complement(a))
    elif args.action == "unavoid":
        report = patterns.permutation_unavoidable(
            args.n, args.size, mode=args.mode, trials=args.trials, seed=args.seed
        )
        if args.mode == "sample":
            ctx.seed = args.seed
        if report.holds:
            print("true" if report.exhaustive else "true (sampled)")
            return EXIT_OK if report.exhaustive else EXIT_INCONCLUSIVE
        print("false")
        sys.stdout.write(patterns.serialize_matrix(report.counterexample_matrix))
        sys.stdout.write(patterns.serialize_matrix(report.counterexample_pattern))
        return EXIT_OK
    elif args.action == "from-matching":
        graph = parse_ordered_graph(ctx.read_text(args.og))
        text = patterns.serialize_matrix(patterns.matching_matrix(graph))
    elif args.action == "from-coloring":
        coloring = parse_coloring(ctx.read_text(args.col))
        text = patterns.serialize_matrix(
            patterns.coloring_matrix(coloring, args.color)
        )
    else:
        raise ValueError(f"unknown matrix action `{args.action}`")
    if getattr(args, "out", None):
        ctx.write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def cmd_replay(args, ctx: RunContext) -> int:
    manifest = json.loads(ctx.read_text(args.manifest))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    recorded = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    mapping: dict[str, str] = {}
    for token in manifest.get("output_args", []):
        mapping[token] = str(outdir / Path(token).name)
    for path in recorded:
        if path not in mapping:
            # rewrite only paths that appeared verbatim in argv; derived
            # sidecars keep their derived names automatically
            mapping.setdefault(path, str(outdir / Path(path).name))
    new_argv = [mapping.get(tok, tok) for tok in manifest["argv"]]
    code = dispatch(new_argv)
    if code not in (EXIT_OK, EXIT_INCONCLUSIVE):
        print(f"replay: command exited with {code}")
        return EXIT_INTERNAL
    mismatches = []
    for original, digest in recorded.items():
        replay_root = mapping.get(original)
        candidates = [replay_root] if replay_root else []
        # derived outputs (sidecars, certificates) land under rewritten roots
        if not candidates or not Path(candidates[0]).is_file():
            candidates = [str(outdir / Path(original).name)]
        found = None
        for cand in candidates:
            if Path(cand).is_file():
                found = cand
                break
        if found is None:
            target = _find_replayed(outdir, original, manifest)
            if target is None:
                mismatches.append((original, "missing"))
                continue
            found = target
        if _sha256(Path(found)) != digest:
            mismatches.append((original, found))
    if mismatches:
        for original, where in mismatches:
            print(f"MISMATCH {original} -> {where}")
        return EXIT_INTERNAL
    print(f"replayed {len(recorded)} output(s) byte-identically")
    return EXIT_OK


def _find_replayed(outdir: Path, original: str, manifest: dict) -> Optional[str]:
    """Locate an output that was written under a rewritten directory arg."""
    name = Path(original).name
    for root in manifest.get("output_args", []):
        base = Path(original)
        try:
            rel = base.relative_to(root)
        except ValueError:
            continue
        cand = outdir / Path(root).name / rel
        if cand.is_file():
            return str(cand)
    hits = list(outdir.rglob(name))
    return str(hits[0]) if hits else None


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orl",
        description="ordered Ramsey constructions, searches, and certificates",
    )
    parser.add_argument("--manifest", default=None, help="override the run-manifest path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named ordered graph")
    p.add_argument("kind", choices=[
        "altpath", "nestmatch", "kbip", "altcycle", "blowup", "tee", "eff",
        "tworeg", "quadlb",
    ])
    p.add_argument("params", nargs="+", help="integer parameters")
    p.add_argument("--bipartite", action="store_true", help="tworeg: even-cycle mode")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_construct, output_opt="out")

    p = sub.add_parser("embed", help="run a witness-extraction algorithm")
    p.add_argument("algo", choices=["altpath", "blowup", "tee"])
    p.add_argument("--host", required=True)
    p.add_argument("--parts", default=None, help="comma-separated interval sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", default="1/8", help="rational like 1/8")
    p.set_defaults(func=cmd_embed)

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

    q = rsub.add_parser("verify")
    q.add_argument("--cert", required=True)
    q.add_argument("--pattern", required=True)
    q.set_defaults(func=cmd_verify)

    q = rsub.add_parser("count-regular")
    q.add_argument("--rho", required=True, help="rational like 5/2")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_ramsey_count_regular)

    p = sub.add_parser("sample", help="seeded random models")
    p.add_argument("what", choices=["matching", "regular", "coloring"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--mode", choices=["exact", "configuration"], default="configuration")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_sample, output_opt="out")

    p = sub.add_parser("experiment", help="seeded experiment drivers (JSON lines)")
    esub = p.add_subparsers(dest="what", required=True)

    q = esub.add_parser("pairprob")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_experiment_pairprob, output_opt="report")

    q = esub.add_parser("coverage")
    q.add_argument("--og", default=None)
    q.add_argument("--graph", default=None)
    q.add_argument("--parts", type=int, required=True)
    q.add_argument("--max-size", type=int, required=True)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_experiment_coverage, output_opt="report")

    q = esub.add_parser("montecarlo")
    q.add_argument("--pattern", required=True)
    q.add_argument("--t", type=int, default=None)
    q.add_argument("--s", type=int, default=None)
    q.add_argument("--config-n", type=int, default=None)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--emit-cert", default=None)
    q.add_argument("--report", default=None)
    q.set_defaults(func=cmd_experiment_montecarlo, output_opt="report")

    p = sub.add_parser("matrix", help="binary matrix pattern operations")
    p.add_argument("action", choices=[
        "contains", "complement", "unavoid", "from-matching", "from-coloring",
    ])
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--og", default=None)
    p.add_argument("--col", default=None)
    p.add_argument("--color", choices=[RED, BLUE], default=RED)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_matrix, output_opt="out")

    p = sub.add_parser("verify", help="verify a certificate against a pattern")
    p.add_argument("--cert", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    p.add_argument("manifest")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    ctx = RunContext(argv)
    if getattr(args, "seed", None) is not None:
        ctx.seed = args.seed
    output_opt = getattr(args, "output_opt", None)
    if output_opt:
        ctx.note_output_arg(getattr(args, output_opt, None))
    try:
        code = args.func(args, ctx)
    except (FormatError, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.command != "replay":
        write_manifest(ctx, args.manifest)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
