"""Tracing of orl's layers from outside the program, and the per-layer metrics.

`Tracer.install` replaces public functions of orl by wrappers.  It patches
every module attribute that holds a reference to a wrapped function, so a
name imported with `from orl.core import search_embedding` is traced too.
Coarse calls (a command, `avoiding_coloring` per N, the pipelines) become
spans with a name, start, end, parent and the command they belong to.  Hot
leaf calls (`search_embedding`, `pattern_contained`, `find_monochromatic`,
`next_u64`) only add to counters: a span per call would not fit in memory.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

SPANS = {
    "orl.cli": ("write_manifest",),
    "orl.core": ("parse_ordered_graph", "parse_coloring"),
    "orl.ramsey": ("ordered_ramsey", "verify_certificate"),
    "orl.embedder": ("find_alternating_path", "blowup_pipeline", "tee_pipeline",
                     "largest_nested_matching"),
    "orl.stochastic": ("monte_carlo_avoidance", "blown_up_random_coloring"),
    "orl.patterns": ("permutation_unavoidable",),
}
# leaf name -> (module, function, is the result a hit)
COUNTERS = {
    "core.search_embedding": ("orl.core", "search_embedding", lambda r: r is not None),
    "embedder.find_monochromatic": ("orl.embedder", "find_monochromatic", lambda r: r is not None),
    "patterns.pattern_contained": ("orl.patterns", "pattern_contained", bool),
}


def _found(result) -> dict:
    emb = getattr(result, "embedding", result)
    return {"found": emb is not None, "stage": getattr(result, "failed_stage", None)}


SPAN_ATTRS = {
    "find_alternating_path": _found,
    "blowup_pipeline": _found,
    "tee_pipeline": _found,
    "monte_carlo_avoidance": lambda r: {
        "trials": len(r.trials), "avoided": sum(t.avoided for t in r.trials)},
    "permutation_unavoidable": lambda r: {"holds": r.holds},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.cmd = None
        self.counters = {name: [0, 0, 0.0] for name in COUNTERS}  # calls, hits, seconds
        self.draws = 0
        self.depth = 0  # traced calls open below the current command
        self.covered = 0.0  # time of traced calls made directly by commands
        self.patched: dict[str, list[str]] = {}

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer_call: bool = True):
        span = {"id": len(self.spans), "name": name, "start": perf_counter(), "end": None,
                "parent": self.stack[-1] if self.stack else None, "cmd": self.cmd, "attrs": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        self.depth += layer_call
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self.stack.pop()
            self.depth -= layer_call
            if layer_call and not self.depth:
                self.covered += span["end"] - span["start"]

    def command(self, idx: int):
        self.cmd = idx
        return self.span("cli.command", layer_call=False)

    def _spanned(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs:
                    span["attrs"] = attrs(result)
            return result
        return wrapper

    def _counted(self, counter, fn, hit):
        def wrapper(*args, **kwargs):
            self.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self.depth -= 1
                counter[0] += 1
                counter[2] += took
                if not self.depth:
                    self.covered += took
            counter[1] += hit(result)
            return result
        return wrapper

    def _avoiding(self, fn, search_stats):
        # reads the SearchStats that ordered_ramsey passes in; verify passes
        # none, so the wrapper supplies one, as avoiding_coloring would
        def avoiding_coloring(pattern, N, stats=None):
            stats = search_stats() if stats is None else stats
            nodes, prunes = stats.nodes, stats.prunes
            with self.span("ramsey.avoiding_coloring") as span:
                result = fn(pattern, N, stats)
                span["attrs"] = {"N": N, "nodes": stats.nodes - nodes,
                                 "prunes": stats.prunes - prunes, "exhausted": result is None}
            return result
        return avoiding_coloring

    def _next_u64(self, fn):
        def next_u64(gen):
            self.draws += 1
            return fn(gen)
        return next_u64

    # -- installation --------------------------------------------------------

    def _patch(self, label: str, fn, wrapper) -> None:
        modules = [m for name, m in sys.modules.items() if name == "orl" or name.startswith("orl.")]
        where = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    where.append(f"{module.__name__}.{attr}")
        if not where:
            raise RuntimeError(f"no reference to {label} found")
        self.patched[label] = sorted(where)

    def install(self) -> None:
        import orl.cli  # noqa: F401  (loads every module that holds references)
        from orl import ramsey, rng

        for module, names in SPANS.items():
            for name in names:
                fn = getattr(sys.modules[module], name)
                label = f"{module[4:]}.{name}"
                self._patch(label, fn, self._spanned(label, fn, SPAN_ATTRS.get(name)))
        for label, (module, name, hit) in COUNTERS.items():
            fn = getattr(sys.modules[module], name)
            self._patch(label, fn, self._counted(self.counters[label], fn, hit))
        fn = ramsey.avoiding_coloring
        self._patch("ramsey.avoiding_coloring", fn, self._avoiding(fn, ramsey.SearchStats))
        gen = rng.Xoshiro256StarStar
        gen.next_u64 = self._next_u64(gen.next_u64)
        self.patched["rng.Xoshiro256StarStar.next_u64"] = ["orl.rng.Xoshiro256StarStar.next_u64"]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, "draws": self.draws,
                       "covered_s": self.covered, "patched": self.patched}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from a written trace
# ---------------------------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced pass, except those measured outside
    the child (`cli.bytes_written`, `cli.import_s`, `trace.overhead_s`)."""
    spans = trace["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(items):
        return sum(s["end"] - s["start"] for s in items)

    cmds = named("cli.command")
    direct = {s["id"] for s in cmds}
    avoid = named("ramsey.avoiding_coloring")
    nodes = sum(s["attrs"]["nodes"] for s in avoid)
    prunes = sum(s["attrs"]["prunes"] for s in avoid)
    search_s = seconds(avoid)
    embed_calls, embed_found, embed_s = trace["counters"]["core.search_embedding"]
    mono_calls, _, mono_s = trace["counters"]["embedder.find_monochromatic"]
    cont_calls, cont_true, cont_s = trace["counters"]["patterns.pattern_contained"]
    pipelines = [s for s in spans if s["parent"] in direct and s["name"] in (
        "embedder.find_alternating_path", "embedder.blowup_pipeline", "embedder.tee_pipeline")]
    mc = named("stochastic.monte_carlo_avoidance")
    trials = sum(s["attrs"]["trials"] for s in mc)
    return {
        "ramsey.nodes": nodes,
        "ramsey.prunes": prunes,
        "ramsey.prune_ratio": _ratio(prunes, nodes),
        "ramsey.search_s": search_s,
        "ramsey.us_per_node": 1e6 * _ratio(search_s, nodes),
        "ramsey.verify_s": seconds(named("ramsey.verify_certificate")),
        "core.embed_calls": embed_calls,
        "core.embed_found_ratio": _ratio(embed_found, embed_calls),
        "core.embed_s": embed_s,
        "core.us_per_embed_call": 1e6 * _ratio(embed_s, embed_calls),
        "core.parse_s": seconds(named("core.parse_ordered_graph") + named("core.parse_coloring")),
        "embedder.altpath_s": seconds(p for p in pipelines if p["name"] == "embedder.find_alternating_path"),
        "embedder.blowup_s": seconds(named("embedder.blowup_pipeline")),
        "embedder.tee_s": seconds(named("embedder.tee_pipeline")),
        "embedder.nested_matching_s": seconds(named("embedder.largest_nested_matching")),
        "embedder.found_ratio": _ratio(sum(p["attrs"]["found"] for p in pipelines), len(pipelines)),
        "embedder.mono_calls": mono_calls,
        "embedder.mono_s": mono_s,
        "stochastic.coloring_s": seconds(named("stochastic.blown_up_random_coloring")),
        "stochastic.trials": trials,
        "stochastic.avoid_ratio": _ratio(sum(s["attrs"]["avoided"] for s in mc), trials),
        "rng.draws": trace["draws"],
        "patterns.contained_calls": cont_calls,
        "patterns.contained_true_ratio": _ratio(cont_true, cont_calls),
        "patterns.contained_s": cont_s,
        "patterns.us_per_contained_call": 1e6 * _ratio(cont_s, cont_calls),
        "cli.cmds": len(cmds),
        "cli.self_s": seconds(cmds) - trace["covered_s"],
        "cli.manifest_s": seconds(named("cli.write_manifest")),
    }


def exhausted_nodes(trace: dict) -> dict[int, list[tuple[int, int]]]:
    """Per command, (N, nodes) of every exhausted avoiding-coloring search."""
    out: dict[int, list[tuple[int, int]]] = {}
    for s in trace["spans"]:
        if s["name"] == "ramsey.avoiding_coloring" and s["attrs"]["exhausted"]:
            out.setdefault(s["cmd"], []).append((s["attrs"]["N"], s["attrs"]["nodes"]))
    return out
