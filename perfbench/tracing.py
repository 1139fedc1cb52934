"""Per-layer tracing from outside the program.

`patched(tracer)` replaces the package's public functions by timing
wrappers for the duration of a `with` block. Modules import functions by
name (report.py and cli.py hold their own references to free_faces,
is_collapsible and others), so every module attribute that is the original
function is replaced, not only the one in the defining module. Methods are
patched on their classes.

Each call records a span (request id, span id, parent span id, name, start,
end) in memory. A span's self time is its duration minus the durations of
the spans it caused. Counts and self times are summed per name as calls
happen; raw spans are kept up to MAX_SPANS and written out at the end.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MAX_SPANS = 20_000
MARKER = "PERFBENCH_TRACE "


def _replay_steps(counters, args, kwargs, result):
    counters["collapse.replay.steps"] += len(result.trace)


def _search_counts(counters, args, kwargs, result):
    counters["collapse.is_collapsible.nodes"] += result.nodes
    counters["collapse.search.decided"] += result.kind != "unknown"
    if result.certificate is not None:
        counters["collapse.search.certificate_steps"] += len(result.certificate)


def _snf_cells(counters, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    counters["groups.smith_invariants.cells"] += len(rows) * len(rows[0]) if rows else 0


def _letters(counters, args, kwargs, result):
    word = args[1] if len(args) > 1 else kwargs["w"]
    counters["hyperbolic.evaluate.letters"] += len(word)


# (module, function, span name, counter hook)
FUNCTIONS = (
    ("splitcert.complexes", "build", "complexes.build", None),
    ("splitcert.complexes", "euler_characteristic",
     "complexes.euler_characteristic", None),
    ("splitcert.collapse", "free_faces", "collapse.free_faces", None),
    ("splitcert.collapse", "elementary_collapse",
     "collapse.elementary_collapse", None),
    ("splitcert.collapse", "replay", "collapse.replay", _replay_steps),
    ("splitcert.collapse", "greedy_collapse", "collapse.greedy_collapse", None),
    ("splitcert.collapse", "is_collapsible", "collapse.is_collapsible",
     _search_counts),
    ("splitcert.groups", "wirtinger", "groups.wirtinger", None),
    ("splitcert.groups", "smith_invariants", "groups.smith_invariants",
     _snf_cells),
    ("splitcert.groups", "abelianization", "groups.abelianization", None),
    ("splitcert.groups", "apply_tietze", "groups.apply_tietze", None),
    ("splitcert.hyperbolic", "evaluate", "hyperbolic.evaluate", _letters),
    ("splitcert.hyperbolic", "hyp_distance", "hyperbolic.hyp_distance", None),
    ("splitcert.mazur", "triangle_certificate", "mazur.triangle_certificate",
     None),
    ("splitcert.mazur", "link_presentation", "mazur.link_presentation", None),
    ("splitcert.splitting", "distinguishable", "splitting.distinguishable",
     None),
    ("splitcert.splitting", "family_demo", "splitting.family_demo", None),
    ("splitcert.splitting", "verify_spine_split",
     "splitting.verify_spine_split", None),
    ("splitcert.assets", "load_complex", "assets.load_complex", None),
    ("splitcert.assets", "load_diagram", "assets.load_diagram", None),
    ("splitcert.report", "verify_all", "report.verify_all", None),
)

# (module, class, method, span name)
METHODS = (
    ("splitcert.complexes", "SimplicialComplex", "cofaces", "complexes.cofaces"),
    ("splitcert.complexes", "SimplicialComplex", "vertices",
     "complexes.vertices"),
    ("splitcert.hyperbolic", "Isometry", "compose",
     "hyperbolic.Isometry.compose"),
)

# Per-layer metrics, all per traced pass. The suffix says how each is read:
# calls and self_ms from the span totals of the name before it, the rest
# from counters, except the two ratios and the two run-level figures.
PER_LAYER = (
    ("complexes.cofaces.calls", "count", "lower"),
    ("complexes.cofaces.self_ms", "ms", "lower"),
    ("complexes.vertices.calls", "count", "lower"),
    ("complexes.vertices.self_ms", "ms", "lower"),
    ("complexes.build.self_ms", "ms", "lower"),
    ("complexes.euler_characteristic.self_ms", "ms", "lower"),
    ("collapse.free_faces.calls", "count", "lower"),
    ("collapse.free_faces.self_ms", "ms", "lower"),
    ("collapse.elementary_collapse.calls", "count", "lower"),
    ("collapse.elementary_collapse.self_ms", "ms", "lower"),
    ("collapse.replay.steps", "count", "lower"),
    ("collapse.replay.self_ms", "ms", "lower"),
    ("collapse.greedy_collapse.self_ms", "ms", "lower"),
    ("collapse.is_collapsible.self_ms", "ms", "lower"),
    ("collapse.is_collapsible.nodes", "count", "lower"),
    ("collapse.search.useful_ratio", "ratio", "higher"),
    ("collapse.search.decided_share", "ratio", "higher"),
    ("groups.wirtinger.calls", "count", "lower"),
    ("groups.smith_invariants.calls", "count", "lower"),
    ("groups.smith_invariants.self_ms", "ms", "lower"),
    ("groups.smith_invariants.cells", "count", "lower"),
    ("groups.abelianization.calls", "count", "lower"),
    ("groups.apply_tietze.calls", "count", "lower"),
    ("groups.apply_tietze.self_ms", "ms", "lower"),
    ("hyperbolic.evaluate.calls", "count", "lower"),
    ("hyperbolic.evaluate.letters", "count", "lower"),
    ("hyperbolic.evaluate.self_ms", "ms", "lower"),
    ("hyperbolic.Isometry.compose.calls", "count", "lower"),
    ("hyperbolic.hyp_distance.calls", "count", "lower"),
    ("mazur.triangle_certificate.calls", "count", "lower"),
    ("mazur.triangle_certificate.self_ms", "ms", "lower"),
    ("mazur.link_presentation.calls", "count", "lower"),
    ("splitting.distinguishable.calls", "count", "lower"),
    ("splitting.family_demo.self_ms", "ms", "lower"),
    ("splitting.verify_spine_split.self_ms", "ms", "lower"),
    ("assets.load_complex.self_ms", "ms", "lower"),
    ("assets.load_diagram.self_ms", "ms", "lower"),
    ("report.verify_all.self_ms", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class Tracer:
    """Spans and counters of the calls made while patched."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = 0
        self._stack: list[list] = []   # [child seconds, span id]
        self._next_id = 0

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.request, frame[1], parent, name,
                                       start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "spans": self.spans,
                "dropped": self.dropped}

    def merge(self, dump: dict, request: int) -> None:
        """Add the totals and spans a traced child process reported."""
        for name, n in dump["calls"].items():
            self.calls[name] += n
        for name, s in dump["self_s"].items():
            self.self_s[name] += s
        for name, v in dump["counters"].items():
            self.counters[name] += v
        room = MAX_SPANS - len(self.spans)
        spans = [(request, *span[1:]) for span in dump["spans"]]
        self.spans.extend(spans[:room])
        self.dropped += dump["dropped"] + max(0, len(spans) - room)

    def write_spans(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for request, span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"request": request, "id": span_id,
                                    "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
        return path


@contextmanager
def patched(tracer: Tracer):
    """Route every public entry point listed above through the tracer."""
    importlib.import_module("splitcert.cli")  # imports every module
    modules = [m for name, m in list(sys.modules.items())
               if name == "splitcert" or name.startswith("splitcert.")]
    undo = []
    try:
        for modname, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = tracer.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original))
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)


def import_seconds(env: dict, repeats: int = 5) -> float:
    """Median cost of a fresh `import splitcert.cli` over a bare start."""
    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)
        return time.perf_counter() - start

    bare, full = [], []
    for _ in range(repeats):
        bare.append(wall("pass"))
        full.append(wall("import splitcert.cli"))
    return statistics.median(full) - statistics.median(bare)


def layer_metrics(tracer: Tracer, passes: int, import_s: float,
                  overhead: float) -> dict:
    """The PER_LAYER figures, per traced pass."""
    c = tracer.counters
    nodes = c["collapse.is_collapsible.nodes"]
    searches = tracer.calls["collapse.is_collapsible"]
    special = {
        "collapse.search.useful_ratio":
            c["collapse.search.certificate_steps"] / nodes if nodes else 0.0,
        "collapse.search.decided_share":
            c["collapse.search.decided"] / searches if searches else 0.0,
        "cli.import_s": import_s,
        "trace_overhead": overhead,
    }
    out = {}
    for metric, unit, _ in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if metric in special:
            value = special[metric]
        elif kind == "calls":
            value = tracer.calls[span] / passes
        elif kind == "self_ms":
            value = 1e3 * tracer.self_s[span] / passes
        else:
            value = c[metric] / passes
        out[metric] = {"value": value, "unit": unit}
    return out
