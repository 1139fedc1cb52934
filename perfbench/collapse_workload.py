"""The `collapse` workload: the collapse core on synthetic complexes.

Collapsible inputs are triangulated n x n grid disks, paths and cones over
random bases larger than the ones report.random_cone_complex makes.
Non-collapsible inputs are the bundled dunce hat, annuli (chi = 0) and
disjoint unions (chi = 2). Sizes are fixed and the seed draws vertex names,
grid diagonals and the cone bases, so every seed costs about the same
while the tie-break order the program sees changes.

Each input gets free_faces, greedy_collapse, replay of the greedy
certificate and is_collapsible, followed by replay of the certificate the
search returned; the bundled jester certificates are replayed as well.
Groups, hyperbolic and splitting code is never called.

Sizes are bounded by the current core, which costs roughly |K|^3: a 5 x 5
grid (171 simplices) takes about 0.3 s greedy. Once free faces are indexed,
add the 16 x 16 and 64 x 64 grids, paths of 1,000 edges and annuli of 6
and more segments; they are too slow to run today.
"""
from __future__ import annotations

import random

import oracles
from common import FAILED, median, quantile, self_rss_mb, setup_probe

from splitcert import assets, collapse, complexes

# One node budget below the default for every search. The 4-segment annulus
# needs about 13,000 nodes to exhaust, so it ends "unknown"; the 3-segment
# annulus (about 1,250 nodes) and the other inputs are decided.
BUDGET = 2_000

GRIDS = (3, 4, 5)
PATHS = (40, 80)
CONES = 4
CONE_VERTICES, CONE_BASE_SIZE = 10, 40   # cones of 81 simplices
ANNULI = (3, 4)
BUNDLED = (("jester_C", "v"), ("jester_A", "w"), ("jester_B", "w"))


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct vertex names in random order, so lexicographic tie-breaks
    differ from seed to seed."""
    return [f"{prefix}{i}" for i in rng.sample(range(10 * n), n)]


def _grid(rng, n):
    name = dict(zip([(i, j) for i in range(n + 1) for j in range(n + 1)],
                    _names(rng, (n + 1) ** 2, "g")))
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = (name[i, j], name[i + 1, j], name[i + 1, j + 1],
                          name[i, j + 1])
            tris += ([[a, b, c], [a, c, d]] if rng.random() < 0.5
                     else [[a, b, d], [b, c, d]])
    return tris


def _path(rng, n, prefix="p"):
    v = _names(rng, n + 1, prefix)
    return [[v[i], v[i + 1]] for i in range(n)]


def _cone_base(rng):
    """A random base on CONE_VERTICES vertices with exactly CONE_BASE_SIZE
    simplices, so every cone has the same size whatever the seed."""
    while True:
        v = _names(rng, CONE_VERTICES, "b")
        maximal = [[x] for x in v]
        size = len(v)
        while size < CONE_BASE_SIZE:
            maximal.append(rng.sample(v, rng.randint(2, 3)))
            size = len(oracles.closure(maximal))
        if size == CONE_BASE_SIZE:
            return maximal


def _annulus(rng, n):
    # Only the names are random: an exhaustive search visits every
    # reachable subcomplex, so its cost depends on the triangulation.
    inner, outer = _names(rng, n, "i"), _names(rng, n, "o")
    tris = []
    for k in range(n):
        a, b = inner[k], inner[(k + 1) % n]
        c, d = outer[(k + 1) % n], outer[k]
        tris += [[a, b, c], [a, c, d]]
    return tris


def make_inputs(seed: int) -> list[dict]:
    """Raw inputs: maximal simplices, the expected answer and how to build."""
    rng = random.Random(seed)
    out = []
    for n in GRIDS:
        out.append({"name": f"grid{n}", "maximal": _grid(rng, n), "yes": True})
    for n in PATHS:
        out.append({"name": f"path{n}", "maximal": _path(rng, n), "yes": True})
    for k in range(CONES):
        out.append({"name": f"cone{k}", "cone_base": _cone_base(rng),
                    "yes": True})
    out.append({"name": "dunce_hat", "asset": "dunce_hat", "yes": False})
    for n in ANNULI:
        out.append({"name": f"annulus{n}", "maximal": _annulus(rng, n),
                    "yes": False})
    out.append({"name": "union_paths",
                "parts": [_path(rng, 2, "p"), _path(rng, 3, "q")], "yes": False})
    out.append({"name": "union_triangles",
                "parts": [[_names(rng, 3, "t")], [_names(rng, 3, "u")]],
                "yes": False})
    return out


def build(raw: list[dict]):
    """Program-side construction of the inputs and bundled assets."""
    built = []
    for item in raw:
        if "asset" in item:
            K = assets.load_complex(item["asset"])
        elif "cone_base" in item:
            K = complexes.cone(complexes.build(item["cone_base"], "base"),
                               "apex", name=item["name"])
        elif "parts" in item:
            a, b = (complexes.build(p) for p in item["parts"])
            K = complexes.union(a, b, name=item["name"])
        else:
            K = complexes.build(item["maximal"], name=item["name"])
        built.append(K)
    bundled = [(assets.load_complex(n), assets.load_certificate(n), v)
               for n, v in BUNDLED]
    return built, bundled


def _oracle_simplices(item, K):
    if "asset" in item:
        return K.simplices
    if "cone_base" in item:
        base = item["cone_base"]
        return oracles.closure(base + [s + ["apex"] for s in base])
    if "parts" in item:
        return oracles.closure([s for part in item["parts"] for s in part])
    return oracles.closure(item["maximal"])


class Workload:
    name = "collapse"
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.raw = make_inputs(seed)
        self.inputs, self.bundled = build(self.raw)
        self.budget = collapse.SearchBudget(max_nodes=BUDGET)
        self.checkers = []
        for item, K in zip(self.raw, self.inputs):
            want = _oracle_simplices(item, K)
            if K.simplices != want:
                raise RuntimeError(f"{item['name']}: built complex differs "
                                   f"from the face closure of its input")
            if item["yes"] and oracles.euler(want) != 1:
                raise RuntimeError(f"{item['name']}: generated as collapsible "
                                   f"but chi = {oracles.euler(want)}")
            self.checkers.append(oracles.CollapseChecker(want))
        self.free = [c.free_faces() for c in self.checkers]
        self._replayed: dict = {}
        self.verdicts: dict[str, str] = {}

    def setup_seconds(self) -> list[float]:
        return [setup_probe(self.name, self.seed) for _ in range(2)]

    def _oracle_replay(self, index, steps):
        key = (index, steps)
        if key not in self._replayed:
            self._replayed[key] = self.checkers[index].replay(steps)
        return self._replayed[key]

    def run_pass(self, run, tracer) -> None:
        for index, (item, K) in enumerate(zip(self.raw, self.inputs)):
            self._one(run, index, item, K)
        for K, cert, vertex in self.bundled:
            result = run.op("replay", collapse.replay, K, cert, verdict=False)
            if result is not FAILED:
                final = result.final.simplices if result.ok else None
                run.check("replay", result.collapsed_to_point
                          and final == frozenset({(vertex,)}),
                          f"{K.name} certificate does not end at {vertex}")

    def _one(self, run, index, item, K) -> None:
        name = item["name"]
        ff = run.op("free_faces", collapse.free_faces, K, verdict=False)
        if ff is not FAILED:
            run.check("free_faces", list(ff) == self.free[index],
                      f"{name}: free faces differ from the definition")

        greedy = run.op("greedy", collapse.greedy_collapse, K, verdict=False)
        if greedy is not FAILED:
            cert, residual = greedy
            left = self._oracle_replay(index, cert.steps)
            run.check("greedy", left == residual.simplices,
                      f"{name}: greedy certificate does not replay to its "
                      f"residual")
            run.check("greedy", item["yes"] or not oracles.is_point(
                residual.simplices), f"{name}: non-collapsible input "
                                     f"greedily collapsed to a point")
            rr = run.op("replay", collapse.replay, K, cert, verdict=False)
            if rr is not FAILED:
                run.check("replay", rr.ok and rr.final.simplices
                          == residual.simplices and rr.collapsed_to_point
                          == oracles.is_point(residual.simplices),
                          f"{name}: replay of the greedy certificate differs")

        kind = "verdict_yes" if item["yes"] else "verdict_no"
        verdict = run.op(kind, self._verdict, K)
        if verdict is FAILED:
            return
        v, rr = verdict
        self.verdicts[name] = v.kind
        if item["yes"]:
            run.check(kind, v.kind != "no", f"{name}: collapsible input "
                                            f"reported 'no'")
        else:
            run.check(kind, v.kind != "yes", f"{name}: non-collapsible input "
                                             f"reported 'yes'")
        if v.kind == "yes":
            left = self._oracle_replay(index, v.certificate.steps)
            run.check(kind, left is not None and oracles.is_point(left)
                      and rr.ok and rr.collapsed_to_point,
                      f"{name}: search certificate does not replay to a point")

    def _verdict(self, K):
        """Time to verdict: the search plus replay of what it returned."""
        v = collapse.is_collapsible(K, self.budget)
        rr = collapse.replay(K, v.certificate) if v.kind == "yes" else None
        return v, rr

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def details(self, run):
        yes, no = run.samples["verdict_yes"], run.samples["verdict_no"]
        decided = sum(v != "unknown" for v in self.verdicts.values())
        return [
            ("verdict_yes_p50_ms", 1e3 * median(yes), "ms", f" (n={len(yes)})"),
            ("verdict_yes_p90_ms", 1e3 * quantile(yes, 90), "ms",
             f" (n={len(yes)})"),
            ("verdict_no_p50_ms", 1e3 * median(no), "ms", f" (n={len(no)})"),
            ("decided_share", decided / max(1, len(self.verdicts)), "ratio",
             f" ({decided}/{len(self.verdicts)} inputs, budget {BUDGET})"),
            ("replay_ms", 1e3 * median(run.samples["replay"]), "ms",
             f" (n={len(run.samples['replay'])})"),
            ("free_faces_ms", 1e3 * median(run.samples["free_faces"]), "ms",
             ""),
            ("greedy_ms", 1e3 * median(run.samples["greedy"]), "ms", ""),
        ]

    def notes(self, run):
        undecided = sorted(n for n, v in self.verdicts.items()
                           if v == "unknown")
        return [f"'unknown' at {BUDGET} nodes (not a failure): "
                + ", ".join(undecided)] if undecided else []
