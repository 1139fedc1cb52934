"""Elementary collapses, certificate replay, and collapsibility search.

A free face is a simplex that is a proper face of exactly one other simplex
of the complex (its unique coface, necessarily of one dimension higher --
any higher coface would contribute several codimension-1 cofaces). Removing
the pair (face, coface) is an elementary collapse; a complex is collapsible
when some sequence of collapses ends at a single vertex.

greedy_collapse, replay and the search each read the complex's SimplexIndex
and walk two arrays of their own over its positions: live[i] is 1 while
simplex i is present and count[i] is its number of live cofaces. The live
set stays closed, so a removed simplex has count 0 and one live simplex is
a vertex. A collapse of (A, C) clears both flags and changes the counts of
the facets of A and C only, so a run of collapses costs O(|K|·d). Each walk
writes that step out (greedy also pushes new free faces on its heap, and
the search undoes each step on its way back up), as a call costs more than
the step.
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from itertools import compress

from .complexes import Simplex, SimplicialComplex, make_simplex, simplex_lines

DEFAULT_BUDGET = 10 ** 6


class SearchBudget(namedtuple("SearchBudget", "max_nodes")):
    __slots__ = ()

    def __new__(cls, max_nodes: int = DEFAULT_BUDGET):
        if (isinstance(max_nodes, bool) or not isinstance(max_nodes, int)
                or max_nodes < 1):
            raise ValueError(
                f"max_nodes must be an integer >= 1, got {max_nodes!r}")
        return super().__new__(cls, max_nodes)

    def _replace(self, **changes) -> "SearchBudget":   # through __new__
        return SearchBudget(**{**self._asdict(), **changes})


class CollapseCertificate(namedtuple("CollapseCertificate", "steps")):
    """Ordered free faces witnessing a collapse; the coface of each step is
    recomputed at replay time (a free face determines its collapse)."""
    __slots__ = ()

    def __len__(self) -> int:
        return len(self.steps)


class ReplayResult(namedtuple("ReplayResult",
                              "final trace collapsed_to_point failure",
                              defaults=(None,))):
    """trace: the (face, coface) pairs; failure: 'step I (FACE): REASON'."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.final is not None

    @property
    def point(self) -> str | None:
        """The vertex a replay that collapsed to a point ended at."""
        return self.final.vertices()[0] if self.collapsed_to_point else None


# kind is "yes", "no" or "unknown"; a "yes" carries its CollapseCertificate
CollapseVerdict = namedtuple("CollapseVerdict", "kind certificate nodes",
                             defaults=(None, 0))


def free_faces(K: SimplicialComplex) -> list[Simplex]:
    """All simplices with exactly one proper coface, sorted lexicographically."""
    index = K.index()
    return [s for s, n in zip(index.order, index.counts) if n == 1]


def replay(K: SimplicialComplex, cert: CollapseCertificate) -> ReplayResult:
    """Apply certificate steps in order; trace holds the collapsed pairs.

    On the first failing step the trace stops, final is None and failure
    names the step. An empty certificate replays to K unchanged.
    """
    index = K.index()
    order, ids, facets, cofaces = (index.order, index.ids, index.facets,
                                   index.cofaces)
    live, count = bytearray(b"\1") * len(order), list(index.counts)
    trace: list[tuple[Simplex, Simplex]] = []
    for i, face in enumerate(cert.steps):
        f = ids.get(face)
        if f is None or not live[f]:
            return ReplayResult(None, tuple(trace), False,
                                f"step {i} ({' '.join(face)}): absent simplex")
        if count[f] != 1:
            return ReplayResult(None, tuple(trace), False,
                                f"step {i} ({' '.join(face)}): "
                                f"not free ({count[f]} cofaces)")
        for c in cofaces[f]:
            if live[c]:
                break
        live[f] = live[c] = 0
        for g in facets[f] + facets[c]:
            count[g] -= 1
        trace.append((face, order[c]))
    final = SimplicialComplex(frozenset(compress(order, live)), K.name)
    return ReplayResult(final, tuple(trace), len(final) == 1)


def elementary_collapse(K: SimplicialComplex, A) -> SimplicialComplex:
    """Remove the free face A and its unique coface: a one-step replay."""
    A = make_simplex(A)
    result = replay(K, CollapseCertificate((A,)))
    if result.ok:
        return result.final
    if A not in K.simplices:
        raise ValueError(f"{' '.join(A)} is not a simplex of {K.name}")
    raise ValueError(f"{' '.join(A)} is not a free face of {K.name} "
                     f"({len(K.cofaces(A))} cofaces)")


def greedy_collapse(
        K: SimplicialComplex) -> tuple[CollapseCertificate, SimplicialComplex]:
    """Repeatedly collapse the least free face (plain tuple order on the
    sorted vertex names) until stuck.

    Deterministic; the residual may be anything from a point to K itself.
    """
    index = K.index()
    steps, live = _greedy(index)
    return (CollapseCertificate(tuple(steps)),
            SimplicialComplex(frozenset(compress(index.order, live)), K.name))


def _greedy(index) -> tuple[list[Simplex], bytearray]:
    """greedy_collapse's walk: its steps and the live flags it leaves."""
    order, facets, cofaces = index.order, index.facets, index.cofaces
    live, count = bytearray(b"\1") * len(order), list(index.counts)
    # candidate free faces (sorted, so a heap), checked when popped: counts
    # only fall, so one that is gone or has lost its coface stays unfree
    heap = [i for i, n in enumerate(count) if n == 1]
    steps: list[Simplex] = []
    while heap:
        face = heapq.heappop(heap)
        if count[face] == 1:
            for coface in cofaces[face]:
                if live[coface]:
                    break
            live[face] = live[coface] = 0
            steps.append(order[face])
            for f in facets[face] + facets[coface]:
                count[f] -= 1
                if count[f] == 1:
                    heapq.heappush(heap, f)
    return steps, live


def is_collapsible(K: SimplicialComplex,
                   budget: SearchBudget | None = None) -> CollapseVerdict:
    """Decide whether K collapses to a point.

    "yes" carries a replayable certificate ending at one vertex, "no" is a
    proof that none exists, and "unknown" means the node budget ran out.
    nodes counts the distinct non-point complexes visited.

    chi != 1 is "no" in every dimension, with nodes = 1 (K itself), before
    any walk: a collapse keeps the homotopy type, and a point has chi = 1.

    Dimension <= 2 is decided by greedy collapse, without the budget. A
    triangle with a free edge keeps it free until the triangle is removed,
    so every maximal collapse sequence removes the same triangles. If one
    is left, no sequence reaches a point; otherwise what is left is a graph
    without leaves, homotopy equivalent to K, which is a point exactly when
    K is contractible. So the greedy residual is a point iff K collapses
    (Tancer, arXiv:1211.6254: the problem is NP-complete from dimension 3).
    Each step removes two simplices, so greedy reached a point exactly when
    2 * steps + 1 = |K|, and no residual complex is built.

    Dimension >= 3 runs a memoized backtracking search over free faces in
    tie-break order, so its first descent is the greedy path. An exhausted
    budget stops it at once, with nodes = max_nodes + 1; only a chi = 1
    complex reaches it. Greedy runs first (Benedetti-Lutz, arXiv:1303.6422):
    a point it reaches within the budget is the search's answer and node
    count; otherwise the search runs.
    """
    index = K.index()
    if index.chi != 1:
        return CollapseVerdict("no", None, 1)
    path, _ = _greedy(index)
    nodes = len(path)
    point = 2 * nodes + 1 == len(index.order)
    if index.dim <= 2 and not point:
        return CollapseVerdict("no", None, nodes + 1)
    max_nodes = (budget or SearchBudget()).max_nodes
    if index.dim > 2 and not (point and nodes <= max_nodes):
        path, nodes = _search(K, max_nodes)
        if path is None:
            return CollapseVerdict(
                "unknown" if nodes > max_nodes else "no", None, nodes)
    return CollapseVerdict("yes", CollapseCertificate(tuple(path)), nodes)


def _search(K: SimplicialComplex, max_nodes: int):
    """Depth-first search on an explicit stack. Returns the faces leading
    from K to a point (None if there is none or the budget ran out) and the
    number of nodes visited. One live/count pair walks the tree: a collapse
    steps down to a child, its undo steps back up from an exhausted node or
    from a child already in the memo, whose key is bytes(live): the node's
    exact live flags, not a hash of them."""
    index = K.index()
    order, facets, cofaces = index.order, index.facets, index.cofaces
    live, count = bytearray(b"\1") * len(order), list(index.counts)
    seen: set[bytes] = set()   # the nodes visited
    # per node: its free faces in tie-break order, the pair taken out of it
    stack: list[list] = []
    while live.count(1) != 1:
        node, free = bytes(live), []
        if node not in seen:   # a node in the memo is left at once
            seen.add(node)
            if len(seen) > max_nodes:
                return None, len(seen)
            free = [i for i, n in enumerate(count) if n == 1]
        stack.append([iter(free), None])
        # the next unexplored child, backing up past exhausted nodes
        while (face := next(stack[-1][0], None)) is None:
            stack.pop()
            if not stack:
                return None, len(seen)
            f, c = stack[-1][1]   # put back the pair taken out of it
            live[f] = live[c] = 1
            for g in facets[f] + facets[c]:
                count[g] += 1
        for coface in cofaces[face]:
            if live[coface]:
                break
        live[face] = live[coface] = 0
        for g in facets[face] + facets[coface]:
            count[g] -= 1
        stack[-1][1] = face, coface
    return tuple(order[pair[0]] for _, pair in stack), len(seen)


# --- .cert file format: one free face per line, '#' comments --------------

def loads_cert(text: str) -> CollapseCertificate:
    return CollapseCertificate(tuple(simplex_lines(text)))


def load_cert(path) -> CollapseCertificate:
    with open(path) as f:
        return loads_cert(f.read())


def dumps_cert(cert: CollapseCertificate) -> str:
    """One face per line; an empty certificate is the empty text."""
    return "".join(" ".join(face) + "\n" for face in cert.steps)
