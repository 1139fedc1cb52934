"""Elementary collapses, certificate replay, and collapsibility search.

A free face is a simplex that is a proper face of exactly one other simplex
of the complex (its unique coface, necessarily of one dimension higher --
any higher coface would contribute several codimension-1 cofaces). Removing
the pair (face, coface) is an elementary collapse; a complex is collapsible
when some sequence of collapses ends at a single vertex.

greedy_collapse, replay and the search all walk one _CollapseState: the
live simplices and their live coface counts, over the complex's coface
index (built once per complex). A collapse of (A, C) changes the counts of
the facets of A and C only, so a run of collapses costs O(|K|·d); greedy
adds its own heap of candidate free faces, and the search undoes collapses
on the way back up.
"""
from __future__ import annotations

import heapq
from pathlib import Path
from typing import AbstractSet, NamedTuple, Optional

from .complexes import (Simplex, SimplicialComplex, content_lines,
                        euler_characteristic, make_simplex)

DEFAULT_BUDGET = 10 ** 6


class _SearchBudget(NamedTuple):
    max_nodes: int = DEFAULT_BUDGET


class SearchBudget(_SearchBudget):
    __slots__ = ()

    def __new__(cls, max_nodes: int = DEFAULT_BUDGET):
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        return super().__new__(cls, max_nodes)


class CollapseCertificate(NamedTuple):
    """Ordered free faces witnessing a collapse; the coface of each step is
    recomputed at replay time (a free face determines its collapse)."""
    steps: tuple[Simplex, ...]

    def __len__(self) -> int:
        return len(self.steps)


class ReplayResult(NamedTuple):
    final: Optional[SimplicialComplex]
    trace: tuple[tuple[Simplex, Simplex], ...]   # the (face, coface) pairs
    collapsed_to_point: bool
    failure: Optional[str] = None   # 'step I (FACE): REASON'

    @property
    def ok(self) -> bool:
        return self.final is not None

    @property
    def point(self) -> Optional[str]:
        """The vertex a replay that collapsed to a point ended at."""
        return self.final.vertices()[0] if self.collapsed_to_point else None


class CollapseVerdict(NamedTuple):
    kind: str  # "yes" | "no" | "unknown"
    certificate: Optional[CollapseCertificate] = None
    nodes: int = 0


def free_faces(K: SimplicialComplex) -> list[Simplex]:
    """All simplices with exactly one proper coface, sorted lexicographically."""
    index = K.coface_index()
    return sorted(s for s in K.simplices if len(index[s]) == 1)


def _is_point(simplices: AbstractSet[Simplex]) -> bool:
    return len(simplices) == 1 and len(next(iter(simplices))) == 1


class _CollapseState:
    """A complex under a run of elementary collapses: the live simplices and
    the number of live codimension-1 cofaces of each. restore undoes
    collapse exactly, so a search walks one state down and back up."""

    def __init__(self, K: SimplicialComplex):
        self.index = K.coface_index()
        self.live = set(K.simplices)
        self.count = dict(zip(self.index, map(len, self.index.values())))

    def collapse(self, face: Simplex) -> Simplex:
        """Remove a free face and its live coface; returns the coface."""
        live, count = self.live, self.count
        for coface in self.index[face]:
            if coface in live:
                break
        live.difference_update((face, coface))
        for s in (face, coface):
            for i in range(len(s)):
                count[s[:i] + s[i + 1:]] -= 1   # a facet of s
        return coface

    def restore(self, face: Simplex, coface: Simplex) -> None:
        """Put back a pair that collapse took out: its exact inverse."""
        count = self.count
        self.live.update((face, coface))
        for s in (face, coface):
            for i in range(len(s)):
                count[s[:i] + s[i + 1:]] += 1


def replay(K: SimplicialComplex, cert: CollapseCertificate) -> ReplayResult:
    """Apply certificate steps in order; trace holds the collapsed pairs.

    On the first failing step the trace stops, final is None and failure
    names the step. An empty certificate replays to K unchanged.
    """
    state = _CollapseState(K)
    trace: list[tuple[Simplex, Simplex]] = []
    for i, face in enumerate(cert.steps):
        if face not in state.live:
            return ReplayResult(None, tuple(trace), False,
                                f"step {i} ({' '.join(face)}): absent simplex")
        if state.count[face] != 1:
            return ReplayResult(None, tuple(trace), False,
                                f"step {i} ({' '.join(face)}): "
                                f"not free ({state.count[face]} cofaces)")
        trace.append((face, state.collapse(face)))
    final = SimplicialComplex(frozenset(state.live), name=K.name)
    return ReplayResult(final, tuple(trace), _is_point(final.simplices))


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
    state = _CollapseState(K)
    live, count = state.live, state.count
    # candidate free faces, checked when popped: counts only fall, so one
    # that is gone or has lost its coface never becomes free again
    heap = sorted(s for s in live if count[s] == 1)
    steps: list[Simplex] = []
    while heap:
        face = heapq.heappop(heap)
        if face in live and count[face] == 1:
            coface = state.collapse(face)
            steps.append(face)
            for s in (face, coface):
                for i in range(len(s)):
                    f = s[:i] + s[i + 1:]
                    if count[f] == 1:
                        heapq.heappush(heap, f)
    return (CollapseCertificate(tuple(steps)),
            SimplicialComplex(frozenset(live), name=K.name))


def is_collapsible(K: SimplicialComplex,
                   budget: SearchBudget | None = None) -> CollapseVerdict:
    """Decide whether K collapses to a point.

    "yes" carries a replayable certificate ending at one vertex, "no" is a
    proof that none exists, and "unknown" means the node budget ran out.
    nodes counts the distinct non-point complexes visited.

    Dimension <= 2 is decided by greedy_collapse, without the budget. A
    triangle with a free edge keeps it free until the triangle is removed,
    so every maximal collapse sequence removes the same triangles. If one
    is left, no sequence reaches a point; otherwise what is left is a graph
    without leaves, homotopy equivalent to K, which is a point exactly when
    K is contractible. So the greedy residual is a point iff K collapses
    (Tancer, arXiv:1211.6254: the problem is NP-complete from dimension 3).

    Dimension >= 3 runs a memoized backtracking search over free faces in
    tie-break order, so its first descent is the greedy path. An exhausted
    budget stops it at once, with nodes = max_nodes + 1. Greedy runs first
    (Benedetti-Lutz, arXiv:1303.6422): a point it reaches within the budget
    is the search's answer and node count; otherwise the search runs.
    """
    cert, residual = greedy_collapse(K)
    path, nodes = cert.steps, len(cert.steps)
    if K.dim() <= 2:
        if not _is_point(residual.simplices):
            return CollapseVerdict("no", None, nodes + 1)
    else:
        max_nodes = (budget or SearchBudget()).max_nodes
        if not (_is_point(residual.simplices) and nodes <= max_nodes):
            path, nodes = _search(K, max_nodes)
            if path is None:
                return CollapseVerdict(
                    "unknown" if nodes > max_nodes else "no", None, nodes)
    # collapsibility implies chi = 1; cheap sanity on every yes
    chi = euler_characteristic(K)
    if chi != 1:
        raise AssertionError(
            f"collapse certificate found for {K.name} but chi = {chi}")
    return CollapseVerdict("yes", CollapseCertificate(path), nodes)


def _search(K: SimplicialComplex, max_nodes: int):
    """Depth-first search on an explicit stack. Returns the faces leading
    from K to a point (None if there is none or the budget ran out) and the
    number of nodes visited. One _CollapseState walks the tree: collapse
    steps down to a child, restore steps back up from an exhausted node or
    from a child already in the memo, which is keyed by the live simplices."""
    state = _CollapseState(K)
    live, count = state.live, state.count
    seen: set[frozenset] = set()   # the nodes visited
    # per node: its free faces in tie-break order, the pair taken out of it
    stack: list[list] = []
    while not _is_point(live):
        node, free = frozenset(live), []
        if node not in seen:   # a node in the memo is left at once
            seen.add(node)
            if len(seen) > max_nodes:
                return None, len(seen)
            free = sorted([s for s in node if count[s] == 1])
        stack.append([iter(free), None])
        # the next unexplored child, backing up past exhausted nodes
        while (face := next(stack[-1][0], None)) is None:
            stack.pop()
            if not stack:
                return None, len(seen)
            state.restore(*stack[-1][1])
        stack[-1][1] = face, state.collapse(face)
    return tuple(pair[0] for _, pair in stack), len(seen)


# --- .cert file format: one free face per line, '#' comments --------------

def loads_cert(text: str) -> CollapseCertificate:
    steps = []
    for lineno, line in content_lines(text):
        try:
            steps.append(make_simplex(line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CollapseCertificate(tuple(steps))


def load_cert(path) -> CollapseCertificate:
    return loads_cert(Path(path).read_text())


def dumps_cert(cert: CollapseCertificate) -> str:
    """One face per line; an empty certificate is the empty text."""
    return "".join(" ".join(face) + "\n" for face in cert.steps)
