"""Elementary collapses, certificate replay, and collapsibility search.

A free face is a simplex that is a proper face of exactly one other simplex
of the complex (its unique coface, necessarily of one dimension higher --
any higher coface would contribute several codimension-1 cofaces). Removing
the pair (face, coface) is an elementary collapse; a complex is collapsible
when some sequence of collapses ends at a single vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .complexes import (Simplex, SimplicialComplex, content_lines,
                        euler_characteristic, make_simplex)

DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


@dataclass(frozen=True)
class CollapseCertificate:
    """Ordered free faces witnessing a collapse; the coface of each step is
    recomputed at replay time (a free face determines its collapse)."""
    steps: tuple[Simplex, ...]
    source_name: str = "K"

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ReplayStep:
    index: int
    face: Simplex
    ok: bool
    reason: str
    coface: Optional[Simplex] = None


@dataclass(frozen=True)
class ReplayResult:
    final: Optional[SimplicialComplex]
    trace: tuple[ReplayStep, ...]
    collapsed_to_point: bool

    @property
    def ok(self) -> bool:
        return self.final is not None

    @property
    def failure(self) -> Optional[str]:
        """'step I (FACE): REASON' for the step a failed replay stopped at."""
        if self.ok:
            return None
        step = self.trace[-1]
        return f"step {step.index} ({' '.join(step.face)}): {step.reason}"

    @property
    def point(self) -> Optional[str]:
        """The vertex a replay that collapsed to a point ended at."""
        return self.final.vertices()[0] if self.collapsed_to_point else None


@dataclass(frozen=True)
class CollapseVerdict:
    kind: str  # "yes" | "no" | "unknown"
    certificate: Optional[CollapseCertificate] = None
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.kind == "yes"


def _sort_key(s: Simplex):
    # lexicographic on sorted vertex names, then dimension; tuple comparison
    # already puts a prefix before its extensions, the length is belt and
    # braces
    return (s, len(s))


def free_faces(K: SimplicialComplex) -> list[Simplex]:
    """All simplices with exactly one proper coface, sorted lexicographically."""
    out = [s for s in K.simplices if len(K.cofaces(s)) == 1]
    return sorted(out, key=_sort_key)


def is_free_face(K: SimplicialComplex, A: Simplex) -> bool:
    return A in K.simplices and len(K.cofaces(A)) == 1


def elementary_collapse(K: SimplicialComplex, A) -> SimplicialComplex:
    """Remove the free face A and its unique coface."""
    A = make_simplex(A)
    if A not in K.simplices:
        raise ValueError(f"{' '.join(A)} is not a simplex of {K.name}")
    cf = K.cofaces(A)
    if len(cf) != 1:
        raise ValueError(
            f"{' '.join(A)} is not a free face of {K.name} "
            f"({len(cf)} cofaces)")
    return SimplicialComplex(K.simplices - {A, cf[0]}, name=K.name)


def _is_point(K: SimplicialComplex) -> bool:
    return len(K.simplices) == 1 and len(next(iter(K.simplices))) == 1


def replay(K: SimplicialComplex, cert: CollapseCertificate) -> ReplayResult:
    """Apply certificate steps in order, reporting each one.

    On the first failing step the trace stops and final is None. An empty
    certificate replays to K unchanged.
    """
    cur = K
    trace: list[ReplayStep] = []
    for i, face in enumerate(cert.steps):
        if face not in cur.simplices:
            trace.append(ReplayStep(i, face, False, "absent simplex"))
            return ReplayResult(None, tuple(trace), False)
        cf = cur.cofaces(face)
        if len(cf) != 1:
            trace.append(ReplayStep(i, face, False,
                                    f"not free ({len(cf)} cofaces)"))
            return ReplayResult(None, tuple(trace), False)
        trace.append(ReplayStep(i, face, True, "collapsed", coface=cf[0]))
        cur = SimplicialComplex(cur.simplices - {face, cf[0]}, name=cur.name)
    return ReplayResult(cur, tuple(trace), _is_point(cur))


def greedy_collapse(
        K: SimplicialComplex) -> tuple[CollapseCertificate, SimplicialComplex]:
    """Repeatedly collapse the tie-break-minimal free face until stuck.

    Deterministic; the residual may be anything from a point to K itself.
    """
    cur = K
    steps: list[Simplex] = []
    while True:
        ff = free_faces(cur)
        if not ff:
            break
        face = ff[0]
        cur = elementary_collapse(cur, face)
        steps.append(face)
    return CollapseCertificate(tuple(steps), source_name=K.name), cur


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
    budget stops it at once, with nodes = max_nodes + 1.
    """
    if K.dim() <= 2:
        cert, residual = greedy_collapse(K)
        if not _is_point(residual):
            return CollapseVerdict("no", None, len(cert.steps) + 1)
        path, nodes = cert.steps, len(cert.steps)
    else:
        max_nodes = (budget or SearchBudget()).max_nodes
        path, nodes = _search(K, max_nodes)
        if path is None:
            return CollapseVerdict("unknown" if nodes > max_nodes else "no",
                                   None, nodes)
    # collapsibility implies chi = 1; cheap sanity on every yes
    chi = euler_characteristic(K)
    if chi != 1:
        raise AssertionError(
            f"collapse certificate found for {K.name} but chi = {chi}")
    return CollapseVerdict("yes", CollapseCertificate(tuple(path), K.name),
                           nodes)


def _search(K: SimplicialComplex, max_nodes: int):
    """Depth-first search on an explicit stack. Returns the faces leading
    from K to a point (None if there is none or the budget ran out) and the
    number of nodes visited."""
    seen: set[frozenset] = set()
    nodes = 0
    stack: list[tuple[SimplicialComplex, Iterator[Simplex]]] = []
    path: list[Optional[Simplex]] = []   # the face explored out of each frame
    cur = K
    while not _is_point(cur):
        if cur.simplices not in seen:
            seen.add(cur.simplices)
            nodes += 1
            if nodes > max_nodes:
                return None, nodes
            stack.append((cur, iter(free_faces(cur))))
            path.append(None)
        # the next unexplored child, backing up past exhausted complexes
        while stack and (face := next(stack[-1][1], None)) is None:
            stack.pop()
            path.pop()
        if not stack:
            return None, nodes
        path[-1] = face
        cur = elementary_collapse(stack[-1][0], face)
    return path, nodes


# --- .cert file format: one free face per line, '#' comments --------------

def loads_cert(text: str, source_name: str = "K") -> CollapseCertificate:
    steps = []
    for lineno, line in content_lines(text):
        try:
            steps.append(make_simplex(line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return CollapseCertificate(tuple(steps), source_name=source_name)


def load_cert(path) -> CollapseCertificate:
    from pathlib import Path
    p = Path(path)
    return loads_cert(p.read_text(), source_name=p.stem)


def dumps_cert(cert: CollapseCertificate, header: str | None = None) -> str:
    lines = []
    if header:
        lines.extend(f"# {h}".rstrip() for h in header.splitlines())
    lines.extend(" ".join(face) for face in cert.steps)
    return "\n".join(lines) + "\n"
