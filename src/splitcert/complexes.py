"""Finite abstract simplicial complexes over named vertices.

A simplex is a sorted tuple of vertex names; a complex stores its full
face-closed simplex set. Its SimplexIndex numbers the simplices by their
position in sorted order (so position order is tuple order) and lists the
codimension-1 facets and cofaces of each. It is built once per complex, on
the first query, in O(|K|·d) (d is the largest simplex size).
"""
from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator
from itertools import combinations

Simplex = tuple[str, ...]

_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Normalize an iterable of vertex names into a simplex tuple."""
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated vertex in simplex {verts}")
    for v in verts:
        if not _TOKEN.fullmatch(v):
            raise ValueError(f"bad vertex name {v!r}")
    return verts


def faces(simplex: Simplex) -> Iterator[Simplex]:
    """All nonempty proper and improper faces of a simplex."""
    for r in range(1, len(simplex) + 1):
        yield from combinations(simplex, r)


class SimplexIndex:
    """Read-only: order[i] is simplex i, ids maps it back, facets[i] and
    cofaces[i] list positions in increasing order (none below a vertex)."""

    __slots__ = ("order", "ids", "facets", "cofaces", "counts", "dim", "chi")

    def __init__(self, simplices: Iterable[Simplex]):
        self.order = order = tuple(sorted(simplices))
        self.ids = ids = dict(zip(order, range(len(order))))
        self.facets = facets = [tuple(map(ids.__getitem__, combinations(
            s, len(s) - 1))) if len(s) > 1 else () for s in order]
        self.cofaces = cofaces = [[] for _ in order]
        for i, fs in enumerate(facets):
            for f in fs:
                cofaces[f].append(i)
        self.counts = list(map(len, cofaces))
        self.dim = max(map(len, order), default=0) - 1
        self.chi = sum(1 if len(s) % 2 else -1 for s in order)


class SimplicialComplex:
    """Face-closed set of simplices. Immutable once constructed."""

    __slots__ = ("simplices", "name", "_index")

    def __init__(self, simplices: frozenset[Simplex], name: str = "K"):
        self.simplices = simplices
        self.name = name
        self._index: SimplexIndex | None = None

    def __contains__(self, simplex) -> bool:
        return tuple(sorted(simplex)) in self.simplices

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.simplices == other.simplices)

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.name!r}, {len(self.simplices)} simplices)"

    def vertices(self) -> list[str]:
        return sorted(s[0] for s in self.simplices if len(s) == 1)

    def dim(self) -> int:
        return self.index().dim

    def index(self) -> SimplexIndex:
        """Built on the first call and kept; callers must not mutate it."""
        if self._index is None:
            self._index = SimplexIndex(self.simplices)
        return self._index

    def maximal_simplices(self) -> list[Simplex]:
        """The simplices that are a proper face of no other, sorted."""
        index = self.index()
        return [s for s, n in zip(index.order, index.counts) if not n]

    def cofaces(self, simplex: Simplex) -> list[Simplex]:
        """The codimension-1 cofaces of the given simplex, sorted; the
        vertices for the empty face; [] for a simplex not in the complex."""
        index, s = self.index(), tuple(sorted(set(simplex)))
        if not s:
            return [v for v in index.order if len(v) == 1]
        i = index.ids.get(s)
        return [] if i is None else [index.order[c] for c in index.cofaces[i]]


def build(maximal_simplices: Iterable[Iterable[str]], name: str = "K") -> SimplicialComplex:
    """Face closure of the given simplices. Idempotent on closed input."""
    closed: set[Simplex] = set()
    for raw in maximal_simplices:
        simplex = make_simplex(raw)
        closed.update(faces(simplex))
    return SimplicialComplex(frozenset(closed), name=name)


def euler_characteristic(K: SimplicialComplex) -> int:
    return K.index().chi


def union(K: SimplicialComplex, L: SimplicialComplex, name: str | None = None) -> SimplicialComplex:
    """Set union of simplex sets; shared vertex names denote the same vertex."""
    return SimplicialComplex(K.simplices | L.simplices,
                             name=name or f"{K.name}+{L.name}")


def intersection(K: SimplicialComplex, L: SimplicialComplex, name: str | None = None) -> SimplicialComplex:
    return SimplicialComplex(K.simplices & L.simplices,
                             name=name or f"{K.name}&{L.name}")


def cone(K: SimplicialComplex, apex: str, name: str | None = None) -> SimplicialComplex:
    """Join of K with a new vertex: every simplex gains an apexed copy."""
    apex_s = make_simplex([apex])
    if apex_s in K.simplices:
        raise ValueError(f"apex {apex!r} is already a vertex of {K.name}")
    out = set(K.simplices)
    out.add(apex_s)
    for s in K.simplices:
        out.add(tuple(sorted(s + apex_s)))
    return SimplicialComplex(frozenset(out), name=name or f"cone_{K.name}")


# --- line-based file formats, '#' comments; .scx: one maximal simplex a line

def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of every line of an asset file that is not
    blank once its '#' comment is stripped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def simplex_lines(text: str) -> Iterator[Simplex]:
    """The simplex on each content line, its vertex names separated by
    whitespace; a bad line raises ValueError with its line number."""
    for lineno, line in content_lines(text):
        try:
            yield make_simplex(line.split())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None


def loads_scx(text: str, name: str = "K") -> SimplicialComplex:
    return build(simplex_lines(text), name=name)


def load_scx(path) -> SimplicialComplex:
    with open(path) as f:
        text = f.read()
    return loads_scx(text, name=os.path.splitext(os.path.basename(path))[0])
