"""Finite abstract simplicial complexes over named vertices.

A simplex is a sorted tuple of vertex names; a complex stores its full
face-closed simplex set. Coface queries walk a coface index, the Hasse
diagram mapping each simplex to its codimension-1 cofaces. The index is
built once per complex, on the first query, in O(|K|·d) by listing the
facets of every simplex (d is the largest simplex size).
"""
from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import Iterable, Iterator

Simplex = tuple[str, ...]

_TOKEN = re.compile(r"^[A-Za-z0-9_]+$")


def make_simplex(vertices: Iterable[str]) -> Simplex:
    """Normalize an iterable of vertex names into a simplex tuple."""
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated vertex in simplex {verts}")
    for v in verts:
        if not _TOKEN.match(v):
            raise ValueError(f"bad vertex name {v!r}")
    return verts


def faces(simplex: Simplex) -> Iterator[Simplex]:
    """All nonempty proper and improper faces of a simplex."""
    for r in range(1, len(simplex) + 1):
        yield from itertools.combinations(simplex, r)


def facets(simplex: Simplex) -> list[Simplex]:
    """The codimension-1 faces of a simplex; () for a vertex."""
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


class SimplicialComplex:
    """Face-closed set of simplices. Immutable once constructed."""

    __slots__ = ("simplices", "name", "_index")

    def __init__(self, simplices: frozenset[Simplex], name: str = "K"):
        self.simplices = simplices
        self.name = name
        self._index: dict[Simplex, list[Simplex]] | None = None

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
        return max((len(s) for s in self.simplices), default=0) - 1

    def coface_index(self) -> dict[Simplex, list[Simplex]]:
        """Each simplex, and the empty face (), mapped to its
        codimension-1 cofaces, in no particular order. Built on the first
        call and kept; callers must not mutate it."""
        if self._index is None:
            index = {s: [] for s in self.simplices}
            index[()] = []
            for s in self.simplices:
                for f in facets(s):
                    index[f].append(s)
            self._index = index
        return self._index

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are not a proper face of any other simplex."""
        index = self.coface_index()
        return sorted(s for s in self.simplices if not index[s])

    def cofaces(self, simplex: Simplex) -> list[Simplex]:
        """The codimension-1 cofaces of the given simplex, sorted; [] for a
        simplex not in the complex."""
        return sorted(self.coface_index().get(tuple(sorted(set(simplex))),
                                              ()))


def build(maximal_simplices: Iterable[Iterable[str]], name: str = "K") -> SimplicialComplex:
    """Face closure of the given simplices. Idempotent on closed input."""
    closed: set[Simplex] = set()
    for raw in maximal_simplices:
        simplex = make_simplex(raw)
        closed.update(faces(simplex))
    return SimplicialComplex(frozenset(closed), name=name)


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in K.simplices)


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


def loads_scx(text: str, name: str = "K") -> SimplicialComplex:
    maximal = []
    for lineno, line in content_lines(text):
        try:
            maximal.append(make_simplex(line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return build(maximal, name=name)


def load_scx(path) -> SimplicialComplex:
    p = Path(path)
    return loads_scx(p.read_text(), name=p.stem)
