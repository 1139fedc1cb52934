import heapq
import inspect
import random
import sys
from typing import AbstractSet

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcert import collapse, complexes
from splitcert.collapse import (CollapseCertificate, CollapseVerdict,
                                ReplayResult, SearchBudget, dumps_cert,
                                elementary_collapse, free_faces, greedy_collapse,
                                is_collapsible, loads_cert, replay)
from splitcert.complexes import (Simplex, SimplicialComplex, build, cone,
                                 euler_characteristic)

from draws import random_cone_base

_vertex = st.sampled_from(["a", "b", "c", "d", "e"])
_simplex = st.sets(_vertex, min_size=1, max_size=3).map(tuple)
base_complexes = st.lists(_simplex, min_size=1, max_size=6).map(build)


def _simplices(n_vertices, min_size, max_size):
    vertex = st.sampled_from([f"v{i}" for i in range(n_vertices)])
    return st.sets(vertex, min_size=min_size, max_size=max_size).map(tuple)


# 2-complexes on at most 8 vertices; cones over graphs make half of them
# collapsible
two_complexes = st.one_of(
    st.lists(_simplices(8, 1, 3), min_size=1, max_size=8).map(build),
    st.lists(_simplices(7, 1, 2), min_size=1, max_size=8).map(
        lambda simplices: cone(build(simplices), "apex")))
# 3-complexes on at most 6 vertices: a tetrahedron and up to 4 more simplices
three_complexes = st.builds(lambda t, rest: build([t, *rest]),
                            _simplices(6, 4, 4),
                            st.lists(_simplices(6, 1, 4), max_size=4))


def triangle():
    return build([("a", "b", "c")])


def test_free_faces_of_filled_triangle():
    # each edge has the 2-cell as unique coface; vertices have two edges
    assert free_faces(triangle()) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_free_faces_sorted_prefix_before_extension():
    K = build([("a", "b", "c"), ("a", "b", "d")])
    ff = free_faces(K)
    assert ff == sorted(ff)


def test_elementary_collapse_removes_pair():
    K = triangle()
    K2 = elementary_collapse(K, ("a", "b"))
    assert ("a", "b") not in K2
    assert ("a", "b", "c") not in K2
    assert len(K2) == len(K) - 2


def test_elementary_collapse_rejects_non_free():
    K = triangle()
    with pytest.raises(ValueError,
                       match=r"^a is not a free face of K \(2 cofaces\)$"):
        elementary_collapse(K, ("a",))
    with pytest.raises(ValueError, match="not a simplex"):
        elementary_collapse(K, ("x", "y"))


def test_greedy_collapses_triangle_to_point():
    cert, residual = greedy_collapse(triangle())
    assert len(residual) == 1
    assert len(cert.steps) == 3
    result = replay(triangle(), cert)
    assert result.ok and result.collapsed_to_point


def test_greedy_is_deterministic():
    K = build([("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e")])
    c1, r1 = greedy_collapse(K)
    c2, r2 = greedy_collapse(K)
    assert c1.steps == c2.steps
    assert r1 == r2


def test_replay_reports_failing_step():
    K = triangle()
    bad = CollapseCertificate((("a", "x"),))
    result = replay(K, bad)
    assert not result.ok
    assert result.final is None
    assert result.trace == ()
    assert result.failure == "step 0 (a x): absent simplex"

    not_free = CollapseCertificate((("b", "c"), ("a",)))
    result = replay(K, not_free)
    assert not result.ok
    assert result.trace == ((("b", "c"), ("a", "b", "c")),)
    assert result.failure == "step 1 (a): not free (2 cofaces)"


def test_replay_empty_certificate():
    K = triangle()
    result = replay(K, CollapseCertificate(()))
    assert result.ok
    assert result.final == K
    assert result.trace == ()
    assert result.failure is None
    assert not result.collapsed_to_point


def test_replay_records_cofaces():
    cert, _ = greedy_collapse(triangle())
    result = replay(triangle(), cert)
    assert len(result.trace) == len(cert.steps)
    assert [face for face, _ in result.trace] == list(cert.steps)
    assert result.trace[0] == (("a", "b"), ("a", "b", "c"))
    assert result.failure is None


def test_is_collapsible_triangle():
    verdict = is_collapsible(triangle())
    assert verdict.kind == "yes"
    rr = replay(triangle(), verdict.certificate)
    assert rr.collapsed_to_point


def test_is_collapsible_two_points_is_no():
    K = build([("a",), ("b",)])
    verdict = is_collapsible(K)
    assert verdict.kind == "no"
    assert verdict.certificate is None
    assert verdict.nodes == 1


def test_budget_exhaustion_reports_unknown():
    tetrahedron = build([("a", "b", "c", "d")])
    verdict = is_collapsible(tetrahedron, SearchBudget(max_nodes=1))
    assert verdict.kind == "unknown"
    assert verdict.nodes >= 1


# --- the collapse core as it was before the coface index: every query
# scans the complex, and every step builds a new simplex set. These are the
# references the indexed versions must equal.

def _reference_cofaces(simplices, simplex):
    s = set(simplex)
    vertices = sorted(t[0] for t in simplices if len(t) == 1)
    out = []
    for v in vertices:
        t = tuple(sorted(s | {v}))
        if v not in s and t in simplices:
            out.append(t)
    return sorted(out)


def _reference_free_faces(simplices):
    return sorted(s for s in simplices
                  if len(_reference_cofaces(simplices, s)) == 1)


def _reference_collapse(simplices, face):
    return simplices - {face, _reference_cofaces(simplices, face)[0]}


def _reference_greedy(K):
    """(steps, residual simplices) of the old greedy_collapse."""
    cur, steps = K.simplices, []
    while ff := _reference_free_faces(cur):
        cur = _reference_collapse(cur, ff[0])
        steps.append(ff[0])
    return tuple(steps), cur


def _reference_replay(K, steps):
    """(final simplices or None, trace as (face, coface) pairs, failure or
    None) of the old replay."""
    cur, trace = K.simplices, []
    for i, face in enumerate(steps):
        at = f"step {i} ({' '.join(face)})"
        if face not in cur:
            return None, tuple(trace), f"{at}: absent simplex"
        cf = _reference_cofaces(cur, face)
        if len(cf) != 1:
            return None, tuple(trace), f"{at}: not free ({len(cf)} cofaces)"
        trace.append((face, cf[0]))
        cur = cur - {face, cf[0]}
    return cur, tuple(trace), None


class _Exhausted(Exception):
    pass


def _reference_search(K, max_nodes=None):
    """Exhaustive recursive backtracking search over free faces, memoized,
    children in tie-break order, stopped at once past max_nodes: the
    reference for the greedy decision in dimension <= 2 and the stack-based
    search from dimension 3. Returns (certificate steps or None, nodes)."""
    seen = set()
    nodes = 0

    def dfs(cur):
        nonlocal nodes
        if len(cur) == 1:
            return []
        if cur in seen:
            return None
        seen.add(cur)
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _Exhausted
        for face in _reference_free_faces(cur):
            rest = dfs(_reference_collapse(cur, face))
            if rest is not None:
                return [face] + rest
        return None

    try:
        path = dfs(K.simplices)
    except _Exhausted:
        path = None
    return (None if path is None else tuple(path)), nodes


def _reference_is_collapsible(K, max_nodes):
    """(kind, certificate steps or None, nodes) of the old is_collapsible."""
    if K.dim() <= 2:
        steps, residual = _reference_greedy(K)
        if len(residual) == 1 and len(next(iter(residual))) == 1:
            return "yes", steps, len(steps)
        return "no", None, len(steps) + 1
    path, nodes = _reference_search(K, max_nodes)
    if path is not None:
        return "yes", path, nodes
    return ("unknown" if nodes > max_nodes else "no"), None, nodes


def _final(result):
    return None if result.final is None else result.final.simplices


def _refuted(K, reference):
    """("no", None, 1), the verdict is_collapsible gives when chi(K) != 1,
    or None when chi(K) = 1. A collapse keeps chi and a point has chi = 1,
    so there the reference's verdict must not be yes either."""
    if euler_characteristic(K) == 1:
        return None
    assert reference[0] != "yes"
    return "no", None, 1


# --- the tuple-keyed collapse core that the id state replaced, copied
# verbatim but for its names: the state keyed each simplex by its tuple of
# vertex names, over a dict from each simplex (and the empty face) to its
# codimension-1 cofaces. The id core must give exactly its certificates,
# residuals, traces, failures, verdicts and node counts.

def _old_coface_index(K):
    """The parent's SimplicialComplex.coface_index."""
    index = {s: [] for s in K.simplices}
    index[()] = []
    for s in K.simplices:
        for f in [s[:i] + s[i + 1:] for i in range(len(s))]:
            index[f].append(s)
    return index


def _old_euler_characteristic(K):
    return sum((-1) ** (len(s) - 1) for s in K.simplices)


def _is_point(simplices: AbstractSet[Simplex]) -> bool:
    return len(simplices) == 1 and len(next(iter(simplices))) == 1


class _OldCollapseState:
    """A complex under a run of elementary collapses: the live simplices and
    the number of live codimension-1 cofaces of each. restore undoes
    collapse exactly, so a search walks one state down and back up."""

    def __init__(self, K: SimplicialComplex):
        self.index = _old_coface_index(K)
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


def _old_replay(K: SimplicialComplex, cert: CollapseCertificate) -> ReplayResult:
    """Apply certificate steps in order; trace holds the collapsed pairs.

    On the first failing step the trace stops, final is None and failure
    names the step. An empty certificate replays to K unchanged.
    """
    state = _OldCollapseState(K)
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


def _old_greedy_collapse(
        K: SimplicialComplex) -> tuple[CollapseCertificate, SimplicialComplex]:
    """Repeatedly collapse the least free face (plain tuple order on the
    sorted vertex names) until stuck.

    Deterministic; the residual may be anything from a point to K itself.
    """
    state = _OldCollapseState(K)
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


def _old_is_collapsible(K: SimplicialComplex,
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
    cert, residual = _old_greedy_collapse(K)
    path, nodes = cert.steps, len(cert.steps)
    if K.dim() <= 2:
        if not _is_point(residual.simplices):
            return CollapseVerdict("no", None, nodes + 1)
    else:
        max_nodes = (budget or SearchBudget()).max_nodes
        if not (_is_point(residual.simplices) and nodes <= max_nodes):
            path, nodes = _old_search(K, max_nodes)
            if path is None:
                return CollapseVerdict(
                    "unknown" if nodes > max_nodes else "no", None, nodes)
    # collapsibility implies chi = 1; cheap sanity on every yes
    chi = _old_euler_characteristic(K)
    if chi != 1:
        raise AssertionError(
            f"collapse certificate found for {K.name} but chi = {chi}")
    return CollapseVerdict("yes", CollapseCertificate(path), nodes)


def _old_search(K: SimplicialComplex, max_nodes: int):
    """Depth-first search on an explicit stack. Returns the faces leading
    from K to a point (None if there is none or the budget ran out) and the
    number of nodes visited. One _OldCollapseState walks the tree: collapse
    steps down to a child, restore steps back up from an exhausted node or
    from a child already in the memo, which is keyed by the live simplices."""
    state = _OldCollapseState(K)
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


def _replay_key(result):
    return (_final(result), None if result.final is None else result.final.name,
            result.trace, result.collapsed_to_point, result.failure)


def _candidates(steps, rng):
    """The certificate, and copies with a step dropped, two steps swapped,
    an absent face put in and a face appended: a failure at every kind of
    step."""
    out = [steps, steps + (("zz",),)]
    if steps:
        i = rng.randrange(len(steps))
        out.append(steps[:i] + steps[i + 1:])
        out.append(steps[:i] + (("v0", "zz"),) + steps[i:])
        out.append(steps + (steps[i],))   # a face replayed twice is absent
    if len(steps) > 1:
        i = rng.randrange(len(steps) - 1)
        out.append(steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:])
    return out


def _assert_core_matches_the_old_one(K, budgets, rng):
    cert, residual = greedy_collapse(K)
    old_cert, old_residual = _old_greedy_collapse(K)
    assert cert == old_cert
    assert (residual.simplices, residual.name) == (
        old_residual.simplices, old_residual.name)
    for steps in _candidates(cert.steps, rng):
        candidate = CollapseCertificate(steps)
        assert _replay_key(replay(K, candidate)) == _replay_key(
            _old_replay(K, candidate))
    for budget in budgets:
        want = _old_is_collapsible(K, SearchBudget(budget))
        assert is_collapsible(K, SearchBudget(budget)) == (
            _refuted(K, want) or want)
        assert collapse._search(K, budget) == _old_search(K, budget)


two_or_three_complexes = st.one_of(two_complexes, three_complexes)


@given(two_or_three_complexes)
@settings(max_examples=150, deadline=None)
def test_coface_index_matches_reference(K):
    assert free_faces(K) == _reference_free_faces(K.simplices)
    assert K.maximal_simplices() == sorted(
        s for s in K.simplices if not _reference_cofaces(K.simplices, s))
    # absent simplices, an unsorted one and the empty face as well
    probes = [*K.simplices, ("zz",), ("v0", "zz"), (), ("v1", "v0")]
    for s in probes:
        assert K.cofaces(s) == _reference_cofaces(K.simplices, s)


@given(two_or_three_complexes)
@settings(max_examples=150, deadline=None)
def test_greedy_matches_reference(K):
    cert, residual = greedy_collapse(K)
    assert (cert.steps, residual.simplices) == _reference_greedy(K)
    assert residual.name == K.name


@given(two_or_three_complexes, st.sampled_from([1, 3, 30, 10 ** 6]))
@settings(max_examples=150, deadline=None)
def test_is_collapsible_matches_reference(K, max_nodes):
    budgets = {max_nodes}
    if K.dim() >= 3:
        # greedy runs first from dimension 3: pin "yes" against "unknown"
        # and the node count where its length meets the budget
        n = len(greedy_collapse(K)[0].steps)
        budgets |= {max(n, 1), max(n - 1, 1)}
    for budget in budgets:
        verdict = is_collapsible(K, SearchBudget(budget))
        steps = (None if verdict.certificate is None
                 else verdict.certificate.steps)
        want = _reference_is_collapsible(K, budget)
        assert (verdict.kind, steps, verdict.nodes) == (
            _refuted(K, want) or want)


@given(two_or_three_complexes, st.data())
@settings(max_examples=150, deadline=None)
def test_replay_matches_reference_on_valid_and_corrupted_certificates(K,
                                                                      data):
    steps, _ = _reference_greedy(K)
    candidates = [steps, steps + (("zz",),)]
    if steps:
        i = data.draw(st.integers(0, len(steps) - 1))
        candidates.append(steps[:i] + steps[i + 1:])               # dropped
        candidates.append(steps[:i] + (("v0", "zz"),) + steps[i:])  # absent
    if len(steps) > 1:
        i = data.draw(st.integers(0, len(steps) - 2))
        candidates.append(steps[:i] + (steps[i + 1], steps[i])
                          + steps[i + 2:])                         # swapped
    for candidate in candidates:
        result = replay(K, CollapseCertificate(candidate))
        final, trace, failure = _reference_replay(K, candidate)
        assert (_final(result), result.trace, result.failure) == (
            final, trace, failure)
        assert result.collapsed_to_point == (
            final is not None and len(final) == 1)


@given(two_complexes)
@settings(max_examples=200, deadline=None)
def test_greedy_decides_dimension_two(K):
    # a budget of one node would stop any search: dim <= 2 never reads it
    verdict = is_collapsible(K, SearchBudget(max_nodes=1))
    path, nodes = _reference_search(K)
    cert, _ = greedy_collapse(K)
    if euler_characteristic(K) != 1:
        assert path is None
        assert verdict == ("no", None, 1)
    elif path is None:
        assert verdict.kind == "no"
        assert verdict.nodes == len(cert.steps) + 1
    else:
        assert verdict.kind == "yes"
        assert verdict.certificate.steps == cert.steps == path
        assert verdict.nodes == nodes == len(cert.steps)


@given(three_complexes)
@settings(max_examples=60, deadline=None)
def test_search_matches_reference_from_dimension_three(K):
    verdict = is_collapsible(K)
    path, nodes = _reference_search(K)
    assert verdict.kind == ("no" if path is None else "yes")
    assert verdict.nodes == (nodes if euler_characteristic(K) == 1 else 1)
    if path is not None:
        assert verdict.certificate.steps == path


@given(two_or_three_complexes, st.sampled_from([1, 30, 10 ** 6]))
@settings(max_examples=150, deadline=None)
def test_search_called_directly_matches_reference(K, max_nodes):
    # is_collapsible answers most inputs from greedy; calling the search
    # itself reaches its success return and its backtracking through the memo
    assert collapse._search(K, max_nodes) == _reference_search(K, max_nodes)


def test_replay_and_elementary_collapse_use_no_heap(monkeypatch):
    class NoHeap:
        def __getattr__(self, name):
            raise AssertionError(f"heapq.{name} called")

    K = build([("a", "b", "c"), ("c", "d")])
    cert, _ = greedy_collapse(K)
    monkeypatch.setattr(collapse, "heapq", NoHeap())
    assert replay(K, cert).collapsed_to_point
    assert elementary_collapse(K, ("d",)).simplices == (
        K.simplices - {("d",), ("c", "d")})
    with pytest.raises(AssertionError, match="heapq"):
        greedy_collapse(K)   # greedy's own heap is what the patch guards


def annulus(segments):
    """Triangulated annulus between the cycles a0..a(n-1) and b0..b(n-1)."""
    tris = []
    for i in range(segments):
        j = (i + 1) % segments
        tris += [(f"a{i}", f"a{j}", f"b{i}"), (f"a{j}", f"b{i}", f"b{j}")]
    return build(tris, name=f"annulus{segments}")


def test_annulus_is_no_whatever_the_budget():
    K = annulus(4)
    assert len(K) == 32
    verdict = is_collapsible(K, SearchBudget(max_nodes=1))
    assert verdict.kind == "no"
    assert verdict.certificate is None


def test_search_depth_does_not_use_the_call_stack():
    # 51 collapse steps, deeper than the frames left under the lowered limit
    path = build([(f"p{i}", f"p{i + 1}") for i in range(12)])
    K = cone(cone(path, "x"), "y")
    assert K.dim() == 3
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        verdict = is_collapsible(K)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.kind == "yes"
    assert len(verdict.certificate) == 51
    assert replay(K, verdict.certificate).collapsed_to_point


def test_budget_validation():
    # a bool or a float is no node count: inf would never stop the search
    for max_nodes in (0, -1, True, False, 2.5, 1.0, float("inf"), "10"):
        with pytest.raises(ValueError,
                           match="max_nodes must be an integer >= 1"):
            SearchBudget(max_nodes=max_nodes)
    assert SearchBudget(max_nodes=1).max_nodes == 1


def test_search_budget_replace_builds_through_new():
    # the namedtuple's own _replace skips __new__ and built max_nodes=0
    with pytest.raises(ValueError, match="max_nodes must be an integer >= 1"):
        SearchBudget(5)._replace(max_nodes=0)
    budget = SearchBudget(5)._replace(max_nodes=7)
    assert type(budget) is SearchBudget and budget.max_nodes == 7


@given(base_complexes)
@settings(max_examples=40, deadline=None)
def test_cones_are_collapsible_with_chi_conserved(K):
    C = cone(K, "zz")
    verdict = is_collapsible(C)
    assert verdict.kind == "yes"
    cur = C
    for step in verdict.certificate.steps:
        cur = elementary_collapse(cur, step)
        assert euler_characteristic(cur) == 1
    assert len(cur) == 1


# --- the id core against the tuple-keyed core it replaced

def grid_disk(n):
    """The n x n grid disk, each square cut along one diagonal."""
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = (f"g{i}_{j}", f"g{i + 1}_{j}", f"g{i + 1}_{j + 1}",
                          f"g{i}_{j + 1}")
            tris += [(a, b, c), (a, c, d)]
    return build(tris, name=f"grid{n}")


def path(n):
    return build([(f"p{i}", f"p{i + 1}") for i in range(n)], name=f"path{n}")


def cone_plus_loop():
    """The cone over the 2 x 2 grid disk with a loop through a new vertex zz
    added: 70 simplices, homotopy equivalent to a circle, and far more
    collapse orders than a 20,000-node search can exhaust."""
    K = cone(grid_disk(2), "apex")
    return build([*K.maximal_simplices(), ("g0_0", "zz"), ("g2_2", "zz")],
                 name="cone_plus_loop")


def _seed_91_cones():
    """The distinct complexes among CONE_SWEEP's 1,000 seed-91 draws."""
    rng, cones = random.Random(91), {}
    for _ in range(1000):
        K = cone(build(random_cone_base(rng), name="base"), "apex",
                 name="rcone")
        cones.setdefault(K.simplices, K)
    return list(cones.values())


@given(two_or_three_complexes, st.sampled_from([1, 3, 30, 10 ** 6]),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_core_matches_the_tuple_keyed_core(K, max_nodes, rng):
    _assert_core_matches_the_old_one(K, {max_nodes}, rng)


@pytest.mark.parametrize("K", [*(grid_disk(n) for n in range(1, 7)),
                               path(200), path(1000), cone(path(30), "zz"),
                               cone(grid_disk(3), "apex"),
                               cone(grid_disk(5), "apex")],
                         ids=lambda K: K.name)
def test_core_matches_the_tuple_keyed_core_on_grids_and_paths(K):
    _assert_core_matches_the_old_one(K, {1, 50, 10 ** 6}, random.Random(7))


def test_core_matches_the_tuple_keyed_core_where_the_search_backtracks():
    # greedy gets stuck, so each direct call of the search runs to its end
    # or its budget; is_collapsible answers from chi = 0 before any walk
    _assert_core_matches_the_old_one(cone_plus_loop(), {1, 50, 2_000},
                                     random.Random(5))


def test_core_matches_the_tuple_keyed_core_on_the_seed_91_cones():
    cones = _seed_91_cones()
    assert len(cones) == 176
    rng = random.Random(91)
    for K in cones:
        _assert_core_matches_the_old_one(K, {3, 2_000}, rng)


def test_one_complex_builds_its_index_once(monkeypatch):
    built = []

    class Counted(complexes.SimplexIndex):
        __slots__ = ()

        def __init__(self, simplices):
            built.append(len(simplices))
            super().__init__(simplices)

    monkeypatch.setattr(complexes, "SimplexIndex", Counted)
    # a cone greedy collapses, and a tetrahedron and a point the search
    # has to exhaust
    for K in (cone(grid_disk(2), "apex"), build([("a", "b", "c", "d"),
                                                 ("e",)])):
        free_faces(K)
        K.cofaces(("g0_0",))
        K.maximal_simplices()
        cert, _ = greedy_collapse(K)
        replay(K, cert)
        is_collapsible(K)
        K.dim()
        euler_characteristic(K)
    assert built == [67, 16]


# --- large inputs: each takes well under a second with the id core

def test_grid_64_is_collapsible_and_its_certificate_replays():
    K = grid_disk(64)
    assert len(K) == 24833
    verdict = is_collapsible(K)
    assert verdict.kind == "yes"
    assert replay(K, verdict.certificate).collapsed_to_point


def test_path_10000_is_collapsible():
    verdict = is_collapsible(path(10_000))
    assert verdict.kind == "yes" and len(verdict.certificate) == 10_000


def test_cone_plus_loop_search_stops_at_the_budget():
    K = cone_plus_loop()
    assert (len(K), K.dim(), euler_characteristic(K)) == (70, 3, 0)
    assert collapse._search(K, 20_000) == (None, 20_001)


def test_cone_plus_loop_is_no_at_the_default_budget():
    # chi = 0 decides it before the search, which alone would end unknown
    # after 1,000,001 nodes
    assert is_collapsible(cone_plus_loop()) == ("no", None, 1)


# ----------------------------------------------------------- .cert format

def test_cert_roundtrip():
    cert, _ = greedy_collapse(triangle())
    cert2 = loads_cert(dumps_cert(cert))
    assert cert2.steps == cert.steps
    assert dumps_cert(CollapseCertificate(())) == ""


def test_cert_parse_error_line_number():
    with pytest.raises(ValueError, match="line 3"):
        loads_cert("a b\n# fine\nb b\n")
