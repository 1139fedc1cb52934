import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcert.collapse import (CollapseCertificate, SearchBudget, dumps_cert,
                                elementary_collapse, free_faces, greedy_collapse,
                                is_collapsible, is_free_face, loads_cert, replay)
from splitcert.complexes import build, cone, euler_characteristic

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


def test_is_free_face():
    K = triangle()
    assert is_free_face(K, ("a", "b"))
    assert not is_free_face(K, ("a",))
    assert not is_free_face(K, ("a", "z"))


def test_elementary_collapse_removes_pair():
    K = triangle()
    K2 = elementary_collapse(K, ("a", "b"))
    assert ("a", "b") not in K2
    assert ("a", "b", "c") not in K2
    assert len(K2) == len(K) - 2


def test_elementary_collapse_rejects_non_free():
    K = triangle()
    with pytest.raises(ValueError, match="not a free face"):
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
    assert result.trace[-1].reason == "absent simplex"

    not_free = CollapseCertificate((("a",),))
    result = replay(K, not_free)
    assert not result.ok
    assert "not free" in result.trace[-1].reason


def test_replay_empty_certificate():
    K = triangle()
    result = replay(K, CollapseCertificate(()))
    assert result.ok
    assert result.final == K
    assert not result.collapsed_to_point


def test_replay_records_cofaces():
    cert, _ = greedy_collapse(triangle())
    result = replay(triangle(), cert)
    assert result.trace[0].coface == ("a", "b", "c")


def test_is_collapsible_triangle():
    verdict = is_collapsible(triangle())
    assert verdict.kind == "yes"
    assert bool(verdict)
    rr = replay(triangle(), verdict.certificate)
    assert rr.collapsed_to_point


def test_is_collapsible_two_points_is_no():
    K = build([("a",), ("b",)])
    verdict = is_collapsible(K)
    assert verdict.kind == "no"
    assert verdict.certificate is None
    assert not verdict


def test_budget_exhaustion_reports_unknown():
    tetrahedron = build([("a", "b", "c", "d")])
    verdict = is_collapsible(tetrahedron, SearchBudget(max_nodes=1))
    assert verdict.kind == "unknown"
    assert verdict.nodes >= 1


def _reference_search(K):
    """Exhaustive recursive backtracking search over free faces, memoized,
    children in tie-break order, no budget: the reference for the greedy
    decision in dimension <= 2 and the stack-based search from dimension 3.
    Returns (certificate steps or None, nodes)."""
    seen = set()
    nodes = 0

    def dfs(cur):
        nonlocal nodes
        if len(cur) == 1:
            return []
        if cur.simplices in seen:
            return None
        seen.add(cur.simplices)
        nodes += 1
        for face in free_faces(cur):
            rest = dfs(elementary_collapse(cur, face))
            if rest is not None:
                return [face] + rest
        return None

    path = dfs(K)
    return (None if path is None else tuple(path)), nodes


@given(two_complexes)
@settings(max_examples=200, deadline=None)
def test_greedy_decides_dimension_two(K):
    # a budget of one node would stop any search: dim <= 2 never reads it
    verdict = is_collapsible(K, SearchBudget(max_nodes=1))
    path, nodes = _reference_search(K)
    cert, _ = greedy_collapse(K)
    if path is None:
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
    assert verdict.nodes == nodes
    if path is not None:
        assert verdict.certificate.steps == path


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
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


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


# ----------------------------------------------------------- .cert format

def test_cert_roundtrip():
    cert, _ = greedy_collapse(triangle())
    text = dumps_cert(cert, header="greedy run")
    cert2 = loads_cert(text)
    assert cert2.steps == cert.steps


def test_cert_parse_error_line_number():
    with pytest.raises(ValueError, match="line 3"):
        loads_cert("a b\n# fine\nb b\n")
