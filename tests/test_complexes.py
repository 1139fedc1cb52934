import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcert.collapse import is_collapsible
from splitcert.complexes import (SimplicialComplex, build, cone,
                                 euler_characteristic, faces, intersection,
                                 loads_scx, make_simplex, union)

# small random complexes over a fixed vertex pool
_vertex = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_simplex = st.sets(_vertex, min_size=1, max_size=3).map(tuple)
complexes = st.lists(_simplex, max_size=8).map(build)


def test_make_simplex_sorts_and_validates():
    assert make_simplex(["c", "a", "b"]) == ("a", "b", "c")
    with pytest.raises(ValueError):
        make_simplex([])
    with pytest.raises(ValueError):
        make_simplex(["a", "a"])
    with pytest.raises(ValueError, match="bad vertex name"):
        make_simplex(["a b"])
    with pytest.raises(ValueError, match=r"bad vertex name 'a\\n'"):
        make_simplex(["a\n"])


def test_faces_of_triangle():
    fs = set(faces(("a", "b", "c")))
    assert len(fs) == 7
    assert ("a",) in fs and ("a", "c") in fs and ("a", "b", "c") in fs


def test_build_closure():
    K = build([("a", "b", "c")])
    assert len(K) == 7
    assert ("b", "c") in K
    assert ["c", "b"] in K  # membership normalizes vertex order
    assert K.dim() == 2


def test_build_is_idempotent_on_maximal_simplices():
    K = build([("a", "b", "c"), ("c", "d"), ("e",)])
    assert build(K.maximal_simplices()) == K
    assert K.maximal_simplices() == [("a", "b", "c"), ("c", "d"), ("e",)]


@given(complexes)
@settings(max_examples=60)
def test_build_roundtrip_property(K):
    assert build(K.maximal_simplices()) == K


def test_euler_characteristic_known_values():
    assert euler_characteristic(build([])) == 0
    assert euler_characteristic(build([("a",)])) == 1
    assert euler_characteristic(build([("a", "b", "c")])) == 1
    # hollow triangle: 3 vertices + 3 edges
    hollow = build([("a", "b"), ("b", "c"), ("a", "c")])
    assert euler_characteristic(hollow) == 0


@given(complexes, complexes)
@settings(max_examples=60)
def test_inclusion_exclusion(K, L):
    chi = euler_characteristic
    assert chi(union(K, L)) == chi(K) + chi(L) - chi(intersection(K, L))


def test_union_intersection_subcomplex():
    K = build([("a", "b")])
    L = build([("b", "c")])
    U = union(K, L)
    assert K.simplices <= U.simplices and L.simplices <= U.simplices
    assert intersection(K, L).simplices == frozenset({("b",)})
    assert not U.simplices <= K.simplices


def test_cone_adds_apex_everywhere():
    K = build([("a", "b"), ("c",)])
    C = cone(K, "p")
    assert ("a", "b", "p") in C
    assert ("c", "p") in C
    assert euler_characteristic(C) == 1


@given(complexes)
@settings(max_examples=60)
def test_cone_has_chi_one(K):
    assert euler_characteristic(cone(K, "zz")) == 1


def test_cone_rejects_existing_apex():
    K = build([("a", "b")])
    with pytest.raises(ValueError, match="already a vertex"):
        cone(K, "a")


def test_cofaces():
    K = build([("a", "b", "c"), ("a", "b", "d")])
    assert K.cofaces(("a", "b")) == [("a", "b", "c"), ("a", "b", "d")]
    assert K.cofaces(("c",)) == [("a", "c"), ("b", "c")]
    # unsorted input and repeated vertices name the same simplex
    assert K.cofaces(("b", "a", "a")) == [("a", "b", "c"), ("a", "b", "d")]
    assert K.cofaces(("x",)) == []
    assert K.cofaces(("a", "b", "c")) == []


@pytest.mark.parametrize("simplices, message", [
    ({("a", "b")}, r"simplex \('a', 'b'\) needs its facet \('a',\)"),
    ({("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("a", "b", "c")},
     r"simplex \('a', 'b', 'c'\) needs its facet \('b', 'c'\)"),
])
def test_a_set_that_is_not_face_closed_names_the_missing_facet(simplices,
                                                               message):
    K = SimplicialComplex(frozenset(simplices))
    for query in (K.dim, K.maximal_simplices, lambda: is_collapsible(K)):
        with pytest.raises(ValueError, match=message):
            query()


def test_complex_equality_ignores_name():
    K = build([("a", "b")], name="K")
    L = build([("a", "b")], name="L")
    assert K == L
    assert hash(K) == hash(L)
    # the name shows only in the repr
    assert repr(K) == "SimplicialComplex('K', 3 simplices)"


# ------------------------------------------------------------ .scx format

def test_scx_comments_and_blank_lines():
    K = loads_scx("# header\n\na b c\n  # indented comment\nc d # trailing\n")
    assert K.maximal_simplices() == [("a", "b", "c"), ("c", "d")]


def test_scx_error_carries_line_number():
    with pytest.raises(ValueError, match="line 2"):
        loads_scx("a b\na a\n")


def test_empty_scx_is_empty_complex():
    K = loads_scx("")
    assert len(K) == 0
    assert euler_characteristic(K) == 0
    assert isinstance(K, SimplicialComplex)
