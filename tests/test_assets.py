"""Validation of the bundled data files.

The interesting assertions are the ones a transcription could silently get
wrong: simplex counts, free-face structure, homology (via integer Smith
form of the boundary matrices), the decomposition identities, and the
certificate replays.
"""
import pytest

from splitcert import assets
from splitcert.collapse import (SearchBudget, free_faces, is_collapsible,
                                replay)
from splitcert.complexes import cone, euler_characteristic, intersection, union
from splitcert.groups import linking_number, smith_invariants, wirtinger
from splitcert.mazur import R9


# ----------------------------------------------------------- basic loading

def test_all_assets_load():
    for name in assets.COMPLEXES:
        assert len(assets.load_complex(name)) > 0
    for name in assets.CERTIFICATES:
        assert len(assets.load_certificate(name).steps) > 0
    for name in assets.DIAGRAMS:
        assert assets.load_diagram(name).arcs


def test_assets_dir_override(asset_copy):
    K = assets.load_complex("dunce_hat", assets_dir=asset_copy)
    assert K == assets.load_complex("dunce_hat")
    with pytest.raises(OSError):
        assets.load_complex("dunce_hat", assets_dir=asset_copy / "nope")


_LOADERS = [*((assets.load_complex, n) for n in assets.COMPLEXES),
            *((assets.load_certificate, n) for n in assets.CERTIFICATES),
            *((assets.load_diagram, n) for n in assets.DIAGRAMS)]


@pytest.mark.parametrize("load,name", _LOADERS,
                         ids=[f"{f.__name__}-{n}" for f, n in _LOADERS])
def test_bundled_and_copied_assets_load_alike(asset_copy, monkeypatch, load,
                                              name):
    # one path for both: the bundled directory, a --assets copy, and the
    # working directory for an empty --assets give equal objects
    bundled = load(name)
    assert load(name, assets_dir=asset_copy) == bundled
    assert load(name, assets_dir=str(asset_copy)) == bundled
    monkeypatch.chdir(asset_copy)
    assert load(name, assets_dir="") == bundled


@pytest.mark.parametrize("load,ext", [(assets.load_complex, "scx"),
                                      (assets.load_certificate, "cert"),
                                      (assets.load_diagram, "lnk")])
def test_a_missing_asset_names_its_path(tmp_path, load, ext):
    with pytest.raises(FileNotFoundError) as exc:
        load("nope", assets_dir=tmp_path)
    assert exc.value.filename == str(tmp_path / f"nope.{ext}")
    assert str(tmp_path / f"nope.{ext}") in str(exc.value)


@pytest.mark.parametrize("name,nv,ne,nt", [
    ("dunce_hat", 8, 24, 17),
    ("jester_hat", 9, 29, 21),
    ("jester_C", 9, 16, 8),
])
def test_face_vectors(name, nv, ne, nt):
    K = assets.load_complex(name)
    assert len(K.vertices()) == nv
    assert sum(len(s) == 2 for s in K.simplices) == ne
    assert sum(len(s) == 3 for s in K.simplices) == nt
    assert euler_characteristic(K) == nv - ne + nt == 1


@pytest.mark.parametrize("name", ["dunce_hat", "jester_hat", "jester_A",
                                  "jester_B", "jester_C"])
def test_pure_two_dimensional(name):
    K = assets.load_complex(name)
    assert K.dim() == 2
    assert all(len(s) == 3 for s in K.maximal_simplices())


# ------------------------------------------------- homology (SNF oracle)

def _boundary_matrices(K):
    """Integer boundary maps d2: triangles -> edges, d1: edges -> vertices,
    as {column: entry} rows."""
    verts = K.vertices()
    edges = sorted(s for s in K.simplices if len(s) == 2)
    tris = sorted(s for s in K.simplices if len(s) == 3)
    vi = {v: i for i, v in enumerate(verts)}
    ei = {e: i for i, e in enumerate(edges)}
    d1 = [{vi[v]: 1, vi[u]: -1} for (u, v) in edges]
    d2 = [{ei[(v, w)]: 1, ei[(u, w)]: -1, ei[(u, v)]: 1} for (u, v, w) in tris]
    return d2, d1


def _homology(K):
    """(H1 free rank, H1 torsion factors, H2 free rank) over Z."""
    d2, d1 = _boundary_matrices(K)
    s2 = smith_invariants(d2) if d2 else []
    s1 = smith_invariants(d1) if d1 else []
    rank2, rank1 = len(s2), len(s1)
    n_edges = len(d1)
    n_tris = len(d2)
    h1_rank = (n_edges - rank1) - rank2
    torsion = tuple(d for d in s2 if d > 1)
    h2_rank = n_tris - rank2
    return h1_rank, torsion, h2_rank


@pytest.mark.parametrize("name", ["dunce_hat", "jester_hat"])
def test_contractible_candidates_have_trivial_homology(name):
    K = assets.load_complex(name)
    h1_rank, torsion, h2_rank = _homology(K)
    assert h1_rank == 0
    assert torsion == ()
    assert h2_rank == 0


def test_homology_oracle_detects_a_circle():
    # sanity-check the oracle itself on the hollow triangle
    from splitcert.complexes import build
    hollow = build([("a", "b"), ("b", "c"), ("a", "c")])
    h1_rank, torsion, h2_rank = _homology(hollow)
    assert (h1_rank, torsion, h2_rank) == (1, (), 0)


# ------------------------------------------------------ collapse structure

@pytest.mark.parametrize("name", ["dunce_hat", "jester_hat"])
def test_no_free_faces(name):
    assert free_faces(assets.load_complex(name)) == []


def test_dunce_hat_not_collapsible():
    verdict = is_collapsible(assets.load_complex("dunce_hat"))
    assert verdict.kind == "no"


@pytest.mark.parametrize("name", ["jester_C", "jester_A", "jester_B"])
def test_budget_is_a_hard_stop(name):
    # the budget only limits the dim >= 3 search: the root, plus the one
    # node that tripped the budget
    K = cone(assets.load_complex(name), "apex")
    verdict = is_collapsible(K, SearchBudget(1))
    assert verdict.kind == "unknown"
    assert verdict.nodes == 2


def test_certificates_replay_to_points():
    expected_end = {"jester_C": "v", "jester_A": "w", "jester_B": "w"}
    for name, end in expected_end.items():
        K = assets.load_complex(name)
        result = replay(K, assets.load_certificate(name))
        assert result.ok, f"{name} certificate broke"
        assert result.collapsed_to_point
        assert result.final.vertices() == [end]


def test_jester_C_certificate_matches_stated_order():
    cert = assets.load_certificate("jester_C")
    head = [("d", "w"), ("d", "e"), ("e", "f"), ("f", "v"), ("f", "g"),
            ("d", "g"), ("c", "g"), ("a", "g")]
    tail = [("d",), ("e",), ("f",), ("g",), ("w",), ("c",), ("b",), ("a",)]
    assert list(cert.steps) == head + tail


def test_decomposition_identities():
    J = assets.load_complex("jester_hat")
    A = assets.load_complex("jester_A")
    B = assets.load_complex("jester_B")
    C = assets.load_complex("jester_C")
    assert union(A, B).simplices == J.simplices
    assert intersection(A, B).simplices == C.simplices


def test_jester_edge_multiplicities():
    """Every edge lies in 2 or 3 triangles; the triple edges form a single
    5-cycle (the rim), so the complex has no boundary edge at all."""
    J = assets.load_complex("jester_hat")
    mult = {e: len(J.cofaces(e)) for e in J.simplices if len(e) == 2}
    assert set(mult.values()) == {2, 3}
    rim = sorted(e for e, m in mult.items() if m == 3)
    assert len(rim) == 5
    # walk the rim: it must close up into one cycle
    adj = {}
    for (u, v) in rim:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    assert all(len(nbrs) == 2 for nbrs in adj.values())
    start = rim[0][0]
    seen = {start}
    cur, prev = adj[start][0], start
    while cur != start:
        seen.add(cur)
        nxt = [x for x in adj[cur] if x != prev]
        assert len(nxt) == 1
        prev, cur = cur, nxt[0]
    assert seen == set(adj)


# ------------------------------------------------------------ link diagram

def test_mazur_link_shape():
    d = assets.load_diagram("mazur_link")
    assert len(d.arcs) == 9
    assert len(d.crossings) == 9
    assert sorted(len(c) for c in d.components) == [3, 6]


def test_mazur_link_presentation():
    p = wirtinger(assets.load_diagram("mazur_link"))
    assert len(p.generators) == 9
    assert len(p.relators) == 9
    assert p.relators[8] == R9


def test_mazur_linking_number():
    assert abs(linking_number(assets.load_diagram("mazur_link"), 0, 1)) == 1
