"""End-to-end acceptance checks.

One test per headline guarantee, each enforcing the stated tolerance and
wall-clock budget and printing a single PASS line (shown with ``pytest -rA``).
These intentionally re-derive expectations with in-test oracles instead of
trusting library internals wherever a second route exists.
"""

import math
import random
import time
from itertools import combinations

from splitcert.assets import load_certificate, load_complex, load_diagram
from splitcert.collapse import (SearchBudget, elementary_collapse, free_faces,
                                greedy_collapse, is_collapsible, replay)
from splitcert.complexes import (build, cone, euler_characteristic,
                                  intersection, union)
from splitcert.groups import (Crossing, LinkDiagram, Presentation,
                              abelianization, parse_word, smith_invariants,
                              wirtinger)
from splitcert.hyperbolic import (rotation, same_isometry, triangle_defect)
from splitcert.mazur import (derivation_chain, target_presentation,
                             triangle_certificate)
from splitcert.report import PASS, TIETZE_WALK_START, verify_all
from splitcert.splitting import (CONCLUSION, distinguishable, family_demo,
                                 verify_spine_split)

from draws import random_cone_base, random_multiset, random_tietze_walk

MERIDIAN_DISPLACEMENT = 3.3286485001451394  # frozen high-precision oracle


def _stamp(label: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"acceptance {label}: PASS ({elapsed:.2f}s, budget {limit:g}s)")
    assert elapsed < limit, f"{label} took {elapsed:.2f}s (budget {limit:g}s)"


def test_criterion_1_dunce_hat_has_no_free_face():
    t0 = time.perf_counter()
    K = load_complex("dunce_hat")
    assert free_faces(K) == []
    assert is_collapsible(K).kind == "no"
    assert euler_characteristic(K) == 1
    _stamp("1 dunce hat", t0, 1.0)


def test_criterion_2_jester_hat_splits():
    t0 = time.perf_counter()
    J = load_complex("jester_hat")
    A = load_complex("jester_A")
    B = load_complex("jester_B")
    C = load_complex("jester_C")
    assert free_faces(J) == []
    assert union(A, B) == J
    assert intersection(A, B) == C

    certs = {}
    for name, K, endpoint in (("jester_C", C, "v"),
                              ("jester_A", A, "w"),
                              ("jester_B", B, "w")):
        certs[name] = load_certificate(name)
        result = replay(K, certs[name])
        assert result.ok and result.collapsed_to_point
        assert result.final.vertices() == [endpoint]

    bundled = (certs["jester_A"], certs["jester_B"], certs["jester_C"])
    cert = verify_spine_split(J, A, B, bundled)
    assert cert.conclusion == CONCLUSION == "splits-into-closed-balls"
    assert cert.evidence == bundled
    _stamp("2 jester split", t0, 1.0)


def test_criterion_3_search_autonomy_and_chi_conservation():
    t0 = time.perf_counter()
    budget = SearchBudget(max_nodes=10**6)
    for name in ("jester_C", "jester_A", "jester_B"):
        K = load_complex(name)
        verdict = is_collapsible(K, budget)
        assert verdict.kind == "yes"
        assert verdict.nodes <= 10**6
        result = replay(K, verdict.certificate)
        assert result.ok and result.collapsed_to_point

    rng = random.Random(317)
    for _ in range(1000):
        K = cone(build(random_cone_base(rng), name="base"), "apex",
                 name="rcone")
        chi = euler_characteristic(K)
        cert, residual = greedy_collapse(K)
        current = K
        for face in cert.steps:
            current = elementary_collapse(current, face)
            assert euler_characteristic(current) == chi
        assert current == residual
    _stamp("3 search autonomy", t0, 30.0)


def test_criterion_4_wirtinger_presentation():
    t0 = time.perf_counter()
    p = wirtinger(load_diagram("mazur_link"))
    assert len(p.generators) == 9
    assert len(p.relators) == 9
    ab = abelianization(p)
    assert ab.free_rank == 2 and ab.factors == ()
    assert p.relators[8] == parse_word("x1 X7 X2 x7")

    chain = derivation_chain()
    assert chain.x1_word == parse_word("Beta Beta alpha beta")
    assert chain.x5_word == parse_word("Beta Beta alpha alpha")
    assert chain.ok
    _stamp("4 wirtinger", t0, 1.0)


def test_criterion_5_triangle_group_certificate():
    t0 = time.perf_counter()
    cert = triangle_certificate()
    a, b, c = cert.vertices

    assert cert.relator_report.max_residual < 1e-9
    assert len(cert.order_displacements) == 10  # beta^1..4, gamma^1..6
    assert min(cert.order_displacements) > 1e-3
    assert cert.rotation_b_matches

    # beta and gamma are elliptics of the right order about the right
    # vertices; the sense of rotation depends on how the triangle is laid
    # out in the disk, so accept either sign.
    h_beta, h_gamma = cert.assignment["beta"], cert.assignment["gamma"]
    assert any(same_isometry(h_beta, rotation(c, s * 2 * math.pi / 5))
               for s in (1, -1))
    assert any(same_isometry(h_gamma, rotation(a, s * 2 * math.pi / 7))
               for s in (1, -1))

    assert cert.meridian.word_displacement > 1e-3
    assert abs(cert.meridian.word_displacement - MERIDIAN_DISPLACEMENT) < 1e-9

    assert abs(triangle_defect(a, b, c) - 11 * math.pi / 70) < 1e-9
    _stamp("5 triangle certificate", t0, 1.0)


def _minor_gcd_invariants(rows):
    """Brute-force invariant factors via determinantal divisors."""
    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:]
                                              for r in m[1:]])
                   for j in range(len(m)))

    n_rows, n_cols = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for ri in combinations(range(n_rows), k):
            for ci in combinations(range(n_cols), k):
                g = math.gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def test_criterion_6_abelianization_oracles():
    t0 = time.perf_counter()
    free_abelian = Presentation(("a", "b"), (parse_word("a b A B"),))
    ab = abelianization(free_abelian)
    assert ab.free_rank == 2 and ab.factors == ()

    target = abelianization(target_presentation())
    assert target.free_rank == 0 and target.factors == ()

    # Exponent matrix of gamma^7, beta^5, (beta gamma)^2 over (beta, gamma).
    exponents = [[0, 7], [5, 0], [2, 2]]
    oracle = _minor_gcd_invariants(exponents)
    assert oracle == [1, 1]
    assert smith_invariants([{j: v for j, v in enumerate(r) if v}
                             for r in exponents]) == oracle

    # every move of the walk is certified, so its end presents the group
    # its start does
    end = random_tietze_walk(random.Random(62), 500)
    assert abelianization(end) == abelianization(TIETZE_WALK_START)
    _stamp("6 abelianization oracles", t0, 5.0)


def test_criterion_7_sum_invariant_family():
    t0 = time.perf_counter()
    assert family_demo(10) == 1024
    rng = random.Random(1009)
    for _ in range(1000):
        m = random_multiset(rng)
        assert not distinguishable(m, m)
    _stamp("7 sum invariant", t0, 5.0)


def test_criterion_8_verify_all_is_green_and_byte_stable():
    t0 = time.perf_counter()
    first = verify_all()
    second = verify_all()
    assert first.overall == PASS
    assert first.render() == second.render()
    _stamp("8 verify-all", t0, 30.0)


# --- scale: the collapse core is O(|K|·d), so these sizes take well under
# a second; the budgets only catch a return to rescanning the complex

def _grid(n):
    """The n x n grid disk, each square cut along the same diagonal."""
    def v(i, j):
        return f"g{i}_{j}"
    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return build(tris, name=f"grid{n}")


def test_scale_grid_16_greedy_reaches_a_point():
    K = _grid(16)
    t0 = time.perf_counter()
    _, residual = greedy_collapse(K)
    assert len(K) == 1601 and len(residual) == 1
    _stamp("scale grid 16 greedy", t0, 2.0)


def test_scale_grid_64_greedy_and_replay_reach_a_point():
    K = _grid(64)
    t0 = time.perf_counter()
    cert, residual = greedy_collapse(K)
    result = replay(K, cert)
    assert len(K) == 24833 and len(residual) == 1
    assert result.ok and result.collapsed_to_point
    _stamp("scale grid 64 greedy + replay", t0, 10.0)


def test_scale_path_5000_is_collapsible_and_replays():
    K = build([(f"p{i}", f"p{i + 1}") for i in range(5000)])
    t0 = time.perf_counter()
    verdict = is_collapsible(K)
    assert verdict.kind == "yes" and len(verdict.certificate) == 5000
    assert replay(K, verdict.certificate).collapsed_to_point
    _stamp("scale path 5000", t0, 5.0)


def test_scale_cone_over_grid_8_greedy_says_yes_and_replays():
    K = cone(_grid(8), "apex")
    # dimension 3, but greedy reaches the point, so the search never runs:
    # a greedy "yes" counts one node per step
    assert K.dim() == 3
    t0 = time.perf_counter()
    verdict = is_collapsible(K)
    assert verdict.kind == "yes"
    assert verdict.nodes == len(verdict.certificate) == 417
    assert replay(K, verdict.certificate).collapsed_to_point
    _stamp("scale cone over grid 8 greedy", t0, 5.0)


def test_scale_torus_link_2_1000_abelianizes_to_z2():
    # T(2,1000): 1,000 arcs, two components; each Wirtinger row is
    # e_out - e_in, so the Smith form's union-find pre-pass takes every
    # row and is near-linear (a few ms); the budget catches a return to
    # dense or rescanning elimination, which takes seconds to minutes here.
    n = 1000
    arcs = tuple(f"x{i}" for i in range(n))
    crossings = [Crossing(arcs[(i + 1) % n], arcs[i], arcs[(i + 2) % n], 1)
                 for i in range(n)]
    random.Random(0).shuffle(crossings)
    d = LinkDiagram(arcs, tuple(crossings), (arcs[0::2], arcs[1::2]))
    p = wirtinger(d)
    t0 = time.perf_counter()
    assert str(abelianization(p)) == "Z + Z"
    _stamp("scale T(2,1000) abelianization", t0, 1.0)
