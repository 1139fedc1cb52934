"""The check registry and the named commands that are views over it.

The golden files hold the default stdout of each command; the views must
reproduce it byte for byte.
"""
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, compress, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcert import assets, collapse, groups, mazur, report, splitting
from splitcert.cli import main
from splitcert.collapse import (CollapseCertificate, CollapseVerdict,
                                SearchBudget, greedy_collapse, is_collapsible)
from splitcert.complexes import SimplicialComplex, build, cone, faces, union
from splitcert.report import (CHECKS, FAIL, INCOMPLETE, PASS, SKIP, Check,
                              CheckResult, RunContext, VerificationReport,
                              run_checks, verify_all)
from splitcert.splitting import (OMEGA, FactorMultiset, SplitError,
                                 distinguishable, multiset_of,
                                 verify_spine_split)

import draws
from draws import random_cone_base

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv,golden", [
    (["verify-all"], "verify-all.txt"),
    (["dunce", "check"], "dunce_check.txt"),
    (["jester", "verify-split"], "jester_verify-split.txt"),
    (["mazur", "certify"], "mazur_certify.txt"),
])
def test_default_output_matches_golden(argv, golden):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-m", "splitcert.cli", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv,missing", [
    (["dunce", "check"], "dunce_hat.scx"),
    (["jester", "verify-split"], "jester_A.scx"),
    (["mazur", "certify"], "mazur_link.lnk"),
    (["jester", "verify-split"], "jester_A.cert"),
])
def test_named_command_without_its_asset_exits_2(argv, missing, asset_copy,
                                                 capsys):
    (asset_copy / missing).unlink()
    code = main([*argv, "--assets", str(asset_copy)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and missing in captured.err


def test_groups_cover_what_each_named_command_decides():
    groups = {}
    for check in CHECKS:
        groups.setdefault(check.group, []).append(check.id)
    assert groups["dunce"] == ["DUNCE_FREE_FACES", "DUNCE_SEARCH_VERDICT",
                               "DUNCE_EULER"]
    assert groups["jester"] == ["JESTER_SPLIT_CERT"]
    assert groups["mazur"] == [
        "MAZUR_R9", "MAZUR_DERIVATION_CHAIN", "TRIANGLE_RELATORS",
        "TRIANGLE_ELLIPTIC_ORDERS", "TRIANGLE_BG_HALF_TURN",
        "MERIDIAN_DISPLACEMENT"]
    ids = [c.id for c in CHECKS]
    assert len(ids) == len(set(ids)) == 29


def test_budget_exhaustion_in_a_check_is_skip(monkeypatch, capsys):
    # the budget only limits the dim >= 3 search, so search two tetrahedra
    K = union(build([("a", "b", "c", "d")]), build([("b", "c", "d", "e")]))

    def search(ctx):
        verdict = is_collapsible(K, SearchBudget(1))
        if verdict.kind == "unknown":
            return SKIP, f"budget exhausted after {verdict.nodes} nodes"
        return PASS, f"verdict {verdict.kind}"

    check = Check("SEARCH", None, search)
    (result,) = run_checks([check], RunContext()).checks
    assert result.status == SKIP
    assert result.detail == "budget exhausted after 2 nodes"

    # an unverified claim never reads as PASS, and no command exits 0 on it
    passed = CheckResult("OTHER", PASS, "")
    assert VerificationReport((passed, result)).overall == INCOMPLETE
    assert VerificationReport(
        (result, CheckResult("BAD", FAIL, ""))).overall == FAIL
    monkeypatch.setattr(report, "CHECKS", (check,))
    assert main(["verify-all"]) == 1
    assert capsys.readouterr().out.endswith("\noverall INCOMPLETE\n")
    monkeypatch.setattr(report, "CHECKS", (check._replace(group="dunce"),))
    assert main(["dunce", "check"]) == 1
    assert capsys.readouterr().out.endswith("\ndunce hat: INCOMPLETE\n")


@pytest.mark.parametrize("argv,check_id,label", [
    (["dunce", "check"], "DUNCE_SEARCH_VERDICT", "dunce hat"),
    (["jester", "verify-split"], "JESTER_SPLIT_CERT", "jester split"),
    (["mazur", "certify"], "MERIDIAN_DISPLACEMENT",
     "PI1_BOUNDARY_NONTRIVIAL"),
], ids=["dunce", "jester", "mazur"])
@pytest.mark.parametrize("status,overall", [
    (PASS, PASS), (FAIL, FAIL), (SKIP, INCOMPLETE)])
def test_a_named_command_prints_and_exits_on_its_overall(
        argv, check_id, label, status, overall, monkeypatch, capsys):
    group = argv[0]
    monkeypatch.setattr(report, "CHECKS", (
        Check(check_id, group, lambda ctx: (status, "stubbed")),))
    code = main(argv)
    out = capsys.readouterr().out.splitlines()
    (verdict,) = [line for line in out if line.startswith(f"{label}: ")]
    # a jester split that is not PASS names the detail of its check
    named = group == "jester" and overall != PASS
    assert verdict == f"{label}: {overall}" + (" (stubbed)" if named else "")
    assert code == (0 if overall == PASS else 1)


def test_refuted_part_named_unknown_is_fail(monkeypatch):
    # the dunce hat has no free face, so any certificate fails at step 0
    ctx = RunContext()
    part = SimplicialComplex(ctx.complex("dunce_hat").simplices,
                             name="unknown_part")
    bad = CollapseCertificate((("1", "2"),))
    monkeypatch.setattr(splitting, "verify_spine_split", lambda *args: (
        verify_spine_split(union(part, part), part, part, (bad, bad, bad))))

    (result,) = run_checks([c for c in CHECKS if c.id == "JESTER_SPLIT_CERT"],
                           ctx).checks
    assert result.status == FAIL
    assert result.detail == ("unknown_part: replay failed at step 0 (1 2): "
                             "not free (3 cofaces)")


def test_triangle_certificate_built_once_per_run(monkeypatch):
    calls = []
    original = mazur.triangle_certificate

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(mazur, "triangle_certificate", counted)
    assert verify_all().overall == PASS
    assert calls == [1]


def test_wirtinger_runs_once_per_run(monkeypatch):
    calls, checks = [], []
    original = groups.wirtinger
    check = groups.LinkDiagram.__new__

    def counted_check(cls, *args, **kwargs):
        checks.append(args)
        return check(cls, *args, **kwargs)

    # a diagram checks itself in __new__; _make would skip the check
    monkeypatch.setattr(groups.LinkDiagram, "__new__", counted_check)

    def counted(diagram):
        calls.append(diagram)
        return original(diagram)

    # modules import it by name, so replace every reference to it
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("splitcert")
                and getattr(module, "wirtinger", None) is original):
            monkeypatch.setattr(module, "wirtinger", counted)
    assert verify_all().overall == PASS
    assert len(calls) == 1 and len(checks) == 1


def test_each_complex_loads_once_and_a_failed_load_is_remembered(
        asset_copy, monkeypatch):
    (asset_copy / "dunce_hat.scx").unlink()
    loads = []
    original = assets.load_complex

    def counted(name, assets_dir=None):
        loads.append(name)
        return original(name, assets_dir)

    monkeypatch.setattr(assets, "load_complex", counted)
    report = verify_all(assets_dir=asset_copy)
    assert sorted(loads) == sorted(assets.COMPLEXES)
    dunce = [c for c in report.checks if c.check_id.startswith("DUNCE_")]
    assert [c.status for c in dunce] == [FAIL] * 3
    assert all(c.detail.startswith("asset unavailable: ") for c in dunce)


# ------------------------------------------------------------- CONE_SWEEP

def _enumerated_cones():
    return [cone(build(base, name="base"), "apex", name="rcone")
            for base in report.cone_bases()]


def _vertex_names(simplices):
    return {v for s in simplices for v in s}


def test_cone_bases_are_every_complex_on_at_most_4_vertices():
    # close every subset of the faces of at most 3 vertices on v0..v3 under
    # taking faces, and keep those whose vertices are v0..v(n-1) for an n
    names = ["v0", "v1", "v2", "v3"]
    candidates = [s for r in (1, 2, 3) for s in combinations(names, r)]
    closed = set()
    for bits in product((0, 1), repeat=len(candidates)):
        closed.add(frozenset(f for s in compress(candidates, bits)
                             for f in faces(s)))
    complexes = set()
    for K in closed:
        n = len(_vertex_names(K))
        if n and _vertex_names(K) == set(names[:n]):
            complexes.add(K)
    assert Counter(len(_vertex_names(K)) for K in complexes) == {
        1: 1, 2: 2, 3: 9, 4: 113}
    enumerated = [build(base).simplices for base in report.cone_bases()]
    assert len(enumerated) == len(set(enumerated)) == 125
    assert set(enumerated) == complexes
    # each base is sorted and face-closed already, so the sweep skips build
    assert enumerated == [frozenset(base) for base in report.cone_bases()]


def test_every_seed_91_base_on_at_most_4_vertices_is_enumerated():
    # the differential check against the sampled sweep the enumeration
    # replaces: of its 176 distinct seed-91 bases (on at most 5 vertices),
    # the 67 on at most 4 vertices must all be enumerated
    rng = random.Random(91)
    drawn = {build(random_cone_base(rng)).simplices for _ in range(1000)}
    small = {K for K in drawn if len(_vertex_names(K)) <= 4}
    assert (len(drawn), len(small)) == (176, 67)
    assert small <= {build(base).simplices for base in report.cone_bases()}


def test_cone_sweep_fails_on_a_certificate_that_stops_short(monkeypatch):
    original = collapse.is_collapsible
    enumerated = _enumerated_cones()
    for index in (0, 60, 124):
        cones = []

        def last_step_dropped_on_one_cone(K):
            verdict = original(K)
            cones.append(K)
            if len(cones) == index + 1:
                steps = verdict.certificate.steps[:-1]
                verdict = verdict._replace(
                    certificate=CollapseCertificate(steps))
            return verdict

        monkeypatch.setattr(collapse, "is_collapsible",
                            last_step_dropped_on_one_cone)
        status, detail = report._cone_sweep(RunContext())
        # the sweep stops at the corrupted cone and names it
        assert len(cones) == index + 1
        assert cones[index].simplices == enumerated[index].simplices
        faces_of = ", ".join(map(" ".join, cones[index].maximal_simplices()))
        assert (status, detail) == (
            FAIL, f"cone {index} ({faces_of}): certificate does not replay")
    assert detail == ("cone 124 (apex v0 v1 v2, apex v0 v1 v3, apex v0 v2 v3, "
                      "apex v1 v2 v3): certificate does not replay")


def _old_random_cone_complex(rng):
    """The sweep's cone draw as it was, building the complex of every draw."""
    nv = rng.randint(1, 5)
    verts = [f"v{i}" for i in range(nv)]
    maximal = [[v] for v in verts]
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(3, nv))
        maximal.append(rng.sample(verts, size))
    return cone(build(maximal, name="base"), "apex", name="rcone")


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_random_cone_complex_draws_as_before(seed):
    rng, old_rng = random.Random(seed), random.Random(seed)
    for _ in range(20):
        K = cone(build(random_cone_base(rng), name="base"), "apex",
                 name="rcone")
        assert K.simplices == _old_random_cone_complex(old_rng).simplices
    assert rng.getstate() == old_rng.getstate()


def test_cone_sweep_replays_each_distinct_cone_once(monkeypatch):
    # exactly the enumerated cones, each once, in enumeration order
    want = [K.simplices for K in _enumerated_cones()]
    assert len(set(want)) == len(want) == 125
    replayed = []
    original = collapse.replay

    def spy(K, cert):
        replayed.append(K.simplices)
        return original(K, cert)

    monkeypatch.setattr(collapse, "replay", spy)
    assert report._cone_sweep(RunContext()) == (
        PASS, "125 cones over every complex on <= 4 vertices: chi "
              "conserved, all certificates replay")
    assert replayed == want


def test_verify_all_never_copies_a_complex_per_collapse_step(monkeypatch):
    # elementary_collapse builds a new complex (and coface index) per call;
    # replay walks its own live and count arrays over one index instead
    def refuse(K, A):
        raise AssertionError("elementary_collapse called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("splitcert") and hasattr(
                module, "elementary_collapse"):
            monkeypatch.setattr(module, "elementary_collapse", refuse)
    assert verify_all().overall == PASS


def test_cone_sweep_fails_on_a_verdict_other_than_yes(monkeypatch):
    monkeypatch.setattr(collapse, "is_collapsible",
                        lambda K: CollapseVerdict("no", None, 1))
    assert report._cone_sweep(RunContext()) == (
        FAIL, "cone 0 (apex v0): verdict no")


def test_cone_sweep_checks_the_greedy_certificates(monkeypatch):
    # the sweep replays the very certificate is_collapsible returned; on
    # these cones it is the greedy one
    certified, replayed = [], []
    original_search, original_replay = collapse.is_collapsible, collapse.replay

    def search_spy(K):
        verdict = original_search(K)
        certified.append(verdict.certificate)
        return verdict

    def replay_spy(K, cert):
        replayed.append((K, cert))
        return original_replay(K, cert)

    monkeypatch.setattr(collapse, "is_collapsible", search_spy)
    monkeypatch.setattr(collapse, "replay", replay_spy)
    assert report._cone_sweep(RunContext())[0] == PASS
    assert len(replayed) == len(certified) == 125
    assert all(cert is mine for (_, cert), mine in zip(replayed, certified))
    assert sum(K.dim() == 3 for K, _ in replayed) == 50
    for K, cert in replayed:
        assert cert.steps == greedy_collapse(K)[0].steps


# ------------------------------------------------------- TIETZE_INVARIANCE

def test_the_tietze_walk_start_is_built_once():
    start = report.tietze_walk_start()
    assert start is report.tietze_walk_start()
    assert start == groups.Presentation(
        ("a", "b"), (groups.parse_word("a b A B"), groups.parse_word("a a a")))


def test_tietze_invariance_fails_when_a_move_changes_the_group(monkeypatch):
    original = groups.apply_tietze
    calls = []

    def imposes_a_on_the_last_move(p, move):
        calls.append(move)
        if len(calls) == 108:
            p = groups.Presentation(p.generators, p.relators + ((("a", 1),),))
        return original(p, move)

    monkeypatch.setattr(groups, "apply_tietze", imposes_a_on_the_last_move)
    assert report._tietze_invariance(RunContext()) == (
        FAIL, "move 108 (g = B B, remove-relator): "
              "invariants changed: Z/3 + Z -> Z")
    assert len(calls) == 108


def test_tietze_invariance_fails_when_a_round_trip_does_not_return(
        monkeypatch):
    # a remove-relator that does nothing leaves a second copy of relator
    # 0, which the abelianization cannot see; only the end check can
    original = groups.apply_tietze
    calls = []

    def keeps_the_first_relator(p, move):
        calls.append(move)
        if len(calls) == 2:
            return p
        return original(p, move)

    monkeypatch.setattr(groups, "apply_tietze", keeps_the_first_relator)
    assert report._tietze_invariance(RunContext()) == (
        FAIL, "round trip relator 0^+1 by 1 ends at "
              "< a b | a b A B, a a a, a b A B >")


def test_tietze_invariance_runs_every_move_kind(monkeypatch):
    # the substitute branch: removing a generator that another relator uses
    original = groups.apply_tietze
    kinds, defined, substituted = Counter(), [], []

    def spy(p, move):
        kinds[move.kind] += 1
        if move.kind == "add-generator":
            defined.append(move.word)
        if move.kind == "remove-generator":
            others = p.relators[:move.index] + p.relators[move.index + 1:]
            if any(g == move.gen for r in others for g, _ in r):
                substituted.append(move)
        return original(p, move)

    monkeypatch.setattr(groups, "apply_tietze", spy)
    assert report._tietze_invariance(RunContext())[0] == PASS
    assert kinds == {"add-relator": 37, "remove-relator": 37,
                     "add-generator": 17, "remove-generator": 17}
    assert len(substituted) == 17
    # g is defined by each reduced word of length <= 2 over a and b, once
    assert len(set(defined)) == 17
    assert all(groups.free_reduce(w) == w for w in defined)
    assert sorted(map(len, defined)) == [0] + [1] * 4 + [2] * 12


def test_tietze_invariance_catches_an_uninverted_negative_image(monkeypatch):
    # remove-generator maps g^-1 to g's definition, not to its inverse; the
    # seeded walk never removes a generator that another relator still
    # uses, so only the enumeration sees the fault
    original = groups.apply_tietze

    def faulty(p, move):
        if move.kind == "remove-generator":
            # g^-1 turned into g outside the defining relator: the move
            # then maps both to the definition
            p = groups.Presentation(p.generators, tuple(
                r if i == move.index else
                tuple((g, 1) if g == move.gen else (g, e) for g, e in r)
                for i, r in enumerate(p.relators)))
        return original(p, move)

    monkeypatch.setattr(groups, "apply_tietze", faulty)
    monkeypatch.setattr(draws, "apply_tietze", faulty)
    assert report._tietze_invariance(RunContext()) == (
        FAIL, "move 47 (g = a, remove-generator): "
              "invariants changed: Z/3 + Z -> Z")
    end = draws.random_tietze_walk(random.Random(4711), 500)
    assert (groups.abelianization(end)
            == groups.abelianization(report.tietze_walk_start()))


# ------------------------------------------------- DISTINGUISH_IRREFLEXIVE

def test_irreflexive_check_passes_on_shuffled_sequences(monkeypatch):
    # every distinct ordering of J1 J2 J2 J3 J3 J3, with each cycle, once
    built = []

    def spy(prefix, cycle):
        built.append((tuple(prefix), tuple(cycle)))
        return multiset_of(prefix, cycle)

    monkeypatch.setattr(splitting, "multiset_of", spy)
    assert report._irreflexive(RunContext()) == (
        PASS, "180 orderings of J1 J2^2 J3^3, omega J4 J5: never "
              "self-separated")
    orderings = set(permutations(["J1", "J2", "J2", "J3", "J3", "J3"]))
    assert len(orderings) == 60
    assert len(built) == len(set(built)) == 180
    assert set(built) == {(prefix, cycle) for prefix in orderings
                          for cycle in [(), ("J4", "J5"), ("J5", "J4")]}


def test_irreflexive_check_compares_with_an_independent_build(monkeypatch):
    # each multiset_of build is compared with a FactorMultiset.from_map of
    # the counts, never with another multiset_of build
    built, compared = [], []

    def build_spy(prefix, cycle):
        built.append(multiset_of(prefix, cycle))
        return built[-1]

    def compare_spy(m1, m2):
        compared.append((m1, m2))
        return distinguishable(m1, m2)

    monkeypatch.setattr(splitting, "multiset_of", build_spy)
    monkeypatch.setattr(splitting, "distinguishable", compare_spy)
    assert report._irreflexive(RunContext())[0] == PASS
    assert len(compared) == len(built) == 180
    assert all(m1 is m for (m1, _), m in zip(compared, built))
    assert not {id(m2) for _, m2 in compared} & {id(m) for m in built}
    counts = {"J1": 1, "J2": 2, "J3": 3}
    assert {m2 for _, m2 in compared} == {
        FactorMultiset.from_map(counts),
        FactorMultiset.from_map({**counts, "J4": OMEGA, "J5": OMEGA})}


def test_irreflexive_check_fails_on_a_non_canonical_build(monkeypatch):
    def in_sequence_order(prefix, cycle):
        # label order as the sequence lists it, not sorted
        counts = {}
        for label in prefix:
            counts[label] = counts.get(label, 0) + 1
        counts.update(dict.fromkeys(cycle, OMEGA))
        return tuple.__new__(FactorMultiset, (tuple(counts.items()),))

    monkeypatch.setattr(splitting, "multiset_of", in_sequence_order)
    # the orderings run in sorted order, so J1 J3 ... is the first whose
    # labels come unsorted
    assert report._irreflexive(RunContext()) == (
        FAIL, "J1 J3 J2 J2 J3 J3 then () repeated: J1:1, J2:2, J3:3 "
              "separated from itself")


def test_irreflexive_check_fails_on_a_cycle_read_in_order(monkeypatch):
    # a build that sorts the prefix but keeps the cycle's order passes on
    # the empty cycle and on J4 J5, and fails on J5 J4
    def cycle_unsorted(prefix, cycle):
        m = multiset_of(prefix)
        return tuple.__new__(FactorMultiset, (m.counts + tuple(
            (label, OMEGA) for label in cycle),))

    monkeypatch.setattr(splitting, "multiset_of", cycle_unsorted)
    assert report._irreflexive(RunContext()) == (
        FAIL, "J1 J2 J2 J3 J3 J3 then (J5 J4) repeated: J1:1, J2:2, J3:3, "
              "J4:w, J5:w separated from itself")


# ------------------------------------------------- how a check's end is read

def test_a_defect_in_a_check_is_fail_and_escapes_under_strict():
    def broken(ctx):
        return 1 // 0

    check = Check("BROKEN", None, broken)
    assert run_checks([check], RunContext()) == VerificationReport((
        CheckResult("BROKEN", FAIL, "ZeroDivisionError: integer division or "
                                    "modulo by zero"),))
    with pytest.raises(ZeroDivisionError):
        run_checks([check], RunContext(), strict=True)

    # no exception is a verdict: a SplitError a check lets out is a defect
    def refuted(ctx):
        raise SplitError("jester_A: no certificate")

    check = Check("SPLIT", None, refuted)
    assert run_checks([check], RunContext()) == VerificationReport((
        CheckResult("SPLIT", FAIL, "SplitError: jester_A: no certificate"),))
    with pytest.raises(SplitError):
        run_checks([check], RunContext(), strict=True)


def test_the_split_check_reads_a_split_error_as_fail_even_under_strict(
        monkeypatch, capsys):
    def refuted(*args):
        raise SplitError("jester_A: no certificate")

    monkeypatch.setattr(splitting, "verify_spine_split", refuted)
    split = [c for c in CHECKS if c.id == "JESTER_SPLIT_CERT"]
    for strict in (False, True):
        assert run_checks(split, RunContext(), strict=strict) == (
            VerificationReport((CheckResult(
                "JESTER_SPLIT_CERT", FAIL, "jester_A: no certificate"),)))
    assert main(["jester", "verify-split"]) == 1
    assert capsys.readouterr().out == (
        "jester split: FAIL (jester_A: no certificate)\n")


def _run(check_id, ctx):
    (result,) = run_checks([c for c in CHECKS if c.id == check_id],
                           ctx).checks
    return result.status, result.detail


def test_dunce_search_out_of_budget_is_skip(monkeypatch, capsys):
    monkeypatch.setattr(collapse, "is_collapsible",
                        lambda K: CollapseVerdict("unknown", None, 7))
    assert _run("DUNCE_SEARCH_VERDICT", RunContext()) == (
        SKIP, "budget exhausted after 7 nodes")
    # an unverified claim is not a refutation: the command says INCOMPLETE
    assert main(["dunce", "check"]) == 1
    assert capsys.readouterr().out.endswith(
        "\ncollapsibility verdict: unknown\nchi: 1\ndunce hat: INCOMPLETE\n")


@pytest.mark.parametrize("verdict,want", [
    (CollapseVerdict("unknown", None, 7),
     (SKIP, "budget exhausted after 7 nodes")),
    (CollapseVerdict("no", None, 7), (FAIL, "verdict no")),
    # an empty certificate leaves all of jester_C
    (CollapseVerdict("yes", CollapseCertificate(()), 7),
     (FAIL, "search certificate does not replay")),
])
def test_search_check_reads_the_verdict_it_gets(verdict, want, monkeypatch):
    monkeypatch.setattr(collapse, "is_collapsible", lambda K: verdict)
    assert _run("SEARCH_JESTER_C", RunContext()) == want


def test_decomposition_fails_when_c_is_not_the_intersection(asset_copy):
    scx = asset_copy / "jester_C.scx"
    text = scx.read_text()
    assert text.count("e f g\n") == 1
    scx.write_text(text.replace("e f g\n", ""))
    assert _run("JESTER_DECOMPOSITION", RunContext(asset_copy)) == (
        FAIL, "A intersect B differs from C")


def test_cert_replay_fails_on_a_certificate_that_stops_short(asset_copy):
    short = Path(__file__).resolve().parent / "data" / "jester_A_short.cert"
    (asset_copy / "jester_A.cert").write_text(short.read_text())
    assert _run("JESTER_A_CERT_REPLAY", RunContext(asset_copy)) == (
        FAIL, "replay left 33 simplices")


def test_cert_replay_fails_on_a_point_other_than_v(asset_copy):
    # collapse the last edge a v from v, not from a: C ends at vertex a
    cert = asset_copy / "jester_C.cert"
    text = cert.read_text()
    assert text.endswith("\nb\na\n")
    cert.write_text(text[:-2] + "v\n")
    assert _run("JESTER_C_CERT_REPLAY", RunContext(asset_copy)) == (
        FAIL, "collapsed to a, expected v")
