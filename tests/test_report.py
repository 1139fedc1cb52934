"""The check registry and the named commands that are views over it.

The golden files hold the default stdout of each command as it was before
the registry existed; the views must reproduce it byte for byte.
"""
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from splitcert import assets, groups, mazur, report
from splitcert.cli import main
from splitcert.collapse import (CollapseCertificate, CollapseVerdict,
                                SearchBudget, greedy_collapse, is_collapsible)
from splitcert.complexes import SimplicialComplex, build, union
from splitcert.report import (CHECKS, FAIL, INCOMPLETE, PASS, SKIP, Check,
                              CheckResult, RunContext, VerificationReport,
                              run_checks, verify_all)
from splitcert.splitting import (OMEGA, FactorMultiset, multiset_of,
                                 verify_spine_split)

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
        "MAZUR_DERIVATION_CHAIN", "TRIANGLE_RELATORS",
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
    (result,) = run_checks([check], RunContext())
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
    assert capsys.readouterr().out.endswith("\ndunce hat: FAIL\n")


def test_refuted_part_named_unknown_is_fail():
    # the dunce hat has no free face, so any certificate fails at step 0
    ctx = RunContext()
    part = SimplicialComplex(ctx.complex("dunce_hat").simplices,
                             name="unknown_part")
    bad = CollapseCertificate((("1", "2"),))

    def split(ctx):
        cert = verify_spine_split(union(part, part), part, part,
                                  (bad, bad, bad))
        return PASS, cert.conclusion

    (result,) = run_checks([Check("SPLIT", None, split)], ctx)
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
    calls = []
    original = groups.wirtinger

    def counted(diagram):
        calls.append(diagram)
        return original(diagram)

    # modules import it by name, so replace every reference to it
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("splitcert")
                and getattr(module, "wirtinger", None) is original):
            monkeypatch.setattr(module, "wirtinger", counted)
    assert verify_all().overall == PASS
    assert len(calls) == 1


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

def test_cone_sweep_fails_on_a_certificate_that_stops_short(monkeypatch):
    original = report.is_collapsible
    cones = []

    def last_step_dropped_on_the_6th_cone(K):
        verdict = original(K)
        cones.append(K)
        if len(cones) == 6:
            steps = verdict.certificate.steps[:-1]
            verdict = verdict._replace(certificate=CollapseCertificate(steps))
        return verdict

    # the sweep checks distinct cones only; the 6th is first drawn at 8
    monkeypatch.setattr(report, "is_collapsible", last_step_dropped_on_the_6th_cone)
    assert report._cone_sweep(RunContext()) == (
        FAIL, "cone 8: certificate does not replay")


def _seed_91_cones():
    rng = random.Random(91)
    return [report.random_cone_complex(rng) for _ in range(1000)]


def test_cone_sweep_fails_on_a_corrupted_repeated_cone(monkeypatch):
    # the tetrahedron is drawn 129 times; skipping its repeats must not
    # skip the check of its first draw, index 5
    counts = Counter(K.simplices for K in _seed_91_cones())
    target = max((s for s in counts if max(map(len, s)) == 4),
                 key=counts.__getitem__)
    assert counts[target] == 129
    original = report.is_collapsible

    def last_step_dropped_on_target(K):
        verdict = original(K)
        if K.simplices == target:
            steps = verdict.certificate.steps[:-1]
            verdict = verdict._replace(certificate=CollapseCertificate(steps))
        return verdict

    monkeypatch.setattr(report, "is_collapsible", last_step_dropped_on_target)
    assert report._cone_sweep(RunContext()) == (
        FAIL, "cone 5: certificate does not replay")


def test_cone_sweep_replays_each_distinct_cone_once(monkeypatch):
    distinct = list(dict.fromkeys(K.simplices for K in _seed_91_cones()))
    assert len(distinct) == 176
    assert sum(max(map(len, s)) == 4 for s in distinct) == 114
    replayed = []
    original = report.replay

    def spy(K, cert):
        replayed.append(K.simplices)
        return original(K, cert)

    monkeypatch.setattr(report, "replay", spy)
    assert report._cone_sweep(RunContext())[0] == PASS
    assert replayed == distinct


def test_verify_all_never_copies_a_complex_per_collapse_step(monkeypatch):
    # elementary_collapse builds a new complex (and coface index) per call;
    # the cone sweep replays each certificate on one collapse state instead
    def refuse(K, A):
        raise AssertionError("elementary_collapse called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("splitcert") and hasattr(
                module, "elementary_collapse"):
            monkeypatch.setattr(module, "elementary_collapse", refuse)
    assert verify_all().overall == PASS


def test_cone_sweep_fails_on_a_verdict_other_than_yes(monkeypatch):
    monkeypatch.setattr(report, "is_collapsible",
                        lambda K: CollapseVerdict("no", None, 1))
    assert report._cone_sweep(RunContext()) == (FAIL, "cone 0: verdict no")


def test_cone_sweep_checks_the_greedy_certificates(monkeypatch):
    # the sweep replays is_collapsible's certificate; on seed 91 it is the
    # greedy one on every cone
    replayed = []
    original = report.replay

    def spy(K, cert):
        replayed.append((K, cert))
        return original(K, cert)

    monkeypatch.setattr(report, "replay", spy)
    assert report._cone_sweep(RunContext())[0] == PASS
    assert len(replayed) == 176
    assert sum(K.dim() == 3 for K, _ in replayed) > 100
    for K, cert in replayed:
        assert cert.steps == greedy_collapse(K)[0].steps


# ------------------------------------------------------- TIETZE_INVARIANCE

def test_tietze_invariance_fails_when_a_move_changes_the_group(monkeypatch):
    original = report.apply_tietze
    calls = []

    def imposes_a_on_the_first_move(p, move):
        calls.append(move)
        if len(calls) == 1:
            p = groups.impose_relator(p, (("a", 1),))
        return original(p, move)

    monkeypatch.setattr(report, "apply_tietze", imposes_a_on_the_first_move)
    assert report._tietze_invariance(RunContext()) == (
        FAIL, "invariants changed: Z/3 + Z -> Z")
    assert len(calls) == 500


# ------------------------------------------------- DISTINGUISH_IRREFLEXIVE

def test_irreflexive_check_passes_on_shuffled_sequences(monkeypatch):
    built = []

    def spy(prefix, cycle):
        built.append(prefix)
        return multiset_of(prefix, cycle)

    monkeypatch.setattr(report, "multiset_of", spy)
    assert report._irreflexive(RunContext()) == (
        PASS, "1000 random multisets: never self-separated")
    assert len(built) == 1000
    assert any(prefix != sorted(prefix) for prefix in built)


def test_irreflexive_check_fails_on_a_non_canonical_build(monkeypatch):
    def in_sequence_order(prefix, cycle):
        # label order as the sequence lists it, not sorted
        counts = {}
        for label in prefix:
            counts[label] = counts.get(label, 0) + 1
        counts.update(dict.fromkeys(cycle, OMEGA))
        return tuple.__new__(FactorMultiset, (tuple(counts.items()),))

    monkeypatch.setattr(report, "multiset_of", in_sequence_order)
    status, detail = report._irreflexive(RunContext())
    assert status == FAIL
    assert detail.endswith("separated from itself")
