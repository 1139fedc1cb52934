import itertools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splitcert import report, splitting
from splitcert.collapse import CollapseCertificate, is_collapsible
from splitcert.complexes import build, intersection, union
from splitcert.report import CHECKS, FAIL, RunContext, run_checks
from splitcert.splitting import (CONCLUSION, OMEGA, FactorMultiset, SplitError,
                                 distinguishable, family_demo, multiset_of,
                                 verify_spine_split)

labels = st.sampled_from([f"J{i}" for i in range(1, 7)])
counts = st.one_of(st.integers(1, 9), st.just(OMEGA))
multisets = st.dictionaries(labels, counts, max_size=5).map(
    FactorMultiset.from_map)


# ------------------------------------------------------------- multisets

def test_factor_multiset_basics():
    m = FactorMultiset.from_map({"J2": 3, "J1": OMEGA})
    assert m.counts == (("J1", OMEGA), ("J2", 3))
    assert str(m) == "J1:w, J2:3"
    assert str(FactorMultiset.from_map({})) == "(empty)"


def test_factor_multiset_rejects_bad_counts():
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="positive integer"):
            FactorMultiset.from_map({"J1": bad})


def test_omega_is_infinity():
    assert OMEGA == math.inf
    assert OMEGA > 10 ** 100


def test_multiset_of_counts_prefix_and_cycle():
    m = multiset_of(("J1", "J2", "J1"), ("J3", "J2"))
    # J2 appears in the cycle, so it counts omega
    assert m.counts == (("J1", 2), ("J2", OMEGA), ("J3", OMEGA))
    # a finite sum has no cycle, and any iterables will do
    assert multiset_of(iter(["J2", "J2"])).counts == (("J2", 2),)
    assert multiset_of([]).counts == ()


def _reference_multiset_of(prefix, cycle):
    """Each label's count from its definition, through the validating
    constructor."""
    return FactorMultiset.from_map(
        {label: OMEGA if label in cycle else prefix.count(label)
         for label in prefix + cycle})


# labels out of sorted order, and some that sort differently as strings
sequences = st.lists(st.sampled_from(["J2", "J10", "J1", "K", "J3"]),
                     max_size=8)


@given(sequences, sequences, st.booleans())
@example(["J2", "J1"], [], False)                 # unsorted prefix
@example([], ["J3", "J1", "J3"], False)          # repeated, unsorted cycle
@example(["J1", "J2", "J1"], ["J2", "J2"], True)  # a label in both
@example([], [], True)
def test_multiset_of_matches_the_validating_construction(prefix, cycle,
                                                         as_iterators):
    want = _reference_multiset_of(prefix, cycle)
    if as_iterators:
        prefix, cycle = iter(prefix), iter(cycle)
    got = multiset_of(prefix, cycle)
    assert type(got) is FactorMultiset and got == want


def test_distinguishable_semantics():
    m1 = FactorMultiset.from_map({"J1": 1})
    m2 = FactorMultiset.from_map({"J1": 2})
    m3 = FactorMultiset.from_map({})
    assert distinguishable(m1, m2)
    assert distinguishable(m1, m3)  # missing label counts zero
    assert not distinguishable(m3, FactorMultiset.from_map({}))


@given(multisets)
def test_distinguishable_irreflexive(m):
    assert not distinguishable(m, m)


@given(multisets, multisets)
def test_distinguishable_symmetric(m1, m2):
    assert distinguishable(m1, m2) == distinguishable(m2, m1)


@given(st.lists(multisets, max_size=8))
def test_distinct_counts_iff_pairwise_distinguishable(family):
    # the statement family_demo checks through canonical keys
    pairwise = all(distinguishable(m1, m2)
                   for i, m1 in enumerate(family) for m2 in family[i + 1:])
    assert pairwise == (len({m.counts for m in family}) == len(family))


pairs = st.dictionaries(labels, counts, max_size=5).flatmap(
    lambda m: st.permutations(list(m.items())))


@given(pairs, pairs)
def test_canonical_counts_compare_like_the_count_maps(items1, items2):
    # built from pairs in any order, two multisets compare by their counts
    # tuples exactly as their label -> count maps compare
    m1, m2 = FactorMultiset(items1), FactorMultiset(items2)
    assert m1.counts == tuple(sorted(items1))
    assert distinguishable(m1, m2) == (dict(items1) != dict(items2))
    assert not distinguishable(m1, FactorMultiset(reversed(items1)))


def test_factor_multiset_rejects_a_repeated_label():
    with pytest.raises(ValueError, match="occurs twice"):
        FactorMultiset((("J1", 1), ("J1", 2)))
    with pytest.raises(ValueError, match="positive integer"):
        FactorMultiset((("J1", 0),))


def test_factor_multiset_replace_builds_through_new():
    # the namedtuple's own _replace skips __new__, which checks and sorts
    m = FactorMultiset.from_map({"J1": 1})._replace(
        counts=(("J2", 1), ("J1", OMEGA)))
    assert type(m) is FactorMultiset
    assert m.counts == (("J1", OMEGA), ("J2", 1))
    assert not distinguishable(m, multiset_of(["J2"], ["J1"]))
    with pytest.raises(ValueError, match="positive integer"):
        m._replace(counts=(("J1", 0),))
    with pytest.raises(ValueError, match="occurs twice"):
        m._replace(counts=(("J1", 1), ("J1", 2)))


def test_family_demo_counts():
    assert family_demo(0) == 1
    assert family_demo(3) == 8
    assert family_demo(10) == 1024
    assert family_demo(11) == 2048  # beyond the k = 10 that verify-all runs


def _reference_family_counts(k):
    """The counts tuples of the 2^k subset descriptions, enumerated as
    0/1 vectors over the sorted labels."""
    labels = sorted(f"J{i}" for i in range(1, k + 1))
    return {multiset_of((), itertools.compress(labels, bits)).counts
            for bits in itertools.product((0, 1), repeat=k)}


def test_family_demo_builds_the_reference_multisets(monkeypatch):
    seen = []

    def recording(prefix, cycle=()):
        m = multiset_of(prefix, cycle)
        seen.append(m.counts)
        return m

    monkeypatch.setattr(splitting, "multiset_of", recording)
    for k in range(11):
        seen.clear()
        assert family_demo(k) == 2 ** k
        assert len(seen) == 2 ** k   # each subset once
        assert set(seen) == _reference_family_counts(k)


def test_family_demo_bounds():
    for bad in (-1, 21, 2.0, True, False):
        with pytest.raises(ValueError, match="k must be an integer"):
            family_demo(bad)


def test_family_demo_detects_a_collision(monkeypatch):
    # without J3, the subsets that differ in J3 alone give equal multisets
    original = splitting.multiset_of

    def drops_J3(prefix, cycle=()):
        return original(prefix, [label for label in cycle if label != "J3"])

    monkeypatch.setattr(splitting, "multiset_of", drops_J3)
    assert family_demo(2) == 4
    # the subsets that differ in J3 alone pair up
    assert family_demo(3) == 4
    assert family_demo(10) == 512
    (result,) = run_checks([c for c in CHECKS if c.id == "FAMILY_DEMO"],
                           RunContext()).checks
    assert result == ("FAMILY_DEMO", FAIL, "512 of 1024 descriptions distinct")


# ------------------------------------------------------------- spine split

def _search_certs(A, B):
    """The certificates a caller without any takes from the search."""
    return tuple(is_collapsible(part).certificate
                 for part in (A, B, intersection(A, B)))


def test_verify_spine_split_happy_path():
    A = build([("a", "b", "c")], name="A")
    B = build([("b", "c", "d")], name="B")
    spine = union(A, B, name="S")
    certs = _search_certs(A, B)
    cert = verify_spine_split(spine, A, B, certs)
    assert cert.conclusion == CONCLUSION == "splits-into-closed-balls"
    assert cert.spine == "S"
    assert cert.parts == ("A", "B")
    assert cert.evidence == certs
    # every evidence certificate is non-trivial here
    assert all(len(e.steps) > 0 for e in cert.evidence)


def test_verify_spine_split_rejects_wrong_union():
    A = build([("a", "b")], name="A")
    B = build([("b", "c")], name="B")
    spine = build([("a", "b"), ("b", "c"), ("c", "d")], name="S")
    with pytest.raises(SplitError, match="is not S"):
        verify_spine_split(spine, A, B, _search_certs(A, B))


def test_verify_spine_split_names_culprit():
    A = build([("a", "b", "c")], name="A")
    B = build([("d",), ("e",)], name="B")  # two points: not collapsible
    spine = union(A, B, name="S")
    # no certificate collapses B; an empty one leaves both points
    certs = (is_collapsible(A).certificate, CollapseCertificate(()),
             CollapseCertificate(()))
    with pytest.raises(SplitError,
                       match=r"^B: certificate leaves 2 simplices$"):
        verify_spine_split(spine, A, B, certs)


def test_verify_spine_split_rejects_a_missing_certificate(monkeypatch):
    # is_collapsible gives no certificate on "no"; the split names the part
    # and does not claim the part is not collapsible
    A = build([("a", "b", "c")], name="A")
    B = build([("d",), ("e",)], name="B")
    spine = union(A, B, name="S")
    certs = _search_certs(A, B)
    assert certs[1] is None
    with pytest.raises(SplitError, match=r"^B: no certificate$"):
        verify_spine_split(spine, A, B, certs)

    monkeypatch.setattr(report, "verify_spine_split",
                        lambda *args: verify_spine_split(spine, A, B, certs))
    (result,) = run_checks([c for c in CHECKS if c.id == "JESTER_SPLIT_CERT"],
                           RunContext()).checks
    assert (result.status, result.detail) == (FAIL, "B: no certificate")


def test_verify_spine_split_checks_intersection():
    # A and B collapsible but their intersection is two points
    A = build([("a", "b"), ("b", "c")], name="A")
    B = build([("a", "d"), ("d", "c")], name="B")
    spine = union(A, B, name="S")
    certs = (is_collapsible(A).certificate, is_collapsible(B).certificate,
             CollapseCertificate((("a",),)))
    with pytest.raises(SplitError, match=r"^A&B: replay failed at step 0 "
                                         r"\(a\): not free \(0 cofaces\)$"):
        verify_spine_split(spine, A, B, certs)


def test_verify_spine_split_replays_each_certificate_against_its_part():
    A = build([("a", "b", "c")], name="A")
    B = build([("b", "c", "d")], name="B")
    spine = union(A, B, name="S")
    cert_A, cert_B, cert_AB = _search_certs(A, B)
    with pytest.raises(SplitError, match=r"^A: replay failed at step 0 "
                                         r"\(b\): not free \(2 cofaces\)$"):
        verify_spine_split(spine, A, B, (cert_AB, cert_B, cert_AB))
    short = CollapseCertificate(cert_B.steps[:-1])
    with pytest.raises(SplitError, match=r"^B: certificate leaves 3 "
                                         r"simplices$"):
        verify_spine_split(spine, A, B, (cert_A, short, cert_AB))


@pytest.mark.parametrize("count", [0, 2, 4])
def test_verify_spine_split_names_the_evidence_it_expects(count):
    A = build([("a", "b", "c")], name="A")
    B = build([("b", "c", "d")], name="B")
    certs = (_search_certs(A, B) * 2)[:count]
    with pytest.raises(SplitError, match=r"^expected 3 certificates "
                                         rf"\(A, B, A n B\), got {count}$"):
        verify_spine_split(union(A, B, name="S"), A, B, certs)
