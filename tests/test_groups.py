import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcert.groups import (Crossing, LinkDiagram, Presentation, TietzeError,
                              TietzeMove, abelianization, apply_tietze, concat,
                              conjugate, dumps_fp, dumps_lnk, free_reduce,
                              impose_relator, inverse, linking_number, loads_fp,
                              loads_lnk, parse_word, power, smith_invariants,
                              substitute, validate_diagram, wirtinger, word_str)

words = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
    max_size=8).map(tuple)


# ------------------------------------------------------------------- words

def test_parse_word_notation():
    assert parse_word("a B c1") == (("a", 1), ("b", -1), ("c1", 1))
    assert parse_word("  ") == ()
    assert word_str(()) == "1"
    assert word_str(parse_word("x1 X7")) == "x1 X7"


def test_parse_word_rejects_bad_tokens():
    with pytest.raises(ValueError, match="bad generator token"):
        parse_word("a 1b")


def test_free_reduce_basic():
    assert free_reduce(parse_word("a A b")) == parse_word("b")
    assert free_reduce(parse_word("a b B A")) == ()


@given(words)
def test_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words)
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(concat(w, inverse(w))) == ()
    assert free_reduce(concat(inverse(w), w)) == ()


@given(words)
def test_parse_roundtrip(w):
    w = free_reduce(w)
    assert parse_word(word_str(w)) == w


def test_conjugate_and_power():
    w = parse_word("a")
    assert conjugate(w, parse_word("b")) == parse_word("B a b")
    assert power(parse_word("a b"), 2) == parse_word("a b a b")
    assert power(parse_word("a"), -2) == parse_word("A A")
    assert power(parse_word("a"), 0) == ()


def test_substitute_requires_full_mapping():
    with pytest.raises(ValueError, match="not covered"):
        substitute(parse_word("a b"), {"a": parse_word("x")})


@given(words, words)
@settings(max_examples=50)
def test_substitute_is_homomorphic(u, v):
    mapping = {"a": parse_word("x y"), "b": parse_word("Y"), "c": ()}
    left = substitute(concat(u, v), mapping)
    right = free_reduce(concat(substitute(u, mapping), substitute(v, mapping)))
    assert left == right


# ---------------------------------------------------------- presentations

def test_presentation_validation():
    with pytest.raises(ValueError, match="duplicate generator"):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError, match="undeclared generator"):
        Presentation(("a",), (parse_word("b"),))
    p = Presentation(("a", "b"), (parse_word("a b A B"),))
    assert str(p) == "< a b | a b A B >"
    assert repr(p) == ("Presentation(generators=('a', 'b'), relators=((('a', "
                       "1), ('b', 1), ('a', -1), ('b', -1)),))")


def test_impose_relator_changes_the_group():
    p = Presentation(("a",), ())
    q = impose_relator(p, parse_word("a a a"))
    assert abelianization(p).free_rank == 1
    assert abelianization(q).factors == (3,)


def test_tietze_add_and_remove_relator():
    p = Presentation(("a", "b"), (parse_word("a a a"), parse_word("b b")))
    # a^3 conjugated by b, times b^2: a consequence
    cert = ((0, 1, parse_word("b")), (1, 1, ()))
    word = free_reduce(concat(conjugate(parse_word("a a a"), parse_word("b")),
                              parse_word("b b")))
    q = apply_tietze(p, TietzeMove("add-relator", word=word, certificate=cert))
    assert len(q.relators) == 3
    back = apply_tietze(q, TietzeMove("remove-relator", index=2,
                                      certificate=cert))
    assert back.relators == p.relators


def test_tietze_add_relator_rejects_bad_certificate():
    p = Presentation(("a",), (parse_word("a a"),))
    with pytest.raises(TietzeError, match="certificate product"):
        apply_tietze(p, TietzeMove("add-relator", word=parse_word("a"),
                                   certificate=((0, 1, ()),)))


def test_tietze_add_and_remove_generator():
    p = Presentation(("a",), (parse_word("a a a a a"),))
    q = apply_tietze(p, TietzeMove("add-generator", gen="b",
                                   word=parse_word("a a")))
    assert q.generators == ("a", "b")
    assert q.relators[-1] == parse_word("b A A")
    r = apply_tietze(q, TietzeMove("remove-generator", gen="b", index=1))
    assert r == p


def test_tietze_remove_generator_needs_single_occurrence():
    p = Presentation(("a", "b"), (parse_word("b a b"),))
    with pytest.raises(TietzeError, match="need exactly 1"):
        apply_tietze(p, TietzeMove("remove-generator", gen="b", index=0))


def test_tietze_remove_generator_substitutes_elsewhere():
    p = Presentation(("a", "b"),
                     (parse_word("b A A"), parse_word("b b b")))
    q = apply_tietze(p, TietzeMove("remove-generator", gen="b", index=0))
    assert q.generators == ("a",)
    assert q.relators == (parse_word("a a a a a a"),)


def test_tietze_remove_generator_keeps_trivial_relators():
    # A relator that substitutes to the empty word must stay in place:
    # dropping it would shift the indices later certificates refer to.
    p = Presentation(("a", "b"),
                     (parse_word("b A A"), parse_word("B a a")))
    q = apply_tietze(p, TietzeMove("remove-generator", gen="b", index=0))
    assert q.relators == ((),)
    r = apply_tietze(q, TietzeMove("remove-relator", index=0,
                                   certificate=()))
    assert r.relators == ()


def test_tietze_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown Tietze move"):
        TietzeMove("swap-generators")


# ---------------------------------------------------------- link diagrams

def hopf_link():
    return LinkDiagram(
        arcs=("a", "b"),
        crossings=(Crossing(over="a", under_in="b", under_out="b", sign=1),
                   Crossing(over="b", under_in="a", under_out="a", sign=1)),
        components=(("a",), ("b",)))


def trefoil():
    return LinkDiagram(
        arcs=("a", "b", "c"),
        crossings=(Crossing(over="c", under_in="a", under_out="b", sign=1),
                   Crossing(over="a", under_in="b", under_out="c", sign=1),
                   Crossing(over="b", under_in="c", under_out="a", sign=1)),
        components=(("a", "b", "c"),))


def test_validate_diagram_accepts_good_diagrams():
    validate_diagram(hopf_link())
    validate_diagram(trefoil())
    # crossingless unknot
    validate_diagram(LinkDiagram(("u",), (), (("u",),)))


def test_validate_diagram_rejects_bad_partition():
    d = LinkDiagram(("a", "b"), (), (("a",),))
    with pytest.raises(ValueError, match="partition"):
        validate_diagram(d)


def test_validate_diagram_rejects_unbalanced_arcs():
    d = LinkDiagram(
        arcs=("a", "b"),
        crossings=(Crossing(over="a", under_in="b", under_out="b", sign=1),
                   Crossing(over="a", under_in="b", under_out="b", sign=1)),
        components=(("a",), ("b",)))
    with pytest.raises(ValueError, match="exactly one"):
        validate_diagram(d)


def test_crossing_sign_must_be_plus_or_minus_one():
    with pytest.raises(ValueError, match="crossing sign must be"):
        Crossing(over="a", under_in="b", under_out="b", sign=2)
    with pytest.raises(ValueError, match="crossing sign must be"):
        Crossing("a", "b", "b", 0)


def test_wirtinger_hopf():
    p = wirtinger(hopf_link())
    assert p.generators == ("a", "b")
    assert p.relators == (parse_word("b a B A"), parse_word("a b A B"))
    inv = abelianization(p)
    assert inv.free_rank == 2 and inv.factors == ()


def test_wirtinger_trefoil_abelianizes_to_Z():
    inv = abelianization(wirtinger(trefoil()))
    assert inv.free_rank == 1 and inv.factors == ()


def test_linking_number_hopf():
    assert linking_number(hopf_link(), 0, 1) == 1


def test_linking_number_requires_even_sum():
    # combinatorially valid but unrealizable: one inter-component crossing
    d = LinkDiagram(
        arcs=("a", "b"),
        crossings=(Crossing(over="a", under_in="b", under_out="b", sign=1),),
        components=(("a",), ("b",)))
    with pytest.raises(ValueError, match="odd"):
        linking_number(d, 0, 1)


# ---------------------------------------------------------- abelianization

def test_smith_invariants_known_matrices():
    assert smith_invariants([[2, 4], [6, 8]]) == [2, 4]
    assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[0, 0], [0, 5]]) == [5]
    assert smith_invariants([]) == []


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _minor_gcd(m, k):
    """gcd of all k x k minors -- the determinantal-divisor oracle."""
    rows = len(m)
    cols = len(m[0])
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, _det(sub))
    return g


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=60)
def test_smith_matches_determinantal_divisors(m):
    diag = smith_invariants(m)
    # divisibility chain
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # d_1 ... d_k = gcd of k x k minors
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == _minor_gcd(m, k)
    if len(diag) < min(len(m), len(m[0])):
        assert _minor_gcd(m, len(diag) + 1) == 0


def test_abelianization_examples():
    free2 = Presentation(("a", "b"), (parse_word("a b A B"),))
    inv = abelianization(free2)
    assert (inv.factors, inv.free_rank) == ((), 2)
    assert str(inv) == "Z + Z"

    cyclic5 = Presentation(("a",), (parse_word("a a a a a"),))
    assert str(abelianization(cyclic5)) == "Z/5"

    mixed = Presentation(("a", "b"), (parse_word("a a"), parse_word("b b b b")))
    assert abelianization(mixed).factors == (2, 4)

    no_relators = Presentation(("a", "b", "c"), ())
    assert abelianization(no_relators).free_rank == 3

    trivial = Presentation((), ())
    assert str(abelianization(trivial)) == "0"


# ------------------------------------------------------------ file formats

def test_fp_roundtrip():
    p = Presentation(("a", "b"), (parse_word("a b A B"), parse_word("a a")))
    q = loads_fp(dumps_fp(p, header="demo"))
    assert q == p


def test_fp_errors():
    with pytest.raises(ValueError, match="missing gens"):
        loads_fp("rel: a\n")
    with pytest.raises(ValueError, match="line 2"):
        loads_fp("gens: a\nnonsense\n")
    with pytest.raises(ValueError, match="second gens"):
        loads_fp("gens: a\ngens: b\n")


def test_lnk_roundtrip():
    d = hopf_link()
    d2 = loads_lnk(dumps_lnk(d, header="hopf"))
    assert d2 == d


def test_lnk_errors():
    with pytest.raises(ValueError, match="bad crossing field"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=+ extra\ncomp: a\n")
    with pytest.raises(ValueError, match="missing"):
        loads_lnk("arc: a\nx: over=a in=a sign=+\ncomp: a\n")
    with pytest.raises(ValueError, match="sign"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=2\ncomp: a\n")
