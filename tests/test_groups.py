import copy
import itertools
import random
import re
import time
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitcert import groups
from splitcert.groups import (AbelianInvariants, Crossing, LinkDiagram,
                              Presentation, TietzeError, TietzeMove,
                              _check_declared, abelianization,
                              apply_tietze, certificate_product, check_gen,
                              dumps_fp, free_reduce,
                              inverse, linking_number,
                              loads_fp, loads_lnk, parse_word,
                              smith_invariants, substitute,
                              wirtinger, word_str)

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
    # the whole token must match: "$" alone lets a trailing newline through
    with pytest.raises(ValueError, match=r"bad generator token 'g\\n'"):
        check_gen("g\n")


def test_free_reduce_basic():
    assert free_reduce(parse_word("a A b")) == parse_word("b")
    assert free_reduce(parse_word("a b B A")) == ()


@given(words)
def test_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words)
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(w + inverse(w)) == ()
    assert free_reduce(inverse(w) + w) == ()


@given(words)
def test_parse_roundtrip(w):
    w = free_reduce(w)
    assert parse_word(word_str(w)) == w


def test_conjugate_and_remove_generator_definition():
    a, b = parse_word("a"), parse_word("b")
    assert free_reduce(inverse(b) + a + b) == parse_word("B a b")
    # u x^e v = 1 defines x = (v u)^-e, read at either exponent
    for relator, x in (("x a b", "B A"), ("a X b", "b a")):
        p = Presentation(("a", "b", "x"),
                         (parse_word(relator), parse_word("x x")))
        q = apply_tietze(p, TietzeMove("remove-generator", gen="x", index=0))
        assert q.relators == (free_reduce(parse_word(x) * 2),)


def test_substitute_requires_full_mapping():
    with pytest.raises(ValueError, match="not covered"):
        substitute(parse_word("a b"), {"a": parse_word("x")})


@given(words, words)
@settings(max_examples=50)
def test_substitute_is_homomorphic(u, v):
    mapping = {"a": parse_word("x y"), "b": parse_word("Y"), "c": ()}
    left = substitute(u + v, mapping)
    right = free_reduce(substitute(u, mapping) + substitute(v, mapping))
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


def test_relators_are_stored_freely_reduced():
    p = Presentation(("a", "b"), (parse_word("a b B a"), parse_word("b B"),
                                  parse_word("A b")))
    assert p.relators == (parse_word("a a"), (), parse_word("A b"))
    assert str(p) == "< a b | a a, 1, A b >"
    q = Presentation(p.generators, p.relators + (parse_word("a A b"),))
    assert q.relators[-1] == (("b", 1),)
    # a relator read from a file is printed reduced
    assert dumps_fp(loads_fp("gens: a b\nrel: a b B\n")) == (
        "gens: a b\nrel: a\n")


def test_presentation_replace_builds_through_new():
    # the namedtuple's own _replace skips __new__ and stored "a A a a" as
    # given, so the remove-relator move below, certified by "a a", failed
    q = Presentation(("a",), (parse_word("a a"),))._replace(
        relators=(parse_word("a A a a"),))
    assert type(q) is Presentation
    assert q.relators == (parse_word("a a"),)
    cert = ((0, 1, ()),)
    r = apply_tietze(q, TietzeMove("add-relator", word=parse_word("a a"),
                                   certificate=cert))
    back = apply_tietze(r, TietzeMove("remove-relator", index=0,
                                      certificate=cert))
    assert back.relators == (parse_word("a a"),)
    assert q._replace() == q
    assert q._replace(generators=("a", "b")).generators == ("a", "b")
    with pytest.raises(ValueError, match="undeclared generator 'b'"):
        q._replace(relators=(parse_word("b"),))
    with pytest.raises(ValueError, match="duplicate generator"):
        q._replace(generators=("a", "a"))


def test_an_undeclared_letter_in_a_cancelling_pair_still_raises():
    # the letters are checked as given, before the relator is reduced
    with pytest.raises(ValueError,
                       match="^relator uses undeclared generator 'c'$"):
        Presentation(("a",), (parse_word("c C"),))
    with pytest.raises(ValueError,
                       match="^relator uses undeclared generator 'c'$"):
        Presentation(("a",), (parse_word("a c C A"),))


@pytest.mark.parametrize("e", [2, 0, -2, 1.0, True])
def test_a_letter_exponent_must_be_plus_or_minus_one(e):
    # ("a", 2) abelianized to Z/2, but dumps_fp wrote it as "A"
    message = rf"exponent must be \+-1, got {re.escape(repr(e))}$"
    with pytest.raises(ValueError, match="^relator " + message):
        Presentation(("a",), ((("a", e),),))
    # add-relator: a conjugator's letters, inverse first, reach the word
    p = Presentation(("a",), (parse_word("a"),))
    cert = ((0, 1, (("a", e),)),)
    word = certificate_product(p.relators, cert)
    with pytest.raises(ValueError, match="^relator exponent must be"):
        apply_tietze(p, TietzeMove("add-relator", word=word, certificate=cert))
    with pytest.raises(TietzeError, match="^word " + message):
        apply_tietze(p, TietzeMove("add-generator", gen="b",
                                   word=(("a", e),)))


def test_a_relator_added_without_a_certificate_changes_the_group():
    p = Presentation(("a",), ())
    q = Presentation(p.generators, p.relators + (parse_word("a a a"),))
    assert abelianization(p).free_rank == 1
    assert abelianization(q).factors == (3,)


def test_tietze_add_and_remove_relator():
    p = Presentation(("a", "b"), (parse_word("a a a"), parse_word("b b")))
    # a^3 conjugated by b, times b^2: a consequence
    cert = ((0, 1, parse_word("b")), (1, 1, ()))
    word = parse_word("B a a a b b b")
    q = apply_tietze(p, TietzeMove("add-relator", word=word, certificate=cert))
    assert len(q.relators) == 3
    back = apply_tietze(q, TietzeMove("remove-relator", index=2,
                                      certificate=cert))
    assert back.relators == p.relators
    # b^2 is the inverse of a^3 conjugated by b, times the added relator;
    # the relators on either side of it keep their order
    mid = apply_tietze(q, TietzeMove("remove-relator", index=1, certificate=(
        (0, -1, parse_word("b")), (1, 1, ()))))
    assert mid.relators == (q.relators[0], q.relators[2])


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
    with pytest.raises(ValueError,
                       match="unknown Tietze move kind 'swap-generators'"):
        TietzeMove("swap-generators")
    with pytest.raises(ValueError, match="unknown Tietze move kind 'x'"):
        TietzeMove(kind="x", gen="b")


def test_tietze_move_is_the_plain_tuple_of_its_fields():
    # TietzeMove builds its tuple itself, not through the namedtuple's
    # generated __new__
    word, cert = parse_word("a b"), ((0, 1, parse_word("a")),)
    full = ("add-relator", word, cert, "g", 3)
    assert TietzeMove._fields == ("kind", "word", "certificate", "gen",
                                  "index")
    for move in (TietzeMove(*full),
                 TietzeMove(index=3, gen="g", certificate=cert, word=word,
                            kind="add-relator"),
                 TietzeMove("add-relator", word, cert, index=3, gen="g")):
        assert type(move) is TietzeMove
        assert move == full
        assert (move.gen, move.index, move.certificate) == ("g", 3, cert)
    assert TietzeMove("remove-relator") == ("remove-relator", (), (), "", -1)
    assert TietzeMove("remove-generator", gen="b") == (
        "remove-generator", (), (), "b", -1)
    with pytest.raises(TypeError):
        TietzeMove()
    with pytest.raises(TypeError):
        TietzeMove(*full, None)
    with pytest.raises(TypeError):
        TietzeMove("add-relator", sign=1)


def test_tietze_move_make_and_replace_keep_the_field_order():
    move = TietzeMove("add-generator", parse_word("a"), gen="b")
    made = TietzeMove._make(tuple(move))
    assert type(made) is TietzeMove and made == move
    moved = move._replace(index=2, gen="c")
    assert type(moved) is TietzeMove
    assert moved == ("add-generator", parse_word("a"), (), "c", 2)
    assert move._replace() == move


def test_tietze_move_replace_builds_through_new():
    # the namedtuple's own _replace skips __new__, so it built this move of
    # no kind, which apply_tietze applied as a remove-generator move
    move = TietzeMove("add-generator", gen="g", word=parse_word("a"))
    with pytest.raises(ValueError, match="unknown Tietze move kind"):
        move._replace(kind="frobnicate", index=0, gen="a")
    moved = move._replace(kind="remove-generator", index=0, gen="a")
    assert type(moved) is TietzeMove
    assert moved == ("remove-generator", parse_word("a"), (), "a", 0)


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
    # a LinkDiagram checks itself when it is built
    for d in (hopf_link(), trefoil(),
              LinkDiagram(("u",), (), (("u",),))):   # crossingless unknot
        assert type(d) is LinkDiagram


def test_validate_diagram_rejects_bad_partition():
    with pytest.raises(ValueError, match="partition"):
        LinkDiagram(("a", "b"), (), (("a",),))


def test_validate_diagram_rejects_unbalanced_arcs():
    with pytest.raises(ValueError, match="exactly one"):
        LinkDiagram(
            arcs=("a", "b"),
            crossings=(Crossing(over="a", under_in="b", under_out="b",
                                sign=1),
                       Crossing(over="a", under_in="b", under_out="b",
                                sign=1)),
            components=(("a",), ("b",)))


def torus_link(n):
    """T(2, n): crossing i passes arc i under arc i+1 into arc i+2, so one
    strand for odd n, two for even."""
    names = [f"x{i}" for i in range(n)]
    crossings = [Crossing(names[(i + 1) % n], names[i], names[(i + 2) % n], 1)
                 for i in reversed(range(n))]
    comps = ((tuple(names[(2 * i) % n] for i in range(n)),) if n % 2
             else (tuple(names[0::2]), tuple(names[1::2])))
    return LinkDiagram(tuple(names), tuple(crossings), comps)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 200])
def test_validate_diagram_accepts_torus_links(n):
    d = torus_link(n)
    assert len(d.components) == 2 - n % 2
    # a component line may list its strand's arcs in any order
    d._replace(components=tuple(tuple(sorted(c)) for c in d.components))


T24 = torus_link(4)   # strands x0 x2 and x1 x3


# d: the fields that differ from T24's
@pytest.mark.parametrize("d,message", [
    # both strands listed as one component
    ({"components": (("x0", "x1", "x2", "x3"),)},
     "component ('x0', 'x1', 'x2', 'x3') is not one strand through the "
     "crossings"),
    # one arc of each strand swapped
    ({"components": (("x0", "x1"), ("x2", "x3"))},
     "component ('x0', 'x1') is not one strand through the crossings"),
    # a one-arc component whose arc runs on under a crossing
    ({"components": (("x0",), ("x1", "x2", "x3"))},
     "component ('x0',) is not one strand through the crossings"),
    # x3 ends under no crossing
    ({"crossings": T24.crossings[1:]},
     "component ('x1', 'x3') is not one strand through the crossings"),
    ({"components": (("x0", "x2"), ("x1", "x3"), ())},
     "components do not partition the arcs"),
])
def test_validate_diagram_rejects_a_component_that_is_not_a_strand(
        d, message):
    with pytest.raises(ValueError) as exc:
        LinkDiagram(**{**T24._asdict(), **d})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        T24._replace(**d)
    assert str(exc.value) == message


def test_link_diagram_replace_builds_through_new():
    # the namedtuple's own _replace skips __new__, so it would build a
    # diagram that no check has seen
    d = hopf_link()._replace(arcs=("b", "a"))
    assert type(d) is LinkDiagram and d.arcs == ("b", "a")
    assert hopf_link()._replace() == hopf_link()
    with pytest.raises(ValueError, match="duplicate arc names"):
        hopf_link()._replace(arcs=("a", "a"))
    with pytest.raises(ValueError, match="unknown arc 'c'"):
        hopf_link()._replace(crossings=(Crossing("c", "a", "a", 1),))


def test_crossing_sign_must_be_plus_or_minus_one():
    # True == 1.0 == 1, but neither a bool nor a float is a sign: wirtinger
    # would emit it as an exponent, and linking_number would sum it
    for sign in (2, 0, True, 1.0, -1.0):
        crossing = Crossing(over="a", under_in="b", under_out="b", sign=sign)
        with pytest.raises(ValueError) as exc:
            LinkDiagram(("a", "b"), (crossing, Crossing("b", "a", "a", 1)),
                        (("a",), ("b",)))
        assert str(exc.value) == f"crossing sign must be +-1, got {sign}"


def test_crossing_is_the_plain_tuple_of_its_fields():
    assert Crossing._fields == ("over", "under_in", "under_out", "sign")
    for c in (Crossing("a", "b", "c", -1),
              Crossing(sign=-1, under_out="c", under_in="b", over="a"),
              Crossing("a", "b", under_out="c", sign=-1)):
        assert type(c) is Crossing and c == ("a", "b", "c", -1)
        assert (c.over, c.under_in, c.under_out, c.sign) == ("a", "b", "c", -1)
    with pytest.raises(TypeError):
        Crossing("a", "b", "c")
    made = Crossing._make(("a", "b", "c", 1))
    assert type(made) is Crossing and made == Crossing("a", "b", "c", 1)
    flipped = made._replace(sign=-1, over="d")
    assert type(flipped) is Crossing and flipped == ("d", "b", "c", -1)


def test_wirtinger_hopf():
    p = wirtinger(hopf_link())
    assert p.generators == ("a", "b")
    assert p.relators == (parse_word("b a B A"), parse_word("a b A B"))
    inv = abelianization(p)
    assert inv.free_rank == 2 and inv.factors == ()


def test_wirtinger_trefoil_abelianizes_to_Z():
    inv = abelianization(wirtinger(trefoil()))
    assert inv.free_rank == 1 and inv.factors == ()


CURL = LinkDiagram(("a",), (Crossing("a", "a", "a", 1),), (("a",),))


def test_wirtinger_reduces_a_curl():
    assert str(wirtinger(CURL)) == "< a | 1 >"


def _mirror(d):
    return d._replace(crossings=tuple(Crossing(o, i, u, -s)
                                      for o, i, u, s in d.crossings))


# Two letters of a relator cancel only when the over arc is under_out or
# under_in. CURL's over arc is both; in these two 2-arc diagrams each
# crossing's over arc is one of them (a -> b and b -> a):
OVER_OUT = LinkDiagram(("a", "b"), (Crossing("b", "a", "b", 1),
                                    Crossing("a", "b", "a", 1)), (("a", "b"),))
OVER_IN = LinkDiagram(("a", "b"), (Crossing("a", "a", "b", 1),
                                   Crossing("b", "b", "a", 1)), (("a", "b"),))


@pytest.mark.parametrize("d", [
    hopf_link(), trefoil(), _mirror(trefoil()), CURL, _mirror(CURL),
    OVER_OUT, _mirror(OVER_OUT), OVER_IN, _mirror(OVER_IN),
    *map(torus_link, (2, 3, 4, 7, 10)), _mirror(torus_link(5))])
def test_wirtinger_matches_the_validating_construction(d):
    # wirtinger skips Presentation's checks; through them it is the same
    words = tuple(((out, 1), (over, sign), (under, -1), (over, -sign))
                  for over, under, out, sign in d.crossings)
    p = wirtinger(d)
    assert type(p) is Presentation and p == Presentation(d.arcs, words)


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


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (1, -1)])
def test_linking_number_needs_two_distinct_components(a, b):
    # the same component twice is a misuse, not a linking number of 0
    with pytest.raises(ValueError, match="^a crossing sum of component "
                                         f"{a} with itself$"):
        linking_number(hopf_link(), a, b)


# ---------------------------------------------------------- abelianization

def _dict_rows(m):
    """Dense rows as zero-free {column: entry} rows, as abelianization
    builds them."""
    return [{j: v for j, v in enumerate(r) if v} for r in m]


def test_smith_invariants_known_matrices():
    assert smith_invariants(_dict_rows([[2, 4], [6, 8]])) == [2, 4]
    assert smith_invariants(_dict_rows([[1, 0], [0, 1]])) == [1, 1]
    assert smith_invariants(_dict_rows([[0, 0], [0, 0]])) == []
    assert smith_invariants(_dict_rows([[0, 0], [0, 5]])) == [5]
    assert smith_invariants([]) == []
    assert smith_invariants([{"a": 2, "b": 4}, {"a": 6, "b": 8}]) == [2, 4]
    assert smith_invariants([{}, {7: 0}]) == []


def _reference_smith_invariants(rows):
    """The dense least-entry elimination that the sparse one replaced."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    r = c = 0
    while r < nr and c < nc:
        piv = None
        best = 0
        for i in range(r, nr):
            for j in range(c, nc):
                v = abs(m[i][j])
                if v and (piv is None or v < best):
                    piv, best = (i, j), v
        if piv is None:
            break
        pi, pj = piv
        m[r], m[pi] = m[pi], m[r]
        for row in m:
            row[c], row[pj] = row[pj], row[c]
        while True:
            clean = True
            for i in range(nr):
                if i != r and m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        clean = False
            for j in range(nc):
                if j != c and m[r][j]:
                    q = m[r][j] // m[r][c]
                    for row in m:
                        row[j] -= q * row[c]
                    if m[r][j]:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        clean = False
            if clean:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    diag = [d for d in diag if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


@example([6, 10, 15])   # one pass over adjacent pairs gives 2 | 15 | 30
@given(st.lists(st.integers(1, 60), max_size=7))
@settings(max_examples=300, deadline=None)
def test_the_divisibility_chain_matches_the_repeated_adjacent_passes(diag):
    # smith_invariants builds the chain in one pass over all pairs; the
    # reference repeats passes over adjacent pairs until nothing changes
    m = [[d if i == j else 0 for j in range(len(diag))]
         for i, d in enumerate(diag)]
    assert smith_invariants(_dict_rows(m)) == _reference_smith_invariants(m)


def _reference_abelianization(p):
    """Dense relation rows through the reference elimination."""
    idx = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row = [0] * len(p.generators)
        for g, e in r:
            row[idx[g]] += e
        rows.append(row)
    diag = _reference_smith_invariants(rows)
    return AbelianInvariants(tuple(d for d in diag if d != 1),
                             len(p.generators) - len(diag))


def _det(m):
    """Fraction-free (Bareiss) determinant of a square matrix."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


@st.composite
def matrices(draw, max_side):
    nr = draw(st.integers(1, max_side))
    nc = draw(st.integers(1, max_side))
    row = st.lists(st.integers(-12, 12), min_size=nc, max_size=nc)
    return draw(st.lists(row, min_size=nr, max_size=nr))


def test_bareiss_det_matches_cofactor_expansion():
    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] *
                   cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))
    rng = random.Random(0)
    for n in range(1, 6):
        for _ in range(40):
            m = [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(n)]
                 for _ in range(n)]
            assert _det(m) == cofactor_det(m)


@given(matrices(7))
@settings(max_examples=200, deadline=None)
def test_smith_matches_determinantal_divisors(m):
    diag = smith_invariants(_dict_rows(m))
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


def _torus_rows(n):
    """The Wirtinger relation rows of T(2, n) as dense lists: crossing i
    gives {out: 1, in: -1} with in = i and out = i + 2 (mod n), one cycle
    of arcs for odd n and two for even n."""
    rows = []
    for i in range(n):
        row = [0] * n
        row[(i + 2) % n] += 1
        row[i] -= 1
        rows.append(row)
    return rows


def _with_examples(examples):
    def decorate(test):
        for m in examples:
            test = example(m)(test)
        return test
    return decorate


@st.composite
def joining_matrices(draw):
    """Mostly identification rows x_a - x_b, in either orientation, so that
    rows repeat and close cycles; some multiples k(x_a - x_b), which are
    zero once a ~ b; and some general rows."""
    nc = draw(st.integers(2, 6))
    m = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.integers(0, 4))
        if kind < 4:
            a, b = draw(st.lists(st.integers(0, nc - 1), min_size=2,
                                 max_size=2, unique=True))
            k = draw(st.sampled_from([-3, -2, 2, 3])) if kind == 3 else 1
            row = [0] * nc
            row[a], row[b] = k, -k
        else:
            row = draw(st.lists(st.integers(-4, 4), min_size=nc,
                                max_size=nc))
        m.append(row)
    return m


@_with_examples([_torus_rows(n) for n in range(2, 41)] + [
    # a unit pivot first, then non-unit pivots on what is left
    [[1, 3, 5], [2, 8, 10], [0, 4, 12]],
    [[-1, 2, 0], [0, 2, 0], [0, 0, 4]],
    # identification rows: a cycle, and a row repeated and reversed
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
    [[1, -1], [1, -1], [-1, 1]],
    # {a: 2, b: -2} is zero once a ~ b, and {a: 3, c: 3} moves onto b
    [[1, -1, 0], [2, -2, 0], [3, 0, 3]],
    # after the joins, a unit pivot and then a non-unit one
    [[0, 1, -1, 0], [1, 0, 1, 0], [2, 0, 3, 4], [0, 0, 0, 6]],
])
@given(st.one_of(matrices(5), joining_matrices()))
@settings(max_examples=500, deadline=None)
def test_smith_matches_the_dense_reference(m):
    assert smith_invariants(_dict_rows(m)) == _reference_smith_invariants(m)


# an identification row whose third entry is an explicit zero, a two-entry
# row with a zero, rows of zeros only, and torus links, all zeros kept
@example([[1, -1, 0], [0, 1, -1]], "all", None)
@example([[1, 0], [0, 2]], "all", None)
@example([[0, 0, 0], [2, -2, 0]], "all", None)
@example(_torus_rows(6), "all", None)
@example(_torus_rows(7), "all", None)
@given(st.one_of(matrices(5), joining_matrices()),
       st.sampled_from(["none", "all", "some"]),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_smith_reads_dict_rows_in_place(m, keep, rng):
    """Dict rows that keep no, all or some of their zero entries give the
    dense reference's list and are left as they were, down to their
    order."""
    rows = [{j: v for j, v in enumerate(r)
             if v or keep == "all" or (keep == "some" and rng.random() < 0.5)}
            for r in m]
    before = copy.deepcopy(rows)
    assert smith_invariants(rows) == _reference_smith_invariants(m)
    assert [list(r.items()) for r in rows] == [list(r.items())
                                              for r in before]


def test_abelianization_builds_zero_free_rows(monkeypatch):
    seen = []
    real = groups.smith_invariants

    def spy(rows):
        seen.append(copy.deepcopy(rows))
        return real(rows)

    monkeypatch.setattr(groups, "smith_invariants", spy)
    d = trefoil()
    assert abelianization(wirtinger(d)) == AbelianInvariants((), 1)
    # every Wirtinger row is x_out - x_in: the over arc's letters cancel
    assert seen.pop() == [{c.under_out: 1, c.under_in: -1}
                          for c in d.crossings]
    p = Presentation(("a", "b", "c"),
                     (parse_word("a b A B"), parse_word("a a c a B"),
                      parse_word("c C b"), parse_word("a b b a c")))
    assert abelianization(p) == _reference_abelianization(p)
    assert seen.pop() == [{}, {"a": 3, "c": 1, "b": -1}, {"b": 1},
                          {"a": 2, "b": 2, "c": 1}]


@pytest.mark.parametrize("n", [2000, 3001])
def test_a_long_torus_link_abelianizes_without_recursion(n):
    # the pre-pass follows parent chains of about n / 2 links here: a
    # recursive find would pass Python's recursion limit
    assert abelianization(wirtinger(torus_link(n))) == AbelianInvariants(
        (), gcd(2, n))
    assert abelianization(wirtinger(_mirror(torus_link(n)))) == (
        AbelianInvariants((), gcd(2, n)))


@st.composite
def raw_presentations(draw):
    """Generators and relators as drawn, so a relator is often not freely
    reduced: the arguments of a Presentation, not one."""
    gens = tuple(f"x{i}" for i in range(draw(st.integers(0, 5))))
    if not gens:
        return (), ()
    letter = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    relator = st.lists(letter, max_size=12).map(tuple)
    return gens, tuple(draw(st.lists(relator, max_size=5)))


def presentations():
    return raw_presentations().map(lambda raw: Presentation(*raw))


@given(presentations())
@settings(max_examples=300, deadline=None)
def test_abelianization_matches_the_dense_reference(p):
    assert abelianization(p) == _reference_abelianization(p)


# ------------------------------------------------ the certificate product

def _reference_certificate_product(relators, certificate):
    """The product as certificate_product built it before it reduced once:
    the running product freely reduced again after every term."""
    prod = ()
    for index, sign, conj in certificate:
        if not 0 <= index < len(relators):
            raise TietzeError(f"certificate references relator {index}, "
                              f"presentation has {len(relators)}")
        if sign not in (1, -1):
            raise TietzeError(f"certificate sign must be +-1, got {sign}")
        r = relators[index] if sign == 1 else inverse(relators[index])
        prod = free_reduce(prod + inverse(conj) + r + conj)
    return prod


@given(presentations(), st.data())
@settings(max_examples=300, deadline=None)
def test_certificate_product_matches_the_term_by_term_reference(p, data):
    # indices run one past each end and signs include 0, so the errors are
    # compared too
    gens = p.generators or ("a",)
    letter = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    term = st.tuples(st.integers(-1, len(p.relators)),
                     st.sampled_from([1, -1, 1, -1, 0]),
                     st.lists(letter, max_size=4).map(tuple))
    cert = tuple(data.draw(st.lists(term, max_size=4)))
    try:
        want = _reference_certificate_product(p.relators, cert)
    except TietzeError as exc:
        with pytest.raises(TietzeError, match=f"^{re.escape(str(exc))}$"):
            certificate_product(p.relators, cert)
    else:
        assert certificate_product(p.relators, cert) == want


# ------------------------------------------------- valid moves on random input

def _reference_invariants_equal(p, q):
    """Whether p and q have the same abelian invariants, each from its own
    Smith normal form: a Tietze move must never change them."""
    return abelianization(p) == abelianization(q)


@st.composite
def tietze_cases(draw, kind=None):
    """The arguments (generators, relators) of a presentation, and a valid
    move of the given (or any) kind on it. A relator to remove, or a
    generator's defining relator, is inserted at a random index; other
    relators may use the generator any number of times. The relators are
    returned as drawn, so they are often not freely reduced: a relator to
    remove may carry a cancelling pair, and a defining relator may have
    cancelling pairs on either side of its generator. Presentation(*raw)
    reduces them; Presentation._make(raw) keeps them as they are."""
    gens, rels = draw(raw_presentations())
    kind = kind or draw(st.sampled_from(TietzeMove.KINDS))

    def word(over, size):
        if not over:
            return ()
        letter = st.tuples(st.sampled_from(over), st.sampled_from([1, -1]))
        return tuple(draw(st.lists(letter, max_size=size)))

    if kind == "add-generator":
        return (gens, rels), TietzeMove(kind, gen="z", word=word(gens, 12))
    if kind == "remove-generator":
        assume(gens)
        gen = draw(st.sampled_from(gens))
        rest = tuple(g for g in gens if g != gen)
        sign = st.sampled_from([1, -1])
        u, v = word(rest, 6), word(rest, 6)
        # in half the draws with two other generators, u ends and v starts
        # with a different one of them, and another relator uses the
        # generator once: a definition read from u v, not v u (a
        # conjugate), then differs, and so does that relator
        if len(rest) > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(rest))[:2]
            u, v = u + ((a, 1),), ((b, 1),) + v
            rels += (word(rest, 4) + ((gen, draw(sign)),) + word(rest, 4),)
        k = draw(st.integers(0, len(rels)))
        rel = u + ((gen, draw(sign)),) + v
        return ((gens, rels[:k] + (rel,) + rels[k:]),
                TietzeMove(kind, gen=gen, index=k))
    k = draw(st.integers(0, len(rels)))
    terms = draw(st.integers(0, 3)) if rels else 0
    cert = tuple((draw(st.integers(0, len(rels) - 1)),
                  draw(st.sampled_from([1, -1])), word(gens, 3))
                 for _ in range(terms))
    consequence = certificate_product(rels, cert)
    if kind == "add-relator":
        return (gens, rels), TietzeMove(kind, word=consequence,
                                        certificate=cert)
    if gens and draw(st.booleans()):
        j = draw(st.integers(0, len(consequence)))
        c = draw(st.sampled_from(gens))
        consequence = consequence[:j] + ((c, 1), (c, -1)) + consequence[j:]
    return ((gens, rels[:k] + (consequence,) + rels[k:]),
            TietzeMove(kind, index=k, certificate=cert))


@given(tietze_cases())
@settings(max_examples=400, deadline=None)
def test_valid_moves_keep_the_abelian_invariants(case):
    raw, move = case
    p = Presentation(*raw)
    q = apply_tietze(p, move)
    assert _reference_invariants_equal(p, q)


# ------------------------------------- the path that validated every result

def _reference_free_reduce(w):
    """free_reduce as it was before it kept the top of its stack: a new
    tuple for every letter kept."""
    stack = []
    for g, e in w:
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return tuple(stack)


def _reference_substitute(w, mapping):
    """substitute as it was, reducing a tuple copy with the old free_reduce."""
    out = []
    for g, e in w:
        if g not in mapping:
            raise ValueError(f"generator {g!r} not covered by the substitution")
        image = mapping[g] if e == 1 else inverse(mapping[g])
        out.extend(image)
    return _reference_free_reduce(tuple(out))


def _reference_apply_tietze(p, move):
    """apply_tietze as it was when every result went through
    Presentation(...), which validates all of its generators and letters."""
    kind, word, certificate, gen, index = move
    generators, relators = p
    if kind == "add-relator":
        target = _reference_free_reduce(word)
        got = _reference_certificate_product(relators, certificate)
        if got != target:
            raise TietzeError(
                f"certificate product {word_str(got)} != relator "
                f"{word_str(target)}")
        result = Presentation(generators, relators + (target,))
    elif kind == "remove-relator":
        if not 0 <= index < len(relators):
            raise TietzeError(f"no relator {index} to remove")
        rest = tuple(r for i, r in enumerate(relators) if i != index)
        got = _reference_certificate_product(rest, certificate)
        if got != _reference_free_reduce(relators[index]):
            raise TietzeError(
                f"removed relator is not certified by the others: "
                f"{word_str(got)}")
        result = Presentation(generators, rest)
    elif kind == "add-generator":
        if gen in generators:
            raise TietzeError(f"generator {gen!r} already present")
        for g, _ in word:
            if g not in generators:
                raise TietzeError(f"defining word uses unknown {g!r}")
        rel = _reference_free_reduce(((gen, 1),) + inverse(word))
        result = Presentation(generators + (gen,), relators + (rel,))
    else:  # remove-generator
        if gen not in generators:
            raise TietzeError(f"no generator {gen!r}")
        if not 0 <= index < len(relators):
            raise TietzeError(f"no relator {index}")
        rel = _reference_free_reduce(relators[index])
        hits = [i for i, (g, _) in enumerate(rel) if g == gen]
        if len(hits) != 1:
            raise TietzeError(
                f"relator {index} has {len(hits)} letters of "
                f"{gen!r}, need exactly 1")
        i = hits[0]
        _, e = rel[i]
        vu = rel[i + 1:] + rel[:i]
        definition = _reference_free_reduce(inverse(vu) if e == 1 else vu)
        if any(g == gen for g, _ in definition):
            raise TietzeError("defining word still mentions the generator")
        mapping = {g: ((g, 1),) for g in generators}
        mapping[gen] = definition
        new_rels = tuple(_reference_substitute(r, mapping)
                         for i2, r in enumerate(relators) if i2 != index)
        gens = tuple(g for g in generators if g != gen)
        result = Presentation(gens, new_rels)
    return result


def _outcome(fn, *args):
    """What fn returns, with its exact type, or the type and message of
    what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), result


@given(words)
def test_free_reduce_matches_the_reference(w):
    want = _reference_free_reduce(w)
    assert free_reduce(w) == want
    got = free_reduce(list(w))   # certificate_product hands it a list
    assert type(got) is tuple and got == want


@given(words, words, words, words, st.data())
@settings(max_examples=300, deadline=None)
def test_substitute_matches_the_reference_when_images_cancel(w, u, v, x,
                                                             data):
    # a -> u v, b -> V x, c -> X U: the images of "a b c" cancel to the
    # empty word, and u, v and x need not be reduced themselves
    mapping = {"a": u + v, "b": inverse(v) + x, "c": inverse(x) + inverse(u)}
    assert substitute(parse_word("a b c"), mapping) == ()
    assert substitute(parse_word("C B A"), mapping) == ()
    if data.draw(st.booleans()):
        del mapping[data.draw(st.sampled_from(sorted(mapping)))]
    for word in (w, w + inverse(w), parse_word("a b c") + w):
        assert (_outcome(substitute, word, mapping)
                == _outcome(_reference_substitute, word, mapping))


FAULTS = {"add-relator": ("none", "word", "certificate", "conjugate"),
          "remove-relator": ("none", "index", "certificate"),
          "add-generator": ("none", "gen", "word"),
          "remove-generator": ("none", "index", "gen")}


@st.composite
def tietze_cases_and_faults(draw):
    """A case of tietze_cases, then perhaps one field of its move
    replaced, so that the move may fail any check apply_tietze makes. An
    added relator may be conjugated, certificate and all, by a word in an
    undeclared generator z: its certificate still checks, and it reaches
    the check of its letters."""
    raw, move = draw(tietze_cases())
    gens, rels = raw
    letter = st.tuples(st.sampled_from(gens + ("z",)), st.sampled_from([1, -1]))
    word = st.lists(letter, max_size=6).map(tuple)
    fault = draw(st.sampled_from(FAULTS[move.kind]))
    if fault == "index":
        move = move._replace(index=draw(st.integers(-1, len(rels) + 1)))
    elif fault == "gen":
        move = move._replace(gen=draw(st.sampled_from(
            gens + ("z", "Bad", "x9", "1x"))))
    elif fault == "word":
        move = move._replace(word=draw(word))
    elif fault == "certificate":
        term = st.tuples(st.integers(-1, len(rels)),
                         st.sampled_from([1, -1, 0]), word)
        move = move._replace(certificate=tuple(draw(st.lists(term,
                                                             max_size=3))))
    elif fault == "conjugate":
        c = draw(word) + (("z", draw(st.sampled_from([1, -1]))),)
        move = move._replace(
            word=inverse(c) + move.word + c,
            certificate=tuple((i, s, conj + c)
                              for i, s, conj in move.certificate))
    return raw, move


# x1 is defined by u x1 v with u and v non-empty and used by the other
# relator, so a definition from u v instead of v u (a conjugate) differs
UV_CASE = ((("x0", "x1", "x2"), (parse_word("x1 x1 X0"),
                                 parse_word("x0 x1 x2"))),
           TietzeMove("remove-generator", gen="x1", index=1))
# the same, with cancelling pairs on both sides of x1 and in the other
# relator, which only the reduction at construction removes
UNREDUCED_UV_CASE = ((("x0", "x1", "x2"), (parse_word("x1 x2 X2 x1 X0"),
                                           parse_word("x0 x2 X2 x1 x0 X0 x2"))),
                     TietzeMove("remove-generator", gen="x1", index=1))


@given(tietze_cases_and_faults())
@settings(max_examples=400, deadline=None)
@example(UV_CASE)
@example(UNREDUCED_UV_CASE)
def test_apply_tietze_matches_the_validating_reference(case):
    raw, move = case
    p = Presentation(*raw)
    got = _outcome(apply_tietze, p, move)
    assert got == _outcome(_reference_apply_tietze, p, move)
    assert got[0] is Presentation or issubclass(got[0], ValueError)


def _parent_apply_tietze(p: Presentation, move: TietzeMove) -> Presentation:
    """apply_tietze as it was when a Presentation kept its relators as
    given, so every move reduced the relators it carried over.

    The move's certificate is the check, made against p: a relator added
    or removed must be the free reduction of its certificate's product of
    conjugates of the other relators, a generator added must be a fresh
    name defined by a word over p's generators, and a generator removed
    must have exactly one letter in its defining relator. Raises
    TietzeError (and leaves p alone) when the certificate fails. Only what
    is new gets Presentation's checks (ValueError): an added relator's
    letters and an added generator's name. Every other relator is p's, or
    reduced or substituted from p's letters, so it needs none.
    """
    kind, word, certificate, gen, index = move
    generators, relators = p
    if kind == "add-relator":
        target = free_reduce(word)
        got = certificate_product(relators, certificate)
        if got != target:
            raise TietzeError(
                f"certificate product {word_str(got)} != relator "
                f"{word_str(target)}")
        _check_declared(generators, target)
        return Presentation._make((generators, relators + (target,)))
    elif kind == "remove-relator":
        if not 0 <= index < len(relators):
            raise TietzeError(f"no relator {index} to remove")
        rest = relators[:index] + relators[index + 1:]
        got = certificate_product(rest, certificate)
        if got != free_reduce(relators[index]):
            raise TietzeError(
                f"removed relator is not certified by the others: "
                f"{word_str(got)}")
        return Presentation._make((generators, rest))
    elif kind == "add-generator":
        if gen in generators:
            raise TietzeError(f"generator {gen!r} already present")
        for g, _ in word:
            if g not in generators:
                raise TietzeError(f"defining word uses unknown {g!r}")
        rel = free_reduce(((check_gen(gen), 1),) + inverse(word))
        return Presentation._make((generators + (gen,), relators + (rel,)))
    else:  # remove-generator
        if gen not in generators:
            raise TietzeError(f"no generator {gen!r}")
        if not 0 <= index < len(relators):
            raise TietzeError(f"no relator {index}")
        rel = free_reduce(relators[index])
        hits = [i for i, (g, _) in enumerate(rel) if g == gen]
        if len(hits) != 1:
            raise TietzeError(
                f"relator {index} has {len(hits)} letters of "
                f"{gen!r}, need exactly 1")
        i = hits[0]
        _, e = rel[i]
        # rel = u g^e v = 1  =>  g^e = u^-1 v^-1  =>  g = (v u)^-e, and v u
        # holds no letter of g, so neither does the definition
        vu = rel[i + 1:] + rel[:i]
        definition = free_reduce(inverse(vu) if e == 1 else vu)
        mapping = {g: ((g, 1),) for g in generators} | {gen: definition}
        # Keep relators that reduce to epsilon: silently dropping them
        # would shift the indices that later certificates refer to.  An
        # empty certificate removes a trivial relator explicitly.
        new_rels = tuple(substitute(r, mapping) if (gen, 1) in r
                         or (gen, -1) in r else free_reduce(r)
                         for r in relators[:index] + relators[index + 1:])
        gens = tuple(g for g in generators if g != gen)
        return Presentation._make((gens, new_rels))


def _parent_outcome(raw, move):
    """What the parent path gives on the relators as drawn, a result
    normalised through Presentation(...)."""
    got = _outcome(_parent_apply_tietze, Presentation._make(raw), move)
    return (Presentation, Presentation(*got[1])) if got[0] is Presentation \
        else got


@given(tietze_cases_and_faults())
@settings(max_examples=400, deadline=None)
@example(UV_CASE)
@example(UNREDUCED_UV_CASE)
def test_apply_tietze_matches_the_parent_on_unreduced_relators(case):
    """apply_tietze on Presentation(*raw), whose relators are reduced at
    construction, against the parent path on the relators as drawn: the
    same presentation, or the same error type with the same message."""
    raw, move = case
    assert (_outcome(apply_tietze, Presentation(*raw), move)
            == _parent_outcome(raw, move))


def _walk_word(rng, gens):
    if not gens:
        return ()
    return tuple((rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 3)))


@given(raw_presentations(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_tietze_matches_the_validating_reference_on_walks(raw, seed):
    """A LIFO walk of 500 certified moves, unwound at the end, checked at
    every move against the validating reference and against the parent
    path, which walks from the relators as drawn. The walk's first
    presentation and its last before unwinding have the same abelian
    invariants."""
    rng = random.Random(seed)
    start = Presentation(*raw)
    p, old, stack, fresh = start, Presentation._make(raw), [], 0
    for step in range(500 + 6):
        if step == 500:
            assert abelianization(p) == abelianization(start)
        gens, rels = p
        if stack and (step >= 500 or len(stack) >= 6 or rng.random() < 0.45):
            kind, payload = stack.pop()
            if kind == "rel":
                move = TietzeMove("remove-relator", index=len(rels) - 1,
                                  certificate=payload)
            else:
                move = TietzeMove("remove-generator", gen=payload,
                                  index=len(rels) - 1)
        elif step >= 500:
            break
        elif rels and rng.random() < 0.5:
            cert = tuple((rng.randrange(len(rels)), rng.choice((1, -1)),
                          _walk_word(rng, gens))
                         for _ in range(rng.randint(1, 3)))
            move = TietzeMove("add-relator", certificate=cert,
                              word=_reference_certificate_product(rels, cert))
            stack.append(("rel", cert))
        else:
            fresh += 1
            move = TietzeMove("add-generator", gen=f"g{fresh}",
                              word=_walk_word(rng, gens))
            stack.append(("gen", f"g{fresh}"))
        want = _reference_apply_tietze(p, move)
        old = _parent_apply_tietze(old, move)
        p = apply_tietze(p, move)
        assert type(p) is Presentation and p == want
        assert p == Presentation(*old)
    assert p == start
    # on the parent path a generator removed reduced every other relator
    assert old.relators in (raw[1], start.relators)


@pytest.mark.parametrize("kind", TietzeMove.KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_each_move_kind_returns_a_presentation(kind, data):
    raw, move = data.draw(tietze_cases(kind))
    assert type(apply_tietze(Presentation(*raw), move)) is Presentation


def test_apply_tietze_still_validates_what_a_move_adds():
    p = Presentation(("a",), (parse_word("a a a"),))
    # the certificate checks: conjugating a^3 by z gives the word
    move = TietzeMove("add-relator", word=parse_word("Z a a a z"),
                      certificate=((0, 1, parse_word("z")),))
    with pytest.raises(ValueError,
                       match="^relator uses undeclared generator 'z'$"):
        apply_tietze(p, move)
    with pytest.raises(ValueError, match="^bad generator token 'Bad'$"):
        apply_tietze(p, TietzeMove("add-generator", gen="Bad",
                                   word=parse_word("a")))


# Entries of at most 12, yet the dense elimination above grows its
# coefficients without bound on this matrix (a 65-bit pivot by the tenth
# pass of its inner loop, still running after a minute).
BLOWUP = [[2, -1, -5, -2, 2, 1, 0], [0, 0, -1, 0, 6, -1, 12],
          [12, 12, -5, 1, -1, -2, 0], [-1, 4, 12, 12, -5, 2, -1],
          [4, -5, -5, 0, 12, 0, 0], [4, 12, -1, 0, -2, 1, -2],
          [12, -2, 0, 2, 0, 4, 0]]


def test_smith_invariants_without_coefficient_blow_up():
    start = time.perf_counter()
    assert smith_invariants(_dict_rows(BLOWUP)) == [1, 1, 1, 1, 1, 2, 1956942]
    assert time.perf_counter() - start < 1.0
    # independent checks: |det| is the product, and d_6 = gcd of 6x6 minors
    assert abs(_det(BLOWUP)) == 3_913_884
    assert _minor_gcd(BLOWUP, 6) == 2


def test_a_long_same_sign_cycle_finds_its_unit_pivots_fast():
    # rows x_i + x_{i+1} around a cycle of odd length n, which the pre-pass
    # leaves alone; |det| = 2.  Each pivot is a unit found among the rows
    # changed since the last search, where a least-entry scan of all live
    # entries would take seconds
    n = 5001
    rows = [{i: 1, (i + 1) % n: 1} for i in range(n)]
    start = time.perf_counter()
    assert smith_invariants(rows) == [1] * (n - 1) + [2]
    assert time.perf_counter() - start < 1.0


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
    q = loads_fp(dumps_fp(p))
    assert q == p


def test_fp_errors():
    with pytest.raises(ValueError, match="missing gens"):
        loads_fp("rel: a\n")
    with pytest.raises(ValueError, match="line 2"):
        loads_fp("gens: a\nnonsense\n")
    with pytest.raises(ValueError, match="second gens"):
        loads_fp("gens: a\ngens: b\n")


@pytest.mark.parametrize("text, message", [
    ("gens: a\nrel: a\nrel: a 1b\n", "line 3: bad generator token '1b'"),
    ("gens: a\n\n# comment\nrel: a B!\n", "line 4: bad generator token 'b!'"),
    ("rel: a\ngens: a _b\n", "line 2: bad generator token '_b'"),
    # the generators are known once every line is read
    ("rel: b\ngens: a\n", "relator uses undeclared generator 'b'"),
    ("gens: a b a\n", "duplicate generator 'a'"),
])
def test_fp_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as exc:
        loads_fp(text)
    assert str(exc.value) == message


def test_lnk_errors():
    with pytest.raises(ValueError, match="bad crossing field"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=+ extra\ncomp: a\n")
    with pytest.raises(ValueError, match="missing"):
        loads_lnk("arc: a\nx: over=a in=a sign=+\ncomp: a\n")
    with pytest.raises(ValueError, match="sign"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=2\ncomp: a\n")
    with pytest.raises(ValueError, match="^line 2: repeated field 'sign'$"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=+ sign=-\ncomp: a\n")
    # an arc name is checked as its line is read
    with pytest.raises(ValueError, match="^line 2: bad generator token '1b'$"):
        loads_lnk("arc: a\narc: 1b\ncomp: a 1b\n")
