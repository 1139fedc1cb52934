import itertools
import random
import re
import time
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitcert.groups import (AbelianInvariants, Crossing, LinkDiagram,
                              Presentation, TietzeError, TietzeMove,
                              _certificate_product, abelianization,
                              apply_tietze, dumps_fp, free_reduce,
                              impose_relator, inverse, linking_number,
                              loads_fp, loads_lnk, parse_word,
                              smith_invariants, substitute, validate_diagram,
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


def test_impose_relator_changes_the_group():
    p = Presentation(("a",), ())
    q = impose_relator(p, parse_word("a a a"))
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


@given(matrices(5))
@settings(max_examples=300, deadline=None)
def test_smith_matches_the_dense_reference(m):
    want = _reference_smith_invariants(m)
    assert smith_invariants(m) == want
    sparse = [{j: v for j, v in enumerate(r) if v} for r in m]
    assert smith_invariants(sparse) == want


@st.composite
def presentations(draw):
    gens = tuple(f"x{i}" for i in range(draw(st.integers(0, 5))))
    if not gens:
        return Presentation((), ())
    letter = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    relator = st.lists(letter, max_size=12).map(tuple)
    return Presentation(gens, tuple(draw(st.lists(relator, max_size=5))))


@given(presentations())
@settings(max_examples=300, deadline=None)
def test_abelianization_matches_the_dense_reference(p):
    assert abelianization(p) == _reference_abelianization(p)


# ------------------------------------------------ the certificate product

def _reference_certificate_product(relators, certificate):
    """The product as _certificate_product built it before it reduced once:
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
            _certificate_product(p.relators, cert)
    else:
        assert _certificate_product(p.relators, cert) == want


# ------------------------------------------------- valid moves on random input

def _reference_invariants_equal(p, q):
    """Whether p and q have the same abelian invariants, each from its own
    Smith normal form: a Tietze move must never change them."""
    return abelianization(p) == abelianization(q)


@st.composite
def tietze_cases(draw, kind=None):
    """A presentation and a valid move of the given (or any) kind on it.
    A relator to remove, or a generator's defining relator, is inserted at
    a random index; other relators may use the generator any number of
    times, and none of them need be freely reduced."""
    p = draw(presentations())
    gens, rels = p
    kind = kind or draw(st.sampled_from(TietzeMove.KINDS))

    def word(over, size):
        if not over:
            return ()
        letter = st.tuples(st.sampled_from(over), st.sampled_from([1, -1]))
        return tuple(draw(st.lists(letter, max_size=size)))

    if kind == "add-generator":
        return p, TietzeMove(kind, gen="z", word=word(gens, 12))
    k = draw(st.integers(0, len(rels)))
    if kind == "remove-generator":
        assume(gens)
        gen = draw(st.sampled_from(gens))
        rest = tuple(g for g in gens if g != gen)
        sign = draw(st.sampled_from([1, -1]))
        rel = free_reduce(word(rest, 6) + ((gen, sign),) + word(rest, 6))
        return (Presentation(gens, rels[:k] + (rel,) + rels[k:]),
                TietzeMove(kind, gen=gen, index=k))
    terms = draw(st.integers(0, 3)) if rels else 0
    cert = tuple((draw(st.integers(0, len(rels) - 1)),
                  draw(st.sampled_from([1, -1])), word(gens, 3))
                 for _ in range(terms))
    consequence = _certificate_product(rels, cert)
    if kind == "add-relator":
        return p, TietzeMove(kind, word=consequence, certificate=cert)
    return (Presentation(gens, rels[:k] + (consequence,) + rels[k:]),
            TietzeMove(kind, index=k, certificate=cert))


@given(tietze_cases())
@settings(max_examples=400, deadline=None)
def test_valid_moves_keep_the_abelian_invariants(case):
    p, move = case
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
    got = free_reduce(list(w))   # _certificate_product hands it a list
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
    p, move = draw(tietze_cases())
    gens, rels = p
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
    return p, move


@given(tietze_cases_and_faults())
@settings(max_examples=400, deadline=None)
def test_apply_tietze_matches_the_validating_reference(case):
    p, move = case
    got = _outcome(apply_tietze, p, move)
    assert got == _outcome(_reference_apply_tietze, p, move)
    assert got[0] is Presentation or issubclass(got[0], ValueError)


def _walk_word(rng, gens):
    if not gens:
        return ()
    return tuple((rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 3)))


@given(presentations(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_apply_tietze_matches_the_validating_reference_on_walks(start, seed):
    """A LIFO walk of 500 certified moves, unwound at the end. The walk's
    first presentation and its last before unwinding have the same abelian
    invariants."""
    rng = random.Random(seed)
    p, stack, fresh = start, [], 0
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
        p = apply_tietze(p, move)
        assert type(p) is Presentation and p == want
    assert p.generators == start.generators
    # a generator removed reduces every other relator on its way
    assert p.relators in (start.relators,
                          tuple(map(free_reduce, start.relators)))


@pytest.mark.parametrize("kind", TietzeMove.KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_each_move_kind_returns_a_presentation(kind, data):
    p, move = data.draw(tietze_cases(kind))
    assert type(apply_tietze(p, move)) is Presentation


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
    assert smith_invariants(BLOWUP) == [1, 1, 1, 1, 1, 2, 1956942]
    assert time.perf_counter() - start < 1.0
    # independent checks: |det| is the product, and d_6 = gcd of 6x6 minors
    assert abs(_det(BLOWUP)) == 3_913_884
    assert _minor_gcd(BLOWUP, 6) == 2


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


def test_lnk_errors():
    with pytest.raises(ValueError, match="bad crossing field"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=+ extra\ncomp: a\n")
    with pytest.raises(ValueError, match="missing"):
        loads_lnk("arc: a\nx: over=a in=a sign=+\ncomp: a\n")
    with pytest.raises(ValueError, match="sign"):
        loads_lnk("arc: a\nx: over=a in=a out=a sign=2\ncomp: a\n")
