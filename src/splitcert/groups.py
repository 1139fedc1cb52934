"""Words, finitely presented groups, Wirtinger presentations, Tietze moves,
and abelianization.

Words are tuples of (generator, exponent) letters with exponent +1 or -1.
In text form a generator token starts with a lowercase letter and its
inverse is written by uppercasing the first letter: "a B c" is a.b^-1.c,
"x1 X7" is x1.x7^-1.
"""
from __future__ import annotations

import re
from math import gcd
from pathlib import Path
from typing import Container, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .complexes import content_lines

Letter = tuple[str, int]
Word = tuple[Letter, ...]

_GEN = re.compile(r"^[a-z][A-Za-z0-9_]*$")

EPSILON: Word = ()


class TietzeError(ValueError):
    """A Tietze move whose certificate does not verify."""


def _check_gen(token: str) -> str:
    if not _GEN.match(token):
        raise ValueError(f"bad generator token {token!r}")
    return token


def parse_word(text: str) -> Word:
    """Parse 'a B c' notation. Empty text or '1' is the empty word."""
    if text.strip() == "1":
        return EPSILON
    letters = []
    for tok in text.split():
        if tok[0].isupper():
            letters.append((_check_gen(tok[0].lower() + tok[1:]), -1))
        else:
            letters.append((_check_gen(tok), +1))
    return tuple(letters)


def word_str(w: Word) -> str:
    out = []
    for g, e in w:
        out.append(g if e == 1 else g[0].upper() + g[1:])
    return " ".join(out) if out else "1"


def inverse(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def free_reduce(w: Iterable[Letter]) -> Word:
    stack: list[Letter] = []
    top = None   # stack[-1], kept to save a lookup per letter
    for letter in w:
        if top and top[0] == letter[0] and top[1] == -letter[1]:
            stack.pop()
            top = stack[-1] if stack else None
        else:
            stack.append(top := letter)
    return tuple(stack)


def substitute(w: Word, mapping: Mapping[str, Word]) -> Word:
    """Homomorphic image of w under generator -> word, freely reduced."""
    out: list[Letter] = []
    for g, e in w:
        if g not in mapping:
            raise ValueError(f"generator {g!r} not covered by the substitution")
        image = mapping[g] if e == 1 else inverse(mapping[g])
        out.extend(image)
    return free_reduce(out)


# ------------------------------------------------------------ presentations

def _check_declared(generators: Container[str], relator: Word) -> None:
    for g, _ in relator:
        if g not in generators:
            raise ValueError(f"relator uses undeclared generator {g!r}")


class _Presentation(NamedTuple):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]


class Presentation(_Presentation):
    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relators: tuple[Word, ...]):
        seen = set()
        for g in generators:
            _check_gen(g)
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        for r in relators:
            _check_declared(seen, r)
        return super().__new__(cls, generators, relators)

    def __str__(self) -> str:
        gens = " ".join(self.generators)
        rels = ", ".join(word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


def impose_relator(p: Presentation, w: Word) -> Presentation:
    """Quotient of the presented group by the normal closure of w.

    This is NOT a Tietze transformation: unless w already holds in the
    group, the isomorphism type (and in general the abelianization)
    changes. Use apply_tietze for presentation changes that must preserve
    the group.
    """
    return Presentation(p.generators, p.relators + (free_reduce(w),))


class _TietzeMove(NamedTuple):
    kind: str
    word: Word = EPSILON
    certificate: tuple[tuple[int, int, Word], ...] = ()
    gen: str = ""
    index: int = -1


class TietzeMove(_TietzeMove):
    """One of the four isomorphism-preserving presentation moves.

    kind "add-relator": word + certificate, a tuple of (index, sign,
      conjugator) terms whose product prod_i conj(relators[index]^sign,
      conjugator) freely reduces to the word being added.
    kind "remove-relator": index + the same style of certificate over the
      *other* relators.
    kind "add-generator": gen + defining word over the existing generators;
      appends the relator gen.definition^-1.
    kind "remove-generator": gen + index of its defining relator, which must
      contain exactly one letter of gen.
    """
    __slots__ = ()
    KINDS = ("add-relator", "remove-relator", "add-generator",
             "remove-generator")

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in cls.KINDS:
            raise ValueError(f"unknown Tietze move kind {self.kind!r}")
        return self


def _certificate_product(relators: tuple[Word, ...],
                         certificate: Iterable[tuple[int, int, Word]]) -> Word:
    """Product of the terms conj^-1 r^sign conj, freely reduced once."""
    letters: list[Letter] = []
    for index, sign, conj in certificate:
        if not 0 <= index < len(relators):
            raise TietzeError(f"certificate references relator {index}, "
                              f"presentation has {len(relators)}")
        if sign not in (1, -1):
            raise TietzeError(f"certificate sign must be +-1, got {sign}")
        r = relators[index] if sign == 1 else inverse(relators[index])
        letters += (*inverse(conj), *r, *conj)
    return free_reduce(letters)


def apply_tietze(p: Presentation, move: TietzeMove) -> Presentation:
    """Apply a certified Tietze move; the presented group is unchanged.

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
        got = _certificate_product(relators, certificate)
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
        got = _certificate_product(rest, certificate)
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
        rel = free_reduce(((_check_gen(gen), 1),) + inverse(word))
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
        # rel = u g^e v = 1  =>  g^e = u^-1 v^-1  =>  g = (v u)^-e
        vu = rel[i + 1:] + rel[:i]
        definition = free_reduce(inverse(vu) if e == 1 else vu)
        if any(g == gen for g, _ in definition):
            raise TietzeError("defining word still mentions the generator")
        mapping = {g: ((g, 1),) for g in generators} | {gen: definition}
        # Keep relators that reduce to epsilon: silently dropping them
        # would shift the indices that later certificates refer to.  An
        # empty certificate removes a trivial relator explicitly.
        new_rels = tuple(substitute(r, mapping) if (gen, 1) in r
                         or (gen, -1) in r else free_reduce(r)
                         for r in relators[:index] + relators[index + 1:])
        gens = tuple(g for g in generators if g != gen)
        return Presentation._make((gens, new_rels))


# ----------------------------------------------------------- link diagrams

class _Crossing(NamedTuple):
    over: str
    under_in: str
    under_out: str
    sign: int


class Crossing(_Crossing):
    __slots__ = ()

    def __new__(cls, over: str, under_in: str, under_out: str, sign: int):
        if sign not in (1, -1):
            raise ValueError(f"crossing sign must be +-1, got {sign}")
        return super().__new__(cls, over, under_in, under_out, sign)


class LinkDiagram(NamedTuple):
    arcs: tuple[str, ...]
    crossings: tuple[Crossing, ...]
    components: tuple[tuple[str, ...], ...]


def validate_diagram(d: LinkDiagram) -> None:
    """Raise ValueError unless d is a combinatorially sound diagram."""
    arcset = set(d.arcs)
    if len(arcset) != len(d.arcs):
        raise ValueError("duplicate arc names")
    for a in d.arcs:
        _check_gen(a)
    flat = [a for comp in d.components for a in comp]
    if sorted(flat) != sorted(d.arcs):
        raise ValueError("components do not partition the arcs")
    outs: dict[str, int] = {a: 0 for a in d.arcs}
    ins: dict[str, int] = {a: 0 for a in d.arcs}
    for over, under_in, under_out, _ in d.crossings:
        for a in (over, under_in, under_out):
            if a not in arcset:
                raise ValueError(f"crossing references unknown arc {a!r}")
        outs[under_out] += 1
        ins[under_in] += 1
    for comp in d.components:
        touched = any(outs[a] or ins[a] for a in comp)
        if not touched:
            if len(comp) != 1:
                raise ValueError(
                    f"component {comp} has several arcs but no crossings")
            continue
        for a in comp:
            if outs[a] != 1 or ins[a] != 1:
                raise ValueError(
                    f"arc {a!r} must end under exactly one crossing on each "
                    f"side (out={outs[a]}, in={ins[a]})")


def wirtinger(d: LinkDiagram) -> Presentation:
    """One generator per arc; per crossing the relator
    under_out . over^sign . under_in^-1 . over^-sign."""
    validate_diagram(d)
    relators = []
    for over, under_in, under_out, sign in d.crossings:
        w = ((under_out, 1), (over, sign), (under_in, -1), (over, -sign))
        relators.append(free_reduce(w))
    return Presentation(tuple(d.arcs), tuple(relators))


def linking_number(d: LinkDiagram, comp_a: int, comp_b: int) -> int:
    """Half the signed count of crossings between two components.

    Assumes a realizable diagram; for the bundled assets this is the
    meridian-pairing sanity value.
    """
    ca = set(d.components[comp_a])
    cb = set(d.components[comp_b])
    total = 0
    # the under arcs (in and out) lie on one component; read under_in
    for over, under, _, sign in d.crossings:
        if (over in ca and under in cb) or (over in cb and under in ca):
            total += sign
    if total % 2:
        raise ValueError("odd inter-component crossing sum; diagram broken")
    return total // 2


# ---------------------------------------------------------- abelianization

def smith_invariants(rows: Sequence[Sequence[int] | dict]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, with d1 | d2 | ... .

    Rows are lists or sparse {column: entry} dicts.  The pivot is a +-1
    entry whenever there is one, else a least |entry|; Euclidean row and
    column operations clear its column and row, and then both are dropped.
    """
    live: dict[int, dict] = {}
    cols: dict[Hashable, set[int]] = {}
    for i, r in enumerate(rows):
        if row := {j: v for j, v in (r.items() if isinstance(r, dict)
                                     else enumerate(r)) if v}:
            live[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    diag = []
    todo = list(live)   # rows not searched for a unit since they changed
    while live:
        c = None
        while todo and c is None:
            r = todo.pop()
            for j, v in live.get(r, {}).items():
                if v == 1 or v == -1:
                    c = j
                    break
        if c is None:
            _, r, c = min((abs(v), i, j) for i, row in live.items()
                          for j, v in row.items())
        pivot, p = live[r], live[r][c]
        for i in cols[c] - {r}:
            row = live[i]
            q = row[c] // p
            for j, v in pivot.items():
                w = row.get(j, 0) - q * v
                if w:
                    row[j] = w
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del live[i]
            todo.append(i)
        if len(cols[c]) == 1:   # column ops then touch row r alone
            for j in [j for j in pivot if j != c]:
                pivot[j] %= p
                if not pivot[j]:
                    del pivot[j]
                    cols[j].discard(r)
            if len(pivot) == 1:
                del live[r], cols[c]
                diag.append(abs(p))
    # enforce the divisibility chain
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


class AbelianInvariants(NamedTuple):
    """Invariant factors (the entries > 1) plus the free rank."""
    factors: tuple[int, ...]
    free_rank: int

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def abelianization(p: Presentation) -> AbelianInvariants:
    rows: list[dict[str, int]] = [{} for _ in p.relators]
    for row, r in zip(rows, p.relators):
        for g, e in r:
            row[g] = row.get(g, 0) + e
    diag = smith_invariants(rows)
    return AbelianInvariants(tuple(d for d in diag if d != 1),
                             len(p.generators) - len(diag))


# ------------------------------------------------------------ file formats

def loads_fp(text: str) -> Presentation:
    gens: tuple[str, ...] | None = None
    rels: list[Word] = []
    for lineno, line in content_lines(text):
        if line.startswith("gens:"):
            if gens is not None:
                raise ValueError(f"line {lineno}: second gens: line")
            gens = tuple(line[5:].split())
        elif line.startswith("rel:"):
            rels.append(parse_word(line[4:]))
        else:
            raise ValueError(f"line {lineno}: expected gens:/rel:, got {line!r}")
    if gens is None:
        raise ValueError("missing gens: line")
    return Presentation(gens, tuple(rels))


def load_fp(path) -> Presentation:
    return loads_fp(Path(path).read_text())


def dumps_fp(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    lines.extend("rel: " + word_str(r) for r in p.relators)
    return "\n".join(lines) + "\n"


_CROSSING_FIELD = re.compile(r"^(over|in|out|sign)=(\S+)$")


def loads_lnk(text: str) -> LinkDiagram:
    arcs: list[str] = []
    crossings: list[Crossing] = []
    comps: list[tuple[str, ...]] = []
    for lineno, line in content_lines(text):
        if line.startswith("arc:"):
            arcs.extend(line[4:].split())
        elif line.startswith("x:"):
            fields = {}
            for tok in line[2:].split():
                m = _CROSSING_FIELD.match(tok)
                if not m:
                    raise ValueError(f"line {lineno}: bad crossing field {tok!r}")
                fields[m.group(1)] = m.group(2)
            missing = {"over", "in", "out", "sign"} - fields.keys()
            if missing:
                raise ValueError(f"line {lineno}: missing {sorted(missing)}")
            if fields["sign"] not in ("+", "-"):
                raise ValueError(f"line {lineno}: sign must be + or -")
            crossings.append(Crossing(over=fields["over"],
                                      under_in=fields["in"],
                                      under_out=fields["out"],
                                      sign=1 if fields["sign"] == "+" else -1))
        elif line.startswith("comp:"):
            comps.append(tuple(line[5:].split()))
        else:
            raise ValueError(f"line {lineno}: expected arc:/x:/comp:, got {line!r}")
    d = LinkDiagram(tuple(arcs), tuple(crossings), tuple(comps))
    validate_diagram(d)
    return d


def load_lnk(path) -> LinkDiagram:
    return loads_lnk(Path(path).read_text())
