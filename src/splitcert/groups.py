"""Words, finitely presented groups, Wirtinger presentations, Tietze moves,
and abelianization.

Words are tuples of (generator, exponent) letters with exponent +1 or -1.
In text form a generator token starts with a lowercase letter and its
inverse is written by uppercasing the first letter: "a B c" is a.b^-1.c,
"x1 X7" is x1.x7^-1.

Only the text loaders share code with the complexes (the asset files'
line format), and they import it when called, so group code runs without
compiling the complex, collapse or asset code.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Container, Hashable, Iterable, Mapping
from math import gcd

Letter = tuple[str, int]
Word = tuple[Letter, ...]

_GEN = re.compile(r"[a-z][A-Za-z0-9_]*")

EPSILON: Word = ()


class TietzeError(ValueError):
    """A Tietze move whose certificate does not verify."""


def check_gen(token: str) -> str:
    if not _GEN.fullmatch(token):
        raise ValueError(f"bad generator token {token!r}")
    return token


def parse_word(text: str) -> Word:
    """Parse 'a B c' notation. Empty text or '1' is the empty word."""
    if text.strip() == "1":
        return EPSILON
    letters = []
    for tok in text.split():
        if tok[0].isupper():
            letters.append((check_gen(tok[0].lower() + tok[1:]), -1))
        else:
            letters.append((check_gen(tok), +1))
    return tuple(letters)


def word_str(w: Word) -> str:
    out = []
    for g, e in w:
        out.append(g if e == 1 else g[0].upper() + g[1:])
    return " ".join(out) if out else "1"


def inverse(w: Word) -> Word:
    return tuple([(g, -e) for g, e in reversed(w)])


def free_reduce(w: Iterable[Letter]) -> Word:
    stack: list[Letter] = []
    tg, te = None, 0   # the fields of stack[-1], kept in locals
    for letter in w:
        g, e = letter
        if g == tg and e == -te:
            stack.pop()
            tg, te = stack[-1] if stack else (None, 0)
        else:
            stack.append(letter)
            tg, te = g, e
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
    for g, e in relator:
        if g not in generators:
            raise ValueError(f"relator uses undeclared generator {g!r}")
        if type(e) is not int or e not in (1, -1):
            raise ValueError(f"relator exponent must be +-1, got {e!r}")


class Presentation(namedtuple("Presentation", "generators relators")):
    """Relators are stored freely reduced, after their letters are checked."""
    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relators: tuple[Word, ...]):
        seen = set()
        for g in generators:
            check_gen(g)
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        for r in relators:
            _check_declared(seen, r)
        return super().__new__(cls, generators,
                               tuple(map(free_reduce, relators)))

    def _replace(self, **changes) -> "Presentation":   # through __new__
        return Presentation(**{**self._asdict(), **changes})

    def __str__(self) -> str:
        gens = " ".join(self.generators)
        rels = ", ".join(word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"


class TietzeMove(namedtuple("TietzeMove", "kind word certificate gen index")):
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

    def __new__(cls, kind: str, word: Word = EPSILON,
                certificate: tuple[tuple[int, int, Word], ...] = (),
                gen: str = "", index: int = -1):
        if kind not in cls.KINDS:
            raise ValueError(f"unknown Tietze move kind {kind!r}")
        return tuple.__new__(cls, (kind, word, certificate, gen, index))

    def _replace(self, **changes) -> "TietzeMove":   # through __new__
        return TietzeMove(**{**self._asdict(), **changes})


def certificate_product(relators: tuple[Word, ...],
                        certificate: Iterable[tuple[int, int, Word]]) -> Word:
    """Product of the terms conj^-1 r^sign conj, freely reduced once."""
    letters: list[Letter] = []
    for index, sign, conj in certificate:
        if not 0 <= index < len(relators):
            raise TietzeError(f"certificate references relator {index}, "
                              f"presentation has {len(relators)}")
        if sign not in (1, -1):
            raise TietzeError(f"certificate sign must be +-1, got {sign}")
        r = relators[index]   # the term is (r conj)^-1 conj for sign -1
        for g, e in reversed(conj if sign == 1 else r + conj):
            letters.append((g, -e))
        letters += r + conj if sign == 1 else conj
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
    letters and an added generator's name. A relator carried over is p's,
    freely reduced already; only the words a move makes are reduced, and a
    word equal to its certificate's product, reduced already, is not.
    """
    kind, word, certificate, gen, index = move
    generators, relators = p
    if kind == "add-relator":
        got = certificate_product(relators, certificate)
        target = word if got == word else free_reduce(word)
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
        if got != relators[index]:
            raise TietzeError(
                f"removed relator is not certified by the others: "
                f"{word_str(got)}")
        return Presentation._make((generators, rest))
    elif kind == "add-generator":
        if gen in generators:
            raise TietzeError(f"generator {gen!r} already present")
        for g, e in word:
            if g not in generators:
                raise TietzeError(f"defining word uses unknown {g!r}")
            if type(e) is not int or e not in (1, -1):
                raise TietzeError(f"word exponent must be +-1, got {e!r}")
        rel = free_reduce(((check_gen(gen), 1),) + inverse(word))
        return Presentation._make((generators + (gen,), relators + (rel,)))
    else:  # remove-generator
        if gen not in generators:
            raise TietzeError(f"no generator {gen!r}")
        if not 0 <= index < len(relators):
            raise TietzeError(f"no relator {index}")
        rel = relators[index]
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
        pos, neg = (gen, 1), (gen, -1)
        images = {pos: definition, neg: inverse(definition)}
        # Keep relators that reduce to epsilon: silently dropping them
        # would shift the indices that later certificates refer to.  An
        # empty certificate removes a trivial relator explicitly.
        new_rels = tuple(free_reduce([x for letter in r
                                      for x in images.get(letter, (letter,))])
                         if pos in r or neg in r else r
                         for r in relators[:index] + relators[index + 1:])
        k = generators.index(gen)
        return Presentation._make((generators[:k] + generators[k + 1:],
                                   new_rels))


# ----------------------------------------------------------- link diagrams

Crossing = namedtuple("Crossing", "over under_in under_out sign")


class LinkDiagram(namedtuple("LinkDiagram", "arcs crossings components")):
    """Arc names, Crossings, and each component's arcs, checked when built:
    the arcs are distinct generator names, every crossing names arcs only
    and has sign +1 or -1, and each component is one strand, traced through
    the crossings from in to out. Planarity is not checked."""
    __slots__ = ()

    def __new__(cls, arcs: tuple[str, ...], crossings: tuple[Crossing, ...],
                components: tuple[tuple[str, ...], ...]):
        arcset = set(arcs)
        if len(arcset) != len(arcs):
            raise ValueError("duplicate arc names")
        for a in arcs:
            check_gen(a)
        flat = [a for comp in components for a in comp]
        if sorted(flat) != sorted(arcs) or not all(components):
            raise ValueError("components do not partition the arcs")
        strand: dict[str, str] = {}   # under_in -> under_out
        for over, under_in, under_out, sign in crossings:
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"crossing sign must be +-1, got {sign}")
            for a in (over, under_in, under_out):
                if a not in arcset:
                    raise ValueError(f"crossing references unknown arc {a!r}")
            if under_in in strand:
                raise ValueError(f"arc {under_in!r} must end under exactly "
                                 "one crossing, not two")
            strand[under_in] = under_out
        for comp in components:
            # comp[0]'s strand returns after len(comp) arcs, all in comp
            a, members = comp[0], set(comp)
            if a not in strand and len(comp) == 1:
                continue   # a closed arc that passes under no crossing
            for step in range(1, len(comp) + 1):
                a = strand.get(a)
                if a not in members or (a == comp[0]) != (step == len(comp)):
                    raise ValueError(
                        f"component {comp} has several arcs but no crossings"
                        if not members & strand.keys() else
                        f"component {comp} is not one strand through the "
                        "crossings")
        return super().__new__(cls, arcs, crossings, components)

    def _replace(self, **changes) -> "LinkDiagram":   # through __new__
        return LinkDiagram(**{**self._asdict(), **changes})


def wirtinger(d: LinkDiagram) -> Presentation:
    """One generator per arc; per crossing the freely reduced relator
    under_out . over^sign . under_in^-1 . over^-sign. Two of its letters
    are adjacent on one generator only when the over arc is under_in or
    under_out, so only those relators go through free_reduce. It trusts d,
    as apply_tietze trusts a Presentation: a LinkDiagram has checked what
    Presentation() would, distinct generator names and crossings on arcs."""
    relators = []
    for over, under_in, under_out, sign in d.crossings:
        w = ((under_out, 1), (over, sign), (under_in, -1), (over, -sign))
        if over == under_in or over == under_out:
            w = free_reduce(w)
        relators.append(w)
    return Presentation._make((tuple(d.arcs), tuple(relators)))


def crossing_sum(d: LinkDiagram, comp_a: int, comp_b: int) -> int:
    """The signed count of crossings between two distinct components."""
    ca = set(d.components[comp_a])
    cb = set(d.components[comp_b])
    if ca == cb:   # components partition the arcs: equal sets are one
        raise ValueError(f"a crossing sum of component {comp_a} with itself")
    total = 0
    # the under arcs (in and out) lie on one component; read under_in
    for over, under, _, sign in d.crossings:
        if (over in ca and under in cb) or (over in cb and under in ca):
            total += sign
    return total


def linking_number(d: LinkDiagram, comp_a: int, comp_b: int) -> int:
    """Half of crossing_sum. A LinkDiagram's check covers its strands, not
    its planarity, so a diagram that no link realizes can reach here; for
    the bundled assets this is the meridian-pairing sanity value."""
    total = crossing_sum(d, comp_a, comp_b)
    if total % 2:
        raise ValueError("odd inter-component crossing sum; diagram broken")
    return total // 2


# ---------------------------------------------------------- abelianization

def smith_invariants(rows: Iterable[Mapping[Hashable, int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, with d1 | d2 | ... .

    Each row is a {column: entry} dict, read in place and never written;
    its zero entries may be left out, as abelianization leaves them.  A
    pre-pass takes the identification rows, those whose two nonzero entries
    are +1 and -1, as every Wirtinger relator's row is.  The row x_a - x_b
    is the column operation col_b += col_a followed by a unit pivot on a, so
    it joins the column classes of a and b and records 1; if they are one
    class already, the row closes a cycle and is zero.  The other rows are
    rewritten onto the class roots.  Then the pivot is a +-1 entry whenever
    there is one, else a least |entry|.  Euclidean row operations clear its
    column; once the pivot is alone there, column operations reduce the rest
    of its row mod the pivot.  The row and column retire, recording |pivot|,
    when the pivot is alone in both.
    """
    parent: dict[Hashable, Hashable] = {}   # the roots of classes are absent

    def find(j):
        while j in parent:
            up = parent[j]
            if up in parent:   # path halving
                up = parent[j] = parent[up]
            j = up
        return j

    diag = []
    other = []
    for row in rows:
        if len(row) == 2:
            (a, u), (b, w) = row.items()
            if u * w == -1:   # an identification row
                a = find(a) if a in parent else a
                b = find(b) if b in parent else b
                if a != b:   # else it closes a cycle
                    parent[a] = b
                    diag.append(1)
                continue
        other.append(row)
    live: dict[int, dict] = {}
    cols: dict[Hashable, set[int]] = {}
    for i, r in enumerate(other):
        row = {}
        for j, v in r.items():
            if j in parent:
                j = find(j)
            row[j] = row.get(j, 0) + v
        if row := {j: v for j, v in row.items() if v}:
            live[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
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
    # the divisibility chain in one pass: (c_i, c_j) <- (gcd, lcm) for
    # i < j leaves c_i dividing every later entry, and later pairs keep it
    # so; a 1 divides everything, so the 1s lead and take no pass
    chain = [d for d in diag if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            if b % a:
                g = gcd(a, b)
                chain[i], chain[j] = g, a * b // g
    return [1] * (len(diag) - len(chain)) + chain


class AbelianInvariants(namedtuple("AbelianInvariants", "factors free_rank")):
    """Invariant factors (the entries > 1) plus the free rank."""
    __slots__ = ()

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def abelianization(p: Presentation) -> AbelianInvariants:
    rows: list[dict[str, int]] = [{} for _ in p.relators]
    for row, r in zip(rows, p.relators):
        for g, e in r:
            if v := row.get(g, 0) + e:
                row[g] = v
            else:   # smith_invariants reads zero-free rows as they are
                del row[g]
    diag = smith_invariants(rows)
    return AbelianInvariants(tuple(d for d in diag if d != 1),
                             len(p.generators) - len(diag))


# ------------------------------------------------------------ file formats

def loads_fp(text: str) -> Presentation:
    from .complexes import content_lines
    gens: tuple[str, ...] | None = None
    rels: list[Word] = []
    for lineno, line in content_lines(text):
        try:
            if line.startswith("gens:"):
                if gens is not None:
                    raise ValueError("second gens: line")
                gens = tuple(map(check_gen, line[5:].split()))
            elif line.startswith("rel:"):
                rels.append(parse_word(line[4:]))
            else:
                raise ValueError(f"expected gens:/rel:, got {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if gens is None:
        raise ValueError("missing gens: line")
    # Presentation checks the names used, as gens: may follow the rel: lines
    return Presentation(gens, tuple(rels))


def load_fp(path) -> Presentation:
    with open(path) as f:
        return loads_fp(f.read())


def dumps_fp(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    lines.extend("rel: " + word_str(r) for r in p.relators)
    return "\n".join(lines) + "\n"


_CROSSING_FIELD = re.compile(r"^(over|in|out|sign)=(\S+)$")


def loads_lnk(text: str) -> LinkDiagram:
    from .complexes import content_lines
    arcs: list[str] = []
    crossings: list[Crossing] = []
    comps: list[tuple[str, ...]] = []
    for lineno, line in content_lines(text):
        try:
            if line.startswith("arc:"):
                arcs.extend(map(check_gen, line[4:].split()))
            elif line.startswith("x:"):
                fields = {}
                for tok in line[2:].split():
                    m = _CROSSING_FIELD.match(tok)
                    if not m:
                        raise ValueError(f"bad crossing field {tok!r}")
                    if m.group(1) in fields:
                        raise ValueError(f"repeated field {m.group(1)!r}")
                    fields[m.group(1)] = m.group(2)
                missing = {"over", "in", "out", "sign"} - fields.keys()
                if missing:
                    raise ValueError(f"missing {sorted(missing)}")
                if fields["sign"] not in ("+", "-"):
                    raise ValueError("sign must be + or -")
                crossings.append(Crossing(
                    over=fields["over"], under_in=fields["in"],
                    under_out=fields["out"],
                    sign=1 if fields["sign"] == "+" else -1))
            elif line.startswith("comp:"):
                comps.append(tuple(line[5:].split()))
            else:
                raise ValueError(f"expected arc:/x:/comp:, got {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return LinkDiagram(tuple(arcs), tuple(crossings), tuple(comps))


def load_lnk(path) -> LinkDiagram:
    with open(path) as f:
        return loads_lnk(f.read())
