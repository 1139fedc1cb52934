"""Seeded random inputs that several test files draw.

CONE_SWEEP, DISTINGUISH_IRREFLEXIVE and TIETZE_INVARIANCE enumerate small
ranges; these draws reach past them (cones over 5 vertices, up to 5 labels
with any counts, walks of certified Tietze moves up to 6 deep), and
acceptance criteria 3, 6 and 7 sweep them.
"""
import random

from splitcert.groups import (Presentation, TietzeMove, apply_tietze,
                              certificate_product)
from splitcert.report import TIETZE_WALK_START
from splitcert.splitting import OMEGA, FactorMultiset


def random_cone_base(rng: random.Random) -> frozenset[frozenset[str]]:
    """Maximal faces of a small random complex; equal iff the complexes are."""
    nv = rng.randint(1, 5)
    verts = [f"v{i}" for i in range(nv)]
    drawn = [frozenset([v]) for v in verts]
    for _ in range(rng.randint(0, 6)):
        drawn.append(frozenset(rng.sample(verts, rng.randint(1, min(3, nv)))))
    return frozenset(f for f in drawn if not any(f < g for g in drawn))


def random_multiset(rng: random.Random) -> FactorMultiset:
    labels = rng.sample([f"J{i}" for i in range(1, 9)], rng.randint(0, 5))
    return FactorMultiset.from_map(
        {lab: OMEGA if rng.random() < 0.4 else rng.randint(1, 6)
         for lab in labels})


def _random_word(rng: random.Random, gens):
    return tuple((rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 3)))


def random_tietze_walk(rng: random.Random, steps: int) -> Presentation:
    """Run a LIFO walk of `steps` certified Tietze moves from
    TIETZE_WALK_START; apply_tietze checks each move's certificate against
    the presentation it is applied to. Returns the last presentation."""
    p = TIETZE_WALK_START
    stack: list[tuple] = []   # ("rel", certificate) | ("gen", name)
    fresh = 0
    for _ in range(steps):
        deep = len(stack) >= 6
        if deep or (stack and rng.random() < 0.45):
            kind, payload = stack.pop()
            if kind == "rel":
                move = TietzeMove("remove-relator",
                                  index=len(p.relators) - 1,
                                  certificate=payload)
            else:
                move = TietzeMove("remove-generator", gen=payload,
                                  index=len(p.relators) - 1)
        elif rng.random() < 0.5:
            cert = tuple((rng.randrange(len(p.relators)),
                          rng.choice((1, -1)),
                          _random_word(rng, p.generators))
                         for _ in range(rng.randint(1, 3)))
            word = certificate_product(p.relators, cert)
            move = TietzeMove("add-relator", word=word, certificate=cert)
            stack.append(("rel", cert))
        else:
            fresh += 1
            name = f"g{fresh}"
            move = TietzeMove("add-generator", gen=name,
                              word=_random_word(rng, p.generators))
            stack.append(("gen", name))
        p = apply_tietze(p, move)
    return p
