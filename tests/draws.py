"""Seeded random inputs that several test files draw.

CONE_SWEEP and DISTINGUISH_IRREFLEXIVE enumerate small ranges; these draws
reach past them (cones over 5 vertices, up to 5 labels with any counts),
and acceptance criteria 3 and 7 sweep them.
"""
import random

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
