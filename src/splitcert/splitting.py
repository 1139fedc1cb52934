"""Splitting certificates and the factor-multiset invariant.

verify_spine_split checks the combinatorial splitting rule by replay: if a
spine is the union of two subcomplexes A and B, and the three certificates
given collapse A, B and A n B to a point, the certified conclusion
"splits-into-closed-balls" is attached to them. The manifold-level reading
of that conclusion is a citation carried by the token, not a computation.

Factor multisets count indecomposable factors with values in N u {omega};
two infinite-sum descriptions are distinguishable exactly when some label
occurs a different number of times.

Only verify_spine_split replays certificates, and it imports the collapse
and complex code when called; the factor multisets need neither.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Mapping

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .collapse import CollapseCertificate
    from .complexes import SimplicialComplex

    Evidence = tuple[CollapseCertificate, CollapseCertificate,
                     CollapseCertificate]

OMEGA = math.inf

CONCLUSION = "splits-into-closed-balls"


class SplitError(ValueError):
    """verify_spine_split failure; the message names the culprit."""


# the names of the spine and of its parts (A, B), and the Evidence replayed
SplitCertificate = namedtuple("SplitCertificate",
                              "spine parts evidence conclusion",
                              defaults=(CONCLUSION,))


def verify_spine_split(spine: SimplicialComplex, A: SimplicialComplex,
                       B: SimplicialComplex,
                       certs: Evidence) -> SplitCertificate:
    """Check A u B = spine, then replay certs = (cert_A, cert_B, cert_AB)
    against A, B and A n B: each must end at a point. A failed replay
    refutes nothing, so the SplitError names the failed step, what is left
    or a missing (None) certificate, never a verdict. Callers without
    certificates take them from is_collapsible."""
    from .collapse import replay
    from .complexes import intersection, union
    if union(A, B).simplices != spine.simplices:
        raise SplitError(
            f"{A.name} union {B.name} is not {spine.name}")
    C = intersection(A, B)
    for part, cert in zip((A, B, C), certs, strict=True):
        if cert is None:   # is_collapsible's certificate on "no"
            raise SplitError(f"{part.name}: no certificate")
        result = replay(part, cert)
        if not result.ok:
            raise SplitError(
                f"{part.name}: replay failed at {result.failure}")
        if not result.collapsed_to_point:
            raise SplitError(f"{part.name}: certificate leaves "
                             f"{len(result.final)} simplices")
    return SplitCertificate(spine.name, (A.name, B.name), tuple(certs))


# ------------------------------------------------------- factor multisets

class FactorMultiset(namedtuple("FactorMultiset", "counts")):
    """Map label -> count in N u {omega}; missing labels count 0. Canonical:
    each label once, sorted, so equal multisets have equal counts tuples."""
    __slots__ = ()

    def __new__(cls, counts):
        counts = tuple(counts)
        for label, n in counts:
            if n != OMEGA and (isinstance(n, bool) or not isinstance(n, int)
                               or n <= 0):
                raise ValueError(f"count for {label!r} must be a positive "
                                 f"integer or OMEGA, got {n!r}")
        if len(dict(counts)) != len(counts):
            raise ValueError(f"a label occurs twice in {counts!r}")
        return super().__new__(cls, tuple(sorted(counts)))

    def _replace(self, **changes) -> "FactorMultiset":   # through __new__
        return FactorMultiset(**{**self._asdict(), **changes})

    @classmethod
    def from_map(cls, counts: Mapping[str, float]) -> "FactorMultiset":
        return cls(counts.items())

    def __str__(self) -> str:
        if not self.counts:
            return "(empty)"
        return ", ".join(
            f"{label}:{'w' if n == OMEGA else int(n)}"
            for label, n in self.counts)


def multiset_of(prefix, cycle=()) -> FactorMultiset:
    """Label counts of an eventually periodic summand sequence: a finite
    prefix, then a cycle repeated forever (empty for a finite sum). Prefix
    labels count their occurrences; cycle labels count omega. Each label is
    counted once, >= 1 or OMEGA, so the sorted counts are canonical and are
    built without FactorMultiset's checks; sorted labels sort in one pass."""
    counts: dict[str, float] = {}
    for label in prefix:
        counts[label] = counts.get(label, 0) + 1
    for label in cycle:
        counts[label] = OMEGA
    return tuple.__new__(FactorMultiset, (tuple(sorted(counts.items())),))


def distinguishable(m1: FactorMultiset, m2: FactorMultiset) -> bool:
    """True iff some label's count differs (missing labels count 0).

    A True verdict certifies the corresponding sums are genuinely
    different; False only means this invariant does not separate them.
    Multisets are canonical, so their counts tuples compare directly.
    """
    return m1.counts != m2.counts


def family_demo(k: int) -> int:
    """Build the 2^k subset descriptions over labels J1..Jk and return how
    many distinct multisets they give: 2^k exactly when they are pairwise
    distinguishable."""
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= 20:
        raise ValueError(f"k must be an integer in [0, 20], got {k!r}")
    # each subset once, as the sorted combinations of each size from sorted
    # labels, so it reaches multiset_of sorted; multisets are canonical, so
    # equal maps have equal counts tuples
    labels = sorted(f"J{i}" for i in range(1, k + 1))
    distinct = {multiset_of((), subset).counts
                for size in range(k + 1)
                for subset in itertools.combinations(labels, size)}
    return len(distinct)
