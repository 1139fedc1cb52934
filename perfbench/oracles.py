"""Answers the benchmark computes without the program, to check its output.

Nothing here imports splitcert: each answer comes from a second route (a
plain set-based collapse checker, free reduction of words, a 50-digit
mpmath model of the triangle group built from circle inversions), so a
wrong verdict cannot agree with itself.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict

Simplex = tuple[str, ...]
Word = tuple[tuple[str, int], ...]


# ------------------------------------------------------------- complexes

def closure(maximal) -> frozenset[Simplex]:
    out = set()
    for raw in maximal:
        s = tuple(sorted(raw))
        for r in range(1, len(s) + 1):
            out.update(itertools.combinations(s, r))
    return frozenset(out)


def euler(simplices) -> int:
    return sum(1 if len(s) % 2 else -1 for s in simplices)


class CollapseChecker:
    """Free faces and certificate replay by direct definition: a free face
    is a proper face of exactly one simplex present."""

    def __init__(self, simplices: frozenset[Simplex]):
        self.simplices = simplices
        self.up: dict[Simplex, list[Simplex]] = defaultdict(list)
        for s in simplices:
            for r in range(1, len(s)):
                for f in itertools.combinations(s, r):
                    self.up[f].append(s)

    def _cofaces(self, face, present):
        return [c for c in self.up[face] if c in present]

    def free_faces(self) -> list[Simplex]:
        return sorted(s for s in self.simplices
                      if len(self._cofaces(s, self.simplices)) == 1)

    def replay(self, steps) -> frozenset[Simplex] | None:
        """What remains after the steps, or None if one is not a free face."""
        cur = set(self.simplices)
        for face in steps:
            if face not in cur:
                return None
            cofaces = self._cofaces(face, cur)
            if len(cofaces) != 1:
                return None
            cur.discard(face)
            cur.discard(cofaces[0])
        return frozenset(cur)


def is_point(simplices) -> bool:
    return len(simplices) == 1 and len(next(iter(simplices))) == 1


# ------------------------------------------------------------------ words

def inverse(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def reduce(w) -> Word:
    out: list = []
    for g, e in w:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def certificate_word(relators, certificate) -> Word:
    """Product over the terms (index, sign, c) of c^-1 r_index^sign c."""
    out: Word = ()
    for index, sign, conj in certificate:
        r = relators[index] if sign == 1 else inverse(relators[index])
        out = reduce(out + inverse(conj) + r + conj)
    return out


# --------------------------------------------------------- triangle group

def meridian_displacements(powers: int, digits: int = 50) -> list[float]:
    """Hyperbolic distance from 0 to (beta^-2 gamma)^k (0), k = 1..powers,
    in the (pi/7, pi/2, pi/5) triangle group.

    A sits at the origin, B on the positive real axis and C at angle pi/7,
    with side lengths from the hyperbolic law of cosines. The reflections
    in sides AB and AC are z -> conj(z) and z -> e^{2i pi/7} conj(z); the
    one in BC is inversion in the circle through B and C orthogonal to the
    unit circle. beta = r_BC r_AC and gamma = r_AC r_AB.
    """
    import mpmath

    with mpmath.workdps(digits):
        pi = mpmath.pi
        alpha, beta_angle, gamma_angle = pi / 7, pi / 2, pi / 5
        cosh_ab = ((mpmath.cos(gamma_angle)
                    + mpmath.cos(alpha) * mpmath.cos(beta_angle))
                   / (mpmath.sin(alpha) * mpmath.sin(beta_angle)))
        cosh_ac = ((mpmath.cos(beta_angle)
                    + mpmath.cos(alpha) * mpmath.cos(gamma_angle))
                   / (mpmath.sin(alpha) * mpmath.sin(gamma_angle)))
        b = mpmath.tanh(mpmath.acosh(cosh_ab) / 2)
        c = mpmath.tanh(mpmath.acosh(cosh_ac) / 2) * mpmath.expjpi(alpha / pi)
        # centre (x0, y0) of the circle orthogonal to the unit circle through
        # b and c: Re(conj(centre) p) = (1 + |p|^2) / 2 for p = b, c
        x0 = (1 + b * b) / (2 * b)
        y0 = ((1 + abs(c) ** 2) / 2 - x0 * c.real) / c.imag
        centre = mpmath.mpc(x0, y0)
        radius2 = abs(centre) ** 2 - 1
        turn = mpmath.expjpi(2 * alpha / pi)

        def r_ab(z):
            return mpmath.conj(z)

        def r_ac(z):
            return turn * mpmath.conj(z)

        def r_bc(z):
            return centre + radius2 / mpmath.conj(z - centre)

        def beta_inv(z):          # (r_BC r_AC)^-1 = r_AC r_BC
            return r_ac(r_bc(z))

        def gamma(z):
            return r_ac(r_ab(z))

        out = []
        z = mpmath.mpc(0)
        for _ in range(powers):
            z = beta_inv(beta_inv(gamma(z)))
            out.append(float(2 * mpmath.atanh(abs(z))))
    return out


def check_close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)
