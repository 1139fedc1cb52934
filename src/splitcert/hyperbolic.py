"""Orientation-preserving isometries of the hyperbolic plane in the
Poincare disk model.

A disk automorphism is an SU(1,1) matrix [[a, b], [conj(b), conj(a)]] with
|a|^2 - |b|^2 = 1, so it is fixed by the pair (a, b) (Beardon, The Geometry
of Discrete Groups, GTM 91):

    f(z) = (a z + b) / (conj(b) z + conj(a))

With g applied first, compose(f, g) multiplies the matrices, and the
inverse is (conj(a), -b). The pair is projective: (-a, -b) is the same map.

f moves the origin by 2 asinh|b|, and any point p by the same formula read
from f conjugated by the translation taking p to 0. So displacements come
from matrix entries, and no image point is formed near the unit circle.
evaluate and the displacements write their products out on pairs of
complex numbers, building no intermediate Isometry; they do the operations
of the compose and inverse chain in its order, so each float is
bit-identical to that chain's.
Every numerical verdict but MERIDIAN_DISPLACEMENT, which asks for a
displacement over 1e-3, compares against the one fixed DEFAULT_TOL.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Mapping

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .groups import Word

DEFAULT_TOL = 1e-9
# a map that moves a point by more than this is certified nontrivial
NONTRIVIAL_FLOOR = 10 * DEFAULT_TOL

# three probe points on no common geodesic: only the identity fixes all
# three, so identity and equality tests read their displacements alone
PROBES = (0j, 0.4 + 0j, 0.3j)


def check_disk_point(z: complex) -> complex:
    z = complex(z)
    if not abs(z) < 1 - 1e-12:   # so a NaN point is refused as well
        raise ValueError(f"point {z} is not inside the unit disk")
    return z


def hyp_distance(p: complex, q: complex) -> float:
    p = check_disk_point(p)
    q = check_disk_point(q)
    return 2.0 * math.atanh(abs(p - q) / abs(1 - p.conjugate() * q))


class Isometry:
    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        self.a, self.b = complex(a), complex(b)

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.b.conjugate() * z
                                        + self.a.conjugate())

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (other acts first)."""
        a, b, oa, ob = self.a, self.b, other.a, other.b
        return Isometry(a * oa + b * ob.conjugate(),
                        a * ob + b * oa.conjugate())

    def inverse(self) -> "Isometry":
        return Isometry(self.a.conjugate(), -self.b)

    def __repr__(self) -> str:
        return f"Isometry({self.a:.6g}, {self.b:.6g})"


def _origin_pair(c: complex) -> tuple[complex, complex]:
    """The pair of the disk automorphism z -> (z - c) / (1 - conj(c) z)."""
    c = check_disk_point(c)
    s = math.sqrt(1.0 - abs(c) ** 2)
    return complex(1 / s), -c / s


_PROBE_PAIRS = tuple(map(_origin_pair, PROBES))   # built once


def keep_nan(pick, values) -> float:
    """pick (max or min) of the values, 0.0 if there are none, or NaN if any
    is NaN: the builtins keep a NaN only in first place."""
    values = list(values)
    return (math.nan if any(map(math.isnan, values))
            else pick(values, default=0.0))


def _displacement(f: Isometry, t: tuple[complex, complex]) -> float:
    """d(p, f(p)), where t = (ta, tb) takes p to 0: f seen from p moves the
    origin by 2 asinh|b|, b that of t.compose(f).compose(t.inverse())."""
    ta, tb = t
    fa, fb = f.a, f.b
    a = ta * fa + tb * fb.conjugate()
    b = ta * fb + tb * fa.conjugate()
    return 2.0 * math.asinh(abs(a * -tb + b * ta))


def max_displacement(f: Isometry) -> float:
    return keep_nan(max, [_displacement(f, t) for t in _PROBE_PAIRS])


def is_identity(f: Isometry) -> bool:
    return max_displacement(f) < DEFAULT_TOL


def same_isometry(f: Isometry, g: Isometry) -> bool:
    return is_identity(f.inverse().compose(g))


def rotation(center: complex, angle: float) -> Isometry:
    """Orientation-preserving isometry fixing center, derivative e^{i angle}."""
    t = Isometry(*_origin_pair(center))
    spin = Isometry(cmath.exp(0.5j * angle), 0)
    return t.inverse().compose(spin).compose(t)


def measure_angle(at: complex, p: complex, q: complex) -> float:
    """Interior angle at `at` between the geodesics toward p and toward q."""
    t = Isometry(*_origin_pair(at))
    ang = abs(cmath.phase(t(p)) - cmath.phase(t(q)))
    return min(ang, 2 * math.pi - ang)


def build_triangle(angles: tuple[float, float, float]) -> tuple[complex, complex, complex]:
    """Hyperbolic triangle with the given interior angles at A, B, C.

    A sits at the origin, B on the positive real axis, C in the upper
    half-disk. Side lengths come from the hyperbolic law of cosines.
    """
    alpha, beta, gamma = angles
    if not all(0 < x < math.pi for x in angles):
        raise ValueError(f"angles must lie in (0, pi), got {angles}")
    if alpha + beta + gamma >= math.pi - 1e-15:
        raise ValueError(
            f"angle sum {alpha + beta + gamma:.6f} leaves no hyperbolic "
            "triangle (needs sum < pi)")
    cosh_ab = (math.cos(gamma) + math.cos(alpha) * math.cos(beta)) / (
        math.sin(alpha) * math.sin(beta))
    cosh_ac = (math.cos(beta) + math.cos(alpha) * math.cos(gamma)) / (
        math.sin(alpha) * math.sin(gamma))
    ab = math.acosh(cosh_ab)
    ac = math.acosh(cosh_ac)
    a = 0j
    b = complex(math.tanh(ab / 2.0))
    c = math.tanh(ac / 2.0) * cmath.exp(1j * alpha)
    return a, b, c


def triangle_defect(a: complex, b: complex, c: complex) -> float:
    """pi minus the sum of measured interior angles (= hyperbolic area)."""
    total = (measure_angle(a, b, c) + measure_angle(b, a, c)
             + measure_angle(c, a, b))
    return math.pi - total


# ------------------------------------------------------- representations

def evaluate(assignment: Mapping[str, Isometry], w: Word) -> Isometry:
    """Compose the images of the word's letters, leftmost acting last.

    evaluate(a, g1 g2) = a[g1] after a[g2]... i.e. the usual homomorphism
    h(g1 g2) = h(g1) . h(g2).  The running product is the pair (a, b); each
    letter multiplies in its pair, or the inverse pair (conj(a), -b).
    """
    a, b = 1 + 0j, 0j
    for g, e in w:
        try:
            f = assignment[g]
        except KeyError:
            raise ValueError(f"generator {g!r} has no assigned isometry") \
                from None
        if e == 1:
            fa, fb = f.a, f.b
        else:
            fa, fb = f.a.conjugate(), -f.b
        a, b = a * fa + b * fb.conjugate(), a * fb + b * fa.conjugate()
    return Isometry(a, b)


class RelatorReport(namedtuple("RelatorReport", "max_residual")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.max_residual < DEFAULT_TOL


def certify_relators(assignment: Mapping[str, Isometry],
                     relators) -> RelatorReport:
    """Evaluate every relator; the residual is its max probe displacement."""
    return RelatorReport(keep_nan(max, [
        max_displacement(evaluate(assignment, r)) for r in relators]))


class NontrivialityReport(namedtuple("NontrivialityReport",
                                     "word_displacement")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.word_displacement > NONTRIVIAL_FLOOR


def certify_nontrivial(assignment: Mapping[str, Isometry], w: Word,
                       witness: complex) -> NontrivialityReport:
    """Certify that w acts nontrivially: it moves the witness point by more
    than NONTRIVIAL_FLOOR."""
    return NontrivialityReport(
        _displacement(evaluate(assignment, w), _origin_pair(witness)))
