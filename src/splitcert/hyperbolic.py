"""Isometries of the hyperbolic plane in the Poincare disk model.

An isometry is stored as a 2x2 complex Moebius matrix plus an orientation
flag; orientation-reversing maps conjugate their argument FIRST and then
apply the matrix:

    f(z) = M . z        (preserving)
    f(z) = M . conj(z)  (reversing)

which gives the composition rules (g is applied first)

    compose(f, g) = (Mf . Mg,       f.rev XOR g.rev)   if f preserving
    compose(f, g) = (Mf . conj(Mg), f.rev XOR g.rev)   if f reversing

and inverse (conj(M^-1), True) for a reversing map. Matrices are kept at
unit determinant; two isometries are compared by their action on probe
points, never by matrix entries (the matrix sign is projective).
"""
from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple

from .groups import Word

DEFAULT_TOL = 1e-9

# three non-collinear probe points used for identity/equality tests
PROBES = (0j, 0.4 + 0j, 0.3j)


def check_disk_point(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1 - 1e-12:
        raise ValueError(f"point {z} is not inside the unit disk")
    return z


def hyp_distance(p: complex, q: complex) -> float:
    p = check_disk_point(p)
    q = check_disk_point(q)
    return 2.0 * math.atanh(abs(p - q) / abs(1 - p.conjugate() * q))


class Isometry:
    __slots__ = ("a", "b", "c", "d", "rev")

    def __init__(self, a: complex, b: complex, c: complex, d: complex,
                 rev: bool = False):
        det = a * d - b * c
        if abs(det) < 1e-30:
            raise ValueError("singular matrix is not an isometry")
        s = cmath.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s
        self.rev = rev

    def apply(self, z: complex) -> complex:
        w = z.conjugate() if self.rev else complex(z)
        return (self.a * w + self.b) / (self.c * w + self.d)

    __call__ = apply

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (other acts first)."""
        oa, ob, oc, od = other.a, other.b, other.c, other.d
        if self.rev:
            oa, ob, oc, od = (oa.conjugate(), ob.conjugate(),
                              oc.conjugate(), od.conjugate())
        return Isometry(self.a * oa + self.b * oc,
                        self.a * ob + self.b * od,
                        self.c * oa + self.d * oc,
                        self.c * ob + self.d * od,
                        rev=self.rev != other.rev)

    def inverse(self) -> "Isometry":
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.rev:
            a, b, c, d = (a.conjugate(), b.conjugate(),
                          c.conjugate(), d.conjugate())
        return Isometry(a, b, c, d, rev=self.rev)

    def __repr__(self) -> str:
        kind = "reversing" if self.rev else "preserving"
        return (f"Isometry([[{self.a:.6g}, {self.b:.6g}], "
                f"[{self.c:.6g}, {self.d:.6g}]], {kind})")


def identity() -> Isometry:
    return Isometry(1, 0, 0, 1)


def max_displacement(f: Isometry, probes=PROBES) -> float:
    return max(hyp_distance(p, f(p)) for p in probes)


def is_identity(f: Isometry, tol: float = DEFAULT_TOL) -> bool:
    return max_displacement(f) < tol


def same_isometry(f: Isometry, g: Isometry, tol: float = DEFAULT_TOL) -> bool:
    if f.rev != g.rev:
        return False
    return all(hyp_distance(f(p), g(p)) < tol for p in PROBES)


def _translate_to_origin(c: complex) -> Isometry:
    """The disk automorphism z -> (z - c) / (1 - conj(c) z)."""
    check_disk_point(c)
    return Isometry(1, -c, -c.conjugate(), 1)


def rotation(center: complex, angle: float) -> Isometry:
    """Orientation-preserving isometry fixing center, derivative e^{i angle}."""
    t = _translate_to_origin(center)
    half = cmath.exp(0.5j * angle)
    spin = Isometry(half, 0, 0, half.conjugate())
    return t.inverse().compose(spin).compose(t)


def reflection(p: complex, q: complex) -> Isometry:
    """Orientation-reversing isometry fixing the geodesic through p and q."""
    p = check_disk_point(p)
    q = check_disk_point(q)
    if abs(p - q) < 1e-14:
        raise ValueError("reflection needs two distinct points")
    t = _translate_to_origin(p)
    w = t(q)
    phi = cmath.phase(w)
    half = cmath.exp(-0.5j * phi)
    u = Isometry(half, 0, 0, half.conjugate()).compose(t)
    conj = Isometry(1, 0, 0, 1, rev=True)
    return u.inverse().compose(conj).compose(u)


def measure_angle(at: complex, p: complex, q: complex) -> float:
    """Interior angle at `at` between the geodesics toward p and toward q."""
    t = _translate_to_origin(at)
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
    h(g1 g2) = h(g1) . h(g2).
    """
    acc = identity()
    for g, e in w:
        if g not in assignment:
            raise ValueError(f"generator {g!r} has no assigned isometry")
        iso = assignment[g] if e == 1 else assignment[g].inverse()
        acc = acc.compose(iso)
    return acc


class RelatorReport(NamedTuple):
    residuals: tuple[float, ...]
    max_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol


def certify_relators(assignment: Mapping[str, Isometry], relators,
                     tol: float = DEFAULT_TOL) -> RelatorReport:
    """Evaluate every relator; the residual is its max probe displacement."""
    residuals = tuple(max_displacement(evaluate(assignment, r))
                      for r in relators)
    return RelatorReport(residuals, max(residuals, default=0.0), tol)


class NontrivialityReport(NamedTuple):
    word_displacement: float
    floor: float

    @property
    def ok(self) -> bool:
        return self.word_displacement > self.floor


def certify_nontrivial(assignment: Mapping[str, Isometry], w: Word,
                       witness: complex,
                       tol: float = DEFAULT_TOL) -> NontrivialityReport:
    """Certify that w acts nontrivially: it moves the witness point by more
    than 10x the identity tolerance."""
    image = evaluate(assignment, w)(check_disk_point(witness))
    return NontrivialityReport(hyp_distance(witness, image), 10.0 * tol)
