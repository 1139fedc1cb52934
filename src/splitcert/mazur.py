"""The Mazur-link certification pipeline.

From the bundled two-component link diagram this module derives, step by
step, the boundary group data that the hyperbolic certificate consumes:

  1. Wirtinger presentation of the link group (9 generators, 9 relators;
     abelianization Z^2, one Z per component).
  2. Surgery quotient: add the two filling relators. This is a quotient,
     not a Tietze move: they kill the meridian pairing, and the
     abelianization collapses to 0, as it must for a homology-sphere
     boundary.
  3. Renaming: beta = x7, lambda = x2, alpha = beta lambda, gamma =
     alpha^2. The names live in the derivation chain's words only; the
     surgered presentation keeps its 9 arc generators.
  4. Reduced-word identities: x1 = beta^-2 alpha beta, x5 = beta^-2
     alpha^2 = beta^-2 gamma, verified verbatim by free reduction.
  5. Triangle-group representation on the (pi/7, pi/2, pi/5) triangle:
     beta -> the rotation through 2pi/5 about C and gamma -> the rotation
     through 2pi/7 about A, twice the triangle's angles there. The
     relators gamma^7, beta^5, (beta gamma)^2 vanish numerically,
     beta.gamma is the half-turn at B (so the angle at B is pi/2), and
     the meridian word beta^-2 gamma visibly displaces A.

The module needs groups and hyperbolic only; link_presentation imports
assets when called, so the pipeline run on a presentation already at hand
never compiles the asset, collapse or complex code.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .groups import (Presentation, free_reduce, parse_word, substitute,
                     wirtinger, word_str)
from .hyperbolic import (NONTRIVIAL_FLOOR, build_triangle,
                         certify_nontrivial, certify_relators, evaluate,
                         keep_nan, max_displacement, rotation, same_isometry)

R9 = parse_word("x1 X7 X2 x7")          # x1 = x7^-1 x2 x7
FILLING_RELATORS = (
    parse_word("x5 X2 X1"),             # x5 = x1 x2
    parse_word("X7 X5 x7 X3 X2 X7"),
)
MERIDIAN = parse_word("Beta Beta gamma")  # x5 in the final coordinates

TRIANGLE_ANGLES = (math.pi / 7, math.pi / 2, math.pi / 5)

TARGET_RELATORS = (
    parse_word(" ".join(["gamma"] * 7)),
    parse_word(" ".join(["beta"] * 5)),
    parse_word("beta gamma beta gamma"),
)


def link_presentation(assets_dir=None) -> Presentation:
    """Wirtinger presentation of the bundled link diagram."""
    from . import assets
    return wirtinger(assets.load_diagram("mazur_link", assets_dir))


def boundary_presentation(link: Presentation) -> Presentation:
    """The surgered (boundary) group: the link group modulo the two filling
    relators. A quotient, not a Tietze move: unless a relator already holds
    in the group, the group (and here its abelianization) changes."""
    return Presentation(link.generators, link.relators + FILLING_RELATORS)


def target_presentation() -> Presentation:
    """< beta, gamma | gamma^7, beta^5, (beta gamma)^2 >."""
    return Presentation(("beta", "gamma"), TARGET_RELATORS)


class DerivationChain(namedtuple("DerivationChain",
                                 "x1_word x5_word x5_gamma_word")):
    """The three verbatim reduced-word identities."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.x1_word == parse_word("Beta Beta alpha beta")
                and self.x5_word == parse_word("Beta Beta alpha alpha")
                and self.x5_gamma_word == self.x5_word)

    def lines(self) -> list[str]:
        return [
            f"x1 = {word_str(self.x1_word)}",
            f"x5 = {word_str(self.x5_word)}",
            f"x5 = {word_str(MERIDIAN)} with gamma = alpha alpha"
            f" ({word_str(self.x5_gamma_word)})",
        ]


def derivation_chain() -> DerivationChain:
    """The word-level derivation from R9 and the first filling relator,
    through beta = x7, lambda = x2, alpha = beta lambda, gamma = alpha^2.
    That the link's ninth relator is R9 is for MAZUR_R9 to decide."""
    # r9 solves to x1 = x7^-1 x2 x7; rename x7 -> beta, x2 -> lambda
    x1 = substitute(parse_word("X7 x2 x7"),
                    {"x7": parse_word("beta"), "x2": parse_word("lambda")})
    # lambda = beta^-1 alpha
    x1 = substitute(x1, {"beta": parse_word("beta"),
                         "lambda": parse_word("Beta alpha")})
    # first filling relator solves to x5 = x1 x2 = x1 lambda
    x5 = free_reduce(x1 + parse_word("Beta alpha"))
    # and beta^-2 gamma expands to x5 under gamma = alpha^2
    x5_gamma = substitute(MERIDIAN, {"beta": parse_word("beta"),
                                     "gamma": parse_word("alpha alpha")})
    return DerivationChain(x1, x5, x5_gamma)


class TriangleCertificate(namedtuple(
        "TriangleCertificate", "vertices assignment relator_report "
        "order_displacements rotation_b_matches meridian")):
    __slots__ = ()

    @property
    def min_order_displacement(self) -> float:
        return keep_nan(min, self.order_displacements)

    @property
    def representation_ok(self) -> bool:
        """Relators hold and beta/gamma have exact orders 5 and 7."""
        return (self.relator_report.ok
                and self.min_order_displacement > NONTRIVIAL_FLOOR
                and self.rotation_b_matches)

    @property
    def meridian_ok(self) -> bool:
        return self.meridian.word_displacement > 1e-3


def triangle_certificate() -> TriangleCertificate:
    a, b, c = build_triangle(TRIANGLE_ANGLES)
    # beta spins around C and gamma around A through twice the angles
    # there; that their product is the half-turn at B is checked below
    assignment = {
        "beta": rotation(c, 2 * math.pi / 5),
        "gamma": rotation(a, 2 * math.pi / 7),
    }
    report = certify_relators(assignment, TARGET_RELATORS)
    # proper powers of the elliptic generators must NOT be the identity
    displacements = []
    for gen, order in (("beta", 5), ("gamma", 7)):
        for k in range(1, order):
            w = tuple([(gen, 1)] * k)
            displacements.append(max_displacement(evaluate(assignment, w)))
    bg = evaluate(assignment, parse_word("beta gamma"))
    matches = same_isometry(bg, rotation(b, -math.pi))
    meridian = certify_nontrivial(assignment, MERIDIAN, 0j)
    return TriangleCertificate((a, b, c), assignment, report,
                               tuple(displacements), matches, meridian)
