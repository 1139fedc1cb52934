import cmath
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitcert import mazur
from splitcert.groups import parse_word
from splitcert.hyperbolic import (PROBES, Isometry, _displacement,
                                  _origin_pair, build_triangle,
                                  certify_nontrivial, certify_relators,
                                  evaluate, hyp_distance, is_identity,
                                  keep_nan, max_displacement, measure_angle,
                                  rotation, same_isometry, triangle_defect)

# points comfortably inside the disk
disk_points = st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                                 allow_infinity=False)

angles = st.floats(min_value=-6.0, max_value=6.0)


def random_isometries():
    """Rotations, and products of two rotations (which include the
    translations and the parabolic maps)."""
    rot = st.builds(rotation, disk_points, angles)
    return st.one_of(rot, st.builds(Isometry.compose, rot, rot))


# ---------------------------------------------------------------- distance

def test_distance_from_origin():
    assert hyp_distance(0j, 0.5) == pytest.approx(2 * math.atanh(0.5))
    assert hyp_distance(0j, 0j) == 0.0


def test_distance_rejects_boundary_points():
    with pytest.raises(ValueError, match="unit disk"):
        hyp_distance(1.0, 0j)


@given(disk_points, disk_points)
def test_distance_symmetric(p, q):
    assert hyp_distance(p, q) == pytest.approx(hyp_distance(q, p), abs=1e-12)


@given(disk_points, disk_points, disk_points)
@settings(max_examples=80)
def test_triangle_inequality(p, q, r):
    assert (hyp_distance(p, r)
            <= hyp_distance(p, q) + hyp_distance(q, r) + 1e-9)


# --------------------------------------------------------------- isometries

def test_identity_and_projective_sign():
    assert is_identity(Isometry(1, 0))
    assert is_identity(Isometry(-1, 0))  # same Moebius map
    assert not is_identity(Isometry(1j, 0))  # z -> -z


def test_isometry_is_an_su11_pair():
    assert Isometry.__slots__ == ("a", "b")
    f = rotation(0.1, 0.9).compose(rotation(0.5 - 0.2j, 2.0))
    for g in (f, f.inverse(), rotation(0.7j, 1.0)):
        assert abs(g.a) ** 2 - abs(g.b) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_rotation_fixes_center_and_moves_others():
    f = rotation(0.3 + 0.2j, 1.0)
    assert hyp_distance(0.3 + 0.2j, f(0.3 + 0.2j)) < 1e-12
    assert hyp_distance(0.5j, f(0.5j)) > 1e-3


def test_rotation_at_origin_is_euclidean():
    f = rotation(0j, math.pi / 2)
    assert f(0.5) == pytest.approx(0.5j, abs=1e-12)


@given(st.builds(rotation, disk_points, angles), disk_points, disk_points)
@settings(max_examples=60)
def test_rotations_preserve_distance(f, p, q):
    assert hyp_distance(f(p), f(q)) == pytest.approx(
        hyp_distance(p, q), abs=1e-9)


@given(random_isometries(), random_isometries(), disk_points)
@settings(max_examples=80)
def test_compose_applies_right_factor_first(f, g, z):
    assert f.compose(g)(z) == pytest.approx(f(g(z)), abs=1e-9)


@given(random_isometries(), disk_points)
@settings(max_examples=80)
def test_inverse_cancels(f, z):
    assert f.compose(f.inverse())(z) == pytest.approx(z, abs=1e-9)
    assert f.inverse().compose(f)(z) == pytest.approx(z, abs=1e-9)


def test_same_isometry_half_turns_coincide():
    b = 0.549
    assert same_isometry(rotation(b, math.pi), rotation(b, -math.pi))
    assert not same_isometry(rotation(b, 2 * math.pi / 5),
                             rotation(b, -2 * math.pi / 5))
    assert not same_isometry(rotation(b, math.pi), Isometry(1, 0))


# ---------------------------------------------------------------- triangles

def test_build_triangle_law_of_cosines():
    alpha, beta, gamma = math.pi / 7, math.pi / 2, math.pi / 5
    a, b, c = build_triangle((alpha, beta, gamma))
    assert a == 0j
    assert b.imag == 0 and b.real > 0
    # side AB opposite the pi/5 vertex: cosh = cos(pi/5)/sin(pi/7)
    cosh_ab = math.cos(gamma) / math.sin(alpha)
    assert hyp_distance(a, b) == pytest.approx(math.acosh(cosh_ab), abs=1e-12)
    # side AC: cosh = cot(pi/7) cot(pi/5) (right angle at B)
    cosh_ac = math.cos(alpha) * math.cos(gamma) / (
        math.sin(alpha) * math.sin(gamma))
    assert hyp_distance(a, c) == pytest.approx(math.acosh(cosh_ac), abs=1e-12)


def test_build_triangle_realizes_requested_angles():
    angles = (math.pi / 7, math.pi / 2, math.pi / 5)
    a, b, c = build_triangle(angles)
    assert measure_angle(a, b, c) == pytest.approx(angles[0], abs=1e-12)
    assert measure_angle(b, a, c) == pytest.approx(angles[1], abs=1e-12)
    assert measure_angle(c, a, b) == pytest.approx(angles[2], abs=1e-12)


def test_build_triangle_rejects_bad_angles():
    with pytest.raises(ValueError, match="no hyperbolic triangle"):
        build_triangle((math.pi / 2, math.pi / 3, math.pi / 6))
    with pytest.raises(ValueError, match="must lie in"):
        build_triangle((0.0, 1.0, 1.0))


def test_triangle_defect_is_gauss_bonnet_area():
    a, b, c = build_triangle((math.pi / 7, math.pi / 2, math.pi / 5))
    assert triangle_defect(a, b, c) == pytest.approx(11 * math.pi / 70,
                                                     abs=1e-12)


def test_triangle_area_by_numeric_integration():
    """Green's-theorem style oracle: integrate the hyperbolic area density
    over the geodesic triangle and compare with the angle defect."""
    mp = pytest.importorskip("mpmath")

    alpha = math.pi / 7
    a, b, c = build_triangle((alpha, math.pi / 2, math.pi / 5))
    # the geodesic through b and c is a circle orthogonal to the unit circle:
    # |z0|^2 = r0^2 + 1, passing through both points
    bx, cx, cy = b.real, c.real, c.imag
    # solve for center z0 = (x0, y0)
    #   (bx-x0)^2 + y0^2 = r0^2,  (cx-x0)^2 + (cy-y0)^2 = r0^2, x0^2+y0^2=r0^2+1
    # first and third: -2 bx x0 + bx^2 = -1   =>  x0 = (bx^2 + 1) / (2 bx)
    x0 = (bx * bx + 1) / (2 * bx)
    # second and third: -2 cx x0 - 2 cy y0 + cx^2 + cy^2 = -1
    y0 = (cx * cx + cy * cy + 1 - 2 * cx * x0) / (2 * cy)
    r0 = math.sqrt(x0 * x0 + y0 * y0 - 1)

    def rmax(theta):
        # nearest intersection of the ray angle theta with the circle
        bq = -2 * (x0 * math.cos(theta) + y0 * math.sin(theta))
        cq = x0 * x0 + y0 * y0 - r0 * r0
        disc = math.sqrt(bq * bq - 4 * cq)
        return (-bq - disc) / 2

    def integrand(theta):
        r = rmax(theta)
        # integral of 4r/(1-r^2)^2 dr from 0 to rmax
        return 2.0 / (1.0 - r * r) - 2.0

    area, err = mp.quad(integrand, [0, alpha], error=True)
    assert err < 1e-9
    assert area == pytest.approx(triangle_defect(a, b, c), abs=1e-8)
    assert area == pytest.approx(11 * math.pi / 70, abs=1e-8)


# ----------------------------------------------------------- word evaluation

def _sample_assignment():
    # a rotation and a translation along the geodesic through 0 and 0.5j
    return {"u": rotation(0.2 + 0.1j, 1.2),
            "v": Isometry(math.cosh(0.5), 1j * math.sinh(0.5))}


def test_evaluate_empty_word_is_identity():
    assert is_identity(evaluate(_sample_assignment(), ()))


def test_evaluate_unmapped_generator():
    with pytest.raises(ValueError, match="no assigned isometry"):
        evaluate(_sample_assignment(), parse_word("w"))
    # the first unassigned letter is named, whatever its sign
    with pytest.raises(ValueError,
                       match="^generator 'w' has no assigned isometry$"):
        evaluate(_sample_assignment(), parse_word("u v W x"))


def test_evaluate_is_homomorphic():
    asn = _sample_assignment()
    w1, w2 = parse_word("u v"), parse_word("V u u")
    lhs = evaluate(asn, w1 + w2)
    rhs = evaluate(asn, w1).compose(evaluate(asn, w2))
    assert same_isometry(lhs, rhs)


def test_evaluate_long_words_numerically_stable():
    asn = _sample_assignment()
    w = parse_word(" ".join(["u", "v", "U", "u"] * 16))  # 64 letters
    f = evaluate(asn, w)
    g = evaluate(asn, tuple((g_, -e) for g_, e in reversed(w)))
    assert max_displacement(f.compose(g)) < 1e-9


def _compose_chain_evaluate(assignment, w):
    """The compose and inverse chain that evaluate writes out on pairs."""
    acc = Isometry(1, 0)
    for g, e in w:
        acc = acc.compose(assignment[g] if e == 1
                          else assignment[g].inverse())
    return acc


def _compose_chain_displacement(f, p):
    t = Isometry(*_origin_pair(p))
    return 2.0 * math.asinh(abs(t.compose(f).compose(t.inverse()).b))


def _bits(z):
    """The exact value, with the signs of zeros, which == does not see."""
    return repr(complex(z))


LONG_WORD = parse_word(" ".join(["u", "v", "U", "V", "v", "U"] * 10
                                + ["u", "V", "u", "v"]))


@pytest.mark.parametrize("w", [(), parse_word("U"), LONG_WORD])
def test_evaluate_equals_the_compose_chain_on_fixed_words(w):
    asn = _sample_assignment()
    f, g = evaluate(asn, w), _compose_chain_evaluate(asn, w)
    assert type(f) is Isometry
    assert f.a == g.a and f.b == g.b
    assert (_bits(f.a), _bits(f.b)) == (_bits(g.a), _bits(g.b))


@given(st.lists(random_isometries(), min_size=1, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_evaluate_equals_the_compose_chain_exactly(isos, data):
    asn = {f"g{i}": f for i, f in enumerate(isos)}
    w = tuple(data.draw(st.lists(st.tuples(st.sampled_from(sorted(asn)),
                                           st.sampled_from((1, -1))),
                                 max_size=64)))
    f, g = evaluate(asn, w), _compose_chain_evaluate(asn, w)
    assert f.a == g.a and f.b == g.b
    assert (_bits(f.a), _bits(f.b)) == (_bits(g.a), _bits(g.b))


# points within 1e-6 of the rim, where the translation's entries are large
rim_points = st.builds(lambda r, phi: r * cmath.exp(1j * phi),
                       st.floats(min_value=1 - 1e-6, max_value=1 - 2e-12),
                       angles)


@example(Isometry(1, 0), 0j)
@example(rotation(0.2 + 0.1j, 1.2), PROBES[2])
@given(random_isometries(),
       st.one_of(st.sampled_from(PROBES), disk_points, rim_points))
@settings(max_examples=300, deadline=None)
def test_displacement_equals_the_compose_chain_exactly(f, p):
    got = _displacement(f, _origin_pair(p))
    want = _compose_chain_displacement(f, p)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("p", [1.0, 1 - 1e-13, 0.6 + 0.8j, 2j, -1.5])
def test_displacement_rejects_a_point_outside_the_disk(p):
    f = _sample_assignment()["u"]
    with pytest.raises(ValueError, match="is not inside the unit disk"):
        _origin_pair(p)
    with pytest.raises(ValueError, match="is not inside the unit disk"):
        certify_nontrivial({"u": f}, parse_word("u"), witness=p)


@pytest.mark.parametrize("p", [complex(math.nan, 0), complex(0, math.nan),
                               complex(math.nan, math.nan)])
def test_a_nan_point_is_refused_by_name(p):
    # abs(nan) compares false with any bound, so the check has to be "not <"
    message = re.escape(f"point {p} is not inside the unit disk")
    for call in (lambda: hyp_distance(p, 0j), lambda: hyp_distance(0j, p),
                 lambda: rotation(p, 1.0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_certify_relators_and_nontrivial():
    asn = {"r": rotation(0.1j, 2 * math.pi / 3)}
    rep = certify_relators(asn, (parse_word("r r r"),))
    assert rep.ok and rep.max_residual < 1e-9

    rep2 = certify_relators(asn, (parse_word("r r"),))
    assert not rep2.ok
    # the report keeps the worst residual only
    both = certify_relators(asn, (parse_word("r r r"), parse_word("r r")))
    assert both.max_residual == rep2.max_residual
    assert certify_relators(asn, ()).max_residual == 0.0

    non = certify_nontrivial(asn, parse_word("r"), witness=0.5)
    assert non.ok and non.word_displacement > 1e-3
    triv = certify_nontrivial(asn, parse_word("r r r"), witness=0.5)
    assert not triv.ok


@pytest.mark.parametrize("names", ["ab", "ba"])
def test_a_nan_residual_fails_the_report_wherever_it_falls(names):
    asn = {"a": Isometry(1, 0), "b": Isometry(math.nan, 0)}
    rep = certify_relators(asn, [parse_word(g) for g in names])
    assert math.isnan(rep.max_residual) and not rep.ok


def test_keep_nan_keeps_a_nan_in_any_place():
    for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0],
                   [1.0, 2.0, math.nan]):
        assert math.isnan(keep_nan(max, values))
        assert math.isnan(keep_nan(min, values))
    assert keep_nan(max, [1.0, 3.0, 2.0]) == 3.0
    assert keep_nan(min, iter([1.0, 3.0, 2.0])) == 1.0
    assert keep_nan(max, []) == 0.0 and keep_nan(min, ()) == 0.0


# ------------------------------------------- the four-entry reference path

class _ReferenceIsometry:
    """The earlier representation: a 2x2 Moebius matrix normalised to unit
    determinant, plus the orientation flag."""

    def __init__(self, a, b, c, d, rev=False, unit=False):
        """With unit=True the entries already have determinant 1 (a product
        or inverse of unit matrices) and are kept as they are: recomputing
        a d - b c for a long word cancels two terms near |a|^2 ~ 1e16 and
        leaves rounding noise, not 1."""
        if not unit:
            det = a * d - b * c
            if abs(det) < 1e-30:
                raise ValueError("singular matrix is not an isometry")
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        self.a, self.b, self.c, self.d = a, b, c, d
        self.rev = rev

    def __call__(self, z):
        w = z.conjugate() if self.rev else complex(z)
        return (self.a * w + self.b) / (self.c * w + self.d)

    def compose(self, other):
        oa, ob, oc, od = other.a, other.b, other.c, other.d
        if self.rev:
            oa, ob, oc, od = (oa.conjugate(), ob.conjugate(),
                              oc.conjugate(), od.conjugate())
        return _ReferenceIsometry(self.a * oa + self.b * oc,
                                  self.a * ob + self.b * od,
                                  self.c * oa + self.d * oc,
                                  self.c * ob + self.d * od,
                                  rev=self.rev != other.rev, unit=True)

    def inverse(self):
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.rev:
            a, b, c, d = (a.conjugate(), b.conjugate(),
                          c.conjugate(), d.conjugate())
        return _ReferenceIsometry(a, b, c, d, rev=self.rev, unit=True)


def _reference_translation(c):
    return _ReferenceIsometry(1, -c, -c.conjugate(), 1)


def _reference_rotation(center, angle):
    t = _reference_translation(center)
    half = cmath.exp(0.5j * angle)
    spin = _ReferenceIsometry(half, 0, 0, half.conjugate())
    return t.inverse().compose(spin).compose(t)


def _reference_reflection(p, q):
    t = _reference_translation(p)
    half = cmath.exp(-0.5j * cmath.phase(t(q)))
    u = _ReferenceIsometry(half, 0, 0, half.conjugate()).compose(t)
    conj = _ReferenceIsometry(1, 0, 0, 1, rev=True)
    return u.inverse().compose(conj).compose(u)


def _reference_evaluate(assignment, w):
    acc = _ReferenceIsometry(1, 0, 0, 1)
    for g, e in w:
        acc = acc.compose(assignment[g] if e == 1
                          else assignment[g].inverse())
    return acc


@given(st.lists(st.tuples(disk_points, angles), min_size=1, max_size=4),
       st.data())
@settings(max_examples=200, deadline=None)
def test_evaluate_agrees_with_the_four_entry_reference(specs, data):
    new = {f"g{i}": rotation(*spec) for i, spec in enumerate(specs)}
    old = {f"g{i}": _reference_rotation(*spec)
           for i, spec in enumerate(specs)}
    w = data.draw(st.lists(st.tuples(st.sampled_from(sorted(new)),
                                     st.sampled_from((1, -1))),
                           max_size=30))
    f, g = evaluate(new, w), _reference_evaluate(old, w)
    for p in PROBES:
        assert abs(f(p) - g(p)) < 1e-9


def test_the_reference_survives_a_long_hyperbolic_word():
    """This word's product has entries near 1e8, where a d - b c rounds to
    0: the reference must keep the unit determinant it was built with."""
    specs = [(0.78125j, 1.0), (-0.75j, 2.0)]
    new = {f"g{i}": rotation(*spec) for i, spec in enumerate(specs)}
    old = {f"g{i}": _reference_rotation(*spec)
           for i, spec in enumerate(specs)}
    w = parse_word("g0 g0 g0 g1 g0 g1 g0 g0 g0 g1 g0 g0 G1 g0 g1 G0")
    f, g = evaluate(new, w), _reference_evaluate(old, w)
    assert abs(f.a) > 1e7
    for p in PROBES:
        assert abs(f(p) - g(p)) < 1e-9


@given(disk_points, st.floats(min_value=-4.0, max_value=4.0), angles)
@settings(max_examples=200, deadline=None)
def test_rotation_is_a_product_of_two_reflections(p, phi, theta):
    """Reflecting in a geodesic through p and then in the one through p at
    angle theta from it rotates about p through 2 theta (Beardon, GTM 91,
    section 7)."""
    back = _reference_translation(p).inverse()
    q1 = back(0.5 * cmath.exp(1j * phi))
    q2 = back(0.5 * cmath.exp(1j * (phi + theta)))
    ref = _reference_reflection(p, q2).compose(_reference_reflection(p, q1))
    assert not ref.rev
    f = rotation(p, 2 * theta)
    for z in PROBES + (p, q1, 0.7 * cmath.exp(1j * phi)):
        assert abs(f(z) - ref(z)) < 1e-9


def test_triangle_generators_are_the_reflection_products():
    """beta and gamma act like r_BC r_AC and r_AC r_AB, the products of
    reflections in the sides of the bundled (pi/7, pi/2, pi/5) triangle."""
    cert = mazur.triangle_certificate()
    a, b, c = cert.vertices
    r_ab, r_ac, r_bc = (_reference_reflection(a, b),
                        _reference_reflection(a, c),
                        _reference_reflection(b, c))
    for gen, ref in (("beta", r_bc.compose(r_ac)),
                     ("gamma", r_ac.compose(r_ab))):
        f = cert.assignment[gen]
        for z in PROBES + cert.vertices + (-0.5j, 0.6 - 0.2j):
            assert abs(f(z) - ref(z)) < 1e-12
