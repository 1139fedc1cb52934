"""End-to-end tests of the link-group -> triangle-group pipeline."""
import math

import pytest

from splitcert import mazur
from splitcert.assets import load_diagram
from splitcert.cli import main
from splitcert.groups import Presentation, abelianization, parse_word, word_str
from splitcert.hyperbolic import (certify_nontrivial, evaluate, rotation,
                                  same_isometry)
from splitcert.report import (CHECKS, FAIL, PASS, RunContext, run_checks,
                              verify_all)


def test_link_presentation_abelianization():
    inv = abelianization(mazur.link_presentation())
    assert inv.free_rank == 2
    assert inv.factors == ()


def test_boundary_presentation_is_homology_sphere_group():
    p = mazur.boundary_presentation(mazur.link_presentation())
    # the 9 arcs; the filling adds relators, not generators
    assert len(p.generators) == 9 and len(p.relators) == 11
    inv = abelianization(p)
    assert inv.free_rank == 0
    assert inv.factors == ()


def test_filling_relators_really_are_quotients():
    """The two surgery relators are not consequences: adding just the
    first one already kills one Z of the link group's abelianization."""
    p = mazur.link_presentation()
    q = Presentation(p.generators, p.relators + mazur.FILLING_RELATORS[:1])
    assert abelianization(p).free_rank == 2
    assert abelianization(q).free_rank == 1


def test_derivation_chain_words():
    chain = mazur.derivation_chain()
    assert chain.ok
    assert word_str(chain.x1_word) == "Beta Beta alpha beta"
    assert word_str(chain.x5_word) == "Beta Beta alpha alpha"
    assert chain.x5_gamma_word == chain.x5_word
    assert len(chain.lines()) == 3


def test_tampered_relator_9_fails_mazur_r9_and_mazur_certify(asset_copy,
                                                            capsys):
    # flip the ninth crossing's sign: the diagram stays valid, and its
    # relator 9 reads x1 x7 X2 X7, not r9
    lnk = asset_copy / "mazur_link.lnk"
    text = lnk.read_text()
    ninth = "x: over=x7 in=x2 out=x1 sign=-"
    assert text.count(ninth) == 1
    lnk.write_text(text.replace(ninth, ninth[:-1] + "+"))

    assert main(["mazur", "certify", "--assets", str(asset_copy)]) == 1
    captured = capsys.readouterr()
    assert "PI1_BOUNDARY_NONTRIVIAL: FAIL\n" in captured.out
    assert captured.err == ""

    report = verify_all(asset_copy)
    lines = {c.check_id: c for c in report.checks}
    assert lines["MAZUR_R9"] == (
        "MAZUR_R9", FAIL, "relator 9 is x1 x7 X2 X7")
    # the derivation chain's words never came from the link
    assert lines["MAZUR_DERIVATION_CHAIN"] == (
        "MAZUR_DERIVATION_CHAIN", PASS,
        "; ".join(mazur.derivation_chain().lines()))
    assert report.overall == FAIL


def test_an_odd_crossing_sum_fails_mazur_linking_as_a_verdict(asset_copy):
    # the ninth crossing passes under x3, on the knotted component, not
    # under x7: five inter-component crossings are left, and their signs
    # sum to -1
    lnk = asset_copy / "mazur_link.lnk"
    text = lnk.read_text()
    ninth = "x: over=x7 in=x2 out=x1 sign=-"
    assert text.count(ninth) == 1
    lnk.write_text(text.replace(ninth, "x: over=x3 in=x2 out=x1 sign=-"))

    lines = {c.check_id: c for c in verify_all(asset_copy).checks}
    assert lines["MAZUR_LINKING"] == (
        "MAZUR_LINKING", FAIL, "odd inter-component crossing sum -1")
    # run strictly, the check returns its verdict and raises nothing
    (result,) = run_checks([c for c in CHECKS if c.id == "MAZUR_LINKING"],
                           RunContext(asset_copy), strict=True).checks
    assert result == lines["MAZUR_LINKING"]


def test_a_one_component_link_fails_mazur_linking_as_a_verdict(asset_copy):
    # a valid one-component diagram: the trefoil
    (asset_copy / "mazur_link.lnk").write_text(
        "arc: a b c\n"
        "x: over=c in=a out=b sign=+\n"
        "x: over=a in=b out=c sign=+\n"
        "x: over=b in=c out=a sign=+\n"
        "comp: a b c\n")

    (result,) = run_checks([c for c in CHECKS if c.id == "MAZUR_LINKING"],
                           RunContext(asset_copy), strict=True).checks
    assert result == ("MAZUR_LINKING", FAIL, "component count 1, not 2")


@pytest.mark.parametrize("comps,message", [
    # both strands listed as one component
    ("comp: x1 x2 x3 x4 x5 x6 x7 x8 x9\n",
     "component ('x1', 'x2', 'x3', 'x4', 'x5', 'x6', 'x7', 'x8', 'x9') "
     "is not one strand through the crossings"),
    # x6 and x7 swapped between the strands
    ("comp: x1 x2 x3 x4 x5 x7\ncomp: x6 x8 x9\n",
     "component ('x1', 'x2', 'x3', 'x4', 'x5', 'x7') is not one strand "
     "through the crossings"),
])
def test_a_component_that_is_not_a_strand_is_rejected_at_load(
        asset_copy, capsys, comps, message):
    lnk = asset_copy / "mazur_link.lnk"
    text = lnk.read_text()
    strands = "comp: x1 x2 x3 x4 x5 x6\ncomp: x7 x8 x9\n"
    assert text.count(strands) == 1
    lnk.write_text(text.replace(strands, comps))

    with pytest.raises(ValueError) as exc:
        load_diagram("mazur_link", asset_copy)
    assert str(exc.value) == message
    assert main(["mazur", "certify", "--assets", str(asset_copy)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    lines = {c.check_id: c for c in verify_all(asset_copy).checks}
    assert lines["MAZUR_LINKING"] == (
        "MAZUR_LINKING", FAIL, f"asset unavailable: {message}")


def test_a_link_without_relator_9_fails_mazur_r9(asset_copy, capsys):
    # a valid diagram with three crossings: the trefoil
    (asset_copy / "mazur_link.lnk").write_text(
        "arc: a b c\n"
        "x: over=c in=a out=b sign=+\n"
        "x: over=a in=b out=c sign=+\n"
        "x: over=b in=c out=a sign=+\n"
        "comp: a b c\n")
    assert main(["mazur", "certify", "--assets", str(asset_copy)]) == 1
    captured = capsys.readouterr()
    assert "PI1_BOUNDARY_NONTRIVIAL: FAIL\n" in captured.out
    assert captured.err == ""
    (r9,) = run_checks([c for c in CHECKS if c.id == "MAZUR_R9"],
                       RunContext(asset_copy)).checks
    assert r9.status == FAIL
    assert r9.detail == "3 relators, no relator 9"


def test_target_presentation():
    p = mazur.target_presentation()
    assert p.generators == ("beta", "gamma")
    inv = abelianization(p)
    assert inv.free_rank == 0 and inv.factors == ()


def test_triangle_certificate_passes():
    cert = mazur.triangle_certificate()
    assert cert.relator_report.ok
    assert cert.relator_report.max_residual < 1e-9
    assert cert.rotation_b_matches
    assert cert.representation_ok
    assert cert.meridian_ok
    # 4 beta powers + 6 gamma powers
    assert len(cert.order_displacements) == 10
    assert min(cert.order_displacements) > 0.5


@pytest.mark.parametrize("at", [0, 4, 9])
def test_a_nan_order_displacement_fails_wherever_it_falls(monkeypatch, at):
    cert = mazur.triangle_certificate()
    d = list(cert.order_displacements)
    d[at] = math.nan
    cert = cert._replace(order_displacements=tuple(d))
    assert math.isnan(cert.min_order_displacement)
    assert not cert.representation_ok
    monkeypatch.setattr(mazur, "triangle_certificate", lambda: cert)
    (result,) = run_checks([c for c in CHECKS
                            if c.id == "TRIANGLE_ELLIPTIC_ORDERS"],
                           RunContext()).checks
    assert result.status == FAIL
    assert result.detail == "proper powers displace probes by >= nan"


def test_generators_have_exact_orders():
    cert = mazur.triangle_certificate()
    asn = cert.assignment
    b5 = evaluate(asn, parse_word("beta beta beta beta beta"))
    g7 = evaluate(asn, parse_word(" ".join(["gamma"] * 7)))
    from splitcert.hyperbolic import is_identity
    assert is_identity(b5) and is_identity(g7)


def test_beta_gamma_is_half_turn_at_b():
    cert = mazur.triangle_certificate()
    _, b, _ = cert.vertices
    bg = evaluate(cert.assignment, parse_word("beta gamma"))
    assert same_isometry(bg, rotation(b, -math.pi))
    assert same_isometry(bg, rotation(b, math.pi))  # the same map


def test_meridian_displacement_frozen_value():
    """The engine value must match the closed form
    arccosh(cosh^2 l - sinh^2 l cos(4 pi/5)), cosh l = cot(pi/7) cot(pi/5),
    evaluated here at 50 digits."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    coshl = mp.cot(mp.pi / 7) * mp.cot(mp.pi / 5)
    coshd = coshl ** 2 - (coshl ** 2 - 1) * mp.cos(4 * mp.pi / 5)
    oracle = float(mp.acosh(coshd))

    cert = mazur.triangle_certificate()
    assert cert.meridian.word_displacement == pytest.approx(oracle, abs=1e-12)
    # and the frozen literal, so a regression cannot slide past the oracle
    assert cert.meridian.word_displacement == pytest.approx(
        3.3286485001451394, abs=1e-12)


def test_meridian_ladder_matches_a_50_digit_oracle():
    """(Beta Beta gamma)^k for k = 1..20 against 50-digit point arithmetic:
    gamma = r_AC r_AB and beta = r_BC r_AC, with r_AB(z) = conj(z),
    r_AC(z) = e^{2 pi i/7} conj(z) and r_BC the inversion in the circle
    through B and C orthogonal to the unit circle. The displacement of 0
    grows by about 1.85 per power, so its image is within 1e-16 of the
    unit circle from k = 15 on."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        cosh_ab = mp.cos(mp.pi / 5) / mp.sin(mp.pi / 7)
        cosh_ac = mp.cot(mp.pi / 7) * mp.cot(mp.pi / 5)
        b = mp.tanh(mp.acosh(cosh_ab) / 2)
        c = mp.tanh(mp.acosh(cosh_ac) / 2) * mp.expjpi(mp.mpf(1) / 7)
        x0 = (1 + b * b) / (2 * b)
        centre = mp.mpc(x0, ((1 + abs(c) ** 2) / 2 - x0 * c.real) / c.imag)
        radius2 = abs(centre) ** 2 - 1
        turn = mp.expjpi(mp.mpf(2) / 7)

        def beta_inverse(z):   # r_AC r_BC
            return turn * mp.conj(centre + radius2 / mp.conj(z - centre))

        oracle, z = [], mp.mpc(0)
        for _ in range(20):
            z = beta_inverse(beta_inverse(turn * z))  # gamma(z) = turn z
            oracle.append(float(2 * mp.atanh(abs(z))))

    asn = mazur.triangle_certificate().assignment
    for k, want in enumerate(oracle, start=1):
        report = certify_nontrivial(asn, mazur.MERIDIAN * k, 0j)
        assert report.ok
        assert report.word_displacement == pytest.approx(want, rel=1e-12)


def test_meridian_fixes_nothing_relevant():
    # h(gamma) fixes A, so the meridian's displacement of A is exactly the
    # displacement under beta^-2; both must stay far from zero
    cert = mazur.triangle_certificate()
    asn = cert.assignment
    a = cert.vertices[0]
    from splitcert.hyperbolic import hyp_distance
    img = evaluate(asn, mazur.MERIDIAN)(a)
    assert hyp_distance(a, img) > 1e-3
    assert hyp_distance(a, evaluate(asn, parse_word("gamma"))(a)) < 1e-12
