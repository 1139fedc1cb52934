import re
import subprocess
import sys
from pathlib import Path

import pytest

import splitcert
from splitcert.cli import main
from splitcert.groups import loads_lnk

ASSET_SRC = "src/splitcert/assets"
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "tri.scx"
    p.write_text("a b c\n")
    return str(p)


# ----------------------------------------------------------------- complex

def test_complex_chi_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.scx"
    f.write_text("")
    code, out, _ = run(capsys, "complex", "chi", str(f))
    assert code == 0
    assert out == "chi: 0\n"


def test_complex_validate(triangle_file, capsys):
    code, out, _ = run(capsys, "complex", "validate", triangle_file)
    assert code == 0
    assert "7 simplices" in out and "chi 1" in out


def test_complex_validate_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.scx"
    f.write_text("a a\n")
    code, _, err = run(capsys, "complex", "validate", str(f))
    assert code == 1
    assert "invalid" in err


def test_complex_free_faces(triangle_file, capsys):
    code, out, _ = run(capsys, "complex", "free-faces", triangle_file)
    assert code == 0
    assert out.splitlines()[0] == "free faces: 3"


def test_complex_collapse_and_search(triangle_file, capsys):
    code, out, _ = run(capsys, "complex", "collapse", triangle_file)
    assert code == 0
    assert "collapsed to point: yes" in out

    code, out, _ = run(capsys, "complex", "search", triangle_file)
    assert code == 0
    assert out.startswith("verdict: yes")


def test_complex_search_dunce_says_no(capsys):
    code, out, _ = run(capsys, "complex", "search",
                       f"{ASSET_SRC}/dunce_hat.scx")
    assert code == 1
    assert out.startswith("verdict: no")


def test_complex_search_budget_unknown(tmp_path, capsys):
    tetrahedron = tmp_path / "tet.scx"
    tetrahedron.write_text("a b c d\n")
    code, out, _ = run(capsys, "complex", "search", str(tetrahedron),
                       "--budget", "1")
    assert code == 1
    assert "unknown" in out


@pytest.mark.parametrize("name,want", [
    ("dunce_hat", 1), ("jester_hat", 1),
    ("jester_A", 0), ("jester_B", 0), ("jester_C", 0),
])
def test_complex_search_on_bundled_complexes_matches_golden(name, want,
                                                            capsys):
    code, out, _ = run(capsys, "complex", "search", f"{ASSET_SRC}/{name}.scx")
    assert code == want
    assert out == (GOLDEN / f"complex_search_{name}.txt").read_text()


@pytest.mark.parametrize("name,want", [
    ("tetrahedron_and_point", 1), ("two_tetrahedra", 0),
    ("dunce_and_tetrahedron", 1),
])
def test_complex_search_from_dimension_three_matches_golden(name, want,
                                                            capsys):
    code, out, _ = run(capsys, "complex", "search", str(DATA / f"{name}.scx"))
    assert code == want
    assert out == (GOLDEN / f"complex_search_{name}.txt").read_text()


@pytest.mark.parametrize("argv", [
    ["verify-all"], ["dunce", "check"], ["jester", "verify-split"],
])
def test_budget_is_not_an_option_of_the_bundled_commands(argv, capsys):
    # every complex these commands read has dim <= 2, which greedy decides
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["validate", "chi", "free-faces",
                                    "collapse"])
def test_budget_is_an_option_of_complex_search_only(action, triangle_file,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complex", action, triangle_file, "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify-all"], ["mazur", "certify"]])
def test_tol_is_not_an_option(argv, capsys):
    # every numerical check compares against a fixed bound: DEFAULT_TOL,
    # or 1e-3 for MERIDIAN_DISPLACEMENT
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "complex", "chi", "/no/such/file.scx")
    assert code == 2
    assert err.startswith("error:")


# -------------------------------------------------------------------- cert

def test_cert_replay_pass(capsys):
    code, out, _ = run(capsys, "cert", "replay",
                       f"{ASSET_SRC}/jester_C.scx",
                       f"{ASSET_SRC}/jester_C.cert")
    assert code == 0
    assert "collapsed to point: yes (vertex v)" in out


def test_cert_replay_fails_on_wrong_complex(capsys, tmp_path):
    f = tmp_path / "tri.scx"
    f.write_text("a b c\n")
    code, out, _ = run(capsys, "cert", "replay", str(f),
                       f"{ASSET_SRC}/jester_C.cert")
    assert code == 1
    assert "replay failed at step 0" in out


def test_cert_replay_partial(capsys, tmp_path):
    f = tmp_path / "tri.scx"
    f.write_text("a b c\n")
    cert = tmp_path / "half.cert"
    cert.write_text("a b\n")  # one collapse, leaves an arc
    code, out, _ = run(capsys, "cert", "replay", str(f), str(cert))
    assert code == 1
    assert "collapsed to point: no" in out


@pytest.mark.parametrize("name,scx,cert,want", [
    ("jester_A", f"{ASSET_SRC}/jester_A.scx", f"{ASSET_SRC}/jester_A.cert", 0),
    ("absent_simplex", DATA / "triangle.scx", DATA / "triangle_absent.cert", 1),
    ("not_free", DATA / "triangle.scx", DATA / "triangle_not_free.cert", 1),
    ("short", f"{ASSET_SRC}/jester_A.scx", DATA / "jester_A_short.cert", 1),
])
def test_cert_replay_matches_golden(name, scx, cert, want, capsys):
    code, out, err = run(capsys, "cert", "replay", str(scx), str(cert))
    assert (code, err) == (want, "")
    assert out == (GOLDEN / f"cert_replay_{name}.txt").read_text()


# ----------------------------------------------------------- named checks

def test_dunce_check(capsys):
    code, out, _ = run(capsys, "dunce", "check")
    assert code == 0
    assert "dunce hat: PASS" in out


def test_jester_verify_split(capsys):
    code, out, _ = run(capsys, "jester", "verify-split")
    assert code == 0
    assert "conclusion: splits-into-closed-balls" in out


def test_jester_verify_split_detects_tampering(capsys, asset_copy):
    spine = asset_copy / "jester_hat.scx"
    lines = [l for l in spine.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    spine.write_text("\n".join(lines[:-1]) + "\n")  # drop one triangle
    code, out, _ = run(capsys, "jester", "verify-split",
                       "--assets", str(asset_copy))
    assert code == 1
    assert "jester split: FAIL" in out


def _tamper_cert(path, edit):
    """Rewrite a .cert file's steps (comments dropped) through edit."""
    steps = [l for l in path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    path.write_text("\n".join(edit(steps)) + "\n")


@pytest.mark.parametrize("edit,reason", [
    (lambda s: s[:1] + s[2:], "step 4 (d g): not free (2 cofaces)"),
    (lambda s: s[:5] + [s[6], s[5]] + s[7:],
     "step 5 (c g): not free (2 cofaces)"),
], ids=["dropped", "swapped"])
def test_jester_verify_split_replays_the_bundled_certificates(
        edit, reason, capsys, asset_copy):
    _tamper_cert(asset_copy / "jester_A.cert", edit)
    detail = f"jester_A: replay failed at {reason}"
    code, out, _ = run(capsys, "jester", "verify-split",
                       "--assets", str(asset_copy))
    assert code == 1
    assert out == f"jester split: FAIL ({detail})\n"
    code, out, _ = run(capsys, "verify-all", "--assets", str(asset_copy))
    assert code == 1
    assert f"\nJESTER_SPLIT_CERT         FAIL  {detail}\n" in out
    assert "not collapsible" not in out


def test_jester_verify_split_names_what_a_short_certificate_leaves(
        capsys, asset_copy):
    # without its last step the certificate replays but stops at an edge
    _tamper_cert(asset_copy / "jester_B.cert", lambda s: s[:-1])
    code, out, _ = run(capsys, "jester", "verify-split",
                       "--assets", str(asset_copy))
    assert code == 1
    assert out == ("jester split: FAIL (jester_B: certificate leaves "
                   "3 simplices)\n")
    assert "not collapsible" not in out


def test_mazur_certify(capsys):
    code, out, _ = run(capsys, "mazur", "certify")
    assert code == 0
    assert "PI1_BOUNDARY_NONTRIVIAL: PASS" in out
    assert "MERIDIAN_NONTRIVIAL: PASS" in out
    assert "meridian displacement: 3.328648500" in out


# ------------------------------------------------------------------- group

def test_wirtinger_output(capsys):
    code, out, _ = run(capsys, "wirtinger", f"{ASSET_SRC}/mazur_link.lnk")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("gens: ")
    assert len([l for l in lines if l.startswith("rel: ")]) == 9


@pytest.mark.parametrize("text,message", [
    ("arc: a a\ncomp: a a\n", "duplicate arc names"),
    ("arc: a\nx: over=z in=a out=a sign=+\ncomp: a\n",
     "crossing references unknown arc 'z'"),
    ("arc: a b\ncomp: a b\n",
     "component ('a', 'b') has several arcs but no crossings"),
    ("arc: a\nloop: a\ncomp: a\n",
     "line 2: expected arc:/x:/comp:, got 'loop: a'"),
    ("arc: a\narc: 1b\ncomp: a 1b\n", "line 2: bad generator token '1b'"),
])
def test_wirtinger_rejects_a_bad_diagram(text, message, capsys, tmp_path):
    with pytest.raises(ValueError) as exc:
        loads_lnk(text)
    assert str(exc.value) == message
    f = tmp_path / "bad.lnk"
    f.write_text(text)
    code, out, err = run(capsys, "wirtinger", str(f))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_group_reduce(capsys):
    code, out, _ = run(capsys, "group", "reduce", "a A b B b")
    assert code == 0
    assert out == "b\n"


def test_group_subst(capsys):
    code, out, _ = run(capsys, "group", "subst", "a B",
                       "-m", "a=x y", "-m", "b=y")
    assert code == 0
    assert out == "x\n"


@pytest.mark.parametrize("argv", [("subst", "a", "-m", "a"),
                                  ("subst", "a B", "-m", "a=x", "-m", "b")])
def test_group_subst_needs_gen_equals_word(capsys, argv):
    code, out, err = run(capsys, "group", *argv)
    assert code == 2 and out == ""
    assert "is not GEN=WORD" in err


def test_group_subst_rejects_a_repeated_gen(capsys):
    # a generator given two images is an error, not a silent keep-the-last
    code, out, err = run(capsys, "group", "subst", "a", "-m", "a=b",
                         "-m", "a=c")
    assert (code, out) == (2, "")
    assert err == "error: a generator is mapped twice in ['a=b', 'a=c']\n"


@pytest.mark.parametrize("gen", ["A", "", "1a", "a b"])
def test_group_subst_rejects_a_bad_gen(capsys, gen):
    # GEN is a generator token, as a Presentation's generators are
    code, out, err = run(capsys, "group", "subst", "a", "-m", f"{gen}=b")
    assert (code, out) == (2, "")
    assert err == f"error: bad generator token {gen!r}\n"


def test_group_abelianize(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a b\nrel: a b A B\n")
    code, out, _ = run(capsys, "group", "abelianize", str(f))
    assert code == 0
    assert out == "Z + Z\n"


def test_group_abelianize_bad_token_names_its_line(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a\nrel: a 1b\n")
    code, out, err = run(capsys, "group", "abelianize", str(f))
    assert (code, out) == (2, "")
    assert err == "error: line 3: bad generator token '1b'\n"


def test_group_abelianize_needs_no_coefficient_blow_up(capsys, tmp_path):
    # one relator per row of a 7x7 relation matrix with entries up to 12
    matrix = [[2, -1, -5, -2, 2, 1, 0], [0, 0, -1, 0, 6, -1, 12],
              [12, 12, -5, 1, -1, -2, 0], [-1, 4, 12, 12, -5, 2, -1],
              [4, -5, -5, 0, 12, 0, 0], [4, 12, -1, 0, -2, 1, -2],
              [12, -2, 0, 2, 0, 4, 0]]
    gens = [f"x{j}" for j in range(7)]
    rels = [" ".join(g if v > 0 else g.upper()
                     for g, v in zip(gens, row) for _ in range(abs(v)))
            for row in matrix]
    f = tmp_path / "p.fp"
    f.write_text("gens: " + " ".join(gens) + "\n"
                 + "".join(f"rel: {r}\n" for r in rels))
    code, out, _ = run(capsys, "group", "abelianize", str(f))
    assert code == 0
    assert out == "Z/2 + Z/1956942\n"


def test_group_tietze_add_gen(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a a\n")
    code, out, _ = run(capsys, "group", "tietze", str(f),
                       "--add-gen", "b=a a")
    assert code == 0
    assert "gens: a b" in out
    assert "rel: b A A" in out


def test_group_tietze_prints_relators_read_unreduced_reduced(capsys,
                                                             tmp_path):
    # a relator is stored freely reduced as it is read, so one that a move
    # only carries over is printed reduced too
    f = tmp_path / "p.fp"
    f.write_text("gens: a b\nrel: a b B\nrel: b b\n")
    code, out, _ = run(capsys, "group", "tietze", str(f), "--add-gen", "c=a")
    assert code == 0
    assert out == "gens: a b c\nrel: a\nrel: b b\nrel: c A\n"
    # an undeclared letter is refused even where it cancels
    f.write_text("gens: a\nrel: a c C\n")
    code, _, err = run(capsys, "group", "tietze", str(f), "--add-gen", "c=a")
    assert code == 2
    assert "undeclared generator 'c'" in err


def test_group_tietze_add_and_remove_rel(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a b\nrel: a a a\nrel: b b\n")
    code, out, _ = run(capsys, "group", "tietze", str(f),
                       "--add-rel", "B a a a b b b", "--by", "0:+:b,1:+:")
    assert code == 0
    assert out.count("rel: ") == 3

    code, out, _ = run(capsys, "group", "tietze", str(f),
                       "--remove-rel", "0", "--by", "1:+:")
    assert code == 1  # a^3 is not a consequence of b^2


def test_group_tietze_remove_gen(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a b\nrel: b A A\nrel: b b b\n")
    code, out, _ = run(capsys, "group", "tietze", str(f),
                       "--remove-gen", "b", "--using", "0")
    assert code == 0
    assert "gens: a" in out
    assert "rel: a a a a a a" in out


def test_group_tietze_bad_certificate_exit_1(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a\n")
    code, _, err = run(capsys, "group", "tietze", str(f),
                       "--add-rel", "a", "--by", "0:+:")
    assert code == 1
    assert "rejected" in err


def test_group_tietze_needs_a_move(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\n")
    code, _, err = run(capsys, "group", "tietze", str(f))
    assert code == 2
    assert "choose one" in err


def test_group_tietze_add_gen_needs_gen_equals_word(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a\n")
    code, out, err = run(capsys, "group", "tietze", str(f), "--add-gen", "z")
    assert code == 2 and out == ""
    assert "error: 'z' is not GEN=WORD" in err


@pytest.mark.parametrize("moves,message", [
    # the certificate checks (a^3 conjugated by z), the new relator's
    # letters do not
    (("--add-rel", "Z a a a z", "--by", "0:+:z"),
     "relator uses undeclared generator 'z'"),
    (("--add-gen", "Bad=a"), "bad generator token 'Bad'"),
    (("--add-rel", "a a a a", "--by", "0:+"),
     "certificate term '0:+' is not INDEX:SIGN:CONJUGATOR"),
    (("--add-rel", "a a a a", "--by", "0:+:a:a"),
     "certificate term '0:+:a:a' is not INDEX:SIGN:CONJUGATOR"),
    (("--add-rel", "a a a a", "--by", "0:x:a"), "bad certificate sign 'x'"),
    # a trailing newline is no part of a name: the .fp printed would not load
    (("--add-gen", "g\n=a"), "bad generator token 'g\\n'"),
])
def test_group_tietze_validates_what_a_move_adds(moves, message, capsys,
                                                 tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a a\n")
    code, out, err = run(capsys, "group", "tietze", str(f), *moves)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("moves", [
    ("--add-gen", "z=a", "--add-rel", "a", "--by", "0:+:"),
    ("--remove-rel", "0", "--remove-gen", "a", "--by", "", "--using", "0"),
])
def test_group_tietze_takes_one_move(capsys, tmp_path, moves):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a\n")
    with pytest.raises(SystemExit) as exc:
        main(["group", "tietze", str(f), *moves])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("argv", [
    ("reduce", "a A b", "--add-gen", "z=a", "-m", "q=r"),
    ("reduce", "a A b", "-m", "q=r"),
    ("subst", "a", "-m", "a=b", "--by", "0:+:"),
    ("abelianize", "p.fp", "--using", "0"),
    ("tietze", "p.fp", "--add-gen", "z=a", "-m", "a=b"),
])
def test_group_rejects_the_options_of_other_actions(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("moves,message", [
    (("--add-gen", "z=a", "--by", "0:+:", "--using", "7"), "--by goes only"),
    (("--add-gen", "z=a", "--using", "0"), "--using goes only"),
    (("--add-rel", "a a a a", "--by", "0:+:a", "--using", "0"),
     "--using goes only"),
    (("--remove-gen", "a", "--using", "0", "--by", "0:+:"), "--by goes only"),
])
def test_group_tietze_rejects_the_option_its_move_ignores(moves, message,
                                                          capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a\n")
    code, out, err = run(capsys, "group", "tietze", str(f), *moves)
    assert code == 2 and out == ""
    assert message in err


def test_group_tietze_skips_an_empty_certificate_term(capsys, tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a b\nrel: a a a\nrel: b b\n")
    want = run(capsys, "group", "tietze", str(f),
               "--add-rel", "B a a a b b b", "--by", "0:+:b,1:+:")
    assert want[0] == 0
    assert run(capsys, "group", "tietze", str(f), "--add-rel",
               "B a a a b b b", "--by", ",0:+:b, ,1:+:,") == want


@pytest.mark.parametrize("moves,message", [
    (("--add-rel", "a a a"), "--add-rel needs --by INDEX:SIGN:CONJ,..."),
    (("--remove-rel", "0"), "--remove-rel needs --by INDEX:SIGN:CONJ,..."),
    (("--remove-gen", "a"), "--remove-gen needs --using RELATOR_INDEX"),
])
def test_group_tietze_move_without_its_option(moves, message, capsys,
                                              tmp_path):
    f = tmp_path / "p.fp"
    f.write_text("gens: a\nrel: a a a\n")
    code, out, err = run(capsys, "group", "tietze", str(f), *moves)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# --------------------------------------------------------------------- csi

def test_csi_distinguish(capsys):
    code, out, _ = run(capsys, "csi", "distinguish", "J1:2,J5:w", "J1:2")
    assert code == 0
    assert out == "distinguishable: yes\n"

    code, out, _ = run(capsys, "csi", "distinguish", "J1:w", "J1:w")
    assert code == 1
    assert out == "distinguishable: no\n"

    code, out, _ = run(capsys, "csi", "distinguish", "-", "-")
    assert code == 1


def test_csi_rejects_a_repeated_label(capsys):
    # a label given twice is an error, not a silent merge into one count
    code, out, err = run(capsys, "csi", "distinguish", "J1:2,J1:3", "J1:3")
    assert (code, out) == (2, "")
    assert err.startswith("error: a label occurs twice")


def test_csi_strips_the_blanks_around_a_label(capsys):
    # "J1 " and "J1" are one label, so these two sums are the same
    code, out, _ = run(capsys, "csi", "distinguish", "J1 :3", "J1:3")
    assert (code, out) == (1, "distinguishable: no\n")

    code, out, _ = run(capsys, "csi", "distinguish", " J1 : w ", "J1:w")
    assert (code, out) == (1, "distinguishable: no\n")


def test_csi_rejects_an_empty_label(capsys):
    code, out, err = run(capsys, "csi", "distinguish", ":3", "-")
    assert (code, out) == (2, "")
    assert "LABEL:COUNT" in err


def test_csi_bad_literal(capsys):
    code, _, err = run(capsys, "csi", "distinguish", "J1", "J2:1")
    assert code == 2
    assert "LABEL:COUNT" in err


# -------------------------------------------------------------- verify-all

def test_verify_all_passes_and_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, "verify-all")
    code2, out2, _ = run(capsys, "verify-all")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("overall PASS")


def test_verify_all_corrupt_complex_fails_named_checks(capsys, asset_copy):
    spine = asset_copy / "jester_hat.scx"
    lines = [l for l in spine.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    spine.write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = run(capsys, "verify-all", "--assets", str(asset_copy))
    assert code == 1
    report = {line.split()[0]: line.split()[1]
              for line in out.splitlines() if line and " " in line}
    assert report["JESTER_DECOMPOSITION"] == "FAIL"
    assert report["DUNCE_FREE_FACES"] == "PASS"
    assert report["DUNCE_EULER"] == "PASS"
    assert report["overall"] == "FAIL"


def test_verify_all_missing_diagram_fails_only_its_checks(capsys, asset_copy):
    (asset_copy / "mazur_link.lnk").unlink()
    code, out, _ = run(capsys, "verify-all", "--assets", str(asset_copy))
    assert code == 1
    report = {line.split()[0]: line.split()[1]
              for line in out.splitlines() if line and " " in line}
    mazur = [line.split(None, 2) for line in out.splitlines()
             if line.startswith("MAZUR_")]
    assert len(mazur) == 6
    for check_id, status, detail in mazur:
        if check_id == "MAZUR_DERIVATION_CHAIN":
            continue
        assert status == "FAIL"
        assert detail.startswith("asset unavailable: "), check_id
    # the derivation chain reads no asset: its line is the golden one
    chain = [line for line in out.splitlines()
             if line.startswith("MAZUR_DERIVATION_CHAIN ")]
    assert chain == [line for line in
                     (GOLDEN / "verify-all.txt").read_text().splitlines()
                     if line.startswith("MAZUR_DERIVATION_CHAIN ")]
    assert report["MAZUR_DERIVATION_CHAIN"] == "PASS"
    assert report["DUNCE_FREE_FACES"] == "PASS"
    assert report["JESTER_SPLIT_CERT"] == "PASS"
    # the pure-geometry checks do not touch assets at all
    assert report["TRIANGLE_RELATORS"] == "PASS"
    assert report["overall"] == "FAIL"


# ------------------------------------------------------------------- misc

def test_unknown_subcommand_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_version():
    # one version number: the package's, which pyproject.toml declares
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    [declared] = re.findall(r'(?m)^version = "(.+)"$', pyproject.read_text())
    out = subprocess.run([sys.executable, "-m", "splitcert.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == f"{splitcert.__version__}\n" == f"{declared}\n"


def test_import_does_not_load_dataclasses():
    # the records are collections.namedtuple classes and annotations are
    # never evaluated (PEP 563), so start-up imports neither dataclasses
    # (and its inspect, ast and dis) nor typing; the bundled assets are
    # plain files next to the package, read without importlib.resources,
    # and every check enumerates its range, so nothing imports random; -S
    # keeps site hooks out of the count
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import splitcert.cli; "
            "print('dataclasses' in sys.modules, "
            "'importlib.resources' in sys.modules, 'random' in sys.modules, "
            "'typing' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False False False\n"
