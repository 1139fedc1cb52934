"""Command-line front end.

Exit codes: 0 = the requested check passed (or pure output commands
succeeded), 1 = a verification-style check failed, 2 = usage or I/O error.
Output is deterministic for fixed inputs; no timestamps.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__

# importing splitcert.cli loads every module (some through report): the
# benchmark's tracer (perfbench/tracing.py) relies on it to wrap them all
from .collapse import (DEFAULT_BUDGET, SearchBudget, dumps_cert, free_faces,
                       greedy_collapse, is_collapsible, load_cert, replay)
from .complexes import euler_characteristic, load_scx
from .groups import (TietzeError, TietzeMove, abelianization, apply_tietze,
                     check_gen, dumps_fp, free_reduce, load_fp, load_lnk,
                     parse_word, substitute, wirtinger, word_str)
from .report import PASS, RunContext, run_group, verify_all
from .splitting import OMEGA, FactorMultiset, distinguishable


# ------------------------------------------------------------- subcommands

def cmd_complex(args) -> int:
    if args.action == "validate":
        try:
            K = load_scx(args.file)
        except ValueError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print(f"{K.name}: {len(K)} simplices, dim {K.dim()}, "
              f"chi {euler_characteristic(K)}, "
              f"{len(K.maximal_simplices())} maximal")
        return 0
    K = load_scx(args.file)
    if args.action == "chi":
        print(f"chi: {euler_characteristic(K)}")
        return 0
    if args.action == "free-faces":
        ff = free_faces(K)
        print(f"free faces: {len(ff)}")
        for f in ff:
            print(" ".join(f))
        return 0
    if args.action == "collapse":
        cert, residual = greedy_collapse(K)
        point = len(residual) == 1
        print(f"greedy steps: {len(cert.steps)}")
        print(f"residual: {len(residual)} simplices")
        print(f"collapsed to point: {'yes' if point else 'no'}")
        return 0 if point else 1
    # search
    verdict = is_collapsible(K, SearchBudget(max_nodes=args.budget))
    if verdict.kind == "yes":
        print(f"verdict: yes ({verdict.nodes} nodes, "
              f"{len(verdict.certificate.steps)} steps)")
        sys.stdout.write(dumps_cert(verdict.certificate))
        return 0
    if verdict.kind == "no":
        print(f"verdict: no ({verdict.nodes} nodes)")
    else:
        print(f"verdict: unknown (budget exhausted at {verdict.nodes} nodes)")
    return 1


def cmd_cert_replay(args) -> int:
    K = load_scx(args.complex)
    cert = load_cert(args.cert)
    result = replay(K, cert)
    if result.failure:
        print(f"replay failed at {result.failure}")
        return 1
    print(f"replayed {len(result.trace)}/{len(cert.steps)} steps")
    if result.point:
        print(f"collapsed to point: yes (vertex {result.point})")
        return 0
    print(f"collapsed to point: no ({len(result.final)} simplices left)")
    return 1


# jester, dunce and mazur are views over one group of report.CHECKS: they
# print from the context its checks read, then the group's overall verdict

def cmd_jester(args) -> int:
    ctx = RunContext(args.assets)
    report = run_group("jester", ctx)
    if report.overall != PASS:
        print(f"jester split: {report.overall} "
              f"({report.result('JESTER_SPLIT_CERT').detail})")
        return 1
    cert = ctx.split
    a, b, c = cert.evidence
    print(f"{cert.parts[0]} u {cert.parts[1]} = {cert.spine}")
    print(f"collapse certificates: {cert.parts[0]} {len(a.steps)} steps, "
          f"{cert.parts[1]} {len(b.steps)} steps, "
          f"intersection {len(c.steps)} steps")
    print(f"conclusion: {cert.conclusion}")
    print(f"jester split: {report.overall}")
    return 0


def cmd_dunce(args) -> int:
    ctx = RunContext(args.assets)
    report = run_group("dunce", ctx)
    print(f"free faces: {len(free_faces(ctx.complex('dunce_hat')))}")
    print(f"collapsibility verdict: {ctx.search('dunce_hat').kind}")
    print(f"chi: {euler_characteristic(ctx.complex('dunce_hat'))}")
    print(f"dunce hat: {report.overall}")
    return 0 if report.overall == PASS else 1


def cmd_wirtinger(args) -> int:
    sys.stdout.write(dumps_fp(wirtinger(load_lnk(args.file))))
    return 0


def cmd_group(args) -> int:
    if args.action == "reduce":
        print(word_str(free_reduce(parse_word(args.word))))
        return 0
    if args.action == "subst":
        pairs = [_parse_gen_word(item) for item in args.map]
        mapping = dict(pairs)
        if len(mapping) != len(pairs):
            raise ValueError(f"a generator is mapped twice in {args.map!r}")
        print(word_str(substitute(parse_word(args.word), mapping)))
        return 0
    if args.action == "abelianize":
        print(str(abelianization(load_fp(args.file))))
        return 0
    # tietze
    p = load_fp(args.file)
    move = _parse_tietze_move(args)
    try:
        q = apply_tietze(p, move)
    except TietzeError as exc:
        print(f"tietze move rejected: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(dumps_fp(q))
    return 0


def _parse_gen_word(text: str):
    gen, sep, word = text.partition("=")
    if not sep:
        raise ValueError(f"{text!r} is not GEN=WORD")
    return check_gen(gen), parse_word(word)


def _parse_certificate(text: str):
    terms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"certificate term {chunk!r} is not INDEX:SIGN:CONJUGATOR")
        index = int(parts[0])
        sign = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}.get(parts[1])
        if sign is None:
            raise ValueError(f"bad certificate sign {parts[1]!r}")
        terms.append((index, sign, parse_word(parts[2])))
    return tuple(terms)


def _parse_tietze_move(args) -> TietzeMove:
    # each move reads at most one of --by and --using; the other is an error
    if (args.by is not None and args.add_rel is None
            and args.remove_rel is None):
        raise ValueError("--by goes only with --add-rel or --remove-rel")
    if args.using is not None and args.remove_gen is None:
        raise ValueError("--using goes only with --remove-gen")
    if args.add_gen is not None:
        name, word = _parse_gen_word(args.add_gen)
        return TietzeMove("add-generator", gen=name, word=word)
    if args.add_rel is not None:
        if args.by is None:
            raise ValueError("--add-rel needs --by INDEX:SIGN:CONJ,...")
        return TietzeMove("add-relator", word=parse_word(args.add_rel),
                          certificate=_parse_certificate(args.by))
    if args.remove_rel is not None:
        if args.by is None:
            raise ValueError("--remove-rel needs --by INDEX:SIGN:CONJ,...")
        return TietzeMove("remove-relator", index=args.remove_rel,
                          certificate=_parse_certificate(args.by))
    if args.remove_gen is not None:
        if args.using is None:
            raise ValueError("--remove-gen needs --using RELATOR_INDEX")
        return TietzeMove("remove-generator", gen=args.remove_gen,
                          index=args.using)
    raise ValueError("choose one of --add-gen/--add-rel/"
                     "--remove-rel/--remove-gen")


def cmd_mazur(args) -> int:
    ctx = RunContext(args.assets)
    report = run_group("mazur", ctx)
    chain, cert = ctx.chain, ctx.triangle
    print("triangle angles: pi/7 (A), pi/2 (B), pi/5 (C)")
    for label, z in zip("ABC", cert.vertices):
        print(f"vertex {label}: {z.real:.12f}{z.imag:+.12f}j")
    print(f"relator residual max: {cert.relator_report.max_residual:.3e}")
    print(f"elliptic proper powers: min displacement "
          f"{cert.min_order_displacement:.3e}")
    print("beta gamma matches half-turn at B: "
          f"{'yes' if cert.rotation_b_matches else 'no'}")
    for line in chain.lines():
        print(f"derivation: {line}")
    print(f"meridian displacement: {cert.meridian.word_displacement:.9f}")
    print(f"PI1_BOUNDARY_NONTRIVIAL: {report.overall}")
    print("MERIDIAN_NONTRIVIAL: "
          f"{report.result('MERIDIAN_DISPLACEMENT').status}")
    return 0 if report.overall == PASS else 1


def _parse_multiset(text: str) -> FactorMultiset:
    text = text.strip()
    if text in ("-", "empty"):
        return FactorMultiset(())
    pairs = []
    for chunk in text.split(","):
        label, sep, num = (part.strip() for part in chunk.partition(":"))
        if not sep or not label:
            raise ValueError(f"multiset term {chunk!r} is not LABEL:COUNT")
        pairs.append(
            (label, OMEGA if num in ("w", "omega", "inf") else int(num)))
    return FactorMultiset(pairs)


def cmd_csi(args) -> int:
    m1 = _parse_multiset(args.first)
    m2 = _parse_multiset(args.second)
    verdict = distinguishable(m1, m2)
    print(f"distinguishable: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_verify_all(args) -> int:
    report = verify_all(assets_dir=args.assets)
    sys.stdout.write(report.render())
    return 0 if report.overall == PASS else 1


# ------------------------------------------------------------------ parser

def _add_assets(p):
    p.add_argument("--assets", default=None, metavar="DIR",
                   help="override the bundled asset directory")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="splitcert",
        description="Certificate checker for collapsibility splittings, "
                    "link-group derivations, and the sum invariant.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complex", help="simplicial complex utilities")
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("validate", "chi", "free-faces", "collapse", "search"):
        a = actions.add_parser(action)
        a.add_argument("file")
        if action == "search":   # the other actions reject --budget
            a.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="node budget of the dim >= 3 search "
                                "(default 10^6)")
        a.set_defaults(fn=cmd_complex)

    p = sub.add_parser("cert", help="collapse certificate replay")
    p.add_argument("action", choices=("replay",))
    p.add_argument("complex")
    p.add_argument("cert")
    p.set_defaults(fn=cmd_cert_replay)

    p = sub.add_parser("jester", help="verify the bundled spine splitting")
    p.add_argument("action", choices=("verify-split",))
    _add_assets(p)
    p.set_defaults(fn=cmd_jester)

    p = sub.add_parser("dunce", help="check the bundled dunce hat")
    p.add_argument("action", choices=("check",))
    _add_assets(p)
    p.set_defaults(fn=cmd_dunce)

    p = sub.add_parser("wirtinger",
                       help="presentation of a link diagram's group")
    p.add_argument("file")
    p.set_defaults(fn=cmd_wirtinger)

    p = sub.add_parser("group", help="word and presentation operations")
    actions = p.add_subparsers(dest="action", required=True)
    for action, operand in (("reduce", "WORD"), ("subst", "WORD"),
                            ("abelianize", "FILE"), ("tietze", "FILE")):
        a = actions.add_parser(action)
        a.add_argument(operand.lower(), metavar=operand)
        a.set_defaults(fn=cmd_group)
        if action == "subst":   # only subst takes -m
            a.add_argument("-m", "--map", action="append", default=[],
                           metavar="GEN=WORD",
                           help="substitution image (repeatable)")
        if action == "tietze":  # only tietze takes a move, --by and --using
            move = a.add_mutually_exclusive_group()
            move.add_argument("--add-gen", metavar="NAME=WORD")
            move.add_argument("--add-rel", metavar="WORD")
            move.add_argument("--remove-rel", type=int, metavar="INDEX")
            move.add_argument("--remove-gen", metavar="NAME")
            a.add_argument("--by", metavar="INDEX:SIGN:CONJ,...",
                           help="consequence certificate for "
                                "add-rel/remove-rel")
            a.add_argument("--using", type=int, metavar="INDEX",
                           help="defining relator index for remove-gen")

    p = sub.add_parser("mazur", help="boundary-group triangle certificate")
    p.add_argument("action", choices=("certify",))
    _add_assets(p)
    p.set_defaults(fn=cmd_mazur)

    p = sub.add_parser("csi", help="factor-multiset comparison")
    p.add_argument("action", choices=("distinguish",))
    p.add_argument("first", metavar="MULTISET",
                   help="e.g. 'J1:2,J5:w' ('-' for empty)")
    p.add_argument("second", metavar="MULTISET")
    p.set_defaults(fn=cmd_csi)

    p = sub.add_parser("verify-all", help="run every bundled check")
    _add_assets(p)
    p.set_defaults(fn=cmd_verify_all)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
