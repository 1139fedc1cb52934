"""Command-line front end: _parse reads argv against the COMMANDS table
(argparse would load gettext, locale and shutil into every run).

Exit codes: 0 = the requested check passed (or pure output commands
succeeded), 1 = a verification-style check failed, 2 = usage or I/O error.
Output is deterministic for fixed inputs; no timestamps.
"""
from __future__ import annotations

import importlib.util
import sys
import types

from . import __version__


def _lazy(name: str):
    """splitcert.NAME, registered as an import would register it (in
    sys.modules and on the package) but run only when first read from."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# importing splitcert.cli registers every module and runs none, so the
# benchmark's tracer (perfbench/tracing.py) finds what it wraps. Commands,
# report and assets call the library through these handles: a command runs
# only what it reads, and --help, --version and usage errors run none
(assets, collapse, complexes, groups, hyperbolic, mazur, report,
 splitting) = map(_lazy, ("assets", "collapse", "complexes", "groups",
                          "hyperbolic", "mazur", "report", "splitting"))


# ------------------------------------------------------------- subcommands

def cmd_complex(args) -> int:
    if args.action == "validate":
        try:
            K = complexes.load_scx(args.file)
        except ValueError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print(f"{K.name}: {len(K)} simplices, dim {K.dim()}, "
              f"chi {complexes.euler_characteristic(K)}, "
              f"{len(K.maximal_simplices())} maximal")
        return 0
    K = complexes.load_scx(args.file)
    if args.action == "chi":
        print(f"chi: {complexes.euler_characteristic(K)}")
        return 0
    if args.action == "free-faces":
        ff = collapse.free_faces(K)
        print(f"free faces: {len(ff)}")
        for f in ff:
            print(" ".join(f))
        return 0
    if args.action == "collapse":
        cert, residual = collapse.greedy_collapse(K)
        point = len(residual) == 1
        print(f"greedy steps: {len(cert.steps)}")
        print(f"residual: {len(residual)} simplices")
        print(f"collapsed to point: {'yes' if point else 'no'}")
        return 0 if point else 1
    # search; a budget of None is the default (a truth test would take 0)
    budget = (None if args.budget is None
              else collapse.SearchBudget(args.budget))
    verdict = collapse.is_collapsible(K, budget)
    if verdict.kind == "yes":
        print(f"verdict: yes ({verdict.nodes} nodes, "
              f"{len(verdict.certificate.steps)} steps)")
        sys.stdout.write(collapse.dumps_cert(verdict.certificate))
        return 0
    if verdict.kind == "no":
        print(f"verdict: no ({verdict.nodes} nodes)")
    else:
        print(f"verdict: unknown (budget exhausted at {verdict.nodes} nodes)")
    return 1


def cmd_cert_replay(args) -> int:
    K = complexes.load_scx(args.complex)
    cert = collapse.load_cert(args.cert)
    result = collapse.replay(K, cert)
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
# print from the context its checks read, then the overall verdict of the
# group's VerificationReport (`outcome`, as `report` is the module)

def cmd_jester(args) -> int:
    ctx = report.RunContext(args.assets)
    outcome = report.run_group("jester", ctx)
    if outcome.overall != report.PASS:
        print(f"jester split: {outcome.overall} "
              f"({outcome.result('JESTER_SPLIT_CERT').detail})")
        return 1
    cert = ctx.split
    a, b, c = cert.evidence
    print(f"{cert.parts[0]} u {cert.parts[1]} = {cert.spine}")
    print(f"collapse certificates: {cert.parts[0]} {len(a.steps)} steps, "
          f"{cert.parts[1]} {len(b.steps)} steps, "
          f"intersection {len(c.steps)} steps")
    print(f"conclusion: {cert.conclusion}")
    print(f"jester split: {outcome.overall}")
    return 0


def cmd_dunce(args) -> int:
    ctx = report.RunContext(args.assets)
    outcome = report.run_group("dunce", ctx)
    print(f"free faces: {len(collapse.free_faces(ctx.complex('dunce_hat')))}")
    print(f"collapsibility verdict: {ctx.search('dunce_hat').kind}")
    print(f"chi: {complexes.euler_characteristic(ctx.complex('dunce_hat'))}")
    print(f"dunce hat: {outcome.overall}")
    return 0 if outcome.overall == report.PASS else 1


def cmd_wirtinger(args) -> int:
    link = groups.load_lnk(args.file)
    sys.stdout.write(groups.dumps_fp(groups.wirtinger(link)))
    return 0


def cmd_group(args) -> int:
    if args.action == "reduce":
        word = groups.parse_word(args.word)
        print(groups.word_str(groups.free_reduce(word)))
        return 0
    if args.action == "subst":
        pairs = [_parse_gen_word(item) for item in args.map]
        mapping = dict(pairs)
        if len(mapping) != len(pairs):
            raise ValueError(f"a generator is mapped twice in {args.map!r}")
        word = groups.parse_word(args.word)
        print(groups.word_str(groups.substitute(word, mapping)))
        return 0
    if args.action == "abelianize":
        print(str(groups.abelianization(groups.load_fp(args.file))))
        return 0
    # tietze
    p = groups.load_fp(args.file)
    move = _parse_tietze_move(args)
    try:
        q = groups.apply_tietze(p, move)
    except groups.TietzeError as exc:
        print(f"tietze move rejected: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(groups.dumps_fp(q))
    return 0


def _parse_gen_word(text: str):
    gen, sep, word = text.partition("=")
    if not sep:
        raise ValueError(f"{text!r} is not GEN=WORD")
    return groups.check_gen(gen), groups.parse_word(word)


def _parse_certificate(text: str):
    terms = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"certificate term {chunk!r} is not INDEX:SIGN:CONJUGATOR")
        index = int(parts[0])
        sign = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}.get(parts[1])
        if sign is None:
            raise ValueError(f"bad certificate sign {parts[1]!r}")
        terms.append((index, sign, groups.parse_word(parts[2])))
    return tuple(terms)


def _parse_tietze_move(args) -> groups.TietzeMove:
    # each move reads at most one of --by and --using; the other is an error
    if (args.by is not None and args.add_rel is None
            and args.remove_rel is None):
        raise ValueError("--by goes only with --add-rel or --remove-rel")
    if args.using is not None and args.remove_gen is None:
        raise ValueError("--using goes only with --remove-gen")
    if args.add_gen is not None:
        name, word = _parse_gen_word(args.add_gen)
        return groups.TietzeMove("add-generator", gen=name, word=word)
    if args.add_rel is not None:
        if args.by is None:
            raise ValueError("--add-rel needs --by INDEX:SIGN:CONJ,...")
        return groups.TietzeMove("add-relator",
                                 word=groups.parse_word(args.add_rel),
                                 certificate=_parse_certificate(args.by))
    if args.remove_rel is not None:
        if args.by is None:
            raise ValueError("--remove-rel needs --by INDEX:SIGN:CONJ,...")
        return groups.TietzeMove("remove-relator", index=args.remove_rel,
                                 certificate=_parse_certificate(args.by))
    if args.remove_gen is not None:
        if args.using is None:
            raise ValueError("--remove-gen needs --using RELATOR_INDEX")
        return groups.TietzeMove("remove-generator", gen=args.remove_gen,
                                 index=args.using)
    raise ValueError("choose one of --add-gen/--add-rel/"
                     "--remove-rel/--remove-gen")


def cmd_mazur(args) -> int:
    ctx = report.RunContext(args.assets)
    outcome = report.run_group("mazur", ctx)
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
    print(f"PI1_BOUNDARY_NONTRIVIAL: {outcome.overall}")
    print("MERIDIAN_NONTRIVIAL: "
          f"{outcome.result('MERIDIAN_DISPLACEMENT').status}")
    return 0 if outcome.overall == report.PASS else 1


def _parse_multiset(text: str) -> splitting.FactorMultiset:
    text = text.strip()
    if text in ("-", "empty"):
        return splitting.FactorMultiset(())
    pairs = []
    for chunk in text.split(","):
        label, sep, num = (part.strip() for part in chunk.partition(":"))
        if not sep or not label:
            raise ValueError(f"multiset term {chunk!r} is not LABEL:COUNT")
        count = (splitting.OMEGA if num in ("w", "omega", "inf")
                 else int(num))
        pairs.append((label, count))
    return splitting.FactorMultiset(pairs)


def cmd_csi(args) -> int:
    m1 = _parse_multiset(args.first)
    m2 = _parse_multiset(args.second)
    verdict = splitting.distinguishable(m1, m2)
    print(f"distinguishable: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_verify_all(args) -> int:
    outcome = report.verify_all(assets_dir=args.assets)
    sys.stdout.write(outcome.render())
    return 0 if outcome.overall == report.PASS else 1


# ------------------------------------------------------------------ parser

# "COMMAND [ACTION]": (function, grammar), which --help prints. An upper-
# case word is a positional, read into the attribute of its lower-case
# name. "[-f/--flag METAVAR]" sets the attribute flag: to an int for the
# metavar N, to a list of each value if "..." follows, else to the value
# (None if not given). A bracket's options, "|" between, exclude each other.
COMMANDS = {
    **{f"complex {action}": (cmd_complex, "FILE")
       for action in ("validate", "chi", "free-faces", "collapse")},
    "complex search": (cmd_complex, "FILE [--budget N]"),
    "cert replay": (cmd_cert_replay, "COMPLEX CERT"),
    "jester verify-split": (cmd_jester, "[--assets DIR]"),
    "dunce check": (cmd_dunce, "[--assets DIR]"),
    "wirtinger": (cmd_wirtinger, "FILE"),
    "group reduce": (cmd_group, "WORD"),
    "group subst": (cmd_group, "WORD [-m/--map GEN=WORD]..."),
    "group abelianize": (cmd_group, "FILE"),
    "group tietze": (cmd_group, "FILE [--add-gen NAME=WORD | --add-rel WORD "
                                "| --remove-rel N | --remove-gen NAME] "
                                "[--by INDEX:SIGN:CONJ,...] [--using N]"),
    "mazur certify": (cmd_mazur, "[--assets DIR]"),
    "csi distinguish": (cmd_csi, "FIRST SECOND"),
    "verify-all": (cmd_verify_all, "[--assets DIR]"),
}


def _fail(message: str):
    print(f"error: {message}; see splitcert --help", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv):
    """The function that argv names in COMMANDS, and its arguments as a
    namespace. --help and --version exit 0; a usage error exits 2. An
    option's value is the next word, or follows "=" if it starts with "-"."""
    words = list(argv)
    exact = [k for k in COMMANDS if k.split() == words[:k.count(" ") + 1]]
    rows = (exact or [k for k in COMMANDS if k.split()[0] in words[:1]]
            or list(COMMANDS))   # the rows that words name, for --help
    if words[:1] == ["--version"] or "-h" in words or "--help" in words:
        print(__version__ if words[0] == "--version" else "usage: "
              + "\n       ".join(f"splitcert {k} {COMMANDS[k][1]}".rstrip()
                                  for k in rows)
              + "\n\nCertificate checker for collapsibility splittings,\n"
              "link-group derivations, and the sum invariant.\n"
              "--version prints the version; COMMAND --help, its usage.")
        raise SystemExit(0)
    if not exact:
        _fail(f"no such command: {' '.join(words[:2])!r}")
    [row] = exact
    fn, grammar = COMMANDS[row]
    head, *brackets = grammar.split("[")
    names, options, values = head.lower().split(), {}, {}
    for bracket, text in enumerate(brackets):   # flag: its attribute,
        text, _, after = text.partition("]")    # metavar and bracket
        for flags, metavar in map(str.split, text.split(" | ")):
            attribute = flags.split("/")[-1].lstrip("-").replace("-", "_")
            values[attribute] = [] if after[:3] == "..." else None
            options.update(dict.fromkeys(flags.split("/"),
                                         (attribute, metavar, bracket)))
    first, given = {}, []
    del words[:row.count(" ") + 1]
    while words:
        word = words.pop(0)
        flag, eq, value = word.partition("=")
        if flag not in options:   # "-" is a positional, as in argparse
            if len(given) == len(names) or word[:1] == "-" and word != "-":
                _fail(f"unrecognized arguments: {word}")
            given.append(word)
            continue
        if not eq:
            if not words or words[0][:1] == "-":
                _fail(f"argument {flag}: expected one argument")
            value = words.pop(0)
        attribute, metavar, bracket = options[flag]
        other = first.setdefault(bracket, flag)
        if options[other][0] != attribute:
            _fail(f"argument {flag}: not allowed with argument {other}")
        try:
            value = int(value) if metavar == "N" else value
        except ValueError:
            _fail(f"argument {flag}: invalid int value: {value!r}")
        if isinstance(values[attribute], list):
            value = values[attribute] + [value]
        values[attribute] = value
    if len(given) < len(names):
        _fail("the following arguments are required: "
              + ", ".join(names[len(given):]).upper())
    return fn, types.SimpleNamespace(action=row.partition(" ")[2],
                                     **dict(zip(names, given)), **values)


def main(argv=None) -> int:
    fn, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
