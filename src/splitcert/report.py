"""The check registry and the one-shot verification report.

CHECKS lists every check the test suite certifies, once. verify_all runs
them all against the bundled assets (or an override directory) and renders
a byte-stable report: one line per check id, then its overall verdict. The
named commands (`dunce check`, `jester verify-split`, `mazur certify`) run
only their group's checks, into the same report, and print its overall.
The Tietze, cone and multiset checks enumerate their whole range, so two
runs emit identical bytes.

Every producer is called through its module handle (`collapse.replay`)
and none is read at import, so under the CLI's lazy registration a named
command runs only the modules its group's checks read.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import combinations, permutations, product

from . import (assets, collapse, complexes, groups, hyperbolic, mazur,
               splitting)

PASS, FAIL, SKIP, INCOMPLETE = "PASS", "FAIL", "SKIP", "INCOMPLETE"


CheckResult = namedtuple("CheckResult", "check_id status detail")


class VerificationReport(namedtuple("VerificationReport", "checks")):
    __slots__ = ()

    @property
    def overall(self) -> str:
        """FAIL if any check failed, else INCOMPLETE if any was skipped (a
        skipped claim was not verified), else PASS."""
        statuses = {c.status for c in self.checks}
        return (FAIL if FAIL in statuses
                else INCOMPLETE if SKIP in statuses else PASS)

    def result(self, check_id) -> CheckResult:
        return next(c for c in self.checks if c.check_id == check_id)

    def render(self) -> str:
        width = max(len(c.check_id) for c in self.checks)
        lines = [f"{c.check_id:<{width}}  {c.status:<4}  {c.detail}"
                 for c in self.checks]
        lines.append(f"overall {self.overall}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------ Tietze moves

@functools.cache
def tietze_walk_start() -> groups.Presentation:
    """< a, b | a b A B, a a a >, where each Tietze walk starts; built on
    first use, once per process."""
    return groups.Presentation(("a", "b"), (groups.parse_word("a b A B"),
                                            groups.parse_word("a a a")))


def tietze_round_trips():
    """(label, moves) for each round trip of certified moves from
    tietze_walk_start() back to it: each relator, to either sign, conjugated
    by each reduced word of length <= 1, added and removed; and for each
    reduced word w of length <= 2, g = w added and removed around relator
    1 conjugated by g, which removing g turns into relator 1 by w."""
    start, move = tietze_walk_start(), groups.TietzeMove
    letters = [(g, e) for g in start.generators for e in (1, -1)]
    short = [(), *((x,) for x in letters)]
    words = short + [(x, y) for x, y in product(letters, repeat=2)
                     if x != (y[0], -y[1])]

    def conjugate(index, sign, conj):   # add it, then remove it
        cert = ((index, sign, conj),)
        word = groups.certificate_product(start.relators, cert)
        return (move("add-relator", word=word, certificate=cert),
                move("remove-relator", index=2, certificate=cert))

    for index, sign, conj in product((0, 1), (1, -1), short):
        yield (f"relator {index}^{sign:+d} by {groups.word_str(conj)}",
               conjugate(index, sign, conj))
    for w in words:
        yield (f"g = {groups.word_str(w)}",
               (move("add-generator", gen="g", word=w),
                conjugate(1, 1, (("g", 1),))[0],
                move("remove-generator", gen="g", index=2),
                conjugate(1, 1, w)[1]))


# ------------------------------------------------------------- the context

class AssetError(Exception):
    """An asset failed to load; the message is the check's detail."""


class RunContext:
    """One run's inputs, and every object that more than one check (or a
    check and a CLI view) reads. Each object is computed at most once; an
    exception is remembered and raised again to every later reader."""

    def __init__(self, assets_dir=None):
        self.assets_dir = assets_dir
        self._memo: dict = {}

    def _once(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = (True, compute())
            except Exception as exc:
                self._memo[key] = (False, exc)
        ok, value = self._memo[key]
        if not ok:
            raise value
        return value

    def _asset(self, loader, name):
        try:
            return self._once((loader.__name__, name),
                              lambda: loader(name, self.assets_dir))
        except Exception as exc:
            raise AssetError(f"asset unavailable: {exc}") from exc

    def complex(self, name) -> complexes.SimplicialComplex:
        return self._asset(assets.load_complex, name)

    def certificate(self, name):
        return self._asset(assets.load_certificate, name)

    def diagram(self, name):
        return self._asset(assets.load_diagram, name)

    def search(self, name):
        return self._once(("search", name),
                          lambda: collapse.is_collapsible(self.complex(name)))

    @property
    def split(self):
        """The jester hat's split of the bundled certificates (SplitError)."""
        return self._once("split", lambda: splitting.verify_spine_split(
            self.complex("jester_hat"), self.complex("jester_A"),
            self.complex("jester_B"),
            (self.certificate("jester_A"), self.certificate("jester_B"),
             self.certificate("jester_C"))))

    @property
    def link(self) -> groups.Presentation:
        return self._once("link",
                          lambda: groups.wirtinger(self.diagram("mazur_link")))

    @property
    def chain(self):
        return self._once("chain", mazur.derivation_chain)

    @property
    def triangle(self):
        return self._once("triangle", mazur.triangle_certificate)


# ----------------------------------------------------------- the registry

# group: the named command whose verdict this decides, or None
Check = namedtuple("Check", "id group fn")


def run_checks(checks, ctx: RunContext,
               strict: bool = False) -> VerificationReport:
    """Run checks in order against one context. No exception is a verdict:
    an AssetError is input that could not be read (FAIL, or under strict its
    cause escapes so a named command exits 2), any other is a defect (FAIL
    naming it; under strict it escapes)."""
    results = []
    for check in checks:
        try:
            status, detail = check.fn(ctx)
        except AssetError as exc:
            if strict:
                raise exc.__cause__
            status, detail = FAIL, str(exc)
        except Exception as exc:  # a check must never crash the report
            if strict:
                raise
            status, detail = FAIL, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check.id, status, detail))
    return VerificationReport(tuple(results))


def run_group(group: str, ctx: RunContext) -> VerificationReport:
    """Strictly run the checks a named command's verdict rests on."""
    return run_checks([c for c in CHECKS if c.group == group], ctx,
                      strict=True)


def verify_all(assets_dir=None) -> VerificationReport:
    return run_checks(CHECKS, RunContext(assets_dir))


# ------------------------------------------------------------- the checks

def _verdict(ok: bool, detail: str) -> tuple[str, str]:
    return (PASS if ok else FAIL), detail


def _no_free_faces(name, detail):
    def fn(ctx):
        ff = collapse.free_faces(ctx.complex(name))
        if ff:
            return FAIL, f"{len(ff)} free faces, first {' '.join(ff[0])}"
        return PASS, detail
    return fn


def _chi_one(name):
    def fn(ctx):
        chi = complexes.euler_characteristic(ctx.complex(name))
        return _verdict(chi == 1, f"chi = {chi}")
    return fn


def _decomposition(ctx):
    J, A, B, C = (ctx.complex(name) for name in
                  ("jester_hat", "jester_A", "jester_B", "jester_C"))
    if complexes.union(A, B).simplices != J.simplices:
        return FAIL, "A union B differs from J"
    if complexes.intersection(A, B).simplices != C.simplices:
        return FAIL, "A intersect B differs from C"
    return PASS, "A u B = J and A n B = C"


def _cert_replays(name, want_vertex=None):
    def fn(ctx):
        K = ctx.complex(name)
        cert = ctx.certificate(name)
        result = collapse.replay(K, cert)
        if result.failure:
            return FAIL, result.failure
        final = result.point
        if not final:
            return FAIL, f"replay left {len(result.final)} simplices"
        if want_vertex and final != want_vertex:
            return FAIL, f"collapsed to {final}, expected {want_vertex}"
        return PASS, f"{len(cert.steps)} steps, collapsed to vertex {final}"
    return fn


def _search(name, want):
    """The search's verdict on a bundled complex must be want ("no" or
    "yes"), and a "yes" must replay to a point; out of budget is SKIP."""
    def fn(ctx):
        verdict = ctx.search(name)
        if verdict.kind == "unknown":
            return SKIP, f"budget exhausted after {verdict.nodes} nodes"
        if verdict.kind != want:
            return FAIL, f"verdict {verdict.kind}"
        if want == "no":
            return PASS, "verdict no"
        if not collapse.replay(ctx.complex(name), verdict.certificate).point:
            return FAIL, "search certificate does not replay"
        return PASS, (f"certified in {verdict.nodes} nodes, "
                      f"{len(verdict.certificate.steps)} steps")
    return fn


def _split(ctx):
    try:
        return PASS, f"conclusion {ctx.split.conclusion}"
    except splitting.SplitError as exc:   # refuted, naming the failed part
        return FAIL, str(exc)


def cone_bases():
    """The faces of each complex on v0..v(n-1), n = 1..4, with every vertex
    and no face of more than 3: any edges, then triangles on those edges.
    Each base is a list of sorted simplices, closed under taking faces."""
    for n in range(1, 5):
        names = [f"v{i}" for i in range(n)]
        bases = [[(v,) for v in names]]
        for face in [*combinations(names, 2), *combinations(names, 3)]:
            # each base so far, and with face added where its facets all are
            bases += [b + [face] for b in bases
                      if {*combinations(face, len(face) - 1)} <= {*b}]
        yield from bases


def _cone_sweep(ctx):
    for i, simplices in enumerate(cone_bases()):
        base = complexes.SimplicialComplex(frozenset(simplices), "base")
        K = complexes.cone(base, "apex", "rcone")
        verdict = collapse.is_collapsible(K)
        # a replayed step removes a face and a coface one dimension up, so
        # chi is conserved; is_collapsible answers no whenever chi != 1
        if verdict.kind != "yes":
            failure = f"verdict {verdict.kind}"
        elif not collapse.replay(K, verdict.certificate).collapsed_to_point:
            failure = "certificate does not replay"
        else:
            continue
        faces = ", ".join(map(" ".join, K.maximal_simplices()))
        return FAIL, f"cone {i} ({faces}): {failure}"
    return PASS, (f"{i + 1} cones over every complex on <= 4 vertices: "
                  "chi conserved, all certificates replay")


def _wirtinger_shape(ctx):
    gens, rels = len(ctx.link.generators), len(ctx.link.relators)
    return _verdict(gens == 9 and rels == 9,
                    f"{gens} generators, {rels} relators")


def _link_h1(ctx):
    inv = groups.abelianization(ctx.link)
    return _verdict(inv.free_rank == 2 and not inv.factors, f"H1 = {inv}")


def _r9(ctx):
    rels = ctx.link.relators
    if len(rels) < 9:
        return FAIL, f"{len(rels)} relators, no relator 9"
    return _verdict(rels[8] == mazur.R9,
                    f"relator 9 is {groups.word_str(rels[8])}")


def _linking(ctx):
    d = ctx.diagram("mazur_link")
    if len(d.components) != 2:
        return FAIL, f"component count {len(d.components)}, not 2"
    total = groups.crossing_sum(d, 0, 1)
    if total % 2:
        return FAIL, f"odd inter-component crossing sum {total}"
    return _verdict(abs(total) == 2, f"lk = {total // 2}")


def _boundary_h1(ctx):
    inv = groups.abelianization(mazur.boundary_presentation(ctx.link))
    return _verdict(inv.free_rank == 0 and not inv.factors,
                    f"H1 of surgered group = {inv}")


def _elliptic_orders(ctx):
    low = ctx.triangle.min_order_displacement
    return _verdict(low > hyperbolic.NONTRIVIAL_FLOOR,
                    f"proper powers displace probes by >= {low:.3e}")


def _gauss_bonnet(ctx):
    a, b, c = hyperbolic.build_triangle(mazur.TRIANGLE_ANGLES)
    defect = hyperbolic.triangle_defect(a, b, c)
    err = abs(defect - 11 * math.pi / 70)
    return _verdict(err < hyperbolic.DEFAULT_TOL,
                    f"defect {defect:.12f}, |err| = {err:.3e}")


def _meridian(ctx):
    d = ctx.triangle.meridian.word_displacement
    return _verdict(ctx.triangle.meridian_ok,
                    f"origin moves {d:.9f} (> 1e-3)")


def _abelian_oracles(ctx):
    free2 = groups.abelianization(groups.Presentation(
        ("a", "b"), (groups.parse_word("a b A B"),)))
    triv = groups.abelianization(mazur.target_presentation())
    ok = (free2.free_rank == 2 and not free2.factors
          and triv.free_rank == 0 and not triv.factors)
    return _verdict(ok, f"commutator -> {free2}; "
                        f"(7,5,2) triangle quotient -> {triv}")


def _tietze_invariance(ctx):
    start = tietze_walk_start()
    want, moves = groups.abelianization(start), 0
    for trips, (label, trip) in enumerate(tietze_round_trips(), 1):
        p = start
        for moves, move in enumerate(trip, moves + 1):
            p = groups.apply_tietze(p, move)
            if (got := groups.abelianization(p)) != want:
                return FAIL, (f"move {moves} ({label}, {move.kind}): "
                              f"invariants changed: {want} -> {got}")
        if p != start:
            return FAIL, f"round trip {label} ends at {p}"
    return PASS, (f"{moves} certified moves in {trips} round trips, "
                  "invariants stable")


def _family(ctx):
    n = splitting.family_demo(10)
    return _verdict(n == 1024, "1024 pairwise-distinguishable" if n == 1024
                    else f"{n} of 1024 descriptions distinct")


def _irreflexive(ctx):
    # multiset_of must build what from_map builds, whatever the order
    orderings = sorted(set(permutations(("J1", "J2", "J2", "J3", "J3", "J3"))))
    for cycle in ((), ("J4", "J5"), ("J5", "J4")):
        want = splitting.FactorMultiset.from_map({
            "J1": 1, "J2": 2, "J3": 3,
            **dict.fromkeys(cycle, splitting.OMEGA)})
        for prefix in orderings:
            built = splitting.multiset_of(prefix, cycle)
            if splitting.distinguishable(built, want):
                return FAIL, (f"{' '.join(prefix)} then ({' '.join(cycle)})"
                              f" repeated: {want} separated from itself")
    return PASS, (f"{3 * len(orderings)} orderings of J1 J2^2 J3^3, "
                  "omega J4 J5: never self-separated")


CHECKS = (
    Check("DUNCE_FREE_FACES", "dunce",
          _no_free_faces("dunce_hat", "no free faces")),
    Check("DUNCE_SEARCH_VERDICT", "dunce", _search("dunce_hat", "no")),
    Check("DUNCE_EULER", "dunce", _chi_one("dunce_hat")),
    Check("JESTER_FREE_FACES", None, _no_free_faces(
        "jester_hat", "no free faces (no free edge and no free vertex)")),
    Check("JESTER_EULER", None, _chi_one("jester_hat")),
    Check("JESTER_DECOMPOSITION", None, _decomposition),
    Check("JESTER_C_CERT_REPLAY", None, _cert_replays("jester_C", "v")),
    Check("JESTER_A_CERT_REPLAY", None, _cert_replays("jester_A")),
    Check("JESTER_B_CERT_REPLAY", None, _cert_replays("jester_B")),
    Check("JESTER_SPLIT_CERT", "jester", _split),
    Check("SEARCH_JESTER_C", None, _search("jester_C", "yes")),
    Check("SEARCH_JESTER_A", None, _search("jester_A", "yes")),
    Check("SEARCH_JESTER_B", None, _search("jester_B", "yes")),
    Check("CONE_SWEEP", None, _cone_sweep),
    Check("MAZUR_WIRTINGER_SHAPE", None, _wirtinger_shape),
    Check("MAZUR_ABELIANIZATION", None, _link_h1),
    Check("MAZUR_R9", "mazur", _r9),
    Check("MAZUR_LINKING", None, _linking),
    Check("MAZUR_DERIVATION_CHAIN", "mazur", lambda ctx: _verdict(
        ctx.chain.ok, "; ".join(ctx.chain.lines()))),
    Check("MAZUR_BOUNDARY_H1", None, _boundary_h1),
    Check("TRIANGLE_RELATORS", "mazur", lambda ctx: _verdict(
        ctx.triangle.relator_report.ok,
        f"max residual {ctx.triangle.relator_report.max_residual:.3e}")),
    Check("TRIANGLE_ELLIPTIC_ORDERS", "mazur", _elliptic_orders),
    Check("TRIANGLE_BG_HALF_TURN", "mazur", lambda ctx: _verdict(
        ctx.triangle.rotation_b_matches, "beta gamma = half turn at B")),
    Check("GAUSS_BONNET_DEFECT", None, _gauss_bonnet),
    Check("MERIDIAN_DISPLACEMENT", "mazur", _meridian),
    Check("ABELIAN_ORACLES", None, _abelian_oracles),
    Check("TIETZE_INVARIANCE", None, _tietze_invariance),
    Check("FAMILY_DEMO", None, _family),
    Check("DISTINGUISH_IRREFLEXIVE", None, _irreflexive),
)
