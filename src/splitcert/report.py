"""The check registry and the one-shot verification report.

CHECKS lists every check the test suite certifies, once. verify_all runs
them all against the bundled assets (or an override directory) and renders
a byte-stable report: one line per check id, then an overall verdict. The
named commands (`dunce check`, `jester verify-split`, `mazur certify`) run
only the checks of their group and print from the same RunContext.
Randomized checks use fixed seeds so two consecutive runs emit identical
bytes.
"""
from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Optional

from . import assets, mazur
from .collapse import free_faces, is_collapsible, replay
from .complexes import (SimplicialComplex, build, cone, euler_characteristic,
                        intersection, union)
from .groups import (Presentation, TietzeMove, _certificate_product,
                     abelianization, apply_tietze, linking_number, parse_word,
                     wirtinger)
from .hyperbolic import (DEFAULT_TOL, NONTRIVIAL_FLOOR, build_triangle,
                         triangle_defect)
from .splitting import (OMEGA, FactorMultiset, SplitError, distinguishable,
                        family_demo, multiset_of, verify_spine_split)

PASS, FAIL, SKIP, INCOMPLETE = "PASS", "FAIL", "SKIP", "INCOMPLETE"


class CheckResult(NamedTuple):
    check_id: str
    status: str
    detail: str


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> str:
        """FAIL if any check failed, else INCOMPLETE if any was skipped (a
        skipped claim was not verified), else PASS."""
        statuses = {c.status for c in self.checks}
        return (FAIL if FAIL in statuses
                else INCOMPLETE if SKIP in statuses else PASS)

    def render(self) -> str:
        width = max(len(c.check_id) for c in self.checks)
        lines = [f"{c.check_id:<{width}}  {c.status:<4}  {c.detail}"
                 for c in self.checks]
        lines.append(f"overall {self.overall}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------- randomized helpers

def random_cone_complex(rng: random.Random) -> SimplicialComplex:
    """Cone over a small random complex; collapsible by construction."""
    nv = rng.randint(1, 5)
    verts = [f"v{i}" for i in range(nv)]
    maximal = [[v] for v in verts]
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(3, nv))
        maximal.append(rng.sample(verts, size))
    base = build(maximal, name="base")
    return cone(base, "apex", name="rcone")


def random_multiset(rng: random.Random) -> FactorMultiset:
    labels = rng.sample([f"J{i}" for i in range(1, 9)], rng.randint(0, 5))
    return FactorMultiset.from_map(
        {lab: OMEGA if rng.random() < 0.4 else rng.randint(1, 6)
         for lab in labels})


def _random_word(rng: random.Random, gens):
    return tuple((rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 3)))


TIETZE_WALK_START = Presentation(
    ("a", "b"), (parse_word("a b A B"), parse_word("a a a")))


def random_tietze_walk(rng: random.Random, steps: int) -> Presentation:
    """Run a LIFO walk of `steps` certified Tietze moves from
    TIETZE_WALK_START; apply_tietze checks each move's certificate against
    the presentation it is applied to. Returns the last presentation."""
    p = TIETZE_WALK_START
    stack: list[tuple] = []   # ("rel", certificate) | ("gen", name)
    fresh = 0
    for _ in range(steps):
        deep = len(stack) >= 6
        if deep or (stack and rng.random() < 0.45):
            kind, payload = stack.pop()
            if kind == "rel":
                move = TietzeMove("remove-relator",
                                  index=len(p.relators) - 1,
                                  certificate=payload)
            else:
                move = TietzeMove("remove-generator", gen=payload,
                                  index=len(p.relators) - 1)
        elif rng.random() < 0.5:
            cert = tuple((rng.randrange(len(p.relators)),
                          rng.choice((1, -1)),
                          _random_word(rng, p.generators))
                         for _ in range(rng.randint(1, 3)))
            word = _certificate_product(p.relators, cert)
            move = TietzeMove("add-relator", word=word, certificate=cert)
            stack.append(("rel", cert))
        else:
            fresh += 1
            name = f"g{fresh}"
            move = TietzeMove("add-generator", gen=name,
                              word=_random_word(rng, p.generators))
            stack.append(("gen", name))
        p = apply_tietze(p, move)
    return p


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

    def complex(self, name) -> SimplicialComplex:
        return self._asset(assets.load_complex, name)

    def certificate(self, name):
        return self._asset(assets.load_certificate, name)

    def diagram(self, name):
        return self._asset(assets.load_diagram, name)

    def search(self, name):
        return self._once(("search", name),
                          lambda: is_collapsible(self.complex(name)))

    @property
    def split(self):
        """The jester hat's split of the bundled certificates (SplitError)."""
        return self._once("split", lambda: verify_spine_split(
            self.complex("jester_hat"), self.complex("jester_A"),
            self.complex("jester_B"),
            (self.certificate("jester_A"), self.certificate("jester_B"),
             self.certificate("jester_C"))))

    @property
    def link(self) -> Presentation:
        return self._once("link",
                          lambda: wirtinger(self.diagram("mazur_link")))

    @property
    def chain(self):
        return self._once("chain", lambda: mazur.derivation_chain(self.link))

    @property
    def triangle(self):
        return self._once("triangle", mazur.triangle_certificate)


# ----------------------------------------------------------- the registry

class Check(NamedTuple):
    id: str
    group: Optional[str]   # the named command whose verdict this decides
    fn: Callable[[RunContext], tuple[str, str]]


def run_checks(checks, ctx: RunContext,
               strict: bool = False) -> list[CheckResult]:
    """Run checks in order against one context. An error is FAIL, unless
    strict, which lets asset and program errors escape so a named command
    can exit 2."""
    results = []
    for check in checks:
        try:
            status, detail = check.fn(ctx)
        except SplitError as exc:
            status, detail = FAIL, str(exc)
        except AssetError as exc:
            if strict:
                raise exc.__cause__
            status, detail = FAIL, str(exc)
        except Exception as exc:  # a check must never crash the report
            if strict:
                raise
            status, detail = FAIL, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check.id, status, detail))
    return results


def run_group(group: str,
              ctx: RunContext) -> tuple[bool, dict[str, CheckResult]]:
    """Strictly run the checks a named command's verdict rests on. The
    verdict passes only when every one of them is PASS."""
    results = run_checks([c for c in CHECKS if c.group == group], ctx,
                         strict=True)
    return (all(r.status == PASS for r in results),
            {r.check_id: r for r in results})


def verify_all(assets_dir=None) -> VerificationReport:
    ctx = RunContext(assets_dir)
    return VerificationReport(tuple(run_checks(CHECKS, ctx)))


# ------------------------------------------------------------- the checks

def _verdict(ok: bool, detail: str) -> tuple[str, str]:
    return (PASS if ok else FAIL), detail


def _no_free_faces(name, detail):
    def fn(ctx):
        ff = free_faces(ctx.complex(name))
        if ff:
            return FAIL, f"{len(ff)} free faces, first {' '.join(ff[0])}"
        return PASS, detail
    return fn


def _chi_one(name):
    def fn(ctx):
        chi = euler_characteristic(ctx.complex(name))
        return _verdict(chi == 1, f"chi = {chi}")
    return fn


def _dunce_search(ctx):
    verdict = ctx.search("dunce_hat")
    if verdict.kind == "unknown":
        return SKIP, "budget exhausted"
    return _verdict(verdict.kind == "no", f"verdict {verdict.kind}")


def _decomposition(ctx):
    J, A, B, C = (ctx.complex(name) for name in
                  ("jester_hat", "jester_A", "jester_B", "jester_C"))
    if union(A, B).simplices != J.simplices:
        return FAIL, "A union B differs from J"
    if intersection(A, B).simplices != C.simplices:
        return FAIL, "A intersect B differs from C"
    return PASS, "A u B = J and A n B = C"


def _cert_replays(name, want_vertex=None):
    def fn(ctx):
        K = ctx.complex(name)
        cert = ctx.certificate(name)
        result = replay(K, cert)
        if result.failure:
            return FAIL, result.failure
        final = result.point
        if not final:
            return FAIL, f"replay left {len(result.final)} simplices"
        if want_vertex and final != want_vertex:
            return FAIL, f"collapsed to {final}, expected {want_vertex}"
        return PASS, f"{len(cert.steps)} steps, collapsed to vertex {final}"
    return fn


def _search_certifies(name):
    def fn(ctx):
        K = ctx.complex(name)
        verdict = ctx.search(name)
        if verdict.kind == "unknown":
            return SKIP, f"budget exhausted after {verdict.nodes} nodes"
        if verdict.kind != "yes":
            return FAIL, f"verdict {verdict.kind}"
        if not replay(K, verdict.certificate).collapsed_to_point:
            return FAIL, "search certificate does not replay"
        return PASS, (f"certified in {verdict.nodes} nodes, "
                      f"{len(verdict.certificate.steps)} steps")
    return fn


def _cone_sweep(ctx):
    rng = random.Random(91)
    checked = set()
    for i in range(1000):
        K = random_cone_complex(rng)
        # is_collapsible and replay are functions of the simplex set alone,
        # so a repeated draw would only repeat its first draw's checks
        if K.simplices in checked:
            continue
        checked.add(K.simplices)
        verdict = is_collapsible(K)
        if verdict.kind != "yes":
            return FAIL, f"cone {i}: verdict {verdict.kind}"
        # a replayed step removes a face and a coface one dimension up, so
        # chi is conserved; is_collapsible asserts chi = 1 on every yes
        if not replay(K, verdict.certificate).collapsed_to_point:
            return FAIL, f"cone {i}: certificate does not replay"
    return PASS, "1000 cones: chi conserved, all certificates replay"


def _wirtinger_shape(ctx):
    gens, rels = len(ctx.link.generators), len(ctx.link.relators)
    return _verdict(gens == 9 and rels == 9,
                    f"{gens} generators, {rels} relators")


def _link_h1(ctx):
    inv = abelianization(ctx.link)
    return _verdict(inv.free_rank == 2 and not inv.factors, f"H1 = {inv}")


def _linking(ctx):
    lk = linking_number(ctx.diagram("mazur_link"), 0, 1)
    return _verdict(abs(lk) == 1, f"lk = {lk}")


def _boundary_h1(ctx):
    inv = abelianization(mazur.boundary_presentation(ctx.link))
    return _verdict(inv.free_rank == 0 and not inv.factors,
                    f"H1 of surgered group = {inv}")


def _elliptic_orders(ctx):
    low = min(ctx.triangle.order_displacements)
    return _verdict(low > NONTRIVIAL_FLOOR,
                    f"proper powers displace probes by >= {low:.3e}")


def _gauss_bonnet(ctx):
    a, b, c = build_triangle(mazur.TRIANGLE_ANGLES)
    defect = triangle_defect(a, b, c)
    err = abs(defect - 11 * math.pi / 70)
    return _verdict(err < DEFAULT_TOL,
                    f"defect {defect:.12f}, |err| = {err:.3e}")


def _meridian(ctx):
    d = ctx.triangle.meridian.word_displacement
    return _verdict(ctx.triangle.meridian_ok,
                    f"origin moves {d:.9f} (> 1e-3)")


def _abelian_oracles(ctx):
    free2 = abelianization(Presentation(("a", "b"), (parse_word("a b A B"),)))
    triv = abelianization(mazur.target_presentation())
    ok = (free2.free_rank == 2 and not free2.factors
          and triv.free_rank == 0 and not triv.factors)
    return _verdict(ok, f"commutator -> {free2}; "
                        f"(7,5,2) triangle quotient -> {triv}")


def _tietze_invariance(ctx):
    first = abelianization(TIETZE_WALK_START)
    last = abelianization(random_tietze_walk(random.Random(4711), 500))
    if first != last:
        return FAIL, f"invariants changed: {first} -> {last}"
    return PASS, "500 certified moves, invariants stable"


def _family(ctx):
    n = family_demo(10)
    return _verdict(n == 1024, f"{n} pairwise-distinguishable")


def _irreflexive(ctx):
    # each multiset, built again from a sequence of its finite labels in
    # shuffled order with its omega labels as the cycle, must not be
    # distinguishable from the first build
    rng = random.Random(23)
    for _ in range(1000):
        m = random_multiset(rng)
        prefix = [label for label, n in m.counts if n != OMEGA
                  for _ in range(n)]
        rng.shuffle(prefix)
        cycle = [label for label, n in m.counts if n == OMEGA]
        again = multiset_of(prefix, cycle)
        if distinguishable(m, again):
            return FAIL, f"multiset {m} separated from itself"
    return PASS, "1000 random multisets: never self-separated"


CHECKS = (
    Check("DUNCE_FREE_FACES", "dunce",
          _no_free_faces("dunce_hat", "no free faces")),
    Check("DUNCE_SEARCH_VERDICT", "dunce", _dunce_search),
    Check("DUNCE_EULER", "dunce", _chi_one("dunce_hat")),
    Check("JESTER_FREE_FACES", None, _no_free_faces(
        "jester_hat", "no free faces (no free edge and no free vertex)")),
    Check("JESTER_EULER", None, _chi_one("jester_hat")),
    Check("JESTER_DECOMPOSITION", None, _decomposition),
    Check("JESTER_C_CERT_REPLAY", None, _cert_replays("jester_C", "v")),
    Check("JESTER_A_CERT_REPLAY", None, _cert_replays("jester_A")),
    Check("JESTER_B_CERT_REPLAY", None, _cert_replays("jester_B")),
    Check("JESTER_SPLIT_CERT", "jester",
          lambda ctx: (PASS, f"conclusion {ctx.split.conclusion}")),
    Check("SEARCH_JESTER_C", None, _search_certifies("jester_C")),
    Check("SEARCH_JESTER_A", None, _search_certifies("jester_A")),
    Check("SEARCH_JESTER_B", None, _search_certifies("jester_B")),
    Check("CONE_SWEEP", None, _cone_sweep),
    Check("MAZUR_WIRTINGER_SHAPE", None, _wirtinger_shape),
    Check("MAZUR_ABELIANIZATION", None, _link_h1),
    Check("MAZUR_R9", None, lambda ctx: _verdict(
        ctx.link.relators[8] == mazur.R9, "relator 9 is x1 X7 X2 x7")),
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
