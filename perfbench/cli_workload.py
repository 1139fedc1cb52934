"""The `cli` workload: the commands a user runs, as child processes.

One pass runs `--version`, `verify-all`, `mazur certify`, `dunce check` and
`jester verify-split` on the bundled assets, one process at a time, in an
order the seed shuffles each pass, each child with a hash seed drawn from
the seed. Interpreter start and imports weigh heavily, and every layer runs
at small size; CONE_SWEEP and FAMILY_DEMO dominate verify-all. A change to
start-up cost, to how checks share work, or to either of those two checks
shows here and nowhere else.

Every verify-all output of a run must be byte-identical to the first, even
across hash seeds; any difference counts as a failed operation.
"""
from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
import tomllib

import oracles
from common import BENCH, ROOT, children_rss_mb, median, program_env
from tracing import MARKER

# the check ids verify-all reports, in order
CHECK_IDS = (
    "DUNCE_FREE_FACES", "DUNCE_SEARCH_VERDICT", "DUNCE_EULER",
    "JESTER_FREE_FACES", "JESTER_EULER", "JESTER_DECOMPOSITION",
    "JESTER_C_CERT_REPLAY", "JESTER_A_CERT_REPLAY", "JESTER_B_CERT_REPLAY",
    "JESTER_SPLIT_CERT", "SEARCH_JESTER_C", "SEARCH_JESTER_A",
    "SEARCH_JESTER_B", "CONE_SWEEP", "MAZUR_WIRTINGER_SHAPE",
    "MAZUR_ABELIANIZATION", "MAZUR_R9", "MAZUR_LINKING",
    "MAZUR_DERIVATION_CHAIN", "MAZUR_BOUNDARY_H1", "TRIANGLE_RELATORS",
    "TRIANGLE_ELLIPTIC_ORDERS", "TRIANGLE_BG_HALF_TURN", "GAUSS_BONNET_DEFECT",
    "MERIDIAN_DISPLACEMENT", "ABELIAN_ORACLES", "TIETZE_INVARIANCE",
    "FAMILY_DEMO", "DISTINGUISH_IRREFLEXIVE",
)

COMMANDS = {
    "version": ("--version",),
    "verify_all": ("verify-all",),
    "mazur_certify": ("mazur", "certify"),
    "dunce_check": ("dunce", "check"),
    "jester_split": ("jester", "verify-split"),
}

CHILD_TIMEOUT_S = 120
# reference_work() calls before each child, to measure the host's speed
CALIBRATIONS = 5


class Workload:
    name = "cli"
    in_process = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        with open(ROOT / "pyproject.toml", "rb") as f:
            self.version = tomllib.load(f)["project"]["version"]
        self.meridian = oracles.meridian_displacements(1)[0]
        self.first_verify_all: str | None = None
        self.version_seconds = float("nan")

    def setup_seconds(self) -> list[float]:
        # `--version` is interpreter start, imports and the parser: the
        # set-up every command pays. Every pass runs it once.
        return [self.version_seconds]

    def run_pass(self, run, tracer) -> None:
        order = list(COMMANDS)
        self.rng.shuffle(order)
        for kind in order:
            hash_seed = self.rng.randrange(2 ** 32)
            args = COMMANDS[kind]
            if tracer is None:
                argv = [sys.executable, "-m", "splitcert.cli", *args]
            else:
                argv = [sys.executable, str(BENCH / "traced_cli.py"), *args]
            for _ in range(CALIBRATIONS):
                run.calibrate()
            start = time.perf_counter()
            try:
                proc = subprocess.run(argv, env=program_env(hash_seed),
                                      cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                run.time_only(kind, time.perf_counter() - start)
                run.check(kind, False, f"{kind} timed out")
                continue
            elapsed = time.perf_counter() - start
            run.time_only(kind, elapsed)
            if kind == "version":
                self.version_seconds = elapsed
            stderr = proc.stderr
            if tracer is not None:
                stderr = self._merge_trace(tracer, run.attempted, stderr)
            run.check(kind, proc.returncode == 0,
                      f"{' '.join(args)} exited {proc.returncode}: "
                      f"{stderr.strip()[-200:]}")
            getattr(self, f"_check_{kind}")(run, proc.stdout)

    @staticmethod
    def _merge_trace(tracer, request: int, stderr: str) -> str:
        """Take the traced child's report off the end of its stderr."""
        head, sep, tail = stderr.rpartition(MARKER)
        if sep:
            tracer.merge(json.loads(tail), request)
            return head
        return stderr

    def _check_version(self, run, out: str) -> None:
        run.check("version", out.strip() == self.version,
                  f"--version printed {out.strip()!r}, pyproject says "
                  f"{self.version!r}")

    def _check_verify_all(self, run, out: str) -> None:
        if self.first_verify_all is None:
            self.first_verify_all = out
        run.check("verify_all", out == self.first_verify_all,
                  "verify-all output differs from the first of this run")
        rows = [line.split() for line in out.splitlines()]
        ids = tuple(r[0] for r in rows[:-1] if r)
        statuses = {r[0]: r[1] for r in rows[:-1] if len(r) > 1}
        bad = [i for i in CHECK_IDS if statuses.get(i) != "PASS"]
        run.check("verify_all", ids == CHECK_IDS and not bad
                  and out.endswith("overall PASS\n"),
                  f"verify-all: not every expected check passed ({bad[:3]})")

    def _check_mazur_certify(self, run, out: str) -> None:
        m = re.search(r"^meridian displacement: (\S+)$", out, re.M)
        ok = (m is not None
              and oracles.check_close(float(m.group(1)), self.meridian, 1e-8)
              and "PI1_BOUNDARY_NONTRIVIAL: PASS" in out.splitlines()
              and "MERIDIAN_NONTRIVIAL: PASS" in out.splitlines())
        run.check("mazur_certify", ok, "mazur certify: missing PASS line or "
                                       "meridian displacement off")

    def _check_dunce_check(self, run, out: str) -> None:
        want = ["free faces: 0", "collapsibility verdict: no", "chi: 1",
                "dunce hat: PASS"]
        run.check("dunce_check", out.splitlines() == want,
                  f"dunce check printed {out!r}")

    def _check_jester_split(self, run, out: str) -> None:
        lines = out.splitlines()
        run.check("jester_split", "conclusion: splits-into-closed-balls"
                  in lines and lines[-1:] == ["jester split: PASS"],
                  f"jester verify-split printed {out!r}")

    def peak_rss_mb(self) -> float:
        return children_rss_mb()

    def details(self, run):
        s = run.samples
        return [(f"{kind}_s", median(s[kind]), "s", f" (n={len(s[kind])})")
                for kind in COMMANDS if kind != "version"]

    def notes(self, run):
        return []
