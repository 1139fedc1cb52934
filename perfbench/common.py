"""Shared pieces of the benchmark: the measuring loop, operation records and
statistics.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned, and at most one child process runs at
a time. A workload supplies:

  run_pass(run, tracer)  one pass over its fixed operation list
  setup_seconds()        set-up times, taken after each untraced pass
  peak_rss_mb()          peak resident memory of what it ran
  details(run), notes(run)  its own figures and remarks, for the report

and `measure` repeats passes until the requested number of seconds is used.
Set-up is measured once per pass rather than all at the start, so its
median spans the whole run like every other figure.
"""
from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

FAILED = object()  # returned by Run.op when the operation raised

# Times are reported at reference speed: the speed at which one
# reference_work() call takes REFERENCE_SECONDS. REFERENCE_ITEMS is sized so
# that it takes about that long on the host the baseline was measured on,
# so there reported times are close to wall times. See Run.end_pass.
REFERENCE_SECONDS = 1.0e-3
REFERENCE_ITEMS = 3000


def program_env(hash_seed: int | None = None) -> dict:
    """Environment for a child process that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports the package, loads the
    bundled assets and builds this seed's inputs: what a process pays before
    its first verdict. The probe's own input generation is left out."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                           workload, str(seed)], env=program_env(),
                          check=True, capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - start - float(proc.stdout)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def reference_work() -> int:
    """A fixed piece of pure-Python work of the kinds the program does:
    integer arithmetic, dict inserts and lookups, a sort. The shared host's
    speed drifts by a fifth or more over minutes, and the program's speed
    follows it; this work's time, taken between operations, measures that
    speed so it can be divided out. Its dict holds only ints, so the garbage
    collector does not track it: the collector's counts are left where the
    operation before left them."""
    table = {}
    for i in range(REFERENCE_ITEMS):
        table[i * 7919 % 10007] = i % 97
    total = 0
    for key in sorted(table):
        total += table[key] * key % 7
    return total


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """Timings, attempts and failures of one benchmark run.

    A failure is an operation that raised, or whose output did not match the
    benchmark's own answer. Either makes the run incorrect, except an
    exception the workload names as a known defect of the program: that
    operation counts as failed, but returned no wrong output. The time of a
    failed operation is never kept.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.verdict_kinds: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.passes = {False: 0, True: 0}
        # seconds of each operation slot of a pass, across passes, keyed by
        # (traced, kind, occurrence of that kind within the pass)
        self.slots: dict[tuple, list[float]] = defaultdict(list)
        # wall seconds of each untraced pass, and the host's speed in it
        self.raw_pass_seconds: list[float] = []
        self.speeds: list[float] = []
        # [kind, seconds, failed, verdict] of each operation of this pass
        self._pass_ops: list[list] | None = None
        self._pass_refs: list[float] = []
        self._tracer = None

    def begin_pass(self, tracer) -> None:
        self._pass_ops = []
        self._pass_refs = []
        self._tracer = tracer

    def calibrate(self) -> None:
        """Time one reference_work() call, outside any timed operation."""
        start = time.perf_counter()
        reference_work()
        self._pass_refs.append(time.perf_counter() - start)

    def end_pass(self) -> float:
        """Close the pass. Every operation time of the pass is multiplied by
        the pass's speed, REFERENCE_SECONDS over the median time of its
        reference_work() calls, which gives it at reference speed. Returns
        that speed."""
        traced = self._tracer is not None
        self.passes[traced] += 1
        speed = REFERENCE_SECONDS / median(self._pass_refs)
        if not traced:
            self.speeds.append(speed)
            self.raw_pass_seconds.append(
                sum(op[1] for op in self._pass_ops if not op[2]))
        seen: Counter = Counter()
        for kind, seconds, failed, verdict in self._pass_ops:
            slot = (traced, kind, seen[kind])
            seen[kind] += 1
            if failed:
                continue
            seconds *= speed
            self.slots[slot].append(seconds)
            # operation samples come from untraced passes only, so the
            # end-to-end figures are never inflated by tracing
            if not traced:
                self.samples[kind].append(seconds)
                if verdict:
                    self.verdict_kinds.add(kind)
        self._pass_ops = None
        return speed

    def typical_pass(self, traced: bool) -> float:
        """Seconds of a typical pass: the sum, over the operations of a pass,
        of each one's median across passes. Each median discards the passes
        in which that operation was disturbed, so this is steadier under
        machine noise than the median of whole-pass sums."""
        return sum(median(v) for (t, _, _), v in self.slots.items()
                   if t == traced)

    def op(self, kind: str, fn, *args, verdict: bool = True,
           known: tuple[type[Exception], ...] = ()):
        """Time fn(*args) as one operation of the given kind. `known` lists
        the exception types a known defect of the program raises here."""
        self.calibrate()
        self.attempted += 1
        if self._tracer is not None:
            self._tracer.request = self.attempted
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation must not stop the run
            self._pass_ops.append([kind, time.perf_counter() - start, True,
                                   verdict])
            self.failed += 1
            reason = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, known):
                reason = f"known defect, {reason}"
            else:
                self.wrong += 1
            self.failures[(kind, reason)] += 1
            return FAILED
        self._pass_ops.append([kind, time.perf_counter() - start, False,
                               verdict])
        return result

    def time_only(self, kind: str, seconds: float) -> None:
        """Record a verdict that was timed elsewhere (a child process)."""
        self.attempted += 1
        self._pass_ops.append([kind, seconds, False, True])

    def check(self, kind: str, ok: bool, reason: str) -> None:
        """Record a check of the last operation's output; an operation
        counts as failed once, however many of its checks fail."""
        if not ok:
            self.wrong += 1
            self.failures[(kind, f"wrong output: {reason}")] += 1
            last = self._pass_ops[-1]
            if not last[2]:
                self.failed += 1
                last[2] = True

    def verdict_gmean(self) -> tuple[float, int]:
        """Geometric mean, over the untraced verdict operations of a pass,
        of each one's median time, and the number of operations. Every
        verdict weighs the same, however long it takes."""
        medians = [median(v) for (t, kind, _), v in self.slots.items()
                   if not t and kind in self.verdict_kinds]
        return statistics.geometric_mean(medians), len(medians)


def measure(workload, seconds: float, trace: bool) -> tuple[Run, dict, list[str]]:
    """Run passes until `seconds` have passed; return the run, its metrics
    and human-readable detail lines.

    Untraced, every pass is timed. Traced, untraced and traced passes
    alternate, so trace_overhead compares passes made at the same time.
    """
    run = Run()
    tracer = tracing.Tracer() if trace else None
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        run.begin_pass(None)
        workload.run_pass(run, None)
        speed = run.end_pass()
        if tracer is None:
            # set-up is measured right after the pass, at its speed
            setup += [speed * s for s in workload.setup_seconds()]
        else:
            run.begin_pass(tracer)
            scope = tracing.patched(tracer) if workload.in_process else nullcontext()
            with scope:
                workload.run_pass(run, tracer)
            run.end_pass()
        # Garbage in reference cycles (is_collapsible's recursive closure
        # holds its whole memo) otherwise waits for a rare full collection,
        # so peak memory would grow with the number of passes that fit.
        gc.collect()
        if time.perf_counter() >= deadline:
            break

    lines = [f"workload {workload.name}: {run.passes[False]} "
             f"untraced passes, {run.passes[True]} traced passes, "
             f"{run.attempted} operations, {run.failed} failed"]
    if trace:
        metrics = tracing.layer_metrics(
            tracer, run.passes[True],
            import_s=tracing.import_seconds(program_env()),
            overhead=run.typical_pass(True) / run.typical_pass(False))
        path = tracer.write_spans(OUT / f"spans_{workload.name}.jsonl")
        lines += [f"  {name:<44} {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
        lines.append(f"  spans written to {path.relative_to(ROOT)} "
                     f"({len(tracer.spans)} kept, {tracer.dropped} dropped)")
    else:
        verdict, verdicts = run.verdict_gmean()
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "pass_s": {"value": run.typical_pass(False), "unit": "s"},
            "verdict_gmean_ms": {"value": 1e3 * verdict, "unit": "ms"},
            "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
        }
        lines.append(f"  {'host_speed':<24} {median(run.speeds):.6g} ratio "
                     f"(quartiles {quantile(run.speeds, 25):.4g}.."
                     f"{quantile(run.speeds, 75):.4g}; every time is "
                     f"multiplied by it)")
        lines.append(f"  {'pass_wall_s':<24} "
                     f"{median(run.raw_pass_seconds):.6g} s (median wall "
                     f"time of a pass)")
        lines.append(f"  set-up samples {len(setup)}, verdict operations per "
                     f"pass {verdicts}")
        lines += [f"  {name:<24} {value:.6g} {unit}{note}"
                  for name, value, unit, note in workload.details(run)]
    share = run.failed / run.attempted
    lines.append(f"  {'failed_share':<24} {share:.6g} ratio "
                 f"({run.failed}/{run.attempted})")
    for (kind, reason), n in sorted(run.failures.items()):
        lines.append(f"  failure x{n} [{kind}] {reason}")
    lines += [f"  note: {note}" for note in workload.notes(run)]
    return run, metrics, lines
