"""Run the benchmark over several seeds and summarise it per workload.

Usage (from the repository root):

    python3 perfbench/summarize.py --seeds 1-10 [--out FILE]

For every workload of BENCHMARK.json, runs one untraced run per seed and
one traced run on the first seed, one after another, each for its
run_seconds. Prints, for every metric, the median of the runs, the first
and third quartile by statistics.quantiles(n=4), and their distance as a
share of the median. With --out, writes the same as JSON; each entry of
`sets` in baseline.json is one such file.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DETAIL = re.compile(r"^  ([a-z][a-z0-9_.]*)\s+(\S+) (\S+)")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = {}
    result["notes"] = []
    for line in lines[:-1]:
        m = DETAIL.match(line)
        if m and not line.startswith("  note") and m.group(1) not in result["metrics"]:
            try:
                result["details"][m.group(1)] = {"value": float(m.group(2)),
                                                 "unit": m.group(3)}
            except ValueError:
                pass
        if line.startswith("  note: ") or line.startswith("  failure "):
            result["notes"].append(line.strip())
    return result


def summary(runs: list[dict], key: str) -> dict:
    out = {}
    for name in runs[0][key]:
        values = [r[key][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"unit": runs[0][key][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = str(spec["run_seconds"])
    report = {"python": platform.python_version(), "cpu": cpu_model(),
              "cpus": os.cpu_count(), "seconds": float(seconds),
              "seeds": seeds(args.seeds), "workloads": {}}
    for workload in why:
        runs = []
        for seed in report["seeds"]:
            runs.append(one_run(workload, seed, seconds, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in r["metrics"].items()), flush=True)
        traced = one_run(workload, report["seeds"][0], seconds, 1)
        entry = {
            "why": why[workload],
            "correct": all(r["correct"] for r in runs),
            "failed_share": statistics.median(
                r["failed"] / r["attempted"] for r in runs),
            "end_to_end": summary(runs, "metrics"),
            "details": summary(runs, "details"),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "notes": sorted(set(runs[0]["notes"])),
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}"
                  f" spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
