"""splitcert benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,collapse,algebra} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, measures for S seconds, checks
every output against an answer computed without the program, prints detail
lines, and as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
figures of BENCHMARK.json; with --trace 1 a separate traced run gives the
per-layer figures. See perfbench/README.md.
"""
import argparse
import importlib
import json
import sys

from common import ROOT, SRC, measure

WORKLOADS = ("cli", "collapse", "algebra")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "splitcert" / "__init__.py").is_file():
        print(f"error: no splitcert package under {SRC.relative_to(ROOT)}/; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    module = importlib.import_module(f"{args.workload}_workload")
    workload = module.Workload(args.seed)
    run, metrics, lines = measure(workload, args.seconds, bool(args.trace))
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
