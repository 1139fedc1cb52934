"""Run one splitcert command with per-layer tracing.

Usage: PYTHONPATH=src python3 perfbench/traced_cli.py ARGS...

Behaves like `python -m splitcert.cli ARGS...`, then appends one line to
stderr: the tracing marker followed by the call counts, self times,
counters and spans of the run as JSON.
"""
import json
import sys

import tracing

import splitcert.cli

tracer = tracing.Tracer()
with tracing.patched(tracer):
    try:
        code = splitcert.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse exits for --version
        code = exc.code
sys.stdout.flush()
sys.stderr.write(tracing.MARKER + json.dumps(tracer.dump()) + "\n")
sys.exit(code)
