"""Set-up of one workload in a fresh process, timed from outside.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the package and the workload module, then loads the bundled assets
and builds the seed's inputs, and exits: the work a process does before its
first verdict. Prints the seconds spent generating the raw inputs, which
is benchmark work, so the caller can leave it out.
"""
import importlib
import sys
import time

workload, seed = sys.argv[1], int(sys.argv[2])
module = importlib.import_module(f"{workload}_workload")
start = time.perf_counter()
raw = module.make_inputs(seed)
print(time.perf_counter() - start)
module.build(raw)
