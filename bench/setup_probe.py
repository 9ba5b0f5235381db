"""Time one set-up: import zqchain, then generate and validate a workload's configs.

Run in a fresh process by run.py; prints the seconds as its only line.
Interpreter start-up is not counted.

    python3 bench/setup_probe.py WORKLOAD SEED
"""
import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import workloads  # noqa: E402  (imports zqchain)

workload = workloads.WORKLOADS[sys.argv[1]]
for _, params in workload.scenarios(int(sys.argv[2]), 0):
    workload.configs(params)
print(repr(time.perf_counter() - start))
