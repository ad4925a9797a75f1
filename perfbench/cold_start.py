"""Cold start: a fresh process imports cfcoef and completes one operation.

Usage: ``python3 perfbench/cold_start.py <workload> <seed>``.  Prints the
CPU seconds this process used from its start until the first operation on
the workload's first input returned.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cfcoef  # noqa: E402,F401  (the import is part of what is timed)
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
workload.op(workload.inputs(int(sys.argv[2]), 1)[0])
print(time.process_time())
