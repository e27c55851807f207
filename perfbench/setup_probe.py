"""Child process behind ``setup_s``: import smsp and build one workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
Prints the elapsed seconds, measured from before the first import.
"""

from time import perf_counter

_t0 = perf_counter()

import sys  # noqa: E402

import benchpath  # noqa: E402

benchpath.use_checkout_src()

import smsp  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
print(repr(perf_counter() - _t0))
