"""A fixed reference job that measures how fast the host runs right now.

The benchmark's host is a VM shared with other tenants, and its speed drifts
by up to a factor of two over tens of seconds (the same operation took 1.0 s
and 2.0 s within one minute). Plain wall-clock throughput then measures the
neighbours as much as the program. ``probe_seconds`` times a job that uses no
code of the program, a pure-Python loop and numpy/scipy banded solves on 4000
cells, the two kinds of work the program does. run.py times it just before
and just after each operation; operation time divided by probe time follows
the host's drift far less than either alone.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

# Median probe time on a quiet host: a 2.1 GHz "Intel(R) Xeon(R) Processor"
# vCPU, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.  Normalised throughputs are
# scaled to it, so they read as the throughput on that quiet host.
NOMINAL_PROBE_S = 0.030

_N = 4000
_BANDS = np.vstack([np.full(_N, -1.0), np.full(_N, 4.0), np.full(_N, -1.0)])
_RHS = np.linspace(0.0, 1.0, _N)


def probe_seconds() -> float:
    """Wall time of the reference job, about NOMINAL_PROBE_S on a quiet host."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(100):
        x = solve_banded((1, 1), _BANDS, _RHS)
        x = np.exp(-x * x) * np.sqrt(np.abs(x)) + x * x
    return time.perf_counter() - start
