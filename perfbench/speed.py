"""A fixed computation timed next to the program, to gauge the machine's speed.

On a shared virtual machine the speed a single thread gets drifts, by up to
a factor of two over minutes, with no steal time to show for it: identical
`fit` commands took 1.9 s in one run and 3.6 s in another.  A run's times
are therefore also reported divided by the time of this computation, run
between the commands of the same run, and multiplied by REFERENCE_S, so they
read as seconds on a machine where the reference takes REFERENCE_S.  Over
five runs of each workload (2-vCPU VM) this cut the spread of `script_s`
from 0.24 to 0.05 on station-fit and from 0.10 to 0.05 on paths.

The computation (complex exponentials over an array the size of a COS
frequency grid times the days of a horizon) is the benchmark's own; no
change to tempderiv changes it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.07  # seconds; about what reference() takes on a 2-vCPU VM
_GRID = np.linspace(0.0, 1.0, 100_000)
_BUF = np.empty(_GRID.size, complex)   # preallocated: no page faults in the timing
_REPEATS = 20


def reference() -> float:
    """Seconds taken by the fixed reference computation."""
    t0 = perf_counter()
    for _ in range(_REPEATS):
        np.multiply(_GRID, 1j, out=_BUF)
        np.exp(_BUF, out=_BUF)
        _BUF.sum()
    return perf_counter() - t0


def scaled(seconds: float, reference_s: float) -> float:
    """`seconds` measured while reference() took `reference_s`, at the nominal speed."""
    return seconds * REFERENCE_S / reference_s
