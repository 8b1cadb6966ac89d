"""The host's speed at a moment, from a fixed computation that uses the
standard library only, so no change to rotagraph can alter it.

The host the benchmark was built on (2-core Xeon VM, shared) runs a plain
Python loop up to half again slower, for seconds or for minutes at a time,
and such episodes move whole runs.  A timed run therefore times a
reference before every operation and multiplies each operation's time by
the reference's nominal time over the median of the reference times
measured around it: the times a run reports are at the reference speed.

In-process operations use ``reference()`` in their own process.  A CLI call
is mostly interpreter start-up and imports, which a warm loop does not
track, so CLI calls use ``process_reference()``: a fresh interpreter that
imports this module and runs ``reference()``.
"""

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Median times of reference() and of process_reference() on the host named
# above; fixed constants, so scaled times compare across commits and runs.
REFERENCE_S = 0.006
PROCESS_REFERENCE_S = 0.1


def reference():
    """Seconds taken by a fixed Fraction and integer computation.  The
    collector is off while it runs, so that the heap the program under test
    left behind cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 400):
            s += Fraction(i * i + 1, 3 * i + 7)
        x = 0
        for i in range(40000):
            x = (x * 31 + i) % 1000003
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def process_reference():
    """Seconds a fresh interpreter takes to start, run reference() and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - t0


def factor(refs, nominal=REFERENCE_S):
    """Factor that brings times measured next to the reference times `refs`
    to the reference speed; `nominal` is their constant above."""
    return nominal / statistics.median(refs)


def local_factors(refs, nominal=REFERENCE_S, window=2):
    """factor() for each operation of a pass, from the reference times of
    the operations at most `window` places from it."""
    return [factor(refs[max(0, i - window):i + window + 1], nominal)
            for i in range(len(refs))]


if __name__ == "__main__":
    reference()
