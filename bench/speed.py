"""Host speed probe.

The benchmark shares its machine, and the speed of the machine drifts by up
to 2x within a minute while the program stays the same.  Every pass is
therefore probed (spans.py says when) with a fixed pure-Python loop of
dictionary, integer and small-object work that no change to the program can
touch.  A time
measured in a pass is reported rescaled to a machine on which the probe takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / probe time

On a quiet host of the kind the benchmark was written on (2-vCPU Xeon,
Python 3.11) the probe takes about REFERENCE_S, so reported figures are close
to host seconds there.  The raw host seconds and the factor of each pass are
kept in the results file.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

#: Probe time, in seconds, of the reference machine.
REFERENCE_S = 0.006

#: Repetitions of the loop per probe; their median is taken.
REPEATS = 3


def _loop() -> int:
    # integer and dictionary work, as in the engine and the integer oracle
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * 3 // 7
        acc += i % 13
    # short-lived small objects and strings, as in the builder and the parser
    objs = [(i, str(i), [i]) for i in range(6_000)]
    index = {o[1]: o for o in objs}
    return acc + sum(len(k) for k in index)


def probe() -> float:
    """Seconds the probe loop takes now (median of REPEATS runs)."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return median(times)
