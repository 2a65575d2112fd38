"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark's machine is a shared virtual machine whose speed changes by
up to a factor of two within seconds and over minutes, for reasons outside
the measured process (CPU time tracks wall time, so nothing preempts it:
the host itself slows down).  Wall-clock job times therefore move with the
machine far more than with the program.  The worker times this loop next to
every job, on the same thread, and the benchmark scales each job's time by
``NOMINAL_S`` over the loop's local time: the reported times are what the
job would take when the loop takes ``NOMINAL_S``.

The loop does the kind of work ``superder`` does (``Fraction`` arithmetic
accumulated in dicts keyed by tuples, and a small dense ``Fraction``
elimination) so that the machine's slow states slow both alike, and it uses
only the standard library, so that no change to the program changes it.
"""

import time
from fractions import Fraction

# The loop's time on the baseline machine (Intel Xeon, shared 2-vCPU VM,
# Python 3.11) in its fast state.  It only sets the scale of the reported
# times; changing it scales every time metric alike.
NOMINAL_S = 5.6e-3

_KEYS = tuple((kind, Fraction(i, d)) for kind in "LGIQ"
              for i in range(-6, 7) for d in (1, 2))
_LEFT = _KEYS[::5]
_RIGHT = _KEYS[::6]
_SIZE = 9
_MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
                      for j in range(_SIZE + 2)) for i in range(_SIZE))


def _work():
    acc = {}
    for ka, ia in _LEFT:
        for kb, ib in _RIGHT:
            key = (ka, kb, ia + ib)
            acc[key] = acc.get(key, Fraction(0)) + ia * ib - 1
    rows = [list(row) for row in _MATRIX]
    r = 0
    for c in range(_SIZE + 2):
        p = next((i for i in range(r, _SIZE) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(_SIZE):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return len(acc) + r


def loop_s():
    """Wall time of one pass of the reference loop, in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
