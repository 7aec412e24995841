"""A fixed kernel that measures how fast the host runs at the moment.

The host this benchmark was built on slows a process by up to 2x for
stretches of 20 s and more.  CPU time grows with wall time through such
a stretch, so the guest does not see the process descheduled; the vCPU
itself runs slower.  The median of a 20 s avalanche run moved by a
quarter with it.

The kernel does what `eval_word` does: byte-pair lookups in 28 tables
of 65,536 words, 7.3 MB in all.  Its tables and inputs are its own and
fixed, so it slows with the host but does not change when the package
does.  The benchmark runs it after each operation for a set share of
that operation's time, and scales the operation's time by ``NOMINAL_S``
over the kernel's mean time before and after it: a scaled time is what
the operation would take on a host where one kernel run takes
``NOMINAL_S``.  A single kernel run beside an operation missed most of
the slow stretches, which are short next to the operation; a sample
that takes a fixed share of the time sees them in proportion.  On that
host, 20 s windows of avalanche reports whose raw median moved from 709
to 874 ms kept their scaled median within 4% (426-443 against a
2.5 ms unit).
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter

# the kernel's usual warm mean on the host this benchmark was built on
# (2-vCPU x86-64 VM, Python 3.11), where it ranged 1.3-2.6 ms; it
# only sets the unit of scaled times, which read close to raw times there
NOMINAL_S = 0.0015
# kernel time spent after each operation, as a share of the operation's time
SHARE = 0.15
_TABLES = 28
_TABLE_WORDS = 1 << 16
_INPUTS = 300
_PAIRS = tuple((t, u) for t in range(8) for u in range(t + 1, 8))


class Reference:
    def __init__(self):
        rng = random.Random("perfbench-reference")
        self._tables = []
        for _ in range(_TABLES):
            table = array("I")
            table.frombytes(rng.randbytes(4 * _TABLE_WORDS))
            self._tables.append(table)
        self._inputs = [rng.getrandbits(64) for _ in range(_INPUTS)]

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        lookups = tuple(zip(self._tables, _PAIRS))
        t0 = perf_counter()
        acc = 0
        for x in self._inputs:
            b = (x ^ acc).to_bytes(8, "big")
            for table, (t, u) in lookups:
                acc ^= table[(b[t] << 8) | b[u]]
        return perf_counter() - t0

    def mean_seconds(self, after: float = 0.0) -> float:
        """Mean time of kernel runs repeated until they took ``SHARE`` of
        `after`, the seconds of the operation just timed; at least one run.

        A first, untimed run brings the tables back into cache, so the
        mean does not depend on how many runs the share allows."""
        self.seconds()
        runs = [self.seconds()]
        while sum(runs) < SHARE * after:
            runs.append(self.seconds())
        return sum(runs) / len(runs)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns a time measured between two kernel runs
        into a time on the nominal host."""
        return NOMINAL_S / ((before + after) / 2)
