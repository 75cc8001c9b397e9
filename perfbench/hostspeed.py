"""The host's speed, measured with a fixed pure-Python reference workload.

The benchmark runs on a share of a host whose other tenants slow it down
by up to half for seconds to minutes at a time.  Raw wall times of the
same program then spread by 20-30% across runs.  The reference workload
below does the kind of work the lqlang evaluators do (small objects,
dicts, recursion, generators) and calls nothing in ``lqlang``, so a
change to the library cannot move it.  It is timed between every two
programs; a program's time is reported as it would read on the host at
its nominal speed, ``wall * NOMINAL_MS / reference``, with ``reference``
the median of the samples taken within ``WINDOW_S`` of the program.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# The reference workload's time when nothing else loads the host, on the
# 2-vCPU Intel Xeon machine the benchmark was written on.  A fixed constant:
# it sets the scale of the reported times, not their ratios.
NOMINAL_MS = 1.9
# Samples this close to a program count for it: the host's speed also
# jitters within a second, so two samples at its ends are not enough.
WINDOW_S = 0.5


class _Node:
    __slots__ = ("head", "tail")

    def __init__(self, head: dict, tail: "_Node | None") -> None:
        self.head = head
        self.tail = tail


def _length(node: "_Node | None") -> int:
    return 0 if node is None else 1 + _length(node.tail)


def _nodes(node: "_Node | None"):
    while node is not None:
        yield node
        node = node.tail


def reference() -> int:
    """Fixed work: build, walk and drop ten 400-node lists."""
    acc = 0
    for _ in range(10):
        node = None
        for i in range(400):
            node = _Node({"v": i}, node)
        acc += sum(n.head["v"] for n in _nodes(node)) + _length(node)
    return acc


def reference_ms() -> float:
    t0 = perf_counter()
    reference()
    return (perf_counter() - t0) * 1000


class HostSpeed:
    """Reference samples taken between operations, and the scale factor
    of an operation from the samples around it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ms: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.ms.append(reference_ms())

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_MS`` over the median reference time near
        ``[start, end]``; call after the sample that follows ``end``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = max(bisect.bisect_right(self.times, end + WINDOW_S), lo + 1)
        return NOMINAL_MS / statistics.median(self.ms[lo:hi])
