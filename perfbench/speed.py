"""Reference loop that tracks how fast the machine is running right now.

The benchmark was written on a shared virtual machine whose speed drifts:
the same pure-Python loop took anywhere from 72 to 148 ms per call, in
phases of seconds and trends over minutes.  Op times are therefore
scaled by the speed of this loop, measured between consecutive ops:

    reported = measured * REFERENCE_S / (mean of the probes around the op)

so a reported second is a second at the speed where the probe takes
REFERENCE_S.  Ops of several seconds span several speed phases, so
`sampling` also runs the probe from a timer signal every PERIOD_S while
an op runs; those probe times join the mean and are taken out of the
op's time.  The probe is breadth-first search over a fixed grid graph
with tuple keys and dict lookups, the same kind of interpreter work that
dominates katsphere, and it touches no katsphere code, so no change to
the program can move it.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from contextlib import contextmanager

REFERENCE_S = 0.05   # probe time at the machine speed reports refer to
PERIOD_S = 2.0
_SIDE = 50
_STARTS = 12


class SpeedProbe:
    def __init__(self):
        n = _SIDE * _SIDE
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for i in range(_SIDE):
            for j in range(_SIDE):
                v = i * _SIDE + j
                for di, dj in ((0, 1), (1, 0), (1, 1)):
                    if i + di < _SIDE and j + dj < _SIDE:
                        u = (i + di) * _SIDE + j + dj
                        self.adj[v].append(u)
                        self.adj[u].append(v)

    def _walk(self) -> int:
        reached = 0
        for start in range(_STARTS):
            depth = {start: 0}
            edges = set()
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for u in self.adj[v]:
                    edges.add((u, v) if u < v else (v, u))
                    if u not in depth:
                        depth[u] = depth[v] + 1
                        queue.append(u)
            reached += len(depth) + len(edges)
        return reached

    def seconds(self) -> float:
        """Time of one probe."""
        t0 = time.perf_counter()
        self._walk()
        return time.perf_counter() - t0

    @contextmanager
    def sampling(self, times: list[float]):
        """Append a probe time to `times` every PERIOD_S inside the block."""
        def handler(signum, frame):
            times.append(self.seconds())

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield times
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
