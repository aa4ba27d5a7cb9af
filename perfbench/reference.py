"""A fixed computation that gauges how fast the machine runs at the moment.

The machine the benchmark was tuned on (2 vCPUs of a shared Intel Xeon host,
2.1 GHz) runs the same code at two speeds 1.5-1.7x apart, and stays at one
of them for up to minutes: a 30-second run can fall wholly in the slow one.
The harness runs :meth:`Reference.seconds` between jobs and multiplies each
command's time by ``NOMINAL_S`` over the round's median gauge, so a
throughput reads as if the machine had run at its faster speed throughout.

The reference does no folmi work, so a change to folmi cannot move it.  It
mixes the kinds of work the workloads do: interpreted Python loops (the
per-realization certify sweep and the Newton steps on small LMIs), many
numpy calls on 6 x 6 matrices, dense factorizations of 110 x 110 blocks
(the large-plant barrier solves) and a vector-matrix product streaming a
20000 x 6 history (the GL tail of a long simulation).
"""

from time import perf_counter

import numpy as np

# Seconds of one pass on the machine above at its faster speed.
NOMINAL_S = 0.005
# Passes per gauge; the fastest counts, which drops an interrupted pass.
PASSES = 3

_PY_ITERATIONS = 12000
_SMALL_CALLS = 60
_DENSE_CALLS = 6
_STREAM_CALLS = 12


class Reference:
    """Inputs of the reference computation, built once from a fixed seed."""

    def __init__(self):
        rng = np.random.RandomState(20181027)
        self.small = rng.normal(size=(6, 6))
        g = rng.normal(size=(110, 110))
        self.spd = g @ g.T + 110.0 * np.eye(110)
        self.rhs = rng.normal(size=(110, 8))
        self.weights = rng.uniform(-1.0, 1.0, 20001)
        self.history = rng.normal(size=(20001, 6))

    def _pass(self):
        total = 0.0
        row = [0.0] * 8
        for i in range(_PY_ITERATIONS):
            row[i & 7] += i * 0.5
            total += row[(i + 3) & 7]
        for _ in range(_SMALL_CALLS):
            total += float(np.linalg.eigvals(self.small)[0].real)
        for _ in range(_DENSE_CALLS):
            chol = np.linalg.cholesky(self.spd)
            total += float(np.linalg.solve(chol, self.rhs)[0, 0])
        for _ in range(_STREAM_CALLS):
            total += float((self.weights[1:] @ self.history[-2::-1])[0])
        return total

    def seconds(self):
        """Wall seconds of the fastest of ``PASSES`` passes."""
        best = float("inf")
        for _ in range(PASSES):
            start = perf_counter()
            self._pass()
            best = min(best, perf_counter() - start)
        return best
