"""Host-speed calibration: a reference kernel sampled while a worker runs.

On a shared host, neighbouring load slows identical work up to twofold,
in phases of seconds to minutes, and one phase can cover a whole run,
so neither a median nor a minimum over a run's passes holds still from
run to run.  The worker therefore runs a small fixed reference
kernel from a timer signal every ``INTERVAL_S``, interleaved with the
workload, and the runner rescales each phase of a pass by
``NOMINAL_S / median kernel time in that phase``.  Reported times read
as if the host ran the kernel in its ``NOMINAL_S``: a change to homprod
moves them as much as it moves the raw times, a change in host load far
less.

There are two kernels.  Set-up phases are calibrated by ``gf2``, and
each workload's timed phase by the one that resembles its work
(``workloads.KERNELS``); running only that one keeps the other's cache
footprint out of the workload's timings:

* ``gf2``: row reduction of a fixed 32 x 64 bit matrix with numpy row
  operations driven from Python, and a few small integer products; the
  mix of interpreter work and small numpy calls of the decoder and the
  preimage search.  On the host the benchmark was tuned on, its time
  tracked those workloads' slowdowns (2x in one phase) where a
  pure-Python loop or a memory copy moved only 1.2-1.4x.
* ``stream``: a copy and a sum of a 4 MiB array; the large dense
  products and tables of ``table1`` and ``rounds241``, whose raw times
  the ``gf2`` kernel followed less well than no calibration at all.

Both are written here, independent of homprod, and neither uses anything the
program can configure: no BLAS (integer products are numpy's own loops),
no threads.  Time spent in the handler is taken out of every interval
the worker measures.  A set-up phase is short and gets few timer
samples, so the worker adds ``EXTRA_SAMPLES`` back to back at its end.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
EXTRA_SAMPLES = 10
# kernel times of a calm 2-vCPU Xeon host (the one the benchmark was
# tuned on), so that calibrated times stay close to raw ones there
NOMINAL_S = {"gf2": 4.5e-4, "stream": 1.25e-3}


def _gf2(bits: np.ndarray, ints: np.ndarray) -> int:
    """Rank of `bits` over GF(2), then a few products of `ints` mod 2."""
    m = bits.copy()
    rank = 0
    for col in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        pivots = np.flatnonzero(m[rank:, col])
        if pivots.size == 0:
            continue
        p = rank + int(pivots[0])
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
        rows = np.flatnonzero(m[:, col])
        m[rows[rows != rank]] ^= m[rank]
        rank += 1
    for _ in range(3):
        (ints @ ints) & 1
    return rank


def _stream(src: np.ndarray, dst: np.ndarray) -> float:
    np.copyto(dst, src)
    return float(dst.sum())


def _gf2_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    return (rng.integers(0, 2, size=(32, 64), dtype=np.uint8),
            rng.integers(0, 2, size=(24, 24), dtype=np.int64))


def _stream_inputs() -> tuple[np.ndarray, np.ndarray]:
    src = np.ones(1 << 19)
    return src, np.empty_like(src)


KERNELS = {"gf2": (_gf2, _gf2_inputs), "stream": (_stream, _stream_inputs)}
# set-up is imports and code construction: interpreter work and small numpy calls
SETUP_KERNEL = "gf2"


class Sampler:
    """Runs one reference kernel on SIGALRM and keeps its times."""

    def __init__(self, kernel: str) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds inside the handler
        self.spent_cpu = 0.0  # process CPU seconds inside the handler
        self.use(kernel)

    def use(self, kernel: str) -> None:
        """Sample `kernel` from now on."""
        run, make_inputs = KERNELS[kernel]
        self._job = (run, make_inputs())  # one assignment, so a signal never sees half of it

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _handler(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time the kernel once; its time also counts as spent."""
        c0, t0 = time.process_time(), time.perf_counter()
        run, inputs = self._job
        run(*inputs)
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0


def factor(samples: list[float], kernel: str) -> float:
    """Scale that turns times measured alongside `samples` of `kernel` into nominal-host times."""
    return NOMINAL_S[kernel] / statistics.median(samples)
