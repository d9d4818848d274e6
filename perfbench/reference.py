"""Fixed reference kernels, timed in bursts between the operations of a run.

On a shared host the speed one process gets swings with the other tenants'
load, and a slow stretch can last a whole run: five runs of ``recall`` in a
row have given retrieve medians from 4.5 to 8.7 ms. A reference kernel
measures that speed. The kernels are fixed code of this benchmark and call
nothing of amem, so no change to amem can speed them up. A run times them
in short bursts between its operations, for about a tenth of their time,
and the latency metrics divide each operation's median by the median of
one kernel: latency in units of that kernel, on the host as it was during
that run.

There are two kernels, because the host's swings hit memory-bound and
interpreter-bound code differently. Each operation is divided by the
kernel whose time moves with its own from run to run:

- ``scan`` is memory-bound, like a retrieve or an add: float32 rows
  widened to float64, a matrix-vector product and a top-10 partition, over
  more data than a core's L2 cache holds.
- ``python`` is interpreter-bound, like an open or a snapshot: keyed
  blake2b hashes of short tokens, as the hash encoder makes, and the
  canonical JSON of a note-sized dict, as the journal and snapshot write.

The first runs of a burst are slower while a kernel's data come back into
the caches the operation has just used, so only the last runs of each
burst are samples.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Callable

import numpy as np

ROWS = 4096
DIMENSION = 384
TOKENS = 6400
TOKENS_PER_RUN = 256
BURST = 6
WARM_RUNS = 2
# Time of both kernels kept up with, as a share of the operations' time.
SHARE = 0.1


class Reference:
    """The kernels, their samples, and the pacing that interleaves them."""

    def __init__(self) -> None:
        self._kernels: dict[str, Callable[[], None]] = {
            "scan": self._scan,
            "python": self._python,
        }
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((ROWS, DIMENSION)).astype(np.float32)
        self._wide = np.empty((ROWS, DIMENSION))
        self._query = rng.standard_normal(DIMENSION)
        self._scores = np.empty(ROWS)
        self._tokens = [f"token-{i}" for i in range(TOKENS)]
        self._next = 0
        self.restart()

    def restart(self) -> None:
        """Drop the samples and start the pacing afresh."""
        self._op_s = 0.0
        self._kernel_s = 0.0
        self.samples: dict[str, list[float]] = {name: [] for name in self._kernels}

    def _scan(self) -> None:
        np.copyto(self._wide, self._rows)
        np.matmul(self._wide, self._query, out=self._scores)
        top = np.argpartition(-self._scores, 9)[:10]
        sorted((float(self._scores[i]), int(i)) for i in top)

    def _python(self) -> None:
        tokens = self._tokens[self._next : self._next + TOKENS_PER_RUN]
        self._next = (self._next + TOKENS_PER_RUN) % (TOKENS - TOKENS_PER_RUN)
        keys = {
            token: int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "little")
            for token in tokens
        }
        note = {"content": " ".join(tokens), "keywords": sorted(keys), "links": keys}
        json.dumps(note, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    def keep_up(self, op_s: float) -> None:
        """Count op_s of operation time, then run a burst of each kernel
        until they have had their share of the time so far."""
        self._op_s += op_s
        while self._kernel_s < SHARE * self._op_s:
            for name, kernel in self._kernels.items():
                for i in range(BURST):
                    start = perf_counter()
                    kernel()
                    elapsed = perf_counter() - start
                    self._kernel_s += elapsed
                    if i >= WARM_RUNS:
                        self.samples[name].append(elapsed)
