"""Deterministic Gaussian variate service with a frozen draw-order contract.

Every random number in a model realization comes from a ``SeededRng``
built from the 64-bit seed in the configuration.  Reproducibility is a
hard contract, pinned by golden-value tests:

* Bit generator: Philox (counter based), keyed through
  ``numpy.random.SeedSequence(seed, spawn_key=(stream,))``.  Substreams
  derived by :meth:`SeededRng.split` are statistically independent and
  do not shift when other substreams consume more or fewer draws.
* Stream assignment (DRAW_CONTRACT_VERSION 1):
  stream 0 -- environment level shifts X(m, l), rung-major
  (m ascending, l ascending within each rung);
  stream 1 -- interaction couplings, strictly upper triangle of the
  universe Hamiltonian in row-major order;
  stream 2 -- optional random initial-state phases, rung order.
* One variate consumes exactly one 64-bit Philox word.  A standard
  normal is produced by the inverse CDF: x = ndtri((raw >> 11 + 0.5) /
  2^53), which never hits the endpoints 0 or 1, so every variate is
  finite.  sigma = 0 still consumes a word and returns the mean exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

DRAW_CONTRACT_VERSION = 1

# Stream ids reserved by the contract above.
SHIFT_STREAM = 0
COUPLING_STREAM = 1
PHASE_STREAM = 2

_U64_11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53


class SeededRng:
    """Counter-based Gaussian/uniform stream, splittable into independent substreams."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self._seed = int(seed)
        self._spawn_key = _spawn_key
        self._bitgen = np.random.Philox(
            np.random.SeedSequence(entropy=self._seed, spawn_key=_spawn_key)
        )
        self._position = 0

    @property
    def position(self) -> int:
        """Number of 64-bit words consumed so far."""
        return self._position

    def split(self, stream_id: int) -> "SeededRng":
        """Fresh independent substream; same (seed, stream_id) always yields the same sequence."""
        return SeededRng(self._seed, self._spawn_key + (int(stream_id),))

    def _raw(self, n: int) -> np.ndarray:
        self._position += n
        return self._bitgen.random_raw(n)

    def uniform(self, size: int | None = None):
        """Uniform variates on the open interval (0, 1)."""
        n = 1 if size is None else int(size)
        u = ((self._raw(n) >> _U64_11).astype(np.float64) + 0.5) * _INV_2_53
        return float(u[0]) if size is None else u

    def standard_normal(self, size: int | None = None):
        n = 1 if size is None else int(size)
        x = ndtri(((self._raw(n) >> _U64_11).astype(np.float64) + 0.5) * _INV_2_53)
        return float(x[0]) if size is None else x

    def gaussian(self, mean: float, sigma: float, size: int | None = None):
        """Gaussian variate(s); always advances the stream, even for sigma = 0."""
        if sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        x = self.standard_normal(size)
        return mean + sigma * x
