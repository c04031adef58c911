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
  2^53).  The argument is never 0, and is 1 (x = +inf) only for the
  largest words, where raw >> 11 + 0.5 rounds up to 2^53: once in 2^53
  draws.  Such a draw raises ValueError naming the seed, the stream and
  the word, before it can reach a Hamiltonian and its solve.  sigma = 0
  still consumes a word and returns the mean exactly.

The inverse CDF is cephes ``ndtri`` (S. L. Moshier, *Methods and Programs
for Mathematical Functions*, 1989), the function behind
``scipy.special.ndtri``.  Two kernels evaluate it, chosen by a call's
word count alone:

* ``_ndtri``, a numpy port, for calls below LARGE_CALL_WORDS words.  It
  runs cephes' operations in cephes' order, each one correctly rounded
  (numpy's +, -, *, / and sqrt), and takes the tail branch's two logs
  from libm (``math.log``), as the compiled cephes does: numpy's SIMD
  ``np.log`` differs from libm in the last bit on some inputs.  So it
  gives scipy's bytes, at ~100-200 ns per draw (2.1 GHz cores), and
  needs no scipy import.
* ``scipy.special.ndtri`` (~20 ns per draw) for larger calls, imported
  there: only the full fill of H on a cache miss makes such calls.

Both are checked against each other bit for bit on 10^7 draws and on
both extreme tails (tests/test_rng.py).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Philox, SeedSequence

DRAW_CONTRACT_VERSION = 1

# Stream ids reserved by the contract above.
SHIFT_STREAM = 0
COUPLING_STREAM = 1
PHASE_STREAM = 2

# Calls of at least this many words take scipy's ndtri, smaller ones the port.
LARGE_CALL_WORDS = 2 ** 18

_U64_11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53

# cephes ndtri.  Middle branch, |y - 1/2| <= 3/8 (y > exp(-2) from either end):
# x = sqrt(2 pi) (y' + y' y'^2 P0(y'^2) / Q0(y'^2)), y' = y - 1/2.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# Tails, z = sqrt(-2 log y) in [2, 8) and in [8, 64): x = z - log(z)/z - P(1/z)/(z Q(1/z)).
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """cephes polevl: coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """cephes p1evl: polevl with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    """math.log of every element of the contiguous array x."""
    return np.fromiter(map(math.log, memoryview(x)), float, x.size)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """cephes ndtri of every y in [0, 1], with scipy.special.ndtri's bytes."""
    x = np.empty_like(y)
    upper = y > 1.0 - _EXP_M2
    folded = np.where(upper, 1.0 - y, y)
    middle = folded > _EXP_M2
    ym = folded[middle] - 0.5
    y2 = ym * ym
    x[middle] = (ym + ym * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    # cephes' special cases y = 0 and y = 1 (the largest word): -inf and +inf
    edge = folded == 0.0
    x[edge] = np.where(upper[edge], np.inf, -np.inf)
    tail = ~middle & ~edge
    z = np.sqrt(-2.0 * _libm_log(folded[tail]))
    log_z = _libm_log(z)
    inv = 1.0 / z
    near = z < 8.0
    series = np.empty_like(z)
    series[near] = inv[near] * _polevl(inv[near], _P1) / _p1evl(inv[near], _Q1)
    series[~near] = inv[~near] * _polevl(inv[~near], _P2) / _p1evl(inv[~near], _Q2)
    x_tail = (z - log_z / z) - series
    x[tail] = np.where(upper[tail], x_tail, -x_tail)
    return x


class SeededRng:
    """Counter-based Gaussian/uniform stream, splittable into independent substreams."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self._seed = int(seed)
        self._spawn_key = _spawn_key
        self._bitgen = Philox(SeedSequence(entropy=self._seed, spawn_key=_spawn_key))
        self._position = 0

    def split(self, stream_id: int) -> "SeededRng":
        """Fresh independent substream; same (seed, stream_id) always yields the same sequence."""
        return SeededRng(self._seed, self._spawn_key + (int(stream_id),))

    def _raw(self, n: int) -> np.ndarray:
        self._position += n
        return self._bitgen.random_raw(n)

    def uniform(self, size: int) -> np.ndarray:
        """`size` uniform variates on the open interval (0, 1)."""
        return ((self._raw(int(size)) >> _U64_11).astype(np.float64) + 0.5) * _INV_2_53

    def standard_normal(self, size: int) -> np.ndarray:
        """`size` standard normal variates; the kernel follows the word count (module docstring).

        Raises ValueError if a variate is infinite (the largest words), so
        that no infinite draw reaches a Hamiltonian.
        """
        u = self.uniform(size)
        if u.size < LARGE_CALL_WORDS:
            x = _ndtri(u)
        else:
            from scipy.special import ndtri
            x = ndtri(u)
        infinite = np.flatnonzero(np.isinf(x))
        if infinite.size:
            word = self._position - u.size + int(infinite[0])
            raise ValueError(
                f"seed {self._seed}, spawn key {self._spawn_key}: word {word} gives an "
                f"infinite normal variate")
        return x

    def gaussian(self, mean: float, sigma: float, size: int) -> np.ndarray:
        """`size` Gaussian variates; always advances the stream, even for sigma = 0."""
        x = self.standard_normal(size)
        return mean + sigma * x
