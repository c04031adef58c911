"""Initial states and analytic time propagation in the eigenbasis.

Propagation is exact: c(t) = V exp(-i E t) V^T c(0) through the stored
eigendecomposition.  Every requested time is reached in a single step
from the input state (no step-to-step error accumulation).

`V^T c(0)` is one real GEMM over the float64 view of the complex input
(a C-contiguous complex (n, k) array viewed as float64 is a real (n, 2k)
matrix whose columns alternate Re and Im, so a real matrix times it
views back as complex with no copy and no complex promotion of V).  It
reads only the rows where c(0) is nonzero: an initial state occupies one
environment rung, so that product reads a slice of V (a view, not a
copy).  V may be a read-only mapping of a cache entry; nothing here
writes to it.

Two paths then evaluate c(t) = V (exp(-i E t) a), a = V^T c(0):

* Direct: the (n, T) phase matrix exp(-i E t_k) a times V, one GEMM of
  width 2T (4 n^2 T flops).  Single times (`propagate`), grids that are
  not uniform from 0, and grids shorter than NUFFT_MIN_TIMES take it.
* NUFFT: on a uniform grid t_k = k D, k = 0..T-1, the same product is
  c_i(t_k) = sum_j V_ij a_j exp(-i theta_j k) with theta_j = E_j D mod
  2 pi, a type-1 non-uniform FFT of every row (Dutt & Rokhlin 1993).
  Each point theta_j is spread onto a periodic grid of M = 2T points by
  the "exponential of semicircle" kernel phi(z) = exp(beta (sqrt(1 - z^2)
  - 1)) of width W = 16 grid points, beta = 2.30 W (Barnett, Magland &
  af Klinteberg, SIAM J. Sci. Comput. 41, 2019); the mode shift K0 = T//2
  is absorbed into the weights a_j exp(-i theta_j K0) and a twiddle of
  every grid column, so that FFT outputs 0..T-1 are the times in order.
  Eigenvalues are ascending, so the points under a block of G = 32 grid
  columns are one contiguous range of j per 2 pi wrap of E D: the
  spreading is a few real GEMMs per block over column slices of V
  (views of the mapping, no gather), 4 n^2 (G + W) flops in all instead
  of 4 n^2 T.  An in-place FFT along each row and a division by the
  kernel's Fourier transform (Gauss-Legendre quadrature) finish it; the
  result is the transposed view of the grid's first T columns.

Accuracy: with W = 16 and upsampling M/T = 2 the kernel's truncation and
aliasing errors are ~1e-15 relative to sum_j |V_ij a_j|; the deconvolution
amplifies them at most ~8-fold at the band edge.  The NUFFT needs E_j D
only modulo 2 pi, so its phases are no less exact than the direct path's
E_j t_k, which reach ~7.8e3 rad at production t_max (one ulp ~1e-12).  At
production size the two paths agree to < 1e-13 in every amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .model import UniverseBasis, UniverseHamiltonian
from .rng import PHASE_STREAM, SeededRng


@dataclass
class PureState:
    """Complex amplitudes over the zero-order product basis at one time."""

    amplitudes: np.ndarray
    time: float = 0.0

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def initial_state(config: ModelConfig, basis: UniverseBasis, n: int) -> PureState:
    """Equal-weight superposition over the environment rung conserving n + m.

    The system sits in eigenlevel n; the environment occupies every
    quasi-degenerate state of rung m = config.total_energy - n with
    amplitude 1/sqrt(g(m)), real positive unless config.random_initial_phases
    draws random phases from the phase stream of the config's seed.  The
    result is a product state: S_vN of the system is zero.
    """
    if not 0 <= n < basis.n_system_levels:
        raise ValueError(f"system level n={n} outside 0..{basis.n_system_levels - 1}")
    m = config.total_energy - n
    if not 0 <= m < basis.degeneracies.size:
        raise ValueError(
            f"initial condition needs environment rung m={m} for n={n}, "
            f"total energy {config.total_energy}; valid rungs are 0..{basis.degeneracies.size - 1}"
        )
    g = int(basis.degeneracies[m])
    amplitudes = np.zeros(basis.size, dtype=np.complex128)
    start = basis.index_of(n, m, 0)
    amp = 1.0 / np.sqrt(g)
    if not config.random_initial_phases:
        amplitudes[start:start + g] = amp
    else:
        phases = SeededRng(config.rng_seed).split(PHASE_STREAM).split(n)
        theta = 2.0 * np.pi * phases.uniform(size=g)
        amplitudes[start:start + g] = amp * np.exp(1j * theta)
    return PureState(amplitudes=amplitudes, time=0.0)


def _real_times_complex(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real `mat` times complex `z` (2-D) as one real GEMM over the float64 view of z."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return (mat @ z.view(np.float64)).view(np.complex128)


def eigen_coefficients(eigenvectors: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """V^T c as a complex (dim, 1) column, read from the rows where c is nonzero.

    Rows outside the span [lo, hi) of the nonzero amplitudes add only
    zeros, so `V[lo:hi]^T c[lo:hi]` (a slice of V, not a copy) is the
    full product up to summation order.
    """
    nonzero = np.flatnonzero(amplitudes)
    lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
    return _real_times_complex(eigenvectors[lo:hi].T, amplitudes[lo:hi, None])


def propagate(state: PureState, ham: UniverseHamiltonian, t: float) -> PureState:
    """Evolve `state` by time t (negative t runs backward).

    The one-time case of `propagate_to_times`.
    """
    (c,) = propagate_to_times(state, ham, [t])
    return PureState(amplitudes=c, time=state.time + t)


def propagate_to_times(state: PureState, ham: UniverseHamiltonian,
                       times: np.ndarray) -> np.ndarray:
    """Amplitudes at many times from one state, shape (len(times), dim).

    Each time is computed directly from `state` (not chained), so rows
    are independent.  The result is the transposed complex view of one
    (dim, >= len(times)) array: no copy is made, and rows are strided
    (columns of the underlying array are contiguous).  A uniform grid
    from 0 of at least NUFFT_MIN_TIMES times takes the NUFFT path, any
    other the direct product (see the module docstring); the two agree
    to rounding.  Besides the result, the direct path's one large
    temporary is the (dim, len(times)) complex phase matrix; the NUFFT's
    result is the first half of its (dim, 2 len(times)) grid.
    """
    if state.amplitudes.size != ham.dim:
        raise ValueError(
            f"state dimension {state.amplitudes.size} does not match "
            f"Hamiltonian dimension {ham.dim}"
        )
    times = np.asarray(times, dtype=float)
    v, e = ham.eigenvectors, ham.eigenvalues
    a0 = eigen_coefficients(v, state.amplitudes)
    step = _uniform_step(times)
    if step is None:
        phases = np.empty((e.size, times.size), dtype=np.complex128)
        np.multiply.outer(-e, times, out=phases.imag)
        phases.real = 0.0
        np.exp(phases, out=phases)
        phases *= a0
        return _real_times_complex(v, phases).T
    return _nufft_times(v, e, a0[:, 0], step, times.size)


# Uniform grids of at least this many times take the NUFFT.  Measured on
# 2 cores at 2268 and 9180 states, the direct product is faster up to
# T ~ 64, the two tie near 96, and the NUFFT wins from 128 on (its cost
# is nearly flat in T, ~0.45 s at 9180 states for T <= 256).
NUFFT_MIN_TIMES = 96
_KERNEL_WIDTH = 16  # W: grid points under the spreading kernel
_KERNEL_BETA = 2.30 * _KERNEL_WIDTH
_BLOCK = 32  # G: grid columns per spreading GEMM


def _uniform_step(times: np.ndarray) -> float | None:
    """D if `times` is k D, k = 0..T-1 (to rounding), with D > 0 and T >= NUFFT_MIN_TIMES."""
    if times.ndim != 1 or times.size < NUFFT_MIN_TIMES or times[0] != 0.0:
        return None
    step = times[-1] / (times.size - 1)
    if not step > 0.0:
        return None
    off = np.abs(times - step * np.arange(times.size)).max()
    return step if off <= 4.0 * np.spacing(times[-1]) else None


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """exp(beta (sqrt(1 - z^2) - 1)) on |z| < 1, zero elsewhere."""
    inside = np.abs(z) < 1.0
    root = np.sqrt(np.where(inside, 1.0 - z * z, 0.0))
    return np.where(inside, np.exp(_KERNEL_BETA * (root - 1.0)), 0.0)


def _kernel_transform(freq: np.ndarray) -> np.ndarray:
    """Fourier transform of the kernel (in grid units) at `freq` cycles per grid point."""
    half = _KERNEL_WIDTH / 2
    z, w = np.polynomial.legendre.leggauss(4 * _KERNEL_WIDTH)
    return half * (np.cos(2.0 * np.pi * half * np.multiply.outer(freq, z)) @ (w * _es_kernel(z)))


def _nufft_times(v: np.ndarray, e: np.ndarray, a0: np.ndarray, step: float,
                 n_times: int) -> np.ndarray:
    """V (exp(-i E k step) a0) for k = 0..n_times-1 as a (n_times, dim) view, by a type-1 NUFFT."""
    # Imported here: only this path needs it, and the import adds ~40 ms
    # to every process start (measured), such as each `sticks` call.
    import scipy.fft

    if np.any(np.diff(e) < 0.0):
        raise ValueError("the NUFFT path needs ascending eigenvalues")
    m_grid, k0, half = 2 * n_times, n_times // 2, _KERNEL_WIDTH / 2
    # Grid positions of the points, unfolded (ascending) and folded into
    # [0, M): u = wrap M + pos, with pos = theta M / (2 pi).
    u = e * (step * m_grid / (2.0 * np.pi))
    wrap = np.floor(u / m_grid)
    pos = u - wrap * m_grid
    weights = a0 * np.exp(-2j * np.pi / m_grid * np.mod(pos * k0, m_grid))
    twiddle = np.exp(2j * np.pi / m_grid * np.mod(np.arange(m_grid) * k0, m_grid))

    grid = np.empty((v.shape[0], m_grid), dtype=np.complex128)
    real_grid = grid.view(np.float64)
    part = np.empty((v.shape[0], 2 * _BLOCK))
    # A block's window of G + W - 1 columns is shorter than M (>= 2
    # NUFFT_MIN_TIMES), so it can hold point j only shifted by a wrap
    # p in wrap_j - 1 .. wrap_j + 1: the only shifts worth searching,
    # however many empty wraps the points span.
    shifts = np.unique(np.concatenate((wrap - 1.0, wrap, wrap + 1.0)))
    for lo in range(0, m_grid, _BLOCK):
        hi = min(lo + _BLOCK, m_grid)
        out = real_grid[:, 2 * lo:2 * hi]
        # Points within half a kernel of columns lo..hi-1, shifted by p wraps
        # (u - p M), form one contiguous range of j for each p.
        first, last = lo - half, hi - 1 + half
        starts = np.searchsorted(u, first + shifts * m_grid, "right")
        ends = np.searchsorted(u, last + shifts * m_grid, "left")
        hit = starts < ends
        filled = False
        for p, j0, j1 in zip(shifts[hit], starts[hit], ends[hit]):
            offset = (np.arange(lo, hi) - m_grid * (wrap[j0:j1, None] - p)) - pos[j0:j1, None]
            spread = _es_kernel(offset / half) * weights[j0:j1, None] * twiddle[lo:hi]
            if not filled:
                np.matmul(v[:, j0:j1], spread.view(np.float64), out=out)
                filled = True
            else:
                out += np.matmul(v[:, j0:j1], spread.view(np.float64), out=part[:, :out.shape[1]])
        if not filled:
            out[...] = 0.0
    grid = scipy.fft.fft(grid, axis=1, overwrite_x=True)  # in place for a complex C array
    grid[:, :n_times] /= _kernel_transform((np.arange(n_times) - k0) / m_grid)
    return grid[:, :n_times].T
