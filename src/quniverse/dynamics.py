"""Initial states and analytic time propagation in the eigenbasis.

Propagation is exact: c(t) = V exp(-i E t) V^T c(0) through the stored
eigendecomposition.  Every requested time is reached in a single step
from the input state (no step-to-step error accumulation).

A whole time grid costs one real GEMM per state.  A C-contiguous
complex (n, T) array viewed as float64 is a real (n, 2T) matrix whose
columns alternate Re and Im; the real V times that matrix keeps the
columns interleaved, so the product views back as complex with no
copy, no recombination and no complex promotion of V.  `V^T c(0)` uses
the same view at width 2 over the rows where c(0) is nonzero: an initial
state occupies one environment rung, so that product reads a slice of
V (a view, not a copy) and the GEMM is the one full pass over V.  V may
be a read-only mapping of a cache entry; nothing here writes to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import UniverseBasis, UniverseHamiltonian
from .rng import PHASE_STREAM, SeededRng


@dataclass
class PureState:
    """Complex amplitudes over the zero-order product basis at one time."""

    amplitudes: np.ndarray
    time: float = 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def initial_state(basis: UniverseBasis, n: int, total_energy: int,
                  phase_rng: SeededRng | None = None) -> PureState:
    """Equal-weight superposition over the environment rung conserving n + m.

    The system sits in eigenlevel n; the environment occupies every
    quasi-degenerate state of rung m = total_energy - n with amplitude
    1/sqrt(g(m)) (real positive unless `phase_rng` supplies random
    phases).  The result is a product state: S_vN of the system is zero.
    """
    if not 0 <= n < basis.n_system_levels:
        raise ValueError(f"system level n={n} outside 0..{basis.n_system_levels - 1}")
    m = total_energy - n
    if not 0 <= m < basis.degeneracies.size:
        raise ValueError(
            f"initial condition needs environment rung m={m} for n={n}, "
            f"total energy {total_energy}; valid rungs are 0..{basis.degeneracies.size - 1}"
        )
    g = int(basis.degeneracies[m])
    amplitudes = np.zeros(basis.size, dtype=np.complex128)
    start = basis.index_of(n, m, 0)
    amp = 1.0 / np.sqrt(g)
    if phase_rng is None:
        amplitudes[start:start + g] = amp
    else:
        theta = 2.0 * np.pi * phase_rng.split(PHASE_STREAM).split(n).uniform(size=g)
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
    (dim, 2 len(times)) GEMM output: no copy is made, and rows are
    strided (columns of the underlying array are contiguous).  Besides
    the result, the only large temporary is the (dim, len(times))
    complex array of phased coefficients exp(-i E t) V^T c(0).
    """
    if state.amplitudes.size != ham.dim:
        raise ValueError(
            f"state dimension {state.amplitudes.size} does not match "
            f"Hamiltonian dimension {ham.dim}"
        )
    times = np.asarray(times, dtype=float)
    v, e = ham.eigenvectors, ham.eigenvalues
    a0 = eigen_coefficients(v, state.amplitudes)
    phases = np.empty((e.size, times.size), dtype=np.complex128)
    np.multiply.outer(-e, times, out=phases.imag)
    phases.real = 0.0
    np.exp(phases, out=phases)
    phases *= a0
    return _real_times_complex(v, phases).T


def time_grid(t_max: float, n_points: int) -> np.ndarray:
    """Uniform grid of reduced times from 0 to t_max inclusive."""
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if n_points < 1:
        raise ValueError("n_points must be a positive integer")
    if n_points == 1:
        warnings.warn("time grid with a single point is degenerate", stacklevel=2)
        return np.zeros(1)
    return np.linspace(0.0, t_max, n_points)
