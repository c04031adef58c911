"""Initial states and analytic time propagation in the eigenbasis.

A state is its complex (dim,) amplitude array over the zero-order product
basis: `initial_state` builds one from the config alone, and `propagate`
returns the amplitudes of one state at one time.

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

`propagate_blocks` evaluates c(t) = V (exp(-i E t) a), a = V^T c(0), for
several states at once, one row block of V at a time.  A row block is
one range [e0, e1) of environment states taken in every system level,
so that it holds every amplitude the reduced density matrix sums at a
fixed system pair: a consumer can reduce each block to its observables
and drop it.  The block height depends on the universe alone
(`env_block_size`), so a state's bytes never depend on which other
states share the pass.  Two kernels fill a block:

* Direct: per state, the (n, T) phase matrix Z = exp(-i E t_k) a, its
  float64 view transposed to a contiguous (2T, n) matrix Z^T, times
  V^T's columns of one system level: one GEMM of height 2T per state and
  system level (4 n^2 T flops per state in all).  V is stored
  column-major, as LAPACK returns it, so V^T is row-major and each
  product reads its level's rows of V in storage order, with V as the
  right operand (one time at 9180 states: 50-65 ms on two workers; the
  same flops with V as the left operand, 72 products over 128 strided
  rows, took 180-215 ms).  Rows 2i and 2i + 1 of a product are the real
  and imaginary parts of the level's amplitudes at times[i].  Every
  state's (T, n) amplitudes are held (as many values as the states'
  phase matrices), and each row block is gathered from them.  Single times
  (`propagate`), grids that are not uniform from 0, and grids shorter
  than NUFFT_MIN_TIMES take it; they are short, so this costs k n T
  complex values, where the NUFFT never builds a grid over all rows.
* NUFFT: on a uniform grid t_k = k D, k = 0..T-1, the same product is
  c_i(t_k) = sum_j V_ij a_j exp(-i theta_j k) with theta_j = E_j D mod
  2 pi, a type-1 non-uniform FFT of every row (Dutt & Rokhlin 1993).
  A real initial state has real weights a (V^T c(0) has imaginary part
  0.0), so each point theta_j is spread onto a periodic real grid of
  N = 4T points by the "exponential of semicircle" kernel phi(z) =
  exp(beta (sqrt(1 - z^2) - 1)) of width W = 16 grid points, beta = 2.30 W
  (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41, 2019).  The
  times are the grid's Fourier modes 0..T-1, within N/4 of mode 0, where
  the kernel's transform is accurate, so no mode shift is needed.  A
  state with complex weights (random initial phases) takes two real
  weight columns, Re a and Im a, and its modes are X_re + i X_im: twice
  the spreading, plan, plane and rfft of a real state, in the same
  yielded block.  Eigenvalues are
  ascending, so the points under a block of G = 16 grid points are one
  contiguous range of j per 2 pi wrap of E D, cut into pieces of at most
  _K_PANEL points.  The kernel and the block layout are the same for
  every column; only the weights differ.  So each (grid block, piece) is
  one real GEMM per system level: the level's rows of V (a view of the
  mapping, no gather) times every column's spreading matrix side by side
  (G columns each).  No product sums over more than one OpenBLAS K-panel,
  which keeps a column's share of it the bytes of that column's product
  alone (see _K_PANEL).  That is 2 n^2 (G + W) flops per real state, and
  all states together read V about twice per run; the spreading matrices
  hold n (G + W - 1) doubles per column, 13.7 MB for six production
  states.  A row block is made one system level at a time.  Each of the
  level's products is copied into one real (columns, 4T, rows) plane,
  and `np.fft.rfft` transforms each column's 4T-point grid of each row;
  its first T modes, divided by the kernel's Fourier transform
  (Gauss-Legendre quadrature), are written into the level's columns of
  the block that is yielded.
  At production size the block of six states holds 44.2 MB and the plane
  14.7 MB (29.5 MB for six random-phase states).

Threads: both kernels and the observables split their work into shares
run by `blas.run_shares`, which owns the pass's threads and the split.

Accuracy: with W = 16 and modes within N/4 of mode 0 (upsampling 2 for
a band of 2T modes) the kernel's truncation and aliasing errors are
~1e-15 relative to sum_j |V_ij a_j|; the deconvolution amplifies them at
most ~8-fold at the band edge.  The NUFFT needs E_j D only modulo 2 pi,
so its phases are no less exact than the direct path's E_j t_k, which
reach ~7.8e3 rad at production t_max (one ulp ~1e-12).  At production
size the two paths agree to < 1e-13 in every amplitude.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .blas import gemm_threads, run_shares
from .config import ModelConfig
from .model import UniverseHamiltonian, stage
from .rng import PHASE_STREAM, SeededRng


def initial_state(config: ModelConfig, n: int) -> np.ndarray:
    """Equal-weight superposition over the environment rung conserving n + m.

    The system sits in eigenlevel n; the environment occupies every
    quasi-degenerate state of rung m = config.total_energy - n with
    amplitude 1/sqrt(g(m)), real positive unless config.random_initial_phases
    draws random phases from the phase stream of the config's seed.  The
    result is a product state (S_vN of the system is zero), as complex
    amplitudes over the flat basis of `model.build_basis`: the rung's
    states are the indices n N_E + sum_{m' < m} g(m') + l, l = 0..g(m)-1.
    """
    ns, degs = config.n_system_levels, config.degeneracies()
    if not 0 <= n < ns:
        raise ValueError(f"system level n={n} outside 0..{ns - 1}")
    m = config.total_energy - n
    if not 0 <= m < len(degs):
        raise ValueError(
            f"initial condition needs environment rung m={m} for n={n}, "
            f"total energy {config.total_energy}; valid rungs are 0..{len(degs) - 1}"
        )
    g = degs[m]
    amplitudes = np.zeros(config.n_universe_states, dtype=np.complex128)
    start = n * config.n_env_states + sum(degs[:m])
    amp = 1.0 / np.sqrt(g)
    if not config.random_initial_phases:
        amplitudes[start:start + g] = amp
    else:
        phases = SeededRng(config.rng_seed).split(PHASE_STREAM).split(n)
        theta = 2.0 * np.pi * phases.uniform(size=g)
        amplitudes[start:start + g] = amp * np.exp(1j * theta)
    return amplitudes


def _eigen_coefficients(eigenvectors: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """V^T c as a complex (dim, 1) column, read from the rows where c is nonzero.

    Rows outside the span [lo, hi) of the nonzero amplitudes add only
    zeros, so `V[lo:hi]^T c[lo:hi]` (a slice of V, not a copy) is the
    full product up to summation order.  It is one real GEMM over the
    float64 view of c.
    """
    nonzero = np.flatnonzero(amplitudes)
    lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
    c = np.ascontiguousarray(amplitudes[lo:hi, None], dtype=np.complex128)
    return (eigenvectors[lo:hi].T @ c.view(np.float64)).view(np.complex128)


def propagate(amplitudes: np.ndarray, ham: UniverseHamiltonian, t: float) -> np.ndarray:
    """The amplitudes of one state evolved by time t (negative t runs backward).

    The one-state, one-time case of `propagate_blocks`.
    """
    out = np.empty(ham.dim, dtype=np.complex128)
    for rows, c in propagate_blocks(amplitudes[None], ham, [t]):
        out[rows] = c[0, 0]
    return out


def env_block_size(n_system_levels: int, n_env_states: int) -> int:
    """Environment states per row block of `propagate_blocks`.

    A block of n_system_levels states' amplitudes then holds at most
    about half of one state's amplitudes over all rows (128 of 1530
    environment states at production size).  It depends on the universe
    alone, never on how many states share a pass: the block layout fixes
    every summation order over rows.
    """
    return max(1, math.ceil(n_env_states / (2 * n_system_levels)))


def pass_bytes(config: ModelConfig, n_states: int, n_times: int) -> int:
    """Bytes that `propagate_blocks` allocates for k of the config's initial states on a
    uniform grid of T times from 0, with V's n² doubles (which a cache hit maps).

    Both kernels hold Vᵀc(0) (k n complex values) and the block that they
    yield (k T N_S eb complex values, eb = `env_block_size`).  From
    NUFFT_MIN_TIMES times on, the NUFFT adds one system level's plane
    (columns 4T eb doubles; a column per state, two with random initial
    phases), the spreading plan and its weights (at most 2G + (4T mod G)
    + 1 doubles per eigenpair and column: a point lies under at most two
    grid blocks, or three where the last block is short), and per share
    the spreading's products (2 eb G columns doubles) and the rfft's
    output (at most max(_FFT_VALUES, 2T + 1) complex values).  Shares are
    counted as k, the most that the transform makes; a pass on more
    workers than states holds one more product per further worker.  Below
    NUFFT_MIN_TIMES, the direct product adds every state's amplitudes on
    every row, one phase matrix and its transposed float64 copy, and its
    level products (2T N_E doubles each, at most N_S at once).  Nothing
    depends on the machine.  At production size, 6 real states and
    T = 600: 0.77 GB, of which V is 0.67 GB; the block and the plane hold
    98.3 kB per time.
    """
    ns, ne = config.n_system_levels, config.n_env_states
    n, eb = ns * ne, env_block_size(ns, ne)
    values = n_states * (n + n_times * ns * eb)
    if n_times < NUFFT_MIN_TIMES:
        values += (n_states + 3) * n_times * n
        return 16 * values + 8 * n * n
    columns = n_states * (2 if config.random_initial_phases else 1)
    values += n_states * (eb * _BLOCK * columns + max(_FFT_VALUES, 2 * n_times + 1))
    doubles = columns * 4 * n_times * eb + n * columns * (2 * _BLOCK + (4 * n_times) % _BLOCK + 1)
    return 16 * values + 8 * doubles + 8 * n * n


def propagate_blocks(amplitudes: np.ndarray, ham: UniverseHamiltonian,
                     times) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The amplitudes of k states at every time, one row block at a time.

    `amplitudes` holds the k initial states as rows, shape (k, dim).
    Each block is the environment states e0..e1-1 taken in every system
    level, in ascending e0, so the blocks cover every row once.  Each
    yields `(rows, c)`: `rows` are the block's basis indices (system-major)
    and c[s, i, r] is the amplitude of state s at times[i] on basis index
    rows[r], shape (k, len(times), len(rows)).  Each time is computed
    directly from the initial state (not chained).  c is a view of a
    buffer that the next block overwrites, contiguous along its rows.

    A uniform grid from 0 of at least NUFFT_MIN_TIMES times takes the
    NUFFT kernel, any other the direct product (see the module docstring);
    the two agree to rounding.  A state's values depend on that state
    alone, not on the others in the pass.  Vᵀc(0), made in this call,
    and each block's work, made as it is asked for, are `model.stage`s
    named "propagate".
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.ndim != 2 or amplitudes.shape[1] != ham.dim:
        raise ValueError(
            f"state dimension {amplitudes.shape[-1]} does not match "
            f"Hamiltonian dimension {ham.dim}"
        )
    times = np.asarray(times, dtype=float)
    v, e = ham.eigenvectors, ham.eigenvalues
    # On one thread, as every product of the pass: a threaded product here
    # would leave OpenBLAS's idle threads spinning on the workers' cores.
    with stage("propagate"), gemm_threads(1):
        a = np.hstack([_eigen_coefficients(v, c) for c in amplitudes])
    ns, ne = ham.config.n_system_levels, ham.config.n_env_states
    eb = env_block_size(ns, ne)
    ranges = [(e0, min(e0 + eb, ne)) for e0 in range(0, ne, eb)]
    step = _uniform_step(times)
    if step is None:
        return _direct_blocks(v, e, a, times, ns, ranges)
    return _nufft_blocks(v, e, a, step, times.size, ns, ranges)


def _block_rows(ns: int, ne: int, e0: int, e1: int) -> np.ndarray:
    """Basis indices of environment states e0..e1-1 in every system level, system-major."""
    return (np.arange(ns)[:, None] * ne + np.arange(e0, e1)).ravel()


def _direct_blocks(v, e, a, times, ns, ranges):
    """Row blocks of V (exp(-i E t) a): per state, one GEMM of height 2T per system level."""
    k, n_times, n = a.shape[1], times.size, e.size
    ne = n // ns
    amplitudes = np.empty((k, n_times, n), dtype=np.complex128)
    phases = np.empty((n, n_times), dtype=np.complex128)
    phases_t = np.empty((2 * n_times, n))

    def multiply(levels, s):
        """One share of state s's system levels; product rows 2i, 2i + 1 are Re, Im at times[i]."""
        product = np.empty((2 * n_times, ne))
        for level in range(ns)[levels]:
            cols = slice(level * ne, (level + 1) * ne)
            np.matmul(phases_t, v.T[:, cols], out=product)
            np.copyto(amplitudes[s, :, cols].view(np.float64).reshape(n_times, ne, 2),
                      product.reshape(n_times, 2, ne).transpose(0, 2, 1))

    with stage("propagate"):
        for s in range(k):
            phases.imag = np.multiply.outer(-e, times)
            phases.real = 0.0
            np.exp(phases, out=phases)
            phases *= a[:, s, None]
            np.copyto(phases_t, phases.view(np.float64).T)
            run_shares(lambda levels: multiply(levels, s), ns)
        buffer = np.empty(k * n_times * ns * (ranges[0][1] - ranges[0][0]), dtype=np.complex128)
    for e0, e1 in ranges:
        with stage("propagate"):
            rows = _block_rows(ns, ne, e0, e1)
            c = buffer[:k * n_times * rows.size].reshape(k, n_times, rows.size)
            # rows are in range; "clip" gathers into c without a temporary
            np.take(amplitudes, rows, axis=2, out=c, mode="clip")
        yield rows, c


# Uniform grids of at least this many times take the NUFFT.  Measured on
# 2 cores at 2268 and 9180 states, the direct product is faster up to
# T ~ 64, the two tie near 96, and the NUFFT wins from 128 on (its cost
# is nearly flat in T, ~0.45 s at 9180 states for T <= 256).
NUFFT_MIN_TIMES = 96
_KERNEL_WIDTH = 16  # W: grid points under the spreading kernel
_KERNEL_BETA = 2.30 * _KERNEL_WIDTH
_BLOCK = 16  # G: real grid points per spreading GEMM
# Complex values per `np.fft.rfft` call's output, so that the transform's
# temporary does not grow with a plane's width: a call takes
# _FFT_VALUES // (2T + 1) rows of V, and at least one; at production that
# is one call per state and level (1201 modes x 128 rows).
_FFT_VALUES = 160 * 1024
# Points per spreading GEMM: at most one OpenBLAS DGEMM K-panel.  OpenBLAS
# picks its kernel by a product's size, and a state's columns stacked
# with other states' make a larger product than its columns alone.  With
# numpy's OpenBLAS 0.3.31 (SkylakeX kernels) the two give a state's
# columns the same bits at every inner dimension K <= 384, and first
# differ at K = 385 (tested).  So capping K keeps a state's bytes
# independent of the other states in the pass, with every product
# stacked.  At production size (seed 1) a wrap range holds at most 200
# points, so no product there is cut.
_K_PANEL = 384


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


def _spreading_plan(e, weights, step, n_times):
    """Per block of G real grid points: (lo, hi, [(j0, j1, S)]), one S per piece of a wrap.

    The grid holds N = 4T real points.  The points under the block in
    each wrap are cut into consecutive pieces j0..j1-1 of at most
    _K_PANEL points.  S is the spreading matrix of points j0..j1-1 for
    all weight columns as a real (j1 - j0, columns (hi - lo)) matrix,
    ordered (column, grid point): V[rows, j0:j1] @ S is those grid
    points' share for every column.
    """
    n_grid, half = 4 * n_times, _KERNEL_WIDTH / 2
    # Grid positions of the points, unfolded (ascending) and folded into
    # [0, N): u = wrap N + pos, with pos = theta N / (2 pi).
    u = e * (step * n_grid / (2.0 * np.pi))
    wrap = np.floor(u / n_grid)
    pos = u - wrap * n_grid
    # A block's window of G + W - 1 points is shorter than N (>= 4
    # NUFFT_MIN_TIMES), so it can hold point j only shifted by a wrap
    # p in wrap_j - 1 .. wrap_j + 1: the only shifts worth searching,
    # however many empty wraps the points span.
    shifts = np.unique(np.concatenate((wrap - 1.0, wrap, wrap + 1.0)))
    plan = []
    for lo in range(0, n_grid, _BLOCK):
        hi = min(lo + _BLOCK, n_grid)
        # Points within half a kernel of grid points lo..hi-1, shifted by p
        # wraps (u - p N), form one contiguous range of j for each p.
        first, last = lo - half, hi - 1 + half
        starts = np.searchsorted(u, first + shifts * n_grid, "right")
        ends = np.searchsorted(u, last + shifts * n_grid, "left")
        hit = starts < ends
        terms = []
        for p, start, end in zip(shifts[hit], starts[hit], ends[hit]):
            for j0 in range(start, end, _K_PANEL):
                j1 = min(j0 + _K_PANEL, end)
                offset = (np.arange(lo, hi) - n_grid * (wrap[j0:j1, None] - p)) - pos[j0:j1, None]
                spread = _es_kernel(offset / half)[:, None, :] * weights[j0:j1, :, None]
                terms.append((j0, j1, spread.reshape(j1 - j0, -1)))  # (points, columns x G)
        plan.append((lo, hi, terms))
    return plan


def _nufft_blocks(v, e, a, step, n_times, ns, ranges):
    """Row blocks of V (exp(-i E k step) a), k = 0..n_times-1, by a type-1 NUFFT.

    Each block is made one system level at a time: the level's rows are
    spread into one plane of every weight column's real 4T-point grid, and
    each state's first T modes, `np.fft.rfft` of its grid divided by the
    kernel's transform, are written into the level's columns of the block
    that is yielded.
    """
    if np.any(np.diff(e) < 0.0):
        raise ValueError("the NUFFT path needs ascending eigenvalues")
    k, ne, n_grid = a.shape[1], v.shape[0] // ns, 4 * n_times
    eb = ranges[0][1] - ranges[0][0]
    with stage("propagate"):
        # One real weight column per state, and a second, its imaginary
        # part, for each state whose weights are complex; the second
        # columns' planes follow every state's first.
        phased = np.flatnonzero(np.any(a.imag != 0.0, axis=0))
        second_plane = {s: k + i for i, s in enumerate(phased)}
        weights = np.hstack((a.real, a.imag[:, phased]))
        columns = weights.shape[1]
        plan = _spreading_plan(e, weights, step, n_times)
        deconvolve = 1.0 / _kernel_transform(np.arange(n_times) / n_grid)[:, None]
        plane_buffer = np.empty(columns * n_grid * eb)
        block_buffer = np.empty(k * n_times * ns * eb, dtype=np.complex128)

    def spread(share, plane, rows):
        """One share of the plan's grid blocks for one level's rows: disjoint grid points."""
        width = plane.shape[2]
        # the level's product and the piece being added to it
        product, piece = np.empty((2, width, _BLOCK * columns))
        for lo, hi, terms in plan[share]:
            if not terms:
                plane[:, lo:hi] = 0.0
                continue
            cols = (hi - lo) * columns
            acc, part = product[:, :cols], piece[:, :cols]
            for i, (j0, j1, spreading) in enumerate(terms):
                if i == 0:
                    np.matmul(v[rows, j0:j1], spreading, out=acc)
                else:
                    acc += np.matmul(v[rows, j0:j1], spreading, out=part)
            np.copyto(plane[:, lo:hi], acc.reshape(width, columns, -1).transpose(1, 2, 0))

    def transform(states, plane, modes):
        """One share of the states' modes at one level, written into `modes`, (k, T, width)."""
        width, n_modes = plane.shape[2], n_grid // 2 + 1
        chunk = min(width, max(1, _FFT_VALUES // n_modes))  # rows of V per rfft call
        grid_modes = np.empty(n_modes * chunk, dtype=np.complex128)
        for s in range(k)[states]:
            for r0 in range(0, width, chunk):
                r = slice(r0, min(r0 + chunk, width))
                out = grid_modes[:n_modes * (r.stop - r0)].reshape(n_modes, -1)
                own = modes[s, :, r]
                np.fft.rfft(plane[s, :, r], axis=0, out=out)
                np.multiply(out[:n_times], deconvolve, out=own)
                if s in second_plane:
                    np.fft.rfft(plane[second_plane[s], :, r], axis=0, out=out)
                    other = np.multiply(out[:n_times], deconvolve, out=out[:n_times])
                    # X = X_re + i X_im
                    np.subtract(own.real, other.imag, out=own.real)
                    np.add(own.imag, other.real, out=own.imag)

    for e0, e1 in ranges:
        with stage("propagate"):
            width = e1 - e0
            plane = plane_buffer[:columns * n_grid * width].reshape(columns, n_grid, width)
            c = block_buffer[:k * n_times * ns * width].reshape(k, n_times, ns * width)
            for level in range(ns):
                rows = slice(level * ne + e0, level * ne + e1)
                modes = c[:, :, level * width:(level + 1) * width]
                run_shares(lambda share: spread(share, plane, rows), len(plan))
                run_shares(lambda states: transform(states, plane, modes), k)
        yield _block_rows(ns, ne, e0, e1), c
