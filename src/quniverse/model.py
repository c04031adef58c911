"""Zero-order basis and universe Hamiltonian construction.

The universe is a bipartite product of a polyad of two linearly coupled
oscillators (system S) and a ladder of quasi-degenerate rungs whose
degeneracies grow exponentially (environment E).  H = H_S + H_E + H_SE
is real symmetric in the zero-order product basis |n, m, l>; it is
assembled dense and diagonalized once, and all dynamics are then
analytic.

Every function here takes the config as its only source of the
universe: each draws from its own substream of SeededRng(config.rng_seed),
so no caller can pair a config with another seed's draws.  Only the
eigenpairs and the basis reach the dynamics, so H is built only when a
solve needs it.  A cached eigensystem is checked instead against the
first CHECK_ROWS rows of H, which the same fill function regenerates
from the first draws of the coupling stream.

Energy origin: system energies are measured from the bottom of the
polyad, e_n = n * kappa.  The constant offset N*omega0 - N*kappa/2 of the
absolute polyad block cancels out of every difference quantity and of
the dynamics, and this origin makes the nominal universe energy of a
product state the integer n + m used for shell bookkeeping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import cache, units
from .config import ModelConfig
from .rng import COUPLING_STREAM, SHIFT_STREAM, SeededRng


@dataclass(frozen=True)
class SystemLevels:
    """Polyad eigenvalues of the coupled two-oscillator system.

    `eigenvalues` are the absolute polyad-block energies (ascending);
    `ladder` is the shifted-origin scale e_n = n * kappa actually used
    as the system energy everywhere else.
    """

    eigenvalues: np.ndarray
    ladder: np.ndarray


@dataclass(frozen=True)
class EnvironmentLevels:
    """One row per zero-order environment state |m, l>."""

    m: np.ndarray
    l: np.ndarray
    shift: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return self.energy.size


@dataclass(frozen=True)
class UniverseBasis:
    """Indexed product basis |n, m, l> with zero-order energies and shell labels.

    Flat ordering is system-major: index = n * N_E + offset(m) + l with
    environment states rung-major.  This makes the reduced density
    matrix a plain reshape-and-contract.
    """

    n: np.ndarray
    m: np.ndarray
    l: np.ndarray
    zero_order_energy: np.ndarray
    shell_label: np.ndarray
    n_system_levels: int
    degeneracies: np.ndarray
    env_offsets: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.zero_order_energy.size

    @property
    def n_env_states(self) -> int:
        return self.size // self.n_system_levels

    def index_of(self, n: int, m: int, l: int) -> int:
        if not 0 <= n < self.n_system_levels:
            raise ValueError(f"system level n={n} out of range")
        if not 0 <= m < self.degeneracies.size:
            raise ValueError(f"environment rung m={m} out of range")
        if not 0 <= l < self.degeneracies[m]:
            raise ValueError(f"degeneracy index l={l} out of range for rung m={m}")
        return n * self.n_env_states + int(self.env_offsets[m]) + l


@dataclass
class UniverseHamiltonian:
    """The universe Hamiltonian as its checked eigendecomposition.

    `eig_residual` is the sampled residual R of `eigen_residual` against
    regenerated rows of H; `cache_hit` says whether the eigenpairs came
    from the on-disk cache (an accepted entry, then read-only views of
    its mapping) or from a solve.
    """

    basis: UniverseBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eig_residual: float
    cache_hit: bool = False

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def build_system_levels(config: ModelConfig) -> SystemLevels:
    """Diagonalize the polyad block of the coupled-oscillator system.

    In the local-mode basis {|n1, N - n1>} the block is tridiagonal with
    constant diagonal N*omega0 and ladder off-diagonals
    (kappa/2) * sqrt((n1+1) n2).  This is kappa * Jx in the spin-N/2
    representation, so the polyad eigenvalues are exactly equally spaced
    by kappa (normal-mode frequencies omega0 -/+ kappa/2).
    """
    N = config.polyad_N
    diag = np.full(N + 1, N * config.omega0, dtype=float)
    n1 = np.arange(N, dtype=float)
    off = 0.5 * config.kappa * np.sqrt((n1 + 1.0) * (N - n1))
    if N == 0:
        eigenvalues = diag.copy()
    else:
        try:
            eigenvalues = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - symmetric tridiagonal
            raise RuntimeError(f"polyad eigensolver failed for N={N}: {exc}") from exc
    ladder = config.kappa * np.arange(N + 1, dtype=float)
    return SystemLevels(eigenvalues=eigenvalues, ladder=ladder)


def build_environment(config: ModelConfig) -> EnvironmentLevels:
    """Environment table with Gaussian-spread rungs.

    Energies are m*omega_E + X(m,l) with X ~ N(0, alpha*omega_E*sqrt(2)),
    drawn rung-major from the shift stream of the config's seed.
    """
    degs = config.degeneracies()
    m = np.repeat(np.arange(config.n_env_levels), degs)
    l = np.concatenate([np.arange(g) for g in degs])
    sigma = config.alpha * config.omega_E * math.sqrt(2.0)
    shift = SeededRng(config.rng_seed).split(SHIFT_STREAM).gaussian(0.0, sigma, size=m.size)
    energy = m * config.omega_E + shift
    return EnvironmentLevels(m=m, l=l, shift=shift, energy=energy)


def build_basis(config: ModelConfig) -> UniverseBasis:
    """Product basis |n, m, l> in system-major, rung-major flat order."""
    env = build_environment(config)
    ns = config.n_system_levels
    ne = len(env)
    system = build_system_levels(config)
    n = np.repeat(np.arange(ns), ne)
    m = np.tile(env.m, ns)
    l = np.tile(env.l, ns)
    energy = np.repeat(system.ladder, ne) + np.tile(env.energy, ns)
    shell = n + m
    degs = np.asarray(config.degeneracies(), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(degs)[:-1]))
    return UniverseBasis(
        n=n, m=m, l=l,
        zero_order_energy=energy,
        shell_label=shell,
        n_system_levels=ns,
        degeneracies=degs,
        env_offsets=offsets,
    )


def build_hamiltonian_matrix(config: ModelConfig, basis: UniverseBasis,
                             n_rows: int | None = None) -> np.ndarray:
    """The first `n_rows` rows of the dense symmetric H = H_S + H_E + H_SE.

    Diagonal: the zero-order energies of the basis.  Off-diagonal: one
    independent Gaussian variate of width alpha*omega_E per strictly
    upper-triangle element, drawn row-major from the coupling stream and
    mirrored to the lower triangle, so symmetry is exact by construction.
    Row i needs only the draws of rows 0..i, so the first k rows are the
    first k rows of the full matrix bit for bit; n_rows=None (the
    default) builds all of them, the full (dim, dim) matrix.

    With coupling_scope = "system_changing_only" the draws still happen
    (the stream contract is unconditional) but elements diagonal in the
    system index are zeroed before mirroring.
    """
    dim = basis.size
    k = dim if n_rows is None else min(int(n_rows), dim)
    sigma = config.alpha * config.omega_E
    couplings = SeededRng(config.rng_seed).split(COUPLING_STREAM)
    h = np.zeros((k, dim), dtype=np.float64)
    restrict = config.coupling_scope == "system_changing_only"
    for i in range(min(k, dim - 1)):
        row = couplings.gaussian(0.0, sigma, size=dim - 1 - i)
        if restrict:
            row[basis.n[i + 1:] == basis.n[i]] = 0.0
        h[i, i + 1:] = row
    for i in range(k - 1):
        h[i + 1:, i] = h[i, i + 1:k]
    h[np.arange(k), np.arange(k)] = basis.zero_order_energy[:k]
    return h


def diagonalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense symmetric matrix (ascending).

    Solves in place: `matrix` is overwritten.  `matrix.T` is the
    F-ordered view of the symmetric C-ordered matrix, so LAPACK works on
    it without a copy and returns the eigenvectors in its memory.
    """
    try:
        return scipy.linalg.eigh(matrix.T, overwrite_a=True, check_finite=False,
                                 driver="evd")
    except Exception as exc:
        raise RuntimeError(
            f"dense symmetric eigensolver failed: dim={matrix.shape[0]}: {exc}"
        ) from exc


# Rows of H regenerated to check an eigensystem, eigenvector columns
# sampled by that check, and its tolerance relative to max(1, max|H[:k]|)
# (the form of acceptance criterion 6g's reconstruction bound).
CHECK_ROWS = 16
CHECK_COLUMNS = 64
CHECK_RTOL = 1e-8


def eigen_residual(rows: np.ndarray, eigenvalues: np.ndarray,
                   eigenvectors: np.ndarray) -> float:
    """R = max|H[:k, :] V[:, S] - V[:k, S] diag(w_S)| over sampled columns S.

    `rows` holds the first k rows of H.  S is CHECK_COLUMNS evenly
    spaced eigenvector columns, so the check costs O(k n |S|) and reads
    a small slice of V instead of all of it.
    """
    k, dim = rows.shape
    cols = np.unique(np.linspace(0, dim - 1, CHECK_COLUMNS).astype(np.intp))
    v_s = eigenvectors[:, cols]
    return float(np.abs(rows @ v_s - v_s[:k] * eigenvalues[cols]).max())


def _residual_bound(rows: np.ndarray) -> float:
    return CHECK_RTOL * max(1.0, float(np.abs(rows).max()))


def assemble_hamiltonian(config: ModelConfig) -> UniverseHamiltonian:
    """Build the basis and the checked eigendecomposition of H for (config, seed).

    The same (config, seed) always produces a bit-identical matrix.  A
    cached eigensystem is mapped and checked against CHECK_ROWS
    regenerated rows of H; the full H is never built on an accepted
    entry, and the cache directory is not written.  A miss or a rejected
    entry (with a warning naming its key and residual) builds H, solves
    it in place, checks the result and stores it, replacing a rejected
    entry atomically; a failed store (unwritable directory, full disk)
    only warns.  QUNIVERSE_CACHE_DIR chooses the cache directory.
    """
    basis = build_basis(config)
    cached = cache.load_eigensystem(config)
    if cached is not None:
        rows = build_hamiltonian_matrix(config, basis, n_rows=CHECK_ROWS)
        residual = eigen_residual(rows, *cached)
        if residual <= _residual_bound(rows):
            return UniverseHamiltonian(basis, *cached, eig_residual=residual,
                                       cache_hit=True)
        warnings.warn(f"cache entry {cache.cache_key(config)} fails the eigen check "
                      f"(residual {residual:.3g}); re-solving", stacklevel=2)
    h = build_hamiltonian_matrix(config, basis)
    rows = h[:CHECK_ROWS].copy()
    eigenvalues, eigenvectors = diagonalize(h)
    residual = eigen_residual(rows, eigenvalues, eigenvectors)
    if not residual <= _residual_bound(rows):
        raise RuntimeError(f"eigensolver result fails the eigen check: residual {residual:.3g}")
    try:
        cache.store_eigensystem(config, eigenvalues, eigenvectors)
    except OSError as exc:
        warnings.warn(f"solved, but not cached in {cache.CACHE_DIR_ENV}="
                      f"{cache.cache_dir()}: {exc}", stacklevel=2)
    return UniverseHamiltonian(basis, eigenvalues, eigenvectors, eig_residual=residual)


@dataclass(frozen=True)
class TemperatureInfo:
    """Bath temperature in Kelvin and in reduced form.

    `kelvin` is what downstream thermodynamics uses: the analytic value
    unit/(k_B ln b) by default, or the reference 230.41 K in compat mode
    (the two differ by ~0.7%; the discrepancy is carried along in
    metadata rather than hidden).
    """

    kelvin: float
    kelvin_analytic: float
    kelvin_compat: float
    discrepancy_percent: float
    beta_reduced: float
    kbt_reduced: float


def temperature_of(config: ModelConfig) -> TemperatureInfo:
    """Thermodynamic temperature implied by the degeneracy base b."""
    analytic = units.temperature_kelvin(config.degeneracy_b, config.energy_unit_wavenumbers)
    compat = units.COMPAT_TEMPERATURE_KELVIN
    kelvin = compat if config.paper_compat else analytic
    return TemperatureInfo(
        kelvin=kelvin,
        kelvin_analytic=analytic,
        kelvin_compat=compat,
        discrepancy_percent=100.0 * abs(analytic - compat) / compat,
        beta_reduced=math.log(config.degeneracy_b) / config.omega_E,
        kbt_reduced=units.kbt_reduced(kelvin, config.energy_unit_wavenumbers),
    )
