"""Zero-order basis and universe Hamiltonian construction.

The universe is a bipartite product of a polyad of two linearly coupled
oscillators (system S) and a ladder of quasi-degenerate rungs whose
degeneracies grow exponentially (environment E).  H = H_S + H_E + H_SE
is real symmetric in the zero-order product basis |n, m, l>; it is
assembled dense and diagonalized once, and all dynamics are then
analytic.

Every function here takes the config as its only source of the
universe: each draws from its own substream of SeededRng(config.rng_seed),
and builds the basis it needs (`build_basis`), so no caller can pair a
config with another seed's draws or another universe's basis.  Only the
eigenpairs and the config reach the dynamics, so H is built only when a
solve needs it.  A cached eigensystem is checked instead against the
first CHECK_ROWS rows of H, which the same fill function regenerates
from the first draws of the coupling stream.

The solve (`diagonalize`) runs the three LAPACK stages of dsyevd one at
a time, without the GIL, in numpy's bundled OpenBLAS (`blas.lapack`):
tridiagonal reduction, the divide-and-conquer eigensolver writing into
H's own memory while the Householder reflectors wait packed beside it,
and the back-transform in place.  It keeps dsyevd's eigenpair bytes in
2.5 n² doubles instead of 3 n², and a miss refuses a solve that cannot
fit the machine's memory before H is built.

`stage` is the package's one clock.  Each timed stage of a run (the
build, the fill, the three LAPACK stages, the store, the load, the eigen
check, the pass and the write) is one `stage` block: it prints the
stage's stderr line and adds its seconds to the `RunRecord` of the
`recording` block around it, which `run` writes as `timing_seconds`.

Energy origin: system energies are measured from the bottom of the
polyad, e_n = n * kappa.  The constant offset of the absolute polyad
block (its quanta times the oscillators' frequency, less N*kappa/2)
cancels out of every difference quantity and of the dynamics, and this
origin makes the nominal universe energy of a product state the integer
n + m used for shell bookkeeping.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import sys
import threading
import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blas, cache, units
from .config import ModelConfig
from .rng import (COUPLING_STREAM, DRAW_CONTRACT_VERSION, LARGE_CALL_WORDS, SHIFT_STREAM,
                  SeededRng)


@dataclass(frozen=True)
class UniverseBasis:
    """Indexed product basis |n, m, l> with zero-order energies and shell labels.

    Flat ordering is system-major: index = n * N_E + sum_{m' < m} g(m') + l
    with environment states rung-major.  This makes the reduced density
    matrix a plain reshape-and-contract.  Its counts are the config's.
    """

    n: np.ndarray
    m: np.ndarray
    l: np.ndarray
    zero_order_energy: np.ndarray
    shell_label: np.ndarray


@dataclass
class UniverseHamiltonian:
    """The universe Hamiltonian as its checked eigendecomposition.

    `eig_residual` is the sampled residual R of `eigen_residual` against
    regenerated rows of H; `key` is the config's `cache_key`; `cache_hit`
    says whether the eigenpairs came from the on-disk cache (an accepted
    entry, then read-only views of its mapping) or from a solve, and
    `solve` names the solve: "dsyevd" (`diagonalize`), "diagonal"
    (`diagonal_eigensystem`, for alpha = 0) or None (a hit).
    """

    config: ModelConfig
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eig_residual: float
    key: str
    cache_hit: bool = False
    solve: str | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def build_system_levels(config: ModelConfig) -> np.ndarray:
    """System energies on the shifted-origin ladder, e_n = n * kappa.

    The polyad block is kappa * Jx in the spin-N/2 representation, so its
    eigenvalues are exactly equally spaced by kappa (the tests solve it).
    """
    return config.kappa * np.arange(config.n_system_levels, dtype=float)


def _env_rungs(config: ModelConfig) -> np.ndarray:
    """The rung m of each environment state |m, l>, rung-major."""
    return np.repeat(np.arange(config.n_env_levels), config.degeneracies())


def build_environment(config: ModelConfig) -> np.ndarray:
    """The (N_E,) energies of the environment states |m, l>, rung-major.

    Energies are m*omega_E + X(m,l) with X ~ N(0, alpha*omega_E*sqrt(2)),
    drawn rung-major from the shift stream of the config's seed.
    """
    m = _env_rungs(config)
    sigma = config.alpha * config.omega_E * math.sqrt(2.0)
    shift = SeededRng(config.rng_seed).split(SHIFT_STREAM).gaussian(0.0, sigma, size=m.size)
    return m * config.omega_E + shift


def build_basis(config: ModelConfig) -> UniverseBasis:
    """Product basis |n, m, l> in system-major, rung-major flat order."""
    ns, ne = config.n_system_levels, config.n_env_states
    n = np.repeat(np.arange(ns), ne)
    m = np.tile(_env_rungs(config), ns)
    l = np.tile(np.concatenate([np.arange(g) for g in config.degeneracies()]), ns)
    energy = np.repeat(build_system_levels(config), ne) + np.tile(build_environment(config), ns)
    return UniverseBasis(n=n, m=m, l=l, zero_order_energy=energy, shell_label=n + m)


def build_hamiltonian_matrix(config: ModelConfig, n_rows: int | None = None) -> np.ndarray:
    """The first `n_rows` rows of the dense symmetric H = H_S + H_E + H_SE.

    Diagonal: the zero-order energies of the config's basis.  Off-diagonal: one
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
    basis = build_basis(config)
    dim = config.n_universe_states
    k = dim if n_rows is None else min(int(n_rows), dim)
    sigma = config.alpha * config.omega_E
    couplings = SeededRng(config.rng_seed).split(COUPLING_STREAM)
    h = np.zeros((k, dim), dtype=np.float64)
    restrict = config.coupling_scope == "system_changing_only"
    for i, row in enumerate(_coupling_rows(couplings, sigma, dim, k)):
        if restrict:
            row[basis.n[i + 1:] == basis.n[i]] = 0.0
        h[i, i + 1:] = row
    for i in range(k - 1):
        h[i + 1:, i] = h[i, i + 1:k]
    h[np.arange(k), np.arange(k)] = basis.zero_order_energy[:k]
    return h


def _coupling_rows(couplings: SeededRng, sigma: float, dim: int, k: int) -> Iterator[np.ndarray]:
    """The dim - 1 - i upper-triangle variates of row i of H, for rows 0..min(k, dim - 1) - 1.

    Consecutive rows are drawn in one call of at least LARGE_CALL_WORDS
    words (all of them, if they hold fewer), so the full fill takes
    scipy's ndtri and a few rows the port.  One variate takes one word,
    so the chunking moves no draw.
    """
    widths = range(dim - 1, dim - 1 - min(k, dim - 1), -1)
    left = sum(widths)
    chunk, size = [], 0
    for width in widths:
        chunk.append(width)
        size += width
        if width == widths[-1] or LARGE_CALL_WORDS <= size <= left - LARGE_CALL_WORDS:
            draws = couplings.gaussian(0.0, sigma, size=size)
            for w in chunk:
                yield draws[:w]
                draws = draws[w:]
            left -= size
            chunk, size = [], 0


# The eigenpair bytes of a config are fixed by the assembly of H (draws,
# fill, basis order), by `diagonalize` and by the LAPACK library and its
# thread count.  The cache key covers this contract and `blas.library`
# instead of the package version, so a release that changes only outputs
# keeps every cache entry.  Bump it with any change to the assembly or to
# `diagonalize`; `tests/test_model.py` pins the sha256 of H to catch an
# assembly change that forgets to.
SOLVE_CONTRACT = 1

# Config fields that do not enter H: the temperature convention, the
# energy unit, the phases of the initial states and the microcanonical
# shell.  Configs that differ only in them share one cache entry.
NOT_IN_HAMILTONIAN = ("energy_unit_wavenumbers", "paper_compat", "random_initial_phases",
                      "total_energy")


def cache_key(config: ModelConfig) -> str:
    """The key of the config's cache entry: a hash of what fixes its eigenpairs' bytes.

    The config without NOT_IN_HAMILTONIAN (seed included), the draw-order
    contract, SOLVE_CONTRACT and `blas.library()`.
    """
    library, threads = blas.library()
    return config.content_hash(exclude=NOT_IN_HAMILTONIAN, draw_contract=DRAW_CONTRACT_VERSION,
                               solve_contract=SOLVE_CONTRACT, library=library, threads=threads)


def progress(message: str) -> None:
    """One line on stderr as a run's stage starts or ends."""
    print(f"quniverse: {message}", file=sys.stderr, flush=True)


# Every stage that a run records: the build, the pass, its observables and
# the write; within the build, the stages of a miss (the fill, the three
# LAPACK stages and the store), the load and the eigen check.
STAGES = ("build_and_solve", "propagate", "observables", "write", "fill", "tridiagonalize",
          "divide_and_conquer", "back_transform", "store", "load", "check")


@dataclass
class RunRecord:
    """What one run's stages did: the seconds of each of STAGES, 0.0 for a stage that
    did not run, and the names of the cache files that its store evicted."""

    seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    evicted: list[str] = field(default_factory=list)


# The record of the `recording` block that the calling thread is in.  A
# thread of `blas.run_shares` starts without it, so stages are entered on
# the calling thread only.
_RECORD: contextvars.ContextVar[RunRecord | None] = contextvars.ContextVar("quniverse_record",
                                                                          default=None)


@contextlib.contextmanager
def recording() -> Iterator[RunRecord]:
    """A new RunRecord of the stages entered in the block, and of them alone."""
    record = RunRecord()
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)


@contextlib.contextmanager
def stage(name: str, begin: str | None = None, done: str | None = None) -> Iterator[None]:
    """Time the block as the stage `name` of STAGES: the package's one clock.

    `begin` is printed as the block starts and, if the block completes,
    `done` followed by "in <seconds> s".  The seconds are added, whether
    the block completes or not, to the record of the `recording` block
    around it, if there is one.  A stage inside another counts in both.
    """
    if begin is not None:
        progress(begin)
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds = time.perf_counter() - start
        record = _RECORD.get()
        if record is not None:
            record.seconds[name] += seconds
    if done is not None:
        progress(f"{done} in {seconds:.1f} s")


# Seconds between the heartbeat lines that `diagonalize` prints while LAPACK runs.
HEARTBEAT_SECONDS = 30.0

# dsyevd solves unscaled only when max|A| is 0 or lies in [sqrt(smlnum),
# 1/sqrt(smlnum)], smlnum = safmin / eps; otherwise it scales A first.
_UNSCALED_MIN = math.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_UNSCALED_MAX = 1.0 / _UNSCALED_MIN


@contextlib.contextmanager
def _heartbeat(what: str) -> Iterator[None]:
    """A progress line every HEARTBEAT_SECONDS inside the block, from a daemon thread."""
    stop = threading.Event()

    def beat() -> None:
        beats = 0
        while not stop.wait(HEARTBEAT_SECONDS):
            beats += 1
            progress(f"{what}: {beats * HEARTBEAT_SECONDS:.0f} s so far")

    thread = threading.Thread(target=beat, name="quniverse-heartbeat", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def diagonalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w, V) of a dense symmetric matrix, ascending.

    Solves in place: `matrix` (C-ordered float64) is overwritten, and V
    is `matrix.T`, the F-ordered view of the symmetric matrix in which
    LAPACK works.  The three stages are those of LAPACK's dsyevd, called
    with its arguments and its workspace sizes, so w and V are its bytes:

    1. dsytrd reduces the lower triangle to tridiagonal form and leaves
       the Householder reflectors in the strict lower triangle, which
       dtrttp then packs out (n²/2 doubles);
    2. dstedc('I') writes the tridiagonal problem's eigenvectors into the
       matrix's memory, using its n² + 4n + 1 workspace;
    3. dtpttr unpacks the reflectors into that workspace, and dormtr applies
       their product Q to the eigenvectors in place.

    Each stage is a `blas.lapack` call into numpy's bundled OpenBLAS.
    The peak is 2.5 n² doubles (`solve_bytes`), where dsyevd holds the
    matrix and 2 n² more.  dsyevd would scale a matrix whose max|A| is
    tiny or huge; such a matrix is refused instead.  A progress line
    ends each stage, and a heartbeat line follows every
    HEARTBEAT_SECONDS while LAPACK runs.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n) or matrix.dtype != np.float64 or not (
            matrix.flags.c_contiguous and matrix.flags.writeable):
        raise ValueError(f"expected a writeable C-ordered square float64 matrix, got "
                         f"{matrix.dtype} {matrix.shape}")
    a, ld = matrix.T, max(n, 1)
    try:
        anrm = max(float(matrix.max()), -float(matrix.min())) if n else 0.0
        if not (anrm == 0.0 or _UNSCALED_MIN <= anrm <= _UNSCALED_MAX):
            raise RuntimeError(f"max|A| = {anrm:.3g} is outside LAPACK's unscaled range "
                               f"[{_UNSCALED_MIN:.3g}, {_UNSCALED_MAX:.3g}]")
        with _heartbeat(f"solving {n} x {n}"):
            w, e, tau = np.empty(n), np.empty(ld), np.empty(ld)
            with stage("tridiagonalize", done="tridiagonalized"):
                query = np.empty(1)
                blas.lapack("dsytrd", "L", n, a, ld, w, e, tau, query, -1)
                lwork = max(int(query[0]), 1)
                blas.lapack("dsytrd", "L", n, a, ld, w, e, tau, np.empty(lwork), lwork)
                # the strict lower triangle of `a` is the lower triangle of its
                # (n - 1) x (n - 1) block from a[1, 0]; no view of `packed` outlives it
                packed = np.empty(n * (n - 1) // 2)
                blas.lapack("dtrttp", "L", max(n - 1, 0), a[1:], ld, packed)
            with stage("divide_and_conquer", done="divide and conquer"):
                work = np.zeros(n * n + 4 * n + 1)
                blas.lapack("dstedc", "I", n, w, e, a, ld, work, work.size,
                            np.empty(3 + 5 * n, dtype=np.int64), 3 + 5 * n)
            with stage("back_transform", done="back-transformed"):
                blas.lapack("dtpttr", "L", max(n - 1, 0), packed, work[1:], ld)
                del packed  # freed before dormtr's ~30 s at production size
                # dsyevd passes dormtr the same n² + 4n + 1 doubles, of which
                # dormqr's blocking reads at most 64n + 65·64
                lwork = min(work.size, 64 * n + 65 * 64)
                blas.lapack("dormtr", "L", "L", "N", n, n, work, ld, tau, a, ld,
                            np.empty(lwork), lwork)
    except RuntimeError as exc:
        raise RuntimeError(f"dense symmetric eigensolver failed: dim={n}: {exc}") from exc
    return w, a


def diagonal_eigensystem(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of the diagonal matrix diag(d) with `diagonalize`'s bytes, without LAPACK.

    On a diagonal matrix dsytrd leaves the diagonal d, a zero
    off-diagonal and tau = 0; dstedc (dsteqr for n <= 25) finds n blocks
    of size 1 and starts from Z = I; and dormtr applies Q = I.  So w and V
    are d and I after the selection sort that ends dstedc and dsteqr: for
    each i, the first minimum of d[i:] trades places with d[i], and its
    column of Z with column i, when it is strictly smaller.  The sort is
    not stable, so ties keep LAPACK's order only through this loop.  V is
    F-ordered, as `diagonalize` returns it.
    """
    w = np.array(d, dtype=np.float64)
    rows = np.eye(w.size)  # row i is column i of V
    for i in range(w.size - 1):
        k = i + int(np.argmin(w[i:]))
        if k != i:
            w[[i, k]] = w[[k, i]]
            rows[[i, k]] = rows[[k, i]]
    return w, rows.T


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
    a small slice of V instead of all of it.  The product runs on one
    OpenBLAS thread, as every product of the pass that follows it: on
    more, the library's idle worker would spin on a core that a pass
    worker needs, and R's last bits would move with the thread count.
    """
    k, dim = rows.shape
    cols = np.linspace(0, dim - 1, CHECK_COLUMNS).astype(np.intp)  # repeats when dim < 64
    v_s = eigenvectors[:, cols]
    with blas.gemm_threads(1):
        product = rows @ v_s
    return float(np.abs(product - v_s[:k] * eigenvalues[cols]).max())


def _residual_bound(rows: np.ndarray) -> float:
    return CHECK_RTOL * max(1.0, float(np.abs(rows).max()))


def solve_bytes(dim: int) -> int:
    """Peak bytes of `diagonalize` on a dim x dim matrix: 2.5 dim² doubles."""
    return int(2.5 * dim * dim) * 8


def machine_memory() -> tuple[int, int] | None:
    """(total, available) bytes of memory for this process; None without /proc/meminfo.

    MemTotal and MemAvailable, each capped by a numeric cgroup-v2
    memory.max (the available by what the cgroup has not used yet).
    """
    try:
        with open("/proc/meminfo") as fh:
            info = {line.split(":")[0]: line.split()[1] for line in fh}
        total, available = int(info["MemTotal"]) * 1024, int(info["MemAvailable"]) * 1024
    except (OSError, KeyError, ValueError, IndexError):
        return None
    try:
        with open("/proc/self/cgroup") as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        group = Path("/sys/fs/cgroup", path.lstrip("/"))
        limit = int((group / "memory.max").read_text())  # "max" when there is none
        used = int((group / "memory.current").read_text())
    except (OSError, StopIteration, ValueError):
        return total, available
    return min(total, limit), min(available, limit - used)


def check_memory(need: int, what: str) -> None:
    """Refuse `what`, which needs `need` bytes, if that is more than this machine's
    memory; warn if it is more than the memory available now.

    `what` names the work, such as "the 9180 x 9180 eigensolve".  Does
    nothing where the memory cannot be read.
    """
    found = machine_memory()
    if found is None:
        return
    total, available = found
    if need > total:
        raise MemoryError(f"{what} needs {need / 1e6:.0f} MB, more than this machine's "
                          f"{total / 1e6:.0f} MB; refused before building H")
    if need > available:
        warnings.warn(f"{what} needs {need / 1e6:.0f} MB, more than the "
                      f"{available / 1e6:.0f} MB available now", stacklevel=3)


def assemble_hamiltonian(config: ModelConfig) -> UniverseHamiltonian:
    """The checked eigendecomposition of H for (config, seed).

    The same (config, seed) always produces a bit-identical matrix.  A
    cached eigensystem is mapped and checked against CHECK_ROWS
    regenerated rows of H; the full H is never built on an accepted
    entry, and the cache directory is not written.  A miss or a rejected
    entry (with a warning naming its key and residual) first checks that
    the solve fits the machine's memory (`check_memory`), then
    builds H, solves it in place, checks the result and stores it,
    replacing a rejected entry atomically; a failed store (unwritable
    directory, full disk) only warns.  QUNIVERSE_CACHE_DIR chooses the
    cache directory.  The load, the check, the fill, the solve's stages
    and the store are each a `stage`, and the names of the files that the
    store evicted go to the run's record too.

    At alpha = 0, H is the diagonal of the zero-order energies, and
    `diagonal_eigensystem` gives its eigenpairs (as the stage
    "divide_and_conquer"): no H is filled, no LAPACK runs, and no cache
    entry is read or written.  The eigen check runs all the same.
    """
    dim = config.n_universe_states
    progress(f"basis of {dim} states ({config.n_system_levels} system levels x "
             f"{config.n_env_states} environment states)")
    key = cache_key(config)
    if config.alpha == 0.0:
        check_memory(8 * dim * dim, f"the {dim} x {dim} eigenvectors")
        with stage("divide_and_conquer", begin="alpha = 0: H is diagonal, sorting its "
                                                "energies without LAPACK or the cache",
                   done="sorted"):
            eigenvalues, eigenvectors = diagonal_eigensystem(build_basis(config).zero_order_energy)
        return _checked(config, eigenvalues, eigenvectors, key, "diagonal")
    with stage("load"):
        cached = cache.load_eigensystem(key, dim)
    if cached is None:
        progress(f"cache miss: no entry {key[:12]}")
    else:
        with stage("check"):
            rows = build_hamiltonian_matrix(config, n_rows=CHECK_ROWS)
            residual = eigen_residual(rows, *cached)
        if residual <= _residual_bound(rows):
            progress(f"cache hit: entry {key[:12]}, eigen residual {residual:.2e}")
            return UniverseHamiltonian(config, *cached, eig_residual=residual, key=key,
                                       cache_hit=True)
        warnings.warn(f"cache entry {key} fails the eigen check "
                      f"(residual {residual:.3g}); re-solving", stacklevel=2)
    check_memory(solve_bytes(dim), f"the {dim} x {dim} eigensolve")
    with stage("fill", begin=f"solving the dense {dim} x {dim} eigenproblem"):
        h = build_hamiltonian_matrix(config)
    rows = h[:CHECK_ROWS].copy()
    eigenvalues, eigenvectors = diagonalize(h)
    ham = _checked(config, eigenvalues, eigenvectors, key, "dsyevd", rows)
    mb = (eigenvalues.nbytes + eigenvectors.nbytes) / 1e6
    try:
        with stage("store", done=f"stored entry {key[:12]}, {mb:.0f} MB,"):
            evicted = cache.store_eigensystem(key, eigenvalues, eigenvectors)
    except OSError as exc:
        warnings.warn(f"solved, but not cached in {cache.CACHE_DIR_ENV}="
                      f"{cache.cache_dir()}: {exc}", stacklevel=2)
    else:
        for name, size in evicted:
            progress(f"evicted entry {name[:12]}, {size / 1e6:.0f} MB, the least recently used")
        record = _RECORD.get()
        if record is not None:
            record.evicted += [name for name, _ in evicted]
    return ham


def _checked(config, eigenvalues, eigenvectors, key, solve,
             rows=None) -> UniverseHamiltonian:
    """The solved eigenpairs as a Hamiltonian, once they pass the eigen check against
    `rows`, H's first CHECK_ROWS rows (regenerated when not given)."""
    with stage("check"):
        if rows is None:
            rows = build_hamiltonian_matrix(config, n_rows=CHECK_ROWS)
        residual = eigen_residual(rows, eigenvalues, eigenvectors)
    if not residual <= _residual_bound(rows):
        raise RuntimeError(f"eigensolver result fails the eigen check: residual {residual:.3g}")
    return UniverseHamiltonian(config, eigenvalues, eigenvectors, eig_residual=residual,
                               key=key, solve=solve)


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
