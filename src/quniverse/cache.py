"""On-disk cache for universe eigendecompositions.

At production size the dense symmetric solve dominates runtime, so
eigenpairs are stored keyed by a hash of what determines their bytes:
the config without NOT_IN_HAMILTONIAN (seed included), the draw-order
contract version, `model.SOLVE_CONTRACT` (assembly and solver code) and
`model.solve_library()` (the LAPACK library and its thread count, or,
for a LAPACK other than scipy's bundled OpenBLAS, the settings that
choose the thread count).  The
package version is not in the key: a release that changes only outputs
keeps every entry.  Any change to those inputs changes the key; stale
entries are simply never hit.

An entry is one file, `{key}.npy`: a Fortran-ordered (n, n + 1) float64
array whose column 0 holds the eigenvalues and whose columns 1..n hold
the eigenvectors V.  A hit maps it read-only instead of reading it, so
every process works on the page cache's one copy and the load costs no
copy of V; V is then an F-contiguous slice of the mapping.  An entry is
written to a tmp file and renamed into place, never rewritten in place,
so a mapping keeps seeing the entry it opened even if a later store
replaces it.  A file of the wrong size, shape or layout is discarded
with a warning.

This module only reads and writes entries.  The key does not pin the
matrix, so `model.assemble_hamiltonian` checks every loaded entry
against regenerated rows of H, re-solves a rejected one and stores the
new solve over it.  Loading only reads: a hit writes, renames or touches
no file in the directory.

The directory is bounded: after each store, the oldest `*.npy` files by
mtime (entries, and the two-file `*.eigvals.npy`/`*.eigvecs.npy` entries
of earlier versions, which nothing reads any more) are removed until the
directory holds at most QUNIVERSE_CACHE_MAX_MB MiB (default 4096), never
the entry just written.  Because a hit touches nothing, the order is the
order in which entries were written, not used.  Removing a file another
process has mapped is safe: its mapping stays valid.

The directory comes from QUNIVERSE_CACHE_DIR, defaulting to
~/.cache/quniverse.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import model  # model imports this module too; used at call time only
from .config import ModelConfig
from .rng import DRAW_CONTRACT_VERSION

CACHE_DIR_ENV = "QUNIVERSE_CACHE_DIR"
CACHE_MAX_MB_ENV = "QUNIVERSE_CACHE_MAX_MB"
DEFAULT_CACHE_MAX_MB = 4096.0

# Config fields that do not enter H: the temperature convention, the
# energy unit, the phases of the initial states and the microcanonical
# shell.  Configs that differ only in them share one entry.
NOT_IN_HAMILTONIAN = ("energy_unit_wavenumbers", "paper_compat",
                      "random_initial_phases", "total_energy")


def cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "quniverse"


def cache_key(config: ModelConfig) -> str:
    library, threads = model.solve_library()
    return config.content_hash(exclude=NOT_IN_HAMILTONIAN, draw_contract=DRAW_CONTRACT_VERSION,
                               solve_contract=model.SOLVE_CONTRACT, solve_library=library,
                               solve_threads=threads)


def entry_path(config: ModelConfig) -> Path:
    return cache_dir() / f"{cache_key(config)}.npy"


def load_eigensystem(config: ModelConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """Cached (eigenvalues, eigenvectors) for this config, or None on miss.

    Both are read-only views of the mapped entry.
    """
    path = entry_path(config)
    if not path.exists():
        return None
    dim = config.n_universe_states
    try:
        data = np.load(path, mmap_mode="r")
        # np.load refuses a file shorter than its header promises (mapping
        # it would raise SIGBUS on access); a longer one is not ours either
        complete = data.offset + data.nbytes == os.path.getsize(path)
    except (OSError, ValueError, EOFError) as exc:
        warnings.warn(f"discarding unreadable cache entry {path.name}: {exc}", stacklevel=2)
        return None
    if (not complete or data.dtype != np.float64 or data.shape != (dim, dim + 1)
            or not data.flags.f_contiguous):
        warnings.warn(f"discarding cache entry {path.name}: expected {dim}x{dim + 1} "
                      f"Fortran-ordered float64 of full size", stacklevel=2)
        return None
    data = np.asarray(data)
    return data[:, 0], data[:, 1:]


def store_eigensystem(config: ModelConfig, eigenvalues: np.ndarray,
                      eigenvectors: np.ndarray) -> None:
    """Write the entry by streaming w and then V column by column; no combined copy.

    Then evict the oldest files beyond the size cap, keeping this entry.
    """
    base = cache_dir()
    base.mkdir(parents=True, exist_ok=True)
    dim = eigenvalues.size
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": True, "shape": (dim, dim + 1)}
    fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            np.ascontiguousarray(eigenvalues, dtype=np.float64).tofile(fh)
            np.asfortranarray(eigenvectors, dtype=np.float64).T.tofile(fh)
        os.replace(tmp, entry_path(config))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _evict(base, keep=entry_path(config))


def _evict(base: Path, keep: Path) -> None:
    """Remove the oldest `*.npy` files in `base` until they fit the cap; never `keep`.

    A cap that is not a non-negative number is reported and not applied:
    the entry is already stored, and a typo must not delete others.
    """
    text = os.environ.get(CACHE_MAX_MB_ENV) or str(DEFAULT_CACHE_MAX_MB)
    try:
        limit = float(text) * 2 ** 20
    except ValueError:
        limit = math.nan
    if not limit >= 0.0:
        warnings.warn(f"ignoring {CACHE_MAX_MB_ENV}={text!r}: expected a non-negative "
                      f"number of MiB; the cache is not trimmed", stacklevel=3)
        return
    files = []
    for path in base.glob("*.npy"):
        try:
            st = path.stat()
        except FileNotFoundError:  # removed by a concurrent store
            continue
        files.append((st.st_mtime_ns, path, st.st_size))
    total = sum(size for _, _, size in files)
    for _, path, size in sorted(files):
        if total <= limit:
            break
        if path != keep:
            path.unlink(missing_ok=True)
            total -= size
