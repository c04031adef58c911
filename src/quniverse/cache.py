"""On-disk cache for universe eigendecompositions.

At production size the dense symmetric solve dominates runtime, so
eigenpairs are stored under a key, `model.cache_key(config)`: a hash of
what determines their bytes.  Any change to those inputs changes the
key; stale entries are simply never hit.  This module knows only files:
it takes the key and the dimension, never a config.

An entry is one file, `{key}.npy`: a Fortran-ordered (n, n + 1) float64
array whose column 0 holds the eigenvalues and whose columns 1..n hold
the eigenvectors V.  A hit maps it read-only instead of reading it, so
every process works on the page cache's one copy and the load costs no
copy of V; V is then an F-contiguous slice of the mapping.  An entry is
written to a tmp file and renamed into place, never rewritten in place,
so a mapping keeps seeing the entry it opened even if a later store
replaces it.  A file of the wrong size, shape or layout is discarded
with a warning.

The key does not pin the matrix, so `model.assemble_hamiltonian`
checks every loaded entry against regenerated rows of H, re-solves a
rejected one and stores the new solve over it.  Loading only reads: a
hit writes, renames or touches no file in the directory.

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

CACHE_DIR_ENV = "QUNIVERSE_CACHE_DIR"
CACHE_MAX_MB_ENV = "QUNIVERSE_CACHE_MAX_MB"
DEFAULT_CACHE_MAX_MB = 4096.0


def cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "quniverse"


def entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.npy"


def load_eigensystem(key: str, dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The cached (eigenvalues, eigenvectors) of a dim x dim problem, or None on miss.

    Both are read-only views of the mapped entry.
    """
    path = entry_path(key)
    if not path.exists():
        return None
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


def store_eigensystem(key: str, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> None:
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
        os.replace(tmp, entry_path(key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _evict(base, keep=entry_path(key))


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
