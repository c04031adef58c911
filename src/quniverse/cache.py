"""On-disk cache for universe eigendecompositions, and the package's file writer.

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
written whole (`write_whole`), never rewritten in place, so a mapping
keeps seeing the entry it opened even if a later store replaces it.  A
file of the wrong size, shape or layout is discarded with a warning.

The key does not pin the matrix, so `model.assemble_hamiltonian`
checks every loaded entry against regenerated rows of H, re-solves a
rejected one and stores the new solve over it.  A hit writes, renames
or removes no file in the directory: it only sets the entry's access
time to now, keeping its mtime, and goes on without that where it is
refused (an entry owned by another user).

The directory is bounded: after each store, the least recently used
`*.npy*` files, by the later of access time and mtime, are removed until
they hold at most QUNIVERSE_CACHE_MAX_MB MiB (default 4096), never the
entry just written.  Those are the package's own files: entries, the
two-file `*.eigvals.npy`/`*.eigvecs.npy` entries of earlier versions,
which nothing reads any more, and the `{key}.npy.<pid>-<hex>.tmp` file
of a store that was killed.  Files with other names are never touched.
A live store's tmp file is the newest; should it be removed, that store
fails and its process goes on uncached.  Removing a file another process
has mapped is safe: its mapping stays valid.

The directory comes from QUNIVERSE_CACHE_DIR, defaulting to
~/.cache/quniverse.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import time
import warnings
from collections.abc import Iterator
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


@contextlib.contextmanager
def write_whole(path, mode: str = "w") -> Iterator:
    """Yield a new file opened for writing in `mode` ("w" or "wb"); when the
    block completes, it replaces `path` whole.

    The package's one way to write a file.  The file's directory is made
    if it is missing.  The file is written under a name of its own in that
    directory (`path.<pid>-<random>.tmp`, with the umask's mode) and
    renamed onto `path`, so no reader sees it part-written and concurrent
    writers of one path never share a file: the last to finish wins.  If
    the block raises, the tmp file is removed and `path` stays as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_eigensystem(key: str, dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The cached (eigenvalues, eigenvectors) of a dim x dim problem, or None on miss.

    Both are read-only views of the mapped entry.  A hit stamps the
    entry's access time, which orders eviction.
    """
    path = entry_path(key)
    if not path.exists():
        return None
    try:
        data = np.load(path, mmap_mode="r")
        st = path.stat()
        # np.load refuses a file shorter than its header promises (mapping
        # it would raise SIGBUS on access); a longer one is not ours either
        complete = data.offset + data.nbytes == st.st_size
    except (OSError, ValueError, EOFError) as exc:
        warnings.warn(f"discarding unreadable cache entry {path.name}: {exc}", stacklevel=2)
        return None
    if (not complete or data.dtype != np.float64 or data.shape != (dim, dim + 1)
            or not data.flags.f_contiguous):
        warnings.warn(f"discarding cache entry {path.name}: expected {dim}x{dim + 1} "
                      f"Fortran-ordered float64 of full size", stacklevel=2)
        return None
    with contextlib.suppress(OSError):  # refused: the entry goes on unstamped
        os.utime(path, ns=(time.time_ns(), st.st_mtime_ns))
    data = np.asarray(data)
    return data[:, 0], data[:, 1:]


def store_eigensystem(key: str, eigenvalues: np.ndarray,
                      eigenvectors: np.ndarray) -> list[tuple[str, int]]:
    """Write the entry by streaming w and then V column by column; no combined copy.

    Then evict the least recently used files beyond the size cap, keeping
    this entry, and return the (name, bytes) of each file evicted.
    """
    dim = eigenvalues.size
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": True, "shape": (dim, dim + 1)}
    with write_whole(entry_path(key), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        np.ascontiguousarray(eigenvalues, dtype=np.float64).tofile(fh)
        np.asfortranarray(eigenvectors, dtype=np.float64).T.tofile(fh)
    return _evict(cache_dir(), keep=entry_path(key))


def _evict(base: Path, keep: Path) -> list[tuple[str, int]]:
    """Remove the least recently used regular `*.npy*` files in `base` until they
    fit the cap, never `keep`; return the (name, bytes) of each file removed.

    A file's last use is the later of its access time and its mtime.  A
    cap that is not a non-negative number is reported and not applied:
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
        return []
    files = []
    for path in base.glob("*.npy*"):
        try:
            st = path.lstat()
        except FileNotFoundError:  # removed by a concurrent store
            continue
        if stat.S_ISREG(st.st_mode):
            files.append((max(st.st_atime_ns, st.st_mtime_ns), path, st.st_size))
    total = sum(size for _, _, size in files)
    evicted = []
    for _, path, size in sorted(files):
        if total <= limit:
            break
        if path != keep:
            path.unlink(missing_ok=True)
            total -= size
            evicted.append((path.name, size))
    return evicted
