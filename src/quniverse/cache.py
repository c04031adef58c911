"""On-disk cache for universe eigendecompositions.

At production size the dense symmetric solve dominates runtime, so
eigenpairs are stored keyed by a hash of (configuration incl. seed,
package version, draw-order contract version), as two .npy files per
key.  Any change to those inputs changes the key; stale entries are
simply never hit.

This module only reads and writes entries.  The key does not pin the
matrix, so `model.assemble_hamiltonian` checks every loaded entry
against regenerated rows of H, re-solves a rejected one and stores the
new solve over it.  Loading only reads: a hit writes, renames or touches
no file in the directory.

The directory comes from QUNIVERSE_CACHE_DIR, defaulting to
~/.cache/quniverse.  Files are written atomically (tmp + rename).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import ModelConfig
from .rng import DRAW_CONTRACT_VERSION

CACHE_DIR_ENV = "QUNIVERSE_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "quniverse"


def cache_key(config: ModelConfig) -> str:
    payload = (
        config.canonical_string()
        + f"code_version = {__version__}\n"
        + f"draw_contract = {DRAW_CONTRACT_VERSION}\n"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _paths(key: str) -> tuple[Path, Path]:
    base = cache_dir()
    return base / f"{key}.eigvals.npy", base / f"{key}.eigvecs.npy"


def load_eigensystem(config: ModelConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """Cached (eigenvalues, eigenvectors) for this config, or None on miss."""
    vals_path, vecs_path = _paths(cache_key(config))
    if not (vals_path.exists() and vecs_path.exists()):
        return None
    try:
        w = np.load(vals_path)
        v = np.load(vecs_path)
    except Exception as exc:
        warnings.warn(f"discarding unreadable cache entry: {exc}", stacklevel=2)
        return None
    dim = config.n_universe_states
    if w.shape != (dim,) or v.shape != (dim, dim):
        warnings.warn("discarding cache entry with mismatched shape", stacklevel=2)
        return None
    return w, v


def store_eigensystem(config: ModelConfig, eigenvalues: np.ndarray,
                      eigenvectors: np.ndarray) -> None:
    base = cache_dir()
    base.mkdir(parents=True, exist_ok=True)
    vals_path, vecs_path = _paths(cache_key(config))
    for path, array in ((vals_path, eigenvalues), (vecs_path, eigenvectors)):
        fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, array)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
