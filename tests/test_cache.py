"""The eigensystem cache and the lean Hamiltonian path, on toy universes.

A cache hit must use the eigenpairs only after they pass the row check,
must never build the full H and must not touch the cache directory.
A miss or a rejected entry solves in place and stores the result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quniverse import model
from quniverse.cache import cache_dir, cache_key, load_eigensystem, store_eigensystem
from quniverse.cli import run_experiment
from quniverse.model import assemble_hamiltonian

from conftest import toy21_config

SRC = Path(__file__).resolve().parent.parent / "src"
OUTPUTS = ("traj_n0.csv", "traj_n1.csv", "traj_n2.csv", "sticks_n0.csv",
           "sticks_n1.csv", "sticks_n2.csv", "summary.json", "anomalies.json")


def _listing():
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in cache_dir().iterdir()}


def _run(cfg, out, use_cache):
    return run_experiment(cfg, [0, 1, 2], out, t_max_ps=2.0, n_points=40,
                          use_cache=use_cache)


def _assert_same_outputs(a, b):
    for name in OUTPUTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_hit_never_builds_full_matrix(monkeypatch):
    cfg = toy21_config(rng_seed=1)
    cold = assemble_hamiltonian(cfg, use_cache=True)
    assert not cold.cache_hit
    fill = model.build_hamiltonian_matrix

    def rows_only(config, basis, rng, n_rows=None):
        if n_rows is None:
            raise AssertionError("a cache hit built the full Hamiltonian")
        return fill(config, basis, rng, n_rows)

    monkeypatch.setattr(model, "build_hamiltonian_matrix", rows_only)
    warm = assemble_hamiltonian(cfg, use_cache=True)
    assert warm.cache_hit
    assert warm.eig_residual <= model.CHECK_RTOL
    assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
    assert np.array_equal(warm.eigenvectors, cold.eigenvectors)


def test_hit_leaves_cache_directory_untouched():
    cfg = toy21_config(rng_seed=1)
    assemble_hamiltonian(cfg, use_cache=True)
    before = _listing()
    assert len(before) == 2
    assert assemble_hamiltonian(cfg, use_cache=True).cache_hit
    assert _listing() == before


def test_foreign_entry_rejected_and_resolved(tmp_path):
    cfg = toy21_config(rng_seed=1)
    foreign = assemble_hamiltonian(toy21_config(rng_seed=2))
    store_eigensystem(cfg, foreign.eigenvalues, foreign.eigenvectors)

    with pytest.warns(UserWarning, match=f"cache entry {cache_key(cfg)} fails the eigen check"):
        manifest = _run(cfg, tmp_path / "cached", use_cache=True)
    assert manifest.cache["key"] == cache_key(cfg)
    assert manifest.cache["hit"] is False
    assert manifest.cache["eig_residual"] <= model.CHECK_RTOL
    _run(cfg, tmp_path / "nocache", use_cache=False)
    _assert_same_outputs(tmp_path / "cached", tmp_path / "nocache")

    # the rejected entry was replaced by this matrix's eigensystem
    own = assemble_hamiltonian(cfg)
    w, v = load_eigensystem(cfg)
    assert np.array_equal(w, own.eigenvalues) and np.array_equal(v, own.eigenvectors)
    assert assemble_hamiltonian(cfg, use_cache=True).cache_hit


def test_cold_and_warm_runs_write_identical_outputs(tmp_path):
    cfg = toy21_config(rng_seed=1)
    cold = _run(cfg, tmp_path / "cold", use_cache=True)
    warm = _run(cfg, tmp_path / "warm", use_cache=True)
    assert not cold.cache["hit"] and warm.cache["hit"]
    _assert_same_outputs(tmp_path / "cold", tmp_path / "warm")
    manifest = json.loads((tmp_path / "warm" / "manifest.json").read_text())
    assert manifest["cache"]["hit"] is True
    assert manifest["cache"]["key"] == cache_key(cfg)
    assert 0.0 <= manifest["cache"]["eig_residual"] <= model.CHECK_RTOL
    assert manifest["peak_rss_mb"] > 0.0


_SOLVE = """
import sys
from quniverse import ModelConfig
from quniverse.model import assemble_hamiltonian
ham = assemble_hamiltonian(ModelConfig(n_env_levels=3, alpha=0.05))
sys.stdout.buffer.write(ham.eigenvalues.tobytes() + ham.eigenvectors.tobytes())
"""


def _solve_bytes(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _SOLVE], env=env, check=True,
                         capture_output=True).stdout
    dim = 6 * (6 + 12 + 24)
    data = np.frombuffer(out, dtype=np.float64)
    assert data.size == dim + dim * dim
    return out, data[:dim], data[dim:].reshape(dim, dim)


def test_solve_bit_identical_at_same_blas_thread_count():
    # the README's claim: bit-identical for the same BLAS thread count;
    # across thread counts the eigenpairs agree only to rounding
    one_a, w1, v1 = _solve_bytes(1)
    one_b, _, _ = _solve_bytes(1)
    two_a, w2, v2 = _solve_bytes(2)
    two_b, _, _ = _solve_bytes(2)
    assert one_a == one_b
    assert two_a == two_b
    np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-12)
    # eigenvectors agree up to sign (the spectrum is non-degenerate)
    signs = np.sign(np.sum(v1 * v2, axis=0))
    np.testing.assert_allclose(v1, v2 * signs, rtol=0, atol=1e-9)
