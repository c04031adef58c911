"""The eigensystem cache and the lean Hamiltonian path, on toy universes.

A cache hit must use the eigenpairs only after they pass the row check,
must never build the full H and must not touch the cache directory.
A miss or a rejected entry solves in place and stores the result.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from quniverse import blas, cache, model
from quniverse.cache import CACHE_MAX_MB_ENV, cache_dir, entry_path
from quniverse.cli import run_experiment
from quniverse.dynamics import initial_state
from quniverse.model import NOT_IN_HAMILTONIAN, assemble_hamiltonian, cache_key, diagonalize

from conftest import hamiltonian_matrix, propagated, toy21_config

SRC = Path(__file__).resolve().parent.parent / "src"
OUTPUTS = ("traj_n0.csv", "traj_n1.csv", "traj_n2.csv", "sticks_n0.csv",
           "sticks_n1.csv", "sticks_n2.csv", "summary.json", "anomalies.json")


def _listing():
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in cache_dir().iterdir()}


def _run(cfg, out, n_points=40):
    return run_experiment(cfg, [0, 1, 2], out, t_max_ps=2.0, n_points=n_points)


def _solve(cfg):
    """cfg's eigensystem, solved without the cache."""
    return diagonalize(hamiltonian_matrix(cfg))


def _path(cfg):
    return entry_path(cache_key(cfg))


def _load(cfg):
    return cache.load_eigensystem(cache_key(cfg), cfg.n_universe_states)


def _store(cfg, eigenvalues, eigenvectors):
    cache.store_eigensystem(cache_key(cfg), eigenvalues, eigenvectors)


def _assert_same_outputs(a, b):
    for name in OUTPUTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_hit_never_builds_full_matrix(monkeypatch):
    cfg = toy21_config(rng_seed=1)
    cold = assemble_hamiltonian(cfg)
    assert not cold.cache_hit
    fill = model.build_hamiltonian_matrix

    def rows_only(config, n_rows=None):
        if n_rows is None:
            raise AssertionError("a cache hit built the full Hamiltonian")
        return fill(config, n_rows)

    monkeypatch.setattr(model, "build_hamiltonian_matrix", rows_only)
    warm = assemble_hamiltonian(cfg)
    assert warm.cache_hit
    assert warm.eig_residual <= model.CHECK_RTOL
    assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
    assert np.array_equal(warm.eigenvectors, cold.eigenvectors)


def test_hit_leaves_cache_directory_untouched():
    cfg = toy21_config(rng_seed=1)
    assemble_hamiltonian(cfg)
    before = _listing()
    assert len(before) == 1
    assert assemble_hamiltonian(cfg).cache_hit
    assert _listing() == before


def test_foreign_entry_rejected_and_resolved(tmp_path, monkeypatch):
    cfg = toy21_config(rng_seed=1)
    _store(cfg, *_solve(toy21_config(rng_seed=2)))

    with pytest.warns(UserWarning, match=f"cache entry {cache_key(cfg)} fails the eigen check"):
        manifest = _run(cfg, tmp_path / "cached")
    assert manifest["cache"]["key"] == cache_key(cfg)
    assert manifest["cache"]["hit"] is False
    assert manifest["cache"]["eig_residual"] <= model.CHECK_RTOL

    # the rejected entry was replaced by this matrix's eigensystem
    w, v = _load(cfg)
    own_w, own_v = _solve(cfg)
    assert np.array_equal(w, own_w) and np.array_equal(v, own_v)
    assert assemble_hamiltonian(cfg).cache_hit

    # and the run wrote what a run on an empty cache writes
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "empty_cache"))
    assert not _run(cfg, tmp_path / "fresh")["cache"]["hit"]
    _assert_same_outputs(tmp_path / "cached", tmp_path / "fresh")


def test_unwritable_cache_warns_and_the_run_completes(tmp_path, monkeypatch):
    # a file where the cache directory's parent should be: mkdir fails, even as root
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("")
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(blocker / "cache"))
    cfg = toy21_config(rng_seed=1)
    with pytest.warns(UserWarning, match=f"solved, but not cached in {cache.CACHE_DIR_ENV}="):
        manifest = _run(cfg, tmp_path / "uncached")
    assert manifest["cache"]["hit"] is False
    assert blocker.read_text() == ""

    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    _run(cfg, tmp_path / "cached")
    _assert_same_outputs(tmp_path / "uncached", tmp_path / "cached")


def test_cold_and_warm_runs_write_identical_outputs(tmp_path):
    cfg = toy21_config(rng_seed=1)
    cold = _run(cfg, tmp_path / "cold")
    warm = _run(cfg, tmp_path / "warm")
    assert not cold["cache"]["hit"] and warm["cache"]["hit"]
    _assert_same_outputs(tmp_path / "cold", tmp_path / "warm")
    manifest = json.loads((tmp_path / "warm" / "manifest.json").read_text())
    assert manifest["cache"]["hit"] is True
    assert manifest["cache"]["key"] == cache_key(cfg)
    assert 0.0 <= manifest["cache"]["eig_residual"] <= model.CHECK_RTOL
    library, threads = blas.library()
    assert (manifest["cache"]["blas_library"], manifest["cache"]["blas_threads"]) == (
        library, threads)
    assert manifest["peak_rss_mb"] > 0.0


def test_cold_and_warm_nufft_runs_write_identical_outputs(tmp_path):
    # 120 points take the NUFFT path; the 40 of the test above, the direct product
    cfg = toy21_config(rng_seed=1)
    _run(cfg, tmp_path / "cold", n_points=120)
    warm = _run(cfg, tmp_path / "warm", n_points=120)
    assert warm["cache"]["hit"]
    _assert_same_outputs(tmp_path / "cold", tmp_path / "warm")


def _mapped_file(array):
    """The file whose mapping backs `array`, or None."""
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return Path(base.filename)
        base = base.base
    return None


def test_hit_maps_entry_read_only():
    cfg = toy21_config(rng_seed=1)
    cold = assemble_hamiltonian(cfg)
    before = _listing()
    assert list(before) == [_path(cfg).name]
    warm = assemble_hamiltonian(cfg)
    assert warm.cache_hit
    for array in (warm.eigenvalues, warm.eigenvectors):
        assert type(array) is np.ndarray
        assert not array.flags.writeable
        assert _mapped_file(array) == _path(cfg)
    assert warm.eigenvectors.flags.f_contiguous
    assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
    assert np.array_equal(warm.eigenvectors, cold.eigenvectors)
    assert _listing() == before


def test_store_over_mapped_entry_keeps_earlier_mapping():
    cfg = toy21_config(rng_seed=1)
    assemble_hamiltonian(cfg)
    mapped = assemble_hamiltonian(cfg)
    assert mapped.cache_hit
    psi0 = initial_state(cfg, 1)[None]
    times = np.linspace(0.0, 50.0, 7)
    before = propagated(psi0, mapped, times)

    foreign_w, foreign_v = _solve(toy21_config(rng_seed=2))
    _store(cfg, foreign_w, foreign_v)
    _, v = _load(cfg)
    assert np.array_equal(v, foreign_v)
    assert not np.array_equal(mapped.eigenvectors, foreign_v)
    assert np.array_equal(propagated(psi0, mapped, times), before)


def _store_aged(cfg, age_s):
    """Store cfg's eigensystem and date its entry `age_s` seconds back."""
    _store(cfg, *_solve(cfg))
    path = _path(cfg)
    stamp = path.stat().st_mtime - age_s
    os.utime(path, (stamp, stamp))
    return path


def _aged_file(name, size, age_s):
    path = cache_dir() / name
    path.write_bytes(bytes(size))
    stamp = path.stat().st_mtime - age_s
    os.utime(path, (stamp, stamp))
    return path


def test_store_evicts_oldest_beyond_cap(monkeypatch):
    old = _store_aged(toy21_config(rng_seed=1), 300)
    legacy_w = _aged_file("0" * 64 + ".eigvals.npy", 300_000, 200)
    legacy_v = _aged_file("0" * 64 + ".eigvecs.npy", 750_000, 200)
    mid = _store_aged(toy21_config(rng_seed=2), 100)
    unrelated = _aged_file("in-flight.tmp", 900_000, 400)
    assert old.exists()  # under the default cap nothing went
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "1")
    new = _store_aged(toy21_config(rng_seed=3), 0)
    # 1.05 MB of legacy files and three entries exceed 1 MiB: the oldest go
    # first until the rest fit, the legacy files count, and files that are
    # not *.npy* are never touched
    assert not old.exists() and not legacy_w.exists()
    assert legacy_v.exists() and mid.exists() and new.exists() and unrelated.exists()


def test_store_evicts_the_tmp_file_of_a_killed_store(monkeypatch):
    # a store killed by SIGKILL never reaches write_whole's cleanup
    killed = _aged_file("a" * 64 + ".npy.4242-0badf00d.tmp", 3 * 2 ** 20, 100)
    (cache_dir() / "subdirectory").mkdir()
    notes = _aged_file("notes.txt", 3 * 2 ** 20, 200)
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "1")
    cfg = toy21_config(rng_seed=1)
    w, v = _solve(cfg)
    assert cache.store_eigensystem(cache_key(cfg), w, v) == [(killed.name, 3 * 2 ** 20)]
    assert sorted(p.name for p in cache_dir().iterdir()) == sorted(
        [_path(cfg).name, notes.name, "subdirectory"])


def test_store_never_evicts_the_entry_it_wrote(monkeypatch):
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "0")
    older = _store_aged(toy21_config(rng_seed=1), 100)
    newer = _aged_file("f" * 64 + ".npy", 10, -1000)  # mtime in the future
    cfg = toy21_config(rng_seed=2)
    _store(cfg, *_solve(cfg))
    assert [p.name for p in cache_dir().iterdir()] == [_path(cfg).name]
    assert not older.exists() and not newer.exists()


def test_default_cap_keeps_small_cache(monkeypatch):
    monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
    first = _store_aged(toy21_config(rng_seed=1), 100)
    second = _store_aged(toy21_config(rng_seed=2), 0)
    assert first.exists() and second.exists()


@pytest.mark.parametrize("value", ["lots", "-1", "nan"])
def test_invalid_cap_warns_and_evicts_nothing(monkeypatch, value):
    old = _store_aged(toy21_config(rng_seed=1), 100)
    monkeypatch.setenv(CACHE_MAX_MB_ENV, value)
    cfg = toy21_config(rng_seed=2)
    w, v = _solve(cfg)
    with pytest.warns(UserWarning, match=f"ignoring {CACHE_MAX_MB_ENV}"):
        _store(cfg, w, v)
    assert old.exists() and _path(cfg).exists()


def test_store_evicts_the_least_recently_used(monkeypatch, capsys):
    a, b, c, d = (toy21_config(rng_seed=seed) for seed in (1, 2, 3, 4))
    entry_bytes = _store_aged(a, 300).stat().st_size
    _store_aged(b, 200)
    _store_aged(c, 100)
    monkeypatch.setenv(CACHE_MAX_MB_ENV, repr(3.5 * entry_bytes / 2 ** 20))
    mtime = _path(a).stat().st_mtime_ns
    assert assemble_hamiltonian(a).cache_hit  # A is used last of the three
    assert _path(a).stat().st_mtime_ns == mtime
    capsys.readouterr()
    assemble_hamiltonian(d)
    # four entries exceed a cap of three and a half: B goes, though A was written first
    assert [_path(cfg).exists() for cfg in (a, b, c, d)] == [True, False, True, True]
    evicted = [line for line in capsys.readouterr().err.splitlines() if "evicted" in line]
    assert evicted == [f"quniverse: evicted entry {cache_key(b)[:12]}, 0 MB, "
                       f"the least recently used"]


def test_hit_goes_on_unstamped_where_the_stamp_is_refused(monkeypatch):
    cfg = toy21_config(rng_seed=1)
    cold = assemble_hamiltonian(cfg)

    def refuse(*args, **kwargs):
        raise PermissionError("not the entry's owner")

    monkeypatch.setattr(os, "utime", refuse)
    warm = assemble_hamiltonian(cfg)
    assert warm.cache_hit and np.array_equal(warm.eigenvectors, cold.eigenvectors)


def test_entry_takes_the_umask_mode():
    cfg = toy21_config(rng_seed=1)
    _store(cfg, *_solve(cfg))
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(_path(cfg).stat().st_mode) == 0o666 & ~umask


def test_nested_writers_of_one_path_both_finish_and_leave_one_whole_file(tmp_path):
    path = tmp_path / "new" / "traj_n0.csv"
    with cache.write_whole(path) as outer:
        outer.write("outer writer's line\n" * 1000)
        with cache.write_whole(path) as inner:
            inner.write("inner 10 b")
        assert path.read_text() == "inner 10 b"
        outer.write("outer's tail\n")
    assert path.read_text() == "outer writer's line\n" * 1000 + "outer's tail\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["traj_n0.csv"]


def test_write_whole_leaves_the_path_as_it_was_when_the_block_raises(tmp_path):
    path = tmp_path / "entry.npy"
    path.write_bytes(b"earlier")
    with pytest.raises(OSError, match="disk full"):
        with cache.write_whole(path, "wb") as fh:
            fh.write(b"part")
            raise OSError("disk full")
    assert path.read_bytes() == b"earlier"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.npy"]


def _damage(path, kind):
    data = path.read_bytes()
    if kind == "truncated":
        path.write_bytes(data[:-8])
    elif kind == "header_only":
        path.write_bytes(data[:128])
    elif kind == "extended":
        path.write_bytes(data + bytes(8))
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "c_order":
        np.save(path, np.ascontiguousarray(np.load(path)))
    elif kind == "wrong_shape":
        np.save(path, np.asfortranarray(np.load(path)[:, 1:]))


@pytest.mark.parametrize("kind", ["truncated", "header_only", "extended", "empty",
                                  "c_order", "wrong_shape"])
def test_damaged_entry_discarded_and_resolved(kind):
    cfg = toy21_config(rng_seed=1)
    cold = assemble_hamiltonian(cfg)
    _damage(_path(cfg), kind)
    with pytest.warns(UserWarning, match="discarding"):
        assert _load(cfg) is None
    with pytest.warns(UserWarning, match="discarding"):
        again = assemble_hamiltonian(cfg)
    assert not again.cache_hit
    assert np.array_equal(again.eigenvectors, cold.eigenvectors)
    assert assemble_hamiltonian(cfg).cache_hit


# one valid changed value per kept field
_KEPT = {
    "n_system_levels": dict(n_system_levels=4),
    "kappa": dict(kappa=2.0),
    "n_env_levels": dict(n_env_levels=4),
    "omega_E": dict(omega_E=2.0),
    "degeneracy_A": dict(degeneracy_A=2),
    "degeneracy_b": dict(degeneracy_b=3.0),
    "alpha": dict(alpha=0.2),
    "rng_seed": dict(rng_seed=12),
    "coupling_scope": dict(coupling_scope="system_changing_only"),
}
_DROPPED = {
    "energy_unit_wavenumbers": 100.0,
    "paper_compat": True,
    "random_initial_phases": True,
    "total_energy": 1,
}


def test_key_fields_partition_the_config():
    fields = set(toy21_config().to_dict())
    assert set(NOT_IN_HAMILTONIAN) == set(_DROPPED)
    assert set(_KEPT) | set(_DROPPED) == fields


@pytest.mark.parametrize("name", sorted(_DROPPED))
def test_key_ignores_fields_outside_hamiltonian(name):
    base = toy21_config()
    changed = toy21_config(**{name: _DROPPED[name]})
    assert cache_key(changed) == cache_key(base)
    assert hamiltonian_matrix(changed).tobytes() == hamiltonian_matrix(base).tobytes()


@pytest.mark.parametrize("name", sorted(_KEPT))
def test_key_covers_hamiltonian_fields(name):
    changed = toy21_config(**_KEPT[name])
    assert cache_key(changed) != cache_key(toy21_config())
    assert hamiltonian_matrix(changed).tobytes() != hamiltonian_matrix(toy21_config()).tobytes()


@pytest.mark.parametrize("owner, name, changed", [
    (model, "DRAW_CONTRACT_VERSION", "changed"),
    (model, "SOLVE_CONTRACT", "changed"),
    (blas, "library", lambda: ("another LAPACK", 2)),
], ids=["DRAW_CONTRACT_VERSION", "SOLVE_CONTRACT", "library"])
def test_key_covers_code_and_draw_versions(monkeypatch, owner, name, changed):
    before = cache_key(toy21_config())
    monkeypatch.setattr(owner, name, changed)
    assert cache_key(toy21_config()) != before


def test_key_ignores_package_version(monkeypatch):
    # an output-only release keeps every entry: the solve contract covers the solve
    import quniverse

    before = cache_key(toy21_config())
    monkeypatch.setattr(quniverse, "__version__", "changed")
    assert cache_key(toy21_config()) == before


# a direct solve: every subprocess shares this test's cache directory, so
# assemble_hamiltonian would solve once and map that entry three times
_SOLVE = """
import sys
from quniverse.config import ModelConfig
from quniverse.model import build_hamiltonian_matrix, diagonalize
cfg = ModelConfig(n_env_levels=3, alpha=0.05)
w, v = diagonalize(build_hamiltonian_matrix(cfg))
sys.stdout.buffer.write(w.tobytes() + v.tobytes())
"""


# what a cache key reads first: the identity of numpy's OpenBLAS, which
# numpy has loaded already
_KEY_THEN_SOLVE = """
import os
from quniverse import blas
threads = len(os.listdir("/proc/self/task"))
blas.library()
assert len(os.listdir("/proc/self/task")) == threads, "a new OpenBLAS pool is left running"
""" + _SOLVE


def _solve_bytes(threads, script=_SOLVE):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
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


def test_identity_read_starts_no_pool_and_the_solve_keeps_its_bytes():
    # Loading a second OpenBLAS would start a second thread pool, whose
    # workers spin before they sleep; reading the identity loads nothing
    assert _solve_bytes(2, _KEY_THEN_SOLVE)[0] == _solve_bytes(2)[0]


_ASSEMBLE = """
import json
from quniverse import blas, model
from quniverse.config import ModelConfig
cfg = ModelConfig(n_env_levels=3, alpha=0.05)
ham = model.assemble_hamiltonian(cfg)
print(json.dumps([model.cache_key(cfg), ham.cache_hit, blas.library()[1]]))
"""


def _assemble_with(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _ASSEMBLE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_one_thread_run_never_maps_a_two_thread_entry():
    key_two, hit, threads = _assemble_with(2)
    assert not hit and threads == 2
    key_one, hit, threads = _assemble_with(1)
    assert key_one != key_two
    assert not hit and threads == 1
    assert _assemble_with(2) == [key_two, True, 2]
    assert _assemble_with(1) == [key_one, True, 1]
    assert sorted(p.name for p in cache_dir().iterdir()) == sorted(
        [f"{key_one}.npy", f"{key_two}.npy"])
