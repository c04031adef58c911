import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quniverse import model, units
from quniverse.blas import gemm_threads
from quniverse.config import ModelConfig
from quniverse.model import (
    CHECK_COLUMNS,
    CHECK_ROWS,
    SOLVE_CONTRACT,
    assemble_hamiltonian,
    build_basis,
    build_environment,
    build_hamiltonian_matrix,
    build_system_levels,
    diagonalize,
    eigen_residual,
    solve_bytes,
    temperature_of,
)
from conftest import hamiltonian_matrix, toy6_config, toy21_config
from oracles import polyad_eigenvalues

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# -- configuration -----------------------------------------------------------

def test_production_config_counts():
    cfg = ModelConfig()
    assert cfg.degeneracies() == [6, 12, 24, 48, 96, 192, 384, 768]
    assert cfg.n_env_states == 1530
    assert cfg.n_universe_states == 9180
    assert cfg.shell_size(5) == 378
    assert cfg.shell_size(5) == 6 * (2 ** 6 - 1)


@pytest.mark.parametrize("bad", [
    dict(n_system_levels=0),
    dict(total_energy=6),                    # > n_system_levels - 1
    dict(degeneracy_b=1.0),                  # infinite temperature
    dict(degeneracy_b=0.5),
    dict(alpha=-0.01),
    dict(degeneracy_A=0),
    dict(n_env_levels=0),
    dict(omega_E=0.0),
    dict(rng_seed=-1),
    dict(rng_seed=2 ** 64),
    dict(total_energy=-1),
    dict(energy_unit_wavenumbers=0.0),
    dict(omega_E=2000.0),                    # 2^(m*omega_E) overflows a float
    dict(degeneracy_b=1e308),                # A*b^m overflows a float
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        ModelConfig(**bad)


def test_config_file_overflowing_degeneracy_names_file(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("omega_E = 2000\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: degeneracy .* overflows"):
        ModelConfig.from_file(path)


@pytest.mark.parametrize("name, expected", [("production", ModelConfig(rng_seed=1)),
                                            ("toy", toy6_config(alpha=0.2))])
def test_shipped_configs_parse(name, expected):
    assert ModelConfig.from_file(CONFIGS / f"{name}.cfg") == expected


@pytest.mark.parametrize("key", ["polyad_N", "omega0", "coupling_scope"])
def test_config_file_dropped_fields_rejected(tmp_path, key):
    path = tmp_path / "model.cfg"
    path.write_text(f"alpha = 0.1\n{key} = 5\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{path}:2: unknown configuration key {key!r}')}$"):
        ModelConfig.from_file(path)


def test_non_integer_degeneracy_rejected():
    # 6 * 1.5^2 = 13.5 is not an integer state count
    with pytest.raises(ValueError, match="not a positive integer"):
        ModelConfig(degeneracy_b=1.5, n_env_levels=3)


def test_alpha_zero_allowed():
    assert ModelConfig(alpha=0.0).alpha == 0.0


def test_config_file_round_trip(tmp_path):
    cfg = toy6_config(alpha=0.125, rng_seed=123456789, paper_compat=True)
    path = tmp_path / "model.cfg"
    path.write_text(cfg.canonical_string())
    assert ModelConfig.from_file(path) == cfg


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("n_system_levels = 6\nn_sistem_levels = 6\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: unknown configuration key "
                                         f"'n_sistem_levels'"):
        ModelConfig.from_file(path)


def test_config_file_duplicate_key_rejected(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("alpha = 0.1\nalpha = 0.2\n")
    with pytest.raises(ValueError, match="duplicate"):
        ModelConfig.from_file(path)


@pytest.mark.parametrize("line, message", [
    ("n_env_levels = 8.0", "n_env_levels: invalid literal for int() with base 10: '8.0'"),
    ("alpha = nan", "alpha: non-finite value 'nan'"),
    ("paper_compat = maybe", "paper_compat: cannot parse boolean from 'maybe'"),
], ids=["int", "float", "bool"])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, line, message):
    path = tmp_path / "model.cfg"
    path.write_text(f"n_system_levels = 6\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        ModelConfig.from_file(path)


def test_config_file_out_of_range_value_names_file(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("n_system_levels = 6\nalpha = -1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: alpha must be non-negative')}$"):
        ModelConfig.from_file(path)


def test_config_hash_tracks_content():
    assert ModelConfig().content_hash() != ModelConfig(rng_seed=1).content_hash()
    assert ModelConfig().content_hash() == ModelConfig().content_hash()


# -- system polyad ----------------------------------------------------------

def test_production_polyad_unit_spacing():
    eigenvalues = polyad_eigenvalues(ModelConfig())
    assert eigenvalues.size == 6
    np.testing.assert_allclose(np.diff(eigenvalues), 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(build_system_levels(ModelConfig()), np.arange(6.0))


def test_single_level_polyad():
    cfg = ModelConfig(n_system_levels=1, total_energy=0,
                      n_env_levels=2, degeneracy_A=1)
    eigenvalues = polyad_eigenvalues(cfg)
    assert eigenvalues.shape == (1,)
    assert eigenvalues[0] == 0.0


def _char_poly_roots_3x3(a):
    # independent eigenvalue oracle: explicit characteristic polynomial
    # det(a - x I) = -x^3 + tr x^2 - c1 x + det, roots via companion matrix
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    c1 = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
          + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
          + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
    det = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
           - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
           + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    return np.sort(np.roots([1.0, -tr, c1, -det]).real)


def test_polyad_block_against_char_poly_oracle():
    cfg = ModelConfig(n_system_levels=3, kappa=0.5, total_energy=2, n_env_levels=3,
                      degeneracy_A=1)
    omega0 = 10.0
    eigenvalues = polyad_eigenvalues(cfg, omega0)
    # the local-mode polyad block, built here independently of the model
    N = cfg.n_system_levels - 1
    off = 0.5 * cfg.kappa * np.sqrt([(n1 + 1.0) * (N - n1) for n1 in range(N)])
    block = N * omega0 * np.eye(N + 1) + np.diag(off, 1) + np.diag(off, -1)
    expected = _char_poly_roots_3x3(block)
    np.testing.assert_allclose(eigenvalues, expected, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.diff(eigenvalues), 0.5, rtol=0, atol=1e-10)


@pytest.mark.parametrize("case", range(8))
def test_polyad_spacing_property(case):
    rng = np.random.default_rng(case)
    N = int(rng.integers(1, 12))
    omega0 = float(rng.uniform(0.5, 80.0))
    kappa = float(rng.uniform(0.05, 5.0))
    cfg = ModelConfig(n_system_levels=N + 1, kappa=kappa, total_energy=0, n_env_levels=1,
                      degeneracy_A=1)
    evals = polyad_eigenvalues(cfg, omega0)
    np.testing.assert_allclose(np.diff(evals), kappa, rtol=0, atol=1e-10 * max(1.0, omega0 * N))


# -- environment ------------------------------------------------------------

def _env_rungs(cfg):
    """(m, l) of each environment state: the basis's first N_E rows, system level 0."""
    basis = build_basis(cfg)
    return basis.m[:cfg.n_env_states], basis.l[:cfg.n_env_states]


def test_environment_counts_production():
    cfg = ModelConfig()
    energy, (m, l) = build_environment(cfg), _env_rungs(cfg)
    assert energy.shape == (1530,)
    counts = np.bincount(m)
    np.testing.assert_array_equal(counts, [6, 12, 24, 48, 96, 192, 384, 768])
    # rung-major draw order: m ascending, l ascending
    assert np.all(np.diff(m) >= 0)
    for rung in range(8):
        np.testing.assert_array_equal(l[m == rung], np.arange(counts[rung]))


def test_environment_zero_alpha_exact():
    cfg = ModelConfig(alpha=0.0)
    np.testing.assert_array_equal(build_environment(cfg), _env_rungs(cfg)[0].astype(float))


def test_environment_shift_statistics():
    cfg = ModelConfig(alpha=0.05, rng_seed=2024)
    m = _env_rungs(cfg)[0]
    sigma = 0.05 * math.sqrt(2.0)
    shift = build_environment(cfg) - m * cfg.omega_E
    top = shift[m == 7]
    assert top.size == 768
    assert abs(top.mean()) < 3.0 * sigma / math.sqrt(768)
    assert abs(top.std(ddof=1) - sigma) < 0.1 * sigma


# -- Hamiltonian assembly ----------------------------------------------------

def test_toy_hamiltonian_symmetric_and_reconstructs(toy6, toy6_ham):
    h = toy6_ham
    matrix = hamiltonian_matrix(toy6)
    assert np.array_equal(matrix, matrix.T)
    v, w = h.eigenvectors, h.eigenvalues
    np.testing.assert_allclose(v.T @ v, np.eye(h.dim), rtol=0, atol=1e-10)
    recon = (v * w) @ v.T
    scale = np.abs(matrix).max()
    assert np.abs(recon - matrix).max() <= 1e-12 * max(1.0, scale)
    assert np.all(np.diff(w) >= 0)


def test_diagonal_is_zero_order_energy(toy6, toy6_ham):
    np.testing.assert_array_equal(
        np.diag(hamiltonian_matrix(toy6)), build_basis(toy6).zero_order_energy
    )


def test_alpha_zero_hamiltonian_diagonal():
    cfg = toy6_config(alpha=0.0)
    ham = assemble_hamiltonian(cfg)
    matrix = hamiltonian_matrix(cfg)
    off = matrix - np.diag(np.diag(matrix))
    assert np.all(off == 0.0)
    np.testing.assert_array_equal(np.diag(matrix), build_basis(cfg).zero_order_energy)


def _tied(n, levels, seed):
    """n diagonal entries drawn from `levels` values, in no order: ties everywhere."""
    return np.random.default_rng(seed).integers(levels, size=n) * 0.5 - 1.0


@pytest.mark.parametrize("d", [
    _tied(20, 4, 1), _tied(25, 25, 2), _tied(300, 12, 3), np.zeros(40),
    build_basis(ModelConfig(n_env_levels=4, alpha=0.0)).zero_order_energy,
], ids=["dsteqr-20", "dsteqr-25", "dstedc-300", "zero-40", "zero-order-540"])
def test_diagonal_eigensystem_is_diagonalize_bit_for_bit(d):
    # n <= 25 takes dsteqr inside dstedc, larger n dstedc's own loop; both
    # end in the same selection sort, which is not stable under ties
    assert np.unique(d).size < d.size
    w, v = diagonalize(np.diag(d))
    got_w, got_v = model.diagonal_eigensystem(d)
    assert got_w.tobytes() == w.tobytes()
    assert got_v.flags.f_contiguous and v.flags.f_contiguous
    assert got_v.tobytes(order="F") == v.tobytes(order="F")


def test_alpha_zero_makes_no_fill_no_solve_no_heartbeat_and_no_cache(monkeypatch, tmp_path):
    cfg = toy21_config(alpha=0.0)
    w, v = diagonalize(hamiltonian_matrix(cfg))

    def refuse(*args, **kwargs):
        raise AssertionError("H was filled, a solve ran or the cache was used")

    fill = model.build_hamiltonian_matrix
    monkeypatch.setattr(model, "build_hamiltonian_matrix",
                        lambda config, n_rows=None: refuse() if n_rows is None
                        else fill(config, n_rows=n_rows))
    for name in ("diagonalize", "_heartbeat"):
        monkeypatch.setattr(model, name, refuse)
    for name in ("load_eigensystem", "store_eigensystem"):
        monkeypatch.setattr(model.cache, name, refuse)
    monkeypatch.setenv(model.cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    with model.recording() as record:
        ham = assemble_hamiltonian(cfg)
    assert (ham.cache_hit, ham.solve) == (False, "diagonal")
    assert ham.eigenvalues.tobytes() == w.tobytes()
    assert ham.eigenvectors.tobytes(order="F") == v.tobytes(order="F")
    assert ham.eig_residual == 0.0
    assert record.seconds["divide_and_conquer"] > 0.0 and record.seconds["check"] > 0.0
    assert not (tmp_path / "cache").exists()


def test_identical_seed_bit_identical_matrix():
    cfg = toy21_config()
    a = hamiltonian_matrix(cfg)
    b = hamiltonian_matrix(cfg)
    assert np.array_equal(a, b)
    c = hamiltonian_matrix(toy21_config(rng_seed=12))
    assert not np.array_equal(a, c)


# sha256 of the full H per n_env_levels, production parameters otherwise:
# 252 and 2268 states.  The cache key covers the assembly only through
# SOLVE_CONTRACT, and the 16-row load check cannot see a change confined
# to rows >= 16; so an assembly change must fail here until it bumps the
# contract and records its hashes under it.
H_SHA256 = {
    1: {
        3: "f5c126f606bf648c0410b16b85a9f78e14dae79b3c0c743961efaec6f23ea7d1",
        6: "214ef26f1741a41fe5147cb6d47cb3bda6ae56db7d4e33c630cf39e4f0953b2b",
    },
}


@pytest.mark.parametrize("n_env_levels", sorted(H_SHA256[1]))
def test_hamiltonian_pinned_for_this_solve_contract(n_env_levels):
    assert SOLVE_CONTRACT in H_SHA256, f"no H hashes recorded for contract {SOLVE_CONTRACT}"
    matrix = hamiltonian_matrix(ModelConfig(n_env_levels=n_env_levels))
    digest = hashlib.sha256(matrix.tobytes()).hexdigest()
    assert digest == H_SHA256[SOLVE_CONTRACT][n_env_levels]


def test_eigen_residual_unchanged_by_repeated_columns(toy21, toy21_ham):
    # 21 < CHECK_COLUMNS, so the sampled columns repeat; a max over them
    # equals the max over each column once
    v, w = toy21_ham.eigenvectors, toy21_ham.eigenvalues
    rows = hamiltonian_matrix(toy21)[:CHECK_ROWS]
    sampled = np.linspace(0, w.size - 1, CHECK_COLUMNS).astype(np.intp)
    cols = np.unique(sampled)
    assert cols.size < sampled.size
    once = float(np.abs(rows @ v[:, cols] - v[:CHECK_ROWS, cols] * w[cols]).max())
    assert eigen_residual(rows, w, v) == once
    assert toy21_ham.eig_residual == once


def test_eigen_residual_has_the_same_bytes_on_any_blas_thread_count(mid_ham):
    # Its product runs on one OpenBLAS thread whatever the library's count;
    # on two, R's last bits moved (1.7347e-15 against 1.7365e-15 on the
    # production entry of seed 1), and the idle worker spun into the pass
    cfg, ham = mid_ham
    rows = build_hamiltonian_matrix(cfg, n_rows=CHECK_ROWS)
    found = []
    for threads in (1, 2):
        with gemm_threads(threads):
            found.append(np.float64(eigen_residual(rows, ham.eigenvalues,
                                                   ham.eigenvectors)).tobytes())
    assert found[0] == found[1] == np.float64(ham.eig_residual).tobytes()


@pytest.mark.parametrize("k", [1, 16, 40])
def test_leading_rows_match_full_matrix(k):
    cfg = toy21_config()
    dim = cfg.n_universe_states
    full = build_hamiltonian_matrix(cfg)
    rows = build_hamiltonian_matrix(cfg, n_rows=k)
    assert rows.shape == (min(k, dim), dim)
    assert np.array_equal(rows, full[:k])


def test_coupling_width_statistics():
    cfg = toy21_config(alpha=0.25, rng_seed=5)
    h = build_hamiltonian_matrix(cfg)
    iu = np.triu_indices(cfg.n_universe_states, 1)
    draws = h[iu]
    sigma = 0.25 * cfg.omega_E
    assert abs(draws.mean()) < 3.0 * sigma / math.sqrt(draws.size)
    assert abs(draws.std(ddof=1) - sigma) < 0.15 * sigma


# -- basis indexing ----------------------------------------------------------

def test_basis_flat_index_bijection(toy21):
    # i = n N_E + sum_{m' < m} g(m') + l, the layout `dynamics.initial_state` relies on
    basis, degs = build_basis(toy21), toy21.degeneracies()
    offsets = np.concatenate(([0], np.cumsum(degs)[:-1]))
    seen = set()
    for i in range(toy21.n_universe_states):
        n, m, l = basis.n[i], basis.m[i], basis.l[i]
        assert 0 <= l < degs[m]
        assert n * toy21.n_env_states + offsets[m] + l == i
        seen.add((n, m, l))
    assert len(seen) == basis.n.size == toy21.n_universe_states


def test_basis_shell_labels(toy21):
    basis = build_basis(toy21)
    np.testing.assert_array_equal(basis.shell_label, basis.n + basis.m)
    assert np.count_nonzero(basis.shell_label == 2) == 7  # g(2) + g(1) + g(0) = 4 + 2 + 1


def test_production_basis_counts():
    cfg = ModelConfig()
    basis = build_basis(cfg)
    assert basis.shell_label.size == 9180
    assert np.count_nonzero(basis.shell_label == 5) == 378
    assert int(np.bincount(basis.shell_label).sum()) == 9180


# -- temperature -------------------------------------------------------------

def test_temperature_reference_values():
    t = temperature_of(ModelConfig())
    assert abs(t.kelvin_analytic - 232.0) < 0.1
    assert t.kelvin == t.kelvin_analytic
    assert abs(t.discrepancy_percent - 0.69) < 0.05
    assert t.beta_reduced == math.log(2.0)
    np.testing.assert_allclose(t.kbt_reduced, 1.0 / math.log(2.0), rtol=1e-12)

    t_compat = temperature_of(ModelConfig(paper_compat=True))
    assert t_compat.kelvin == 230.41
    np.testing.assert_allclose(
        t_compat.kbt_reduced,
        units.KB_WAVENUMBER_PER_KELVIN * 230.41 / 111.77,
        rtol=1e-12,
    )


def test_temperature_identity_case():
    # ln b = 1 and an energy unit of k_B * 1K makes T exactly 1 Kelvin
    cfg = ModelConfig(
        n_system_levels=2, total_energy=0, n_env_levels=1,
        degeneracy_A=1, degeneracy_b=math.e,
        energy_unit_wavenumbers=units.KB_WAVENUMBER_PER_KELVIN,
    )
    np.testing.assert_allclose(temperature_of(cfg).kelvin, 1.0, rtol=1e-12)


def test_temperature_halves_when_base_squares():
    t2 = temperature_of(toy6_config(degeneracy_b=2.0)).kelvin
    t4 = temperature_of(toy6_config(degeneracy_b=4.0)).kelvin
    np.testing.assert_allclose(t4, t2 / 2.0, rtol=1e-12)


# -- the solve ----------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return np.triu(m) + np.triu(m, 1).T


# n <= 25 takes dstedc's dsteqr path; from 33 on dsytrd is blocked; for
# 34 <= n <= 80 dsyevd's workspace cuts dormqr's block size
@pytest.mark.parametrize("n", [1, 2, 3, 21, 25, 26, 32, 33, 50, 129, 300])
def test_diagonalize_is_dsyevd_bit_for_bit(n):
    h = _symmetric(n, seed=n)
    w0, v0 = np.linalg.eigh(h)  # dsyevd
    w, v = diagonalize(h)
    assert np.array_equal(w, w0) and np.array_equal(v, v0)
    assert np.shares_memory(v, h) and v.flags.f_contiguous


def test_diagonalize_hamiltonian_is_dsyevd_bit_for_bit():
    h = hamiltonian_matrix(ModelConfig(n_env_levels=3))  # 252 states
    w0, v0 = np.linalg.eigh(h)
    w, v = diagonalize(h)
    assert np.array_equal(w, w0) and np.array_equal(v, v0)


# n = 20 takes dstedc's dsteqr path, n = 300 its divide and conquer
@pytest.mark.parametrize("n", [20, 300])
def test_solve_reads_only_the_upper_triangle(n):
    """LAPACK gets the F-ordered view with uplo = "L": the C-ordered diagonal and upper
    triangle are all it reads, so a fill could leave the lower triangle unwritten."""
    h = _symmetric(n, seed=n)
    w, v = diagonalize(h.copy())
    w_upper, v_upper = diagonalize(np.triu(h))
    assert w.tobytes() == w_upper.tobytes() and v.tobytes() == v_upper.tobytes()


@pytest.mark.parametrize("scale", [1e-150, 1e150, math.nan])
def test_diagonalize_refuses_a_matrix_dsyevd_would_scale(scale):
    with pytest.raises(RuntimeError, match="outside LAPACK's unscaled range"):
        diagonalize(_symmetric(4, seed=0) * scale)


def test_diagonalize_refuses_a_layout_it_cannot_solve_in_place():
    with pytest.raises(ValueError, match="C-ordered square float64"):
        diagonalize(np.asfortranarray(_symmetric(4, seed=0)[:, :3]))


# VmHWM is the high-water RSS of this process's own memory; ru_maxrss
# would start from the spawning process's RSS, taken over at exec.  VmRSS
# is also read as dormtr starts, once the packed reflectors are unpacked.
MEMORY_CHILD = """
import numpy as np
from quniverse import blas, model

def status(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(field + ":"))

def symmetric(n):  # no n x n temporary beside the matrix
    h = np.random.default_rng(0).standard_normal((n, n))
    for i in range(n):
        h[i, i + 1:] = h[i + 1:, i]
    return h

at_dormtr, lapack = [], blas.lapack

def recording_lapack(name, *args):
    if name == "dormtr":
        at_dormtr.append(status("VmRSS"))
    lapack(name, *args)

blas.lapack = recording_lapack
model.diagonalize(symmetric(1000))  # OpenBLAS touches its buffers on first use
h = symmetric(2000)
before = status("VmHWM")
model.diagonalize(h)
print((status("VmHWM") - before) / (8 * 2000**2), (at_dormtr[-1] - before) / (8 * 2000**2))
"""


@pytest.fixture(scope="module")
def solve_memory():
    """(peak, RSS as dormtr starts) of a 2000 x 2000 solve, in n² doubles over H."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", MEMORY_CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return tuple(float(x) for x in done.stdout.split())


def test_diagonalize_peak_memory_over_the_matrix(solve_memory):
    """H plus 1.5 n² doubles: the packed reflectors and dstedc's workspace (dsyevd: 2 n²)."""
    growth = solve_memory[0]
    assert growth <= 1.75, f"peak RSS grew by {growth:.2f} n^2 doubles over H"


def test_diagonalize_frees_the_packed_reflectors_before_dormtr(solve_memory):
    """H plus dstedc's n² workspace, which holds the unpacked reflectors, and no more."""
    growth = solve_memory[1]
    assert growth <= 1.25, f"RSS at dormtr grew by {growth:.2f} n^2 doubles over H"


def test_solve_prints_stages_heartbeat_and_store(monkeypatch, capsys):
    monkeypatch.setattr(model, "HEARTBEAT_SECONDS", 0.002)
    ham = assemble_hamiltonian(ModelConfig(n_env_levels=5))  # 1116 states, cold
    err = capsys.readouterr().err
    stages = ["tridiagonalized in", "divide and conquer in", "back-transformed in",
              "stored entry"]
    at = [next(i for i, line in enumerate(err.splitlines()) if stage in line)
          for stage in stages]
    assert at == sorted(at)
    assert re.search(r"^quniverse: solving 1116 x 1116: \d+ s so far$", err, re.MULTILINE)
    assert not ham.cache_hit


def _memory(monkeypatch, total, available):
    monkeypatch.setattr(model, "machine_memory", lambda: (total, available))


def test_solve_larger_than_memory_refused_before_h_is_built(monkeypatch):
    cfg = toy21_config()
    _memory(monkeypatch, solve_bytes(cfg.n_universe_states) - 8, 10 ** 12)

    def refuse(*args, **kwargs):
        raise AssertionError("H was built for a refused solve")

    monkeypatch.setattr(model, "build_hamiltonian_matrix", refuse)
    with pytest.raises(MemoryError, match=r"21 x 21 eigensolve needs \d+ MB, more than "
                                          r"this machine's \d+ MB"):
        assemble_hamiltonian(cfg)


def test_solve_larger_than_available_memory_warns(monkeypatch):
    cfg = toy21_config()
    _memory(monkeypatch, 10 ** 12, solve_bytes(cfg.n_universe_states) - 8)
    with pytest.warns(UserWarning, match=r"21 x 21 eigensolve needs .* MB available now"):
        ham = assemble_hamiltonian(cfg)
    assert not ham.cache_hit


def test_machine_memory_reads_this_machine():
    found = model.machine_memory()
    if found is None:
        pytest.skip("no /proc/meminfo")
    total, available = found
    assert 0 < available <= total


def test_machine_memory_caps_by_a_cgroup_v2_limit(tmp_path, monkeypatch):
    files = {"proc/meminfo": "MemTotal:       8000000 kB\nMemAvailable:   6000000 kB\n",
             "proc/self/cgroup": "0::/user.slice/run\n",
             "sys/fs/cgroup/user.slice/run/memory.max": "2048000000\n",
             "sys/fs/cgroup/user.slice/run/memory.current": "1024000000\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)

    def inside(*parts):
        return Path(tmp_path, *(str(part).lstrip("/") for part in parts))

    monkeypatch.setattr(model, "open", lambda path: open(inside(path)), raising=False)
    monkeypatch.setattr(model, "Path", inside)
    assert model.machine_memory() == (2048000000, 2048000000 - 1024000000)
    (tmp_path / "sys/fs/cgroup/user.slice/run/memory.max").write_text("max\n")
    assert model.machine_memory() == (8000000 * 1024, 6000000 * 1024)
