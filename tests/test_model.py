import math

import numpy as np
import pytest

from quniverse import units
from quniverse.config import ModelConfig
from quniverse.model import (
    assemble_hamiltonian,
    build_basis,
    build_environment,
    build_hamiltonian_matrix,
    build_system_levels,
    temperature_of,
)
from conftest import hamiltonian_matrix, toy6_config, toy21_config


# -- configuration -----------------------------------------------------------

def test_production_config_counts():
    cfg = ModelConfig()
    assert cfg.degeneracies() == [6, 12, 24, 48, 96, 192, 384, 768]
    assert cfg.n_env_states == 1530
    assert cfg.n_universe_states == 9180
    assert cfg.shell_size(5) == 378
    assert cfg.shell_size(5) == 6 * (2 ** 6 - 1)


@pytest.mark.parametrize("bad", [
    dict(n_system_levels=5),                 # != polyad_N + 1
    dict(total_energy=6),                    # > polyad_N
    dict(degeneracy_b=1.0),                  # infinite temperature
    dict(degeneracy_b=0.5),
    dict(alpha=-0.01),
    dict(degeneracy_A=0),
    dict(n_env_levels=0),
    dict(omega_E=0.0),
    dict(rng_seed=-1),
    dict(rng_seed=2 ** 64),
    dict(coupling_scope="everything"),
    dict(energy_unit_wavenumbers=0.0),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        ModelConfig(**bad)


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
    path.write_text("polyad_N = 5\nn_sistem_levels = 6\n")
    with pytest.raises(ValueError, match="unknown configuration key"):
        ModelConfig.from_file(path)


def test_config_file_duplicate_key_rejected(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("alpha = 0.1\nalpha = 0.2\n")
    with pytest.raises(ValueError, match="duplicate"):
        ModelConfig.from_file(path)


def test_config_hash_tracks_content():
    assert ModelConfig().content_hash() != ModelConfig(rng_seed=1).content_hash()
    assert ModelConfig().content_hash() == ModelConfig().content_hash()


# -- system polyad ----------------------------------------------------------

def test_production_polyad_unit_spacing():
    levels = build_system_levels(ModelConfig())
    assert levels.eigenvalues.size == 6
    np.testing.assert_allclose(np.diff(levels.eigenvalues), 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(levels.ladder, np.arange(6.0))


def test_single_level_polyad():
    cfg = ModelConfig(n_system_levels=1, polyad_N=0, total_energy=0,
                      n_env_levels=2, degeneracy_A=1)
    levels = build_system_levels(cfg)
    assert levels.eigenvalues.shape == (1,)
    assert levels.eigenvalues[0] == 0.0


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
    cfg = ModelConfig(n_system_levels=3, polyad_N=2, omega0=10.0, kappa=0.5,
                      total_energy=2, n_env_levels=3, degeneracy_A=1)
    levels = build_system_levels(cfg)
    # the local-mode polyad block, built here independently of the model
    N = cfg.polyad_N
    off = 0.5 * cfg.kappa * np.sqrt([(n1 + 1.0) * (N - n1) for n1 in range(N)])
    block = N * cfg.omega0 * np.eye(N + 1) + np.diag(off, 1) + np.diag(off, -1)
    expected = _char_poly_roots_3x3(block)
    np.testing.assert_allclose(levels.eigenvalues, expected, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.diff(levels.eigenvalues), 0.5, rtol=0, atol=1e-10)


@pytest.mark.parametrize("case", range(8))
def test_polyad_spacing_property(case):
    rng = np.random.default_rng(case)
    N = int(rng.integers(1, 12))
    omega0 = float(rng.uniform(0.5, 80.0))
    kappa = float(rng.uniform(0.05, 5.0))
    cfg = ModelConfig(n_system_levels=N + 1, polyad_N=N, omega0=omega0,
                      kappa=kappa, total_energy=0, n_env_levels=1, degeneracy_A=1)
    evals = build_system_levels(cfg).eigenvalues
    np.testing.assert_allclose(np.diff(evals), kappa, rtol=0, atol=1e-10 * max(1.0, omega0 * N))


# -- environment ------------------------------------------------------------

def test_environment_counts_production():
    cfg = ModelConfig()
    env = build_environment(cfg)
    assert len(env) == 1530
    counts = np.bincount(env.m)
    np.testing.assert_array_equal(counts, [6, 12, 24, 48, 96, 192, 384, 768])
    # rung-major draw order: m ascending, l ascending
    assert np.all(np.diff(env.m) >= 0)
    for m in range(8):
        np.testing.assert_array_equal(env.l[env.m == m], np.arange(counts[m]))


def test_environment_zero_alpha_exact():
    cfg = ModelConfig(alpha=0.0)
    env = build_environment(cfg)
    np.testing.assert_array_equal(env.energy, env.m.astype(float))
    np.testing.assert_array_equal(env.shift, 0.0)


def test_environment_shift_statistics():
    cfg = ModelConfig(alpha=0.05, rng_seed=2024)
    env = build_environment(cfg)
    sigma = 0.05 * math.sqrt(2.0)
    top = env.shift[env.m == 7]
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
        np.diag(hamiltonian_matrix(toy6)), toy6_ham.basis.zero_order_energy
    )


def test_alpha_zero_hamiltonian_diagonal():
    cfg = toy6_config(alpha=0.0)
    ham = assemble_hamiltonian(cfg)
    matrix = hamiltonian_matrix(cfg)
    off = matrix - np.diag(np.diag(matrix))
    assert np.all(off == 0.0)
    np.testing.assert_array_equal(np.diag(matrix), ham.basis.zero_order_energy)


def test_identical_seed_bit_identical_matrix():
    cfg = toy21_config()
    a = hamiltonian_matrix(cfg)
    b = hamiltonian_matrix(cfg)
    assert np.array_equal(a, b)
    c = hamiltonian_matrix(toy21_config(rng_seed=12))
    assert not np.array_equal(a, c)


def test_system_changing_only_scope():
    cfg = toy21_config(coupling_scope="system_changing_only")
    ham = assemble_hamiltonian(cfg)
    matrix = hamiltonian_matrix(cfg)
    n = ham.basis.n
    same_system = np.equal.outer(n, n)
    off_diag = ~np.eye(ham.dim, dtype=bool)
    assert np.all(matrix[same_system & off_diag] == 0.0)
    assert np.any(matrix[~same_system] != 0.0)
    # draw-order contract: couplings between system-changing pairs are
    # the same variates as in the unrestricted assembly
    full = hamiltonian_matrix(toy21_config())
    np.testing.assert_array_equal(matrix[~same_system], full[~same_system])


@pytest.mark.parametrize("scope", ["all", "system_changing_only"])
@pytest.mark.parametrize("k", [1, 16, 40])
def test_leading_rows_match_full_matrix(scope, k):
    cfg = toy21_config(coupling_scope=scope)
    basis = build_basis(cfg)
    full = build_hamiltonian_matrix(cfg, basis)
    rows = build_hamiltonian_matrix(cfg, basis, n_rows=k)
    assert rows.shape == (min(k, basis.size), basis.size)
    assert np.array_equal(rows, full[:k])


def test_coupling_width_statistics():
    cfg = toy21_config(alpha=0.25, rng_seed=5)
    basis = build_basis(cfg)
    h = build_hamiltonian_matrix(cfg, basis)
    iu = np.triu_indices(basis.size, 1)
    draws = h[iu]
    sigma = 0.25 * cfg.omega_E
    assert abs(draws.mean()) < 3.0 * sigma / math.sqrt(draws.size)
    assert abs(draws.std(ddof=1) - sigma) < 0.15 * sigma


# -- basis indexing ----------------------------------------------------------

def test_basis_flat_index_bijection(toy21_ham):
    basis = toy21_ham.basis
    seen = set()
    for i in range(basis.size):
        n, m, l = basis.n[i], basis.m[i], basis.l[i]
        assert basis.index_of(n, m, l) == i
        seen.add((n, m, l))
    assert len(seen) == basis.size


def test_basis_shell_labels(toy21_ham):
    basis = toy21_ham.basis
    np.testing.assert_array_equal(basis.shell_label, basis.n + basis.m)
    assert np.count_nonzero(basis.shell_label == 2) == 7  # g(2) + g(1) + g(0) = 4 + 2 + 1


def test_basis_index_errors(toy6_ham):
    basis = toy6_ham.basis
    with pytest.raises(ValueError):
        basis.index_of(2, 0, 0)
    with pytest.raises(ValueError):
        basis.index_of(0, 5, 0)
    with pytest.raises(ValueError):
        basis.index_of(0, 0, 1)  # g(0) = 1


def test_production_basis_counts():
    cfg = ModelConfig()
    basis = build_basis(cfg)
    assert basis.size == 9180
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
        n_system_levels=2, polyad_N=1, total_energy=0, n_env_levels=1,
        degeneracy_A=1, degeneracy_b=math.e,
        energy_unit_wavenumbers=units.KB_WAVENUMBER_PER_KELVIN,
    )
    np.testing.assert_allclose(temperature_of(cfg).kelvin, 1.0, rtol=1e-12)


def test_temperature_halves_when_base_squares():
    t2 = temperature_of(toy6_config(degeneracy_b=2.0)).kelvin
    t4 = temperature_of(toy6_config(degeneracy_b=4.0)).kelvin
    np.testing.assert_allclose(t4, t2 / 2.0, rtol=1e-12)
