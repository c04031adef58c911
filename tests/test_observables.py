import math

import numpy as np
import pytest

from quniverse import units
from quniverse.config import ModelConfig
from quniverse.dynamics import PureState, initial_state, propagate, propagate_to_times
from quniverse.model import assemble_hamiltonian, build_basis, build_system_levels, temperature_of
from quniverse.observables import (
    TIME_CHUNK,
    boltzmann_fit_temperature,
    free_energy_change,
    shell_partial_entropies,
    system_energy,
    trajectory_columns,
)
from conftest import random_normalized_state, toy21_config
from oracles import (
    ReducedDensityMatrix,
    reduced_density_matrix,
    shannon_entropy,
    universe_entropy,
    von_neumann_entropy,
)

BOLTZMANN_6 = 2.0 ** -np.arange(6) / (2.0 ** -np.arange(6)).sum()


@pytest.fixture(scope="module")
def production_basis():
    cfg = ModelConfig()
    return cfg, build_basis(cfg)


def _rdm_from_diag(diag):
    return ReducedDensityMatrix(matrix=np.diag(np.asarray(diag, dtype=complex)))


# -- reduced density matrix ---------------------------------------------------

def test_rdm_of_product_state_is_projector(production_basis):
    cfg, basis = production_basis
    psi = initial_state(cfg, basis, 2)
    rdm = reduced_density_matrix(psi, basis)
    expected = np.zeros((6, 6))
    expected[2, 2] = 1.0
    np.testing.assert_allclose(rdm.matrix, expected, rtol=0, atol=1e-14)
    rdm.validate()


def test_rdm_maximally_entangled_pair():
    # 2 system levels x 2 env states, amplitudes 1/sqrt(2) on |0,a> and |1,b>
    cfg = ModelConfig(n_system_levels=2, polyad_N=1, n_env_levels=1,
                      degeneracy_A=2, total_energy=0)
    basis = build_basis(cfg)
    amps = np.zeros(4, dtype=complex)
    amps[basis.index_of(0, 0, 0)] = 1.0 / math.sqrt(2.0)
    amps[basis.index_of(1, 0, 1)] = 1.0 / math.sqrt(2.0)
    rdm = reduced_density_matrix(PureState(amps), basis)
    np.testing.assert_allclose(rdm.matrix, np.diag([0.5, 0.5]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(von_neumann_entropy(rdm), math.log(2.0), rtol=1e-12)


def _brute_force_rdm(amps, basis):
    # oracle: full outer product, then explicit index-summed partial trace
    rho_se = np.outer(amps, amps.conj())
    ns = basis.n_system_levels
    rho = np.zeros((ns, ns), dtype=complex)
    for i in range(basis.size):
        for j in range(basis.size):
            if basis.m[i] == basis.m[j] and basis.l[i] == basis.l[j]:
                rho[basis.n[i], basis.n[j]] += rho_se[i, j]
    return rho


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rdm_against_brute_force_partial_trace(toy21_ham, seed):
    basis = toy21_ham.basis
    amps = random_normalized_state(basis.size, seed)
    rdm = reduced_density_matrix(PureState(amps), basis)
    oracle = _brute_force_rdm(amps, basis)
    assert np.abs(rdm.matrix - oracle).max() <= 1e-12
    rdm.validate()


def test_rdm_validation_catches_corruption():
    bad = ReducedDensityMatrix(matrix=np.diag([1.5 + 0j, -0.5]))
    with pytest.raises(ValueError, match="eigenvalues"):
        bad.validate()
    not_unit = ReducedDensityMatrix(matrix=np.diag([0.7 + 0j, 0.7]))
    with pytest.raises(ValueError, match="trace"):
        not_unit.validate()


# -- von Neumann entropy -------------------------------------------------------

def test_entropy_of_pure_state_is_zero(production_basis):
    cfg, basis = production_basis
    for n in range(6):
        rdm = reduced_density_matrix(initial_state(cfg, basis, n), basis)
        assert abs(von_neumann_entropy(rdm)) <= 1e-12


def test_entropy_of_even_mixture():
    rdm = _rdm_from_diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(von_neumann_entropy(rdm), math.log(2.0), rtol=1e-14)


def test_entropy_two_routes_agree_on_boltzmann_diagonal():
    rdm = _rdm_from_diag(BOLTZMANN_6)
    via_eigenvalues = von_neumann_entropy(rdm)
    via_diagonal = shannon_entropy(BOLTZMANN_6)
    np.testing.assert_allclose(via_eigenvalues, via_diagonal, rtol=0, atol=1e-12)


def test_entropy_rejects_corrupted_rdm():
    with pytest.raises(ValueError, match="eigenvalues"):
        von_neumann_entropy(_rdm_from_diag([1.5, -0.5]))


# -- universe entropy ----------------------------------------------------------

def test_universe_entropy_single_basis_state(toy6_ham):
    amps = np.zeros(toy6_ham.dim, dtype=complex)
    amps[3] = 1.0
    assert universe_entropy(PureState(amps)) == 0.0


def test_universe_entropy_of_initial_states(production_basis):
    cfg, basis = production_basis
    for n, g in zip(range(6), [192, 96, 48, 24, 12, 6]):
        psi = initial_state(cfg, basis, n)
        np.testing.assert_allclose(universe_entropy(psi), math.log(g), rtol=1e-12)


def test_universe_entropy_frozen_in_energy_eigenbasis(toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 9))
    s_ref = universe_entropy(psi0, reference=toy6_ham)
    for t in (0.7, 3.1, 12.9):
        psi_t = propagate(psi0, toy6_ham, t)
        s_t = universe_entropy(psi_t, reference=toy6_ham)
        assert abs(s_t - s_ref) <= 1e-10
        # while the zero-order-basis entropy does move
    assert abs(universe_entropy(propagate(psi0, toy6_ham, 3.1)) - universe_entropy(psi0)) > 1e-6


# -- system energy and free energy ----------------------------------------------

def test_system_energy_cases():
    ladder = np.arange(6.0)
    assert system_energy([0, 0, 0, 0, 0, 1.0], ladder) == 5.0
    np.testing.assert_allclose(system_energy(BOLTZMANN_6, ladder), 57.0 / 63.0, rtol=1e-14)
    np.testing.assert_allclose(system_energy(np.full(6, 1 / 6), ladder), 2.5, rtol=1e-14)
    stacked = np.stack([BOLTZMANN_6, np.full(6, 1 / 6)])
    np.testing.assert_allclose(system_energy(stacked, ladder), [57.0 / 63.0, 2.5], rtol=1e-14)


def test_free_energy_change_arithmetic():
    kbt = 1.4
    df, minus = free_energy_change([1.0, 1.0], [0.3, 0.3], kbt)
    assert df[1] == 0.0 and minus[1] == 0.0
    df, minus = free_energy_change([1.0, 0.0], [0.2, 0.2], kbt)
    assert df[1] == -1.0
    np.testing.assert_allclose(minus[1], 1.0 / kbt, rtol=1e-14)
    # the reference entry is exactly +0.0 (a CSV shows "0.0", never "-0.0")
    assert df[0] == 0.0 and minus[0] == 0.0
    assert not np.signbit(df[0]) and not np.signbit(minus[0])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_free_energy_change_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 5, size=2)
    s = rng.uniform(0, math.log(6), size=2)
    kbt = rng.uniform(0.5, 2.0)
    fwd, minus_fwd = free_energy_change(u, s, kbt)
    rev, minus_rev = free_energy_change(u[::-1], s[::-1], kbt)
    np.testing.assert_allclose(fwd[1], -rev[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(minus_fwd[1], -minus_rev[1], rtol=0, atol=1e-12)


def test_free_energy_requires_positive_temperature():
    with pytest.raises(ValueError):
        free_energy_change([1.0, 0.0], [0.0, 0.0], 0.0)


# -- Boltzmann fit temperature ---------------------------------------------------

def test_t_fit_recovers_analytic_temperature():
    cfg = ModelConfig()
    t_fit = boltzmann_fit_temperature(BOLTZMANN_6, np.arange(6.0), cfg.energy_unit_wavenumbers)
    expected = temperature_of(cfg).kelvin_analytic
    np.testing.assert_allclose(t_fit, expected, rtol=1e-9)
    # stacked diagonals: one temperature per row, NaN where no fit exists
    stacked = np.stack([BOLTZMANN_6, np.full(6, 1 / 6), BOLTZMANN_6])
    got = boltzmann_fit_temperature(stacked, np.arange(6.0), cfg.energy_unit_wavenumbers)
    np.testing.assert_allclose(got, [expected, np.nan, expected], rtol=1e-9)


def test_t_fit_absent_for_maximally_mixed():
    assert np.isnan(boltzmann_fit_temperature(np.full(6, 1 / 6), np.arange(6.0), 111.77))


def test_t_fit_absent_for_zero_population():
    diag = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    assert np.isnan(boltzmann_fit_temperature(diag, np.arange(6.0), 111.77))


def test_t_fit_tolerates_small_noise():
    rng = np.random.default_rng(12)
    noisy = BOLTZMANN_6 * (1.0 + 0.01 * rng.standard_normal(6))
    noisy /= noisy.sum()
    t_fit = boltzmann_fit_temperature(noisy, np.arange(6.0), 111.77)
    expected = temperature_of(ModelConfig()).kelvin_analytic
    assert abs(t_fit - expected) / expected < 0.05


# -- structural invariants --------------------------------------------------------

def test_diagonal_entropy_dominates_eigen_entropy(toy21_ham):
    # majorization: -sum rho_nn ln rho_nn >= S_vN for every state
    basis = toy21_ham.basis
    for seed in range(6):
        rdm = reduced_density_matrix(
            PureState(random_normalized_state(basis.size, seed)), basis
        )
        s_diag = shannon_entropy(rdm.diagonal())
        s_vn = von_neumann_entropy(rdm)
        assert s_diag >= s_vn - 1e-9


def test_shell_partials_sum_to_universe_entropy(toy21_ham):
    basis = toy21_ham.basis
    psi = PureState(random_normalized_state(basis.size, 20))
    partials = shell_partial_entropies(psi.probabilities(), basis.shell_label)
    np.testing.assert_allclose(partials.sum(), universe_entropy(psi), rtol=0, atol=1e-10)


# -- whole-trajectory columns -----------------------------------------------------

def _trajectory(cfg, ham, n, times):
    psi0 = initial_state(cfg, ham.basis, n)
    cols = trajectory_columns(
        propagate_to_times(psi0, ham, times), times, ham.basis,
        build_system_levels(cfg).ladder, temperature_of(cfg).kbt_reduced,
        cfg.energy_unit_wavenumbers,
    )
    return psi0, cols


def _t_fit_reference(pops, levels, unit):
    # the least-squares fit written out for one diagonal
    if np.any(pops <= 0.0):
        return math.nan
    e_c = levels - levels.mean()
    lnp = np.log(pops)
    beta = -float(np.dot(e_c, lnp - lnp.mean())) / float(np.dot(e_c, e_c))
    return unit / (beta * units.KB_WAVENUMBER_PER_KELVIN) if beta > 1e-12 else math.nan


@pytest.mark.parametrize("overrides", [{}, {"random_initial_phases": True}, {"alpha": 0.0}],
                         ids=["real", "random_phases", "alpha0"])
def test_trajectory_matches_per_time_references(overrides):
    cfg = toy21_config(**overrides)
    ham = assemble_hamiltonian(cfg)
    basis = ham.basis
    ladder = build_system_levels(cfg).ladder
    kbt = temperature_of(cfg).kbt_reduced
    unit = cfg.energy_unit_wavenumbers
    times = np.linspace(0.0, 60.0, 2 * TIME_CHUNK + 22)  # two full chunks and a partial one
    psi0, cols = _trajectory(cfg, ham, 1, times)
    n_shells = len([k for k in cols if k.startswith("S_partial_")])
    assert n_shells == basis.n_system_levels - 1 + basis.degeneracies.size

    ref = {k: [] for k in ("S_vN", "S_univ", "U_S", "diag", "partials", "T_fit_K")}
    for t in times:
        psi = propagate(psi0, ham, float(t))
        rdm = reduced_density_matrix(psi, basis)
        p = psi.probabilities()
        ref["S_vN"].append(von_neumann_entropy(rdm))
        ref["S_univ"].append(shannon_entropy(p))
        ref["U_S"].append(float(np.dot(ladder, rdm.diagonal())))
        ref["diag"].append(rdm.diagonal())
        ref["partials"].append(shell_partial_entropies(p, basis.shell_label, n_shells))
        ref["T_fit_K"].append(_t_fit_reference(rdm.diagonal(), ladder, unit))
    ref = {k: np.array(v) for k, v in ref.items()}
    du, ds = ref["U_S"] - ref["U_S"][0], ref["S_vN"] - ref["S_vN"][0]
    ref["dF"] = du - kbt * ds

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    close(cols["time_reduced"], times)
    close(cols["time_ps"], times * units.reduced_time_unit_ps(unit))
    for name in ("S_vN", "S_univ", "U_S", "dF"):
        close(cols[name], ref[name])
    close(cols["U_S_cm"], cols["U_S"] * unit)
    close(cols["dF_cm"], cols["dF"] * unit)
    close(cols["minus_dF_over_kT"], -ref["dF"] / kbt)
    for s in range(n_shells):
        close(cols[f"S_partial_{s}"], ref["partials"][:, s])
    for k in range(basis.n_system_levels):
        close(cols[f"rdm_diag_{k}"], ref["diag"][:, k])

    t_fit = cols["T_fit_K"]
    if cfg.alpha == 0.0:
        # frozen product state: the RDM diagonal keeps its zeros, so no fit anywhere
        assert np.isnan(t_fit).all()
    else:
        # populations near 0 make the fit ill-conditioned (early times);
        # compare where every population is at least 1e-6
        well_posed = ref["diag"].min(axis=1) >= 1e-6
        assert well_posed.sum() > times.size // 2
        np.testing.assert_allclose(t_fit[well_posed], ref["T_fit_K"][well_posed], rtol=1e-9)


def test_trajectory_bundle(toy21_ham, toy21):
    times = np.linspace(0.0, 8.0, 5)
    _, cols = _trajectory(toy21, toy21_ham, 1, times)
    assert cols["dF"][0] == 0.0 and cols["minus_dF_over_kT"][0] == 0.0
    assert abs(cols["S_vN"][0]) <= 1e-12
    np.testing.assert_allclose(cols["S_univ"][0], math.log(2.0), rtol=1e-12)  # g(1) = 2
    assert np.all(cols["S_vN"] >= -1e-12)
    assert np.all(cols["S_vN"] <= math.log(3.0) + 1e-9)
    rdm_sum = sum(cols[f"rdm_diag_{k}"] for k in range(3))
    np.testing.assert_allclose(rdm_sum, 1.0, rtol=0, atol=1e-10)
    partials = sum(v for k, v in cols.items() if k.startswith("S_partial_"))
    np.testing.assert_allclose(partials, cols["S_univ"], rtol=0, atol=1e-10)
    df, minus = free_energy_change(cols["U_S"], cols["S_vN"],
                                   temperature_of(toy21).kbt_reduced)
    np.testing.assert_allclose(df, cols["dF"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(minus, cols["minus_dF_over_kT"], rtol=0, atol=1e-12)


def test_trajectory_gates_reject_corrupted_amplitudes(toy21_ham, toy21):
    basis = toy21_ham.basis
    ladder = build_system_levels(toy21).ladder
    kbt = temperature_of(toy21).kbt_reduced
    times = np.linspace(0.0, 8.0, 5)
    psi0 = initial_state(toy21, basis, 1)
    amps = np.array(propagate_to_times(psi0, toy21_ham, times))
    trajectory_columns(amps, times, basis, ladder, kbt, 111.77)
    bad = amps.copy()
    bad[3] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match=r"norm .* at t=6\.0"):
        trajectory_columns(bad, times, basis, ladder, kbt, 111.77)
