import dataclasses
import math

import numpy as np
import pytest
import scipy.constants
import scipy.fft

from quniverse import dynamics, units
from quniverse.config import ModelConfig
from quniverse.dynamics import (
    NUFFT_MIN_TIMES,
    PureState,
    eigen_coefficients,
    initial_state,
    propagate,
    propagate_to_times,
)
from quniverse.model import UniverseHamiltonian, assemble_hamiltonian, build_basis

from conftest import (assemble_privately, hamiltonian_matrix, random_normalized_state,
                      toy6_config, toy21_config)
from oracles import expectation


@pytest.fixture(scope="module")
def production_basis():
    cfg = ModelConfig()
    return cfg, build_basis(cfg)


# -- initial states -----------------------------------------------------------

def test_initial_state_n2_occupies_rung3(production_basis):
    cfg, basis = production_basis
    psi = initial_state(cfg, basis, 2)
    p = psi.probabilities()
    support = np.flatnonzero(p > 0)
    assert support.size == 48  # g(3)
    np.testing.assert_array_equal(basis.n[support], 2)
    np.testing.assert_array_equal(basis.m[support], 3)
    np.testing.assert_allclose(psi.amplitudes[support], 1.0 / math.sqrt(48.0))
    assert psi.time == 0.0


def test_initial_state_n5_occupies_ground_rung(production_basis):
    cfg, basis = production_basis
    psi = initial_state(cfg, basis, 5)
    support = np.flatnonzero(psi.probabilities() > 0)
    assert support.size == 6  # g(0)
    np.testing.assert_allclose(psi.amplitudes[support], 1.0 / math.sqrt(6.0))


@pytest.mark.parametrize("n", range(6))
def test_initial_states_normalized(production_basis, n):
    cfg, basis = production_basis
    psi = initial_state(cfg, basis, n)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_initial_state_invalid_levels(production_basis):
    cfg, basis = production_basis
    with pytest.raises(ValueError):
        initial_state(cfg, basis, 6)
    with pytest.raises(ValueError):
        initial_state(cfg, basis, -1)
    short = ModelConfig(n_env_levels=3)  # total_energy 5: m = 5 beyond the last rung, 2
    with pytest.raises(ValueError, match="rung m=5"):
        initial_state(short, build_basis(short), 0)


def test_initial_state_random_phases_change_phases_not_probabilities(production_basis):
    cfg, basis = production_basis
    phased_cfg = dataclasses.replace(cfg, random_initial_phases=True)
    flat = initial_state(cfg, basis, 1)
    phased = initial_state(phased_cfg, basis, 1)
    np.testing.assert_allclose(phased.probabilities(), flat.probabilities(), atol=1e-15)
    assert not np.allclose(phased.amplitudes, flat.amplitudes)
    again = initial_state(phased_cfg, basis, 1)
    np.testing.assert_array_equal(phased.amplitudes, again.amplitudes)


# -- propagation --------------------------------------------------------------

def _taylor_expm_apply(h, c, t, terms=120):
    # independent oracle: sum the exponential series exp(-i h t) c directly
    acc = c.astype(np.complex128).copy()
    term = c.astype(np.complex128).copy()
    for k in range(1, terms):
        term = (-1j * t / k) * (h @ term)
        acc += term
        if np.abs(term).max() < 1e-18:
            break
    return acc


def test_propagate_matches_taylor_series(toy6, toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 1))
    matrix = hamiltonian_matrix(toy6)
    for t in (0.3, 1.7, 4.0):
        fast = propagate(psi0, toy6_ham, t)
        oracle = _taylor_expm_apply(matrix, psi0.amplitudes, t)
        assert np.abs(fast.amplitudes - oracle).max() <= 1e-9


def test_propagate_t0_identity(toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 2))
    out = propagate(psi0, toy6_ham, 0.0)
    np.testing.assert_allclose(out.amplitudes, psi0.amplitudes, rtol=0, atol=1e-12)
    assert out.time == 0.0


def test_propagate_unitary_and_conserves_energy(toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 3))
    e0 = expectation(toy6_ham, psi0.amplitudes)
    for t in np.linspace(0.0, 20.0, 9):
        psi_t = propagate(psi0, toy6_ham, float(t))
        assert abs(np.linalg.norm(psi_t.amplitudes) - 1.0) <= 1e-10
        e_t = expectation(toy6_ham, psi_t.amplitudes)
        assert abs(e_t - e0) <= 1e-9 * max(1.0, abs(e0))


def test_propagate_group_property(toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 4))
    two_step = propagate(propagate(psi0, toy6_ham, 1.3), toy6_ham, 2.9)
    one_step = propagate(psi0, toy6_ham, 4.2)
    assert np.abs(two_step.amplitudes - one_step.amplitudes).max() <= 1e-9
    assert abs(two_step.time - one_step.time) < 1e-12


def test_propagate_reversible(toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 5))
    back = propagate(propagate(psi0, toy6_ham, 7.7), toy6_ham, -7.7)
    assert np.abs(back.amplitudes - psi0.amplitudes).max() <= 1e-9


def test_alpha_zero_freezes_populations():
    cfg = toy6_config(alpha=0.0)
    ham = assemble_hamiltonian(cfg)
    psi0 = initial_state(cfg, ham.basis, 0)
    p0 = psi0.probabilities()
    for t in (0.5, 3.0, 50.0):
        pt = propagate(psi0, ham, t).probabilities()
        np.testing.assert_allclose(pt, p0, rtol=0, atol=1e-12)


def test_propagate_dimension_mismatch(toy6_ham):
    with pytest.raises(ValueError, match="dimension"):
        propagate(PureState(np.zeros(5, dtype=complex)), toy6_ham, 1.0)


def test_propagate_to_times_matches_single_calls(toy6_ham):
    psi0 = PureState(random_normalized_state(toy6_ham.dim, 6))
    times = np.linspace(0.0, 5.0, 11)
    batch = propagate_to_times(psi0, toy6_ham, times)
    v, w = toy6_ham.eigenvectors, toy6_ham.eigenvalues
    for k, t in enumerate(times):
        single = propagate(psi0, toy6_ham, float(t))
        np.testing.assert_allclose(batch[k], single.amplitudes, rtol=0, atol=1e-12)
        # complex-arithmetic oracle, independent of the real-GEMM view
        direct = (v * np.exp(-1j * w * t)) @ (v.T.astype(complex) @ psi0.amplitudes)
        np.testing.assert_allclose(batch[k], direct, rtol=0, atol=1e-12)


def _toy21_states(ham, cfg):
    """Every toy21 initial state, with real and with random phases, and a full-support one."""
    for n in range(cfg.n_system_levels):
        for phases in (False, True):
            yield f"n={n} phases={phases}", initial_state(
                dataclasses.replace(cfg, random_initial_phases=phases), ham.basis, n).amplitudes
    yield "full support", random_normalized_state(ham.dim, 21)


def test_eigen_coefficients_match_full_product(toy21, toy21_ham):
    v = toy21_ham.eigenvectors
    for label, c in _toy21_states(toy21_ham, toy21):
        trimmed = eigen_coefficients(v, c)
        assert trimmed.shape == (toy21_ham.dim, 1)
        full = v.T @ c.real + 1j * (v.T @ c.imag)
        np.testing.assert_allclose(trimmed[:, 0], full, rtol=0, atol=1e-14, err_msg=label)


def test_eigen_coefficients_read_only_the_support():
    cfg = toy21_config()
    ham = assemble_hamiltonian(cfg)
    c = initial_state(cfg, ham.basis, 1).amplitudes
    support = np.flatnonzero(c)
    poisoned = ham.eigenvectors.copy()
    outside = np.ones(ham.dim, dtype=bool)
    outside[support[0]:support[-1] + 1] = False
    poisoned[outside] = np.nan
    np.testing.assert_array_equal(eigen_coefficients(poisoned, c),
                                  eigen_coefficients(ham.eigenvectors, c))
    assert not np.any(eigen_coefficients(ham.eigenvectors, np.zeros(ham.dim, complex)))


# -- the NUFFT path on uniform grids ----------------------------------------------

@pytest.fixture(scope="module")
def mid_ham(tmp_path_factory):
    """n_env_levels = 6 with production parameters otherwise: 2268 states."""
    cfg = ModelConfig(n_env_levels=6, rng_seed=1)
    return cfg, assemble_privately(cfg, tmp_path_factory)


def _direct(monkeypatch, state, ham, times):
    with monkeypatch.context() as m:
        m.setattr(dynamics, "NUFFT_MIN_TIMES", 10 ** 9)
        return propagate_to_times(state, ham, times)


def _wraps(ham, times):
    """How many times 2 pi the eigenphase span E D covers."""
    e = ham.eigenvalues
    return (e[-1] - e[0]) * times[1] / (2.0 * np.pi)


@pytest.mark.parametrize("n_times, t_max, min_wraps", [
    (NUFFT_MIN_TIMES, 40.0, 0), (NUFFT_MIN_TIMES + 1, 40.0, 0), (128, 60.0, 0),
    (257, 631.0, 1), (600, 631.0, 0), (NUFFT_MIN_TIMES + 1, 631.0, 4),
])
def test_nufft_matches_direct_product_toy21(monkeypatch, toy21, toy21_ham, n_times, t_max,
                                            min_wraps):
    times = np.linspace(0.0, t_max, n_times)
    assert _wraps(toy21_ham, times) > min_wraps
    v, w = toy21_ham.eigenvectors, toy21_ham.eigenvalues
    for label, c in _toy21_states(toy21_ham, toy21):
        psi0 = PureState(c)
        fast = propagate_to_times(psi0, toy21_ham, times)
        assert fast.shape == (n_times, toy21_ham.dim)
        direct = _direct(monkeypatch, psi0, toy21_ham, times)
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-12, err_msg=label)
        # complex-arithmetic oracle, independent of both paths
        oracle = (np.exp(-1j * np.multiply.outer(times, w)) * (v.T @ c)) @ v.T
        np.testing.assert_allclose(fast, oracle, rtol=0, atol=1e-12, err_msg=label)


@pytest.mark.parametrize("edge", ["low", "high"])
def test_nufft_kernel_wraps_around_the_grid(monkeypatch, toy21, toy21_ham, edge):
    # every eigenphase in one 2 pi wrap, the lowest just above 0 or the
    # highest just below 2 pi: its kernel spills into the far end of the
    # periodic grid, which only a shift into a wrap that holds no point reaches
    times = np.linspace(0.0, 40.0, NUFFT_MIN_TIMES)
    w, period = toy21_ham.eigenvalues, 2.0 * np.pi / times[1]
    shifted = w - w[0] + 1e-3 if edge == "low" else w - w[-1] + period - 1e-3
    assert shifted[0] > 0.0 and shifted[-1] < period
    ham = UniverseHamiltonian(toy21_ham.basis, shifted, toy21_ham.eigenvectors,
                              toy21_ham.eig_residual)
    for label, c in _toy21_states(ham, toy21):
        psi0 = PureState(c)
        np.testing.assert_allclose(propagate_to_times(psi0, ham, times),
                                   _direct(monkeypatch, psi0, ham, times),
                                   rtol=0, atol=1e-12, err_msg=label)


@pytest.mark.parametrize("n_times, t_max, min_wraps", [
    (NUFFT_MIN_TIMES, 50.0, 0), (201, 631.0, 4), (600, 631.0, 1),
])
def test_nufft_matches_direct_product_mid(monkeypatch, mid_ham, n_times, t_max, min_wraps):
    cfg, ham = mid_ham
    times = np.linspace(0.0, t_max, n_times)
    assert _wraps(ham, times) > min_wraps
    states = [initial_state(cfg, ham.basis, 0),
              initial_state(dataclasses.replace(cfg, random_initial_phases=True), ham.basis, 3),
              PureState(random_normalized_state(ham.dim, 8))]
    for psi0 in states:
        fast = propagate_to_times(psi0, ham, times)
        direct = _direct(monkeypatch, psi0, ham, times)
        np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(fast, axis=1), 1.0, rtol=0, atol=1e-12)


def test_nufft_bytes_independent_of_fft_workers(mid_ham):
    cfg, ham = mid_ham
    psi0 = initial_state(cfg, ham.basis, 2)
    times = np.linspace(0.0, 631.0, 600)
    with scipy.fft.set_workers(1):
        one = propagate_to_times(psi0, ham, times).copy()
    with scipy.fft.set_workers(2):
        two = propagate_to_times(psi0, ham, times)
    assert one.tobytes() == two.tobytes()


def test_only_uniform_grids_from_zero_take_the_nufft(monkeypatch, toy21, toy21_ham):
    def refuse(*args, **kwargs):
        raise AssertionError("NUFFT path taken")

    monkeypatch.setattr(dynamics, "_nufft_times", refuse)
    psi0 = initial_state(toy21, toy21_ham.basis, 1)
    uniform = np.linspace(0.0, 50.0, NUFFT_MIN_TIMES)
    jittered = uniform.copy()
    jittered[7] += 1e-9
    others = {
        "non-uniform": jittered,
        "offset start": uniform + 1.0,
        "descending": uniform[::-1].copy(),
        "short": uniform[:NUFFT_MIN_TIMES - 1],
        "single time": uniform[-1:],
    }
    for label, times in others.items():
        out = propagate_to_times(psi0, toy21_ham, times)
        assert out.shape == (times.size, toy21_ham.dim), label
    for times in (uniform, np.arange(NUFFT_MIN_TIMES) * 0.37):
        with pytest.raises(AssertionError, match="NUFFT path taken"):
            propagate_to_times(psi0, toy21_ham, times)


def test_nufft_refuses_unsorted_eigenvalues(toy21, toy21_ham):
    flipped = UniverseHamiltonian(toy21_ham.basis, toy21_ham.eigenvalues[::-1],
                                  toy21_ham.eigenvectors[:, ::-1], toy21_ham.eig_residual)
    psi0 = initial_state(toy21, toy21_ham.basis, 1)
    times = np.linspace(0.0, 50.0, NUFFT_MIN_TIMES)
    with pytest.raises(ValueError, match="ascending"):
        propagate_to_times(psi0, flipped, times)
    # the direct path needs no order
    np.testing.assert_allclose(propagate(psi0, flipped, 3.0).amplitudes,
                               propagate(psi0, toy21_ham, 3.0).amplitudes, rtol=0, atol=1e-12)


# -- unit conversion ------------------------------------------------------------

def test_reduced_time_unit_from_codata():
    # independent constant arithmetic: 1/(2 pi c u) from scipy's CODATA values
    u = 111.77  # cm^-1
    expected_s = 1.0 / (2.0 * math.pi * (scipy.constants.c * 100.0) * u)
    got_ps = units.reduced_time_unit_ps(u)
    np.testing.assert_allclose(got_ps, expected_s * 1e12, rtol=1e-12)
    assert round(got_ps, 4) == 0.0475
    # hbar / (h c u) route must agree with the angular-frequency route
    alt_s = scipy.constants.hbar / (scipy.constants.h * scipy.constants.c * 100.0 * u)
    np.testing.assert_allclose(got_ps, alt_s * 1e12, rtol=1e-12)


def test_time_conversion_round_trip():
    t_ps = units.reduced_time_to_ps(631.0, 111.77)
    assert abs(t_ps - 30.0) < 0.05
    np.testing.assert_allclose(
        units.ps_to_reduced_time(t_ps, 111.77), 631.0, rtol=1e-12
    )
