import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from quniverse import blas, observables, units
from quniverse.blas import gemm_threads, library
from quniverse.config import ModelConfig
from quniverse.dynamics import (env_block_size, initial_state, pass_bytes, propagate,
                                propagate_blocks)
from quniverse.model import assemble_hamiltonian, build_basis, build_system_levels, temperature_of
from quniverse.observables import (
    TIME_CHUNK,
    boltzmann_fit_temperature,
    free_energy_change,
    sum_bytes,
    system_energy,
    trajectories,
)
from conftest import as_blocks, propagated, random_normalized_state, toy21_config
from oracles import (
    ReducedDensityMatrix,
    probabilities,
    reduced_density_matrix,
    shannon_entropy,
    shell_partial_entropies,
    universe_entropy,
    von_neumann_entropy,
)

BOLTZMANN_6 = 2.0 ** -np.arange(6) / (2.0 ** -np.arange(6)).sum()


def _rdm_from_diag(diag):
    return ReducedDensityMatrix(matrix=np.diag(np.asarray(diag, dtype=complex)))


# -- reduced density matrix ---------------------------------------------------

def test_rdm_of_product_state_is_projector():
    cfg = ModelConfig()
    psi = initial_state(cfg, 2)
    rdm = reduced_density_matrix(psi, cfg)
    expected = np.zeros((6, 6))
    expected[2, 2] = 1.0
    np.testing.assert_allclose(rdm.matrix, expected, rtol=0, atol=1e-14)
    rdm.validate()


def test_rdm_maximally_entangled_pair():
    # 2 system levels x 2 env states, amplitudes 1/sqrt(2) on |0,a> and |1,b>
    cfg = ModelConfig(n_system_levels=2, n_env_levels=1,
                      degeneracy_A=2, total_energy=0)
    basis = build_basis(cfg)
    amps = np.zeros(4, dtype=complex)
    for n, l in ((0, 0), (1, 1)):
        amps[(basis.n == n) & (basis.m == 0) & (basis.l == l)] = 1.0 / math.sqrt(2.0)
    rdm = reduced_density_matrix(amps, cfg)
    np.testing.assert_allclose(rdm.matrix, np.diag([0.5, 0.5]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(von_neumann_entropy(rdm), math.log(2.0), rtol=1e-12)


def _brute_force_rdm(amps, basis):
    # oracle: full outer product, then explicit index-summed partial trace
    rho_se = np.outer(amps, amps.conj())
    ns = int(basis.n.max()) + 1
    rho = np.zeros((ns, ns), dtype=complex)
    for i in range(amps.size):
        for j in range(amps.size):
            if basis.m[i] == basis.m[j] and basis.l[i] == basis.l[j]:
                rho[basis.n[i], basis.n[j]] += rho_se[i, j]
    return rho


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rdm_against_brute_force_partial_trace(toy21_ham, seed):
    amps = random_normalized_state(toy21_ham.dim, seed)
    rdm = reduced_density_matrix(amps, toy21_ham.config)
    oracle = _brute_force_rdm(amps, build_basis(toy21_ham.config))
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

def test_entropy_of_pure_state_is_zero():
    cfg = ModelConfig()
    for n in range(6):
        rdm = reduced_density_matrix(initial_state(cfg, n), cfg)
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
    assert universe_entropy(amps) == 0.0


def test_universe_entropy_of_initial_states():
    cfg = ModelConfig()
    for n, g in zip(range(6), [192, 96, 48, 24, 12, 6]):
        psi = initial_state(cfg, n)
        np.testing.assert_allclose(universe_entropy(psi), math.log(g), rtol=1e-12)


def test_universe_entropy_frozen_in_energy_eigenbasis(toy6_ham):
    psi0 = random_normalized_state(toy6_ham.dim, 9)
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
    for seed in range(6):
        rdm = reduced_density_matrix(random_normalized_state(toy21_ham.dim, seed),
                                     toy21_ham.config)
        s_diag = shannon_entropy(rdm.diagonal())
        s_vn = von_neumann_entropy(rdm)
        assert s_diag >= s_vn - 1e-9


def test_shell_partials_sum_to_universe_entropy(toy21_ham):
    psi = random_normalized_state(toy21_ham.dim, 20)
    partials = shell_partial_entropies(probabilities(psi),
                                       build_basis(toy21_ham.config).shell_label)
    np.testing.assert_allclose(partials.sum(), universe_entropy(psi), rtol=0, atol=1e-10)


# -- whole-trajectory columns -----------------------------------------------------

def _trajectories(cfg, ham, states, times):
    """Every state of `states` in one pass; (initial states, their Trajectory records)."""
    psi0 = np.array([initial_state(cfg, n) for n in states])
    return psi0, trajectories(propagate_blocks(psi0, ham, times), times, cfg, psi0)


def _trajectory(cfg, ham, n, times):
    (psi0,), (result,) = _trajectories(cfg, ham, [n], times)
    return psi0, result.columns


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
    basis = build_basis(cfg)
    ladder = build_system_levels(cfg)
    kbt = temperature_of(cfg).kbt_reduced
    unit = cfg.energy_unit_wavenumbers
    times = np.linspace(0.0, 60.0, 2 * TIME_CHUNK + 22)  # two full chunks and a partial one
    states = list(range(cfg.n_system_levels))
    psi0s, results = _trajectories(cfg, ham, states, times)
    assert ham.dim // cfg.n_system_levels > env_block_size(cfg.n_system_levels,
                                                           ham.dim // cfg.n_system_levels)
    for psi0, result in zip(psi0s, results):
        cols = result.columns
        n_shells = len([k for k in cols if k.startswith("S_partial_")])
        assert n_shells == cfg.n_system_levels - 1 + cfg.n_env_levels

        ref = {k: [] for k in ("S_vN", "S_univ", "U_S", "diag", "partials", "T_fit_K")}
        for t in times:
            psi = propagate(psi0, ham, float(t))
            rdm = reduced_density_matrix(psi, cfg)
            p = probabilities(psi)
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
        for k in range(cfg.n_system_levels):
            close(cols[f"rdm_diag_{k}"], ref["diag"][:, k])
        close(result.final_amplitudes, propagate(psi0, ham, float(times[-1])))

        t_fit = cols["T_fit_K"]
        if cfg.alpha == 0.0:
            # frozen product state: the RDM diagonal keeps its zeros, so no fit anywhere
            assert np.isnan(t_fit).all()
        else:
            # populations near 0 make the fit ill-conditioned (early times);
            # compare where every population is at least 1e-6
            well_posed = ref["diag"].min(axis=1) >= 1e-6
            assert well_posed.sum() > times.size // 2
            np.testing.assert_allclose(t_fit[well_posed], ref["T_fit_K"][well_posed],
                                       rtol=1e-9)


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
    times = np.linspace(0.0, 8.0, 5)
    psi0 = np.array([initial_state(toy21, n) for n in (0, 1)])
    amps = propagated(psi0, toy21_ham, times)
    trajectories(as_blocks(amps, toy21, 3), times, toy21, psi0)
    bad = amps.copy()
    bad[1, 3] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match=r"norm .* at t=6\.0"):
        trajectories(as_blocks(bad, toy21, 3), times, toy21, psi0)
    # at t = 0, where the amplitudes must be the initial state's
    bad = amps.copy()
    bad[1, 0, 5] += 1e-11
    with pytest.raises(ValueError, match=r"do not reconstruct .* 1\.000e-11 .* at t=0\.0"):
        trajectories(as_blocks(bad, toy21, 3), times, toy21, psi0)


# -- the pass's worker threads ------------------------------------------------------

def _pass(cfg, ham, psi0, times):
    return trajectories(propagate_blocks(psi0, ham, times), times, cfg, psi0)


@pytest.mark.parametrize("states", [[0], [0, 3], "valid"], ids=["0", "0,3-random-phases", "all"])
def test_pass_bytes_independent_of_worker_count(monkeypatch, mid_ham, states):
    cfg, ham = mid_ham
    if states == "valid":
        states = [n for n in range(cfg.n_system_levels)
                  if 0 <= cfg.total_energy - n < cfg.n_env_levels]
    else:
        cfg = dataclasses.replace(cfg, random_initial_phases=len(states) > 1)
    psi0 = np.array([initial_state(cfg, n) for n in states])
    times = np.linspace(0.0, 631.0, 600)
    runs = []
    # 3 workers, more than this machine's cores, switching often: a lost
    # update to a shared sum would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(blas, "pass_workers", lambda workers=workers: workers)
            runs.append(_pass(cfg, ham, psi0, times))
    finally:
        sys.setswitchinterval(interval)
    for one, *others in zip(*runs):
        for other in others:
            assert one.columns.keys() == other.columns.keys()
            for name in one.columns:
                assert one.columns[name].tobytes() == other.columns[name].tobytes(), name
            assert one.final_amplitudes.tobytes() == other.final_amplitudes.tobytes()
            assert one.health == other.health


@pytest.mark.parametrize("phases, n_times", [(False, 600), (True, 600), (False, 60)],
                         ids=["real", "random_phases", "direct"])
def test_pass_allocates_at_most_its_planned_bytes(mid_ham, phases, n_times):
    # every allocation of a pass and its reduction, traced, within what the
    # request's check plans: pass_bytes without V (made before the trace)
    # and sum_bytes; a first pass makes the imports and caches outside it
    cfg, ham = mid_ham
    cfg = dataclasses.replace(cfg, random_initial_phases=phases)
    states = [n for n in range(cfg.n_system_levels)
              if 0 <= cfg.total_energy - n < cfg.n_env_levels]
    psi0 = np.array([initial_state(cfg, n) for n in states])
    times = np.linspace(0.0, 631.0, n_times)
    _pass(cfg, ham, psi0, times)
    tracemalloc.start()
    try:
        _pass(cfg, ham, psi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    planned = (pass_bytes(cfg, len(states), n_times) - 8 * ham.dim ** 2
               + sum_bytes(cfg, len(states), n_times))
    assert peak <= planned, (peak, planned)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS on 2 threads, so a pass runs 2 workers."""
    with gemm_threads(2):
        yield


def test_pass_restores_numpy_blas_threads(monkeypatch, mid_ham, two_blas_threads):
    cfg, ham = mid_ham
    psi0 = np.array([initial_state(cfg, n) for n in (0, 3)])
    times = np.linspace(0.0, 631.0, 600)
    seen = []
    shares = []  # (numpy's OpenBLAS threads, thread name) in the observables' shares
    rfft, xlogx = np.fft.rfft, observables._xlogx

    def recording_fft(*args, **kwargs):
        seen.append(library()[1])
        return rfft(*args, **kwargs)

    def recording_xlogx(p):
        if threading.current_thread() is not threading.main_thread():
            shares.append((library()[1], threading.current_thread().name))
        return xlogx(p)

    # two normal passes: one thread inside the FFT's and the observables'
    # shares, 2 after them, and the second pass on the first's workers
    monkeypatch.setattr(np.fft, "rfft", recording_fft)
    monkeypatch.setattr(observables, "_xlogx", recording_xlogx)
    workers = []
    for _ in range(2):
        shares.clear()
        _pass(cfg, ham, psi0, times)
        assert shares and {threads for threads, _ in shares} == {1}
        workers.append({name for _, name in shares})
        assert library()[1] == 2
    assert seen and set(seen) == {1}
    assert workers[1] <= workers[0]
    # W = 2 shares run at once (W read before the pin, inside which it is 1)
    barrier = threading.Barrier(2, timeout=10)
    blas.run_shares(lambda w: barrier.wait(), 2)
    # a gate failure once every block is in
    monkeypatch.setattr(observables, "NORM_TOL", 1e-300)
    with pytest.raises(ValueError, match="norm"):
        _pass(cfg, ham, psi0, times)
    assert library()[1] == 2
    # a consumer that stops after one block
    blocks = propagate_blocks(psi0, ham, times)
    next(blocks)
    assert library()[1] == 2
    blocks.close()
    assert library()[1] == 2

    # a worker that fails inside the section
    def failing_fft(*args, **kwargs):
        raise RuntimeError("FFT failed")

    monkeypatch.setattr(np.fft, "rfft", failing_fft)
    with pytest.raises(RuntimeError, match="FFT failed"):
        next(propagate_blocks(psi0, ham, times))
    assert library()[1] == 2
