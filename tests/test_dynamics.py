import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

from quniverse import blas, dynamics, units
from quniverse.cache import CACHE_DIR_ENV
from quniverse.config import ModelConfig
from quniverse.dynamics import (
    NUFFT_MIN_TIMES,
    _eigen_coefficients,
    env_block_size,
    initial_state,
    propagate,
    propagate_blocks,
)
from quniverse.model import assemble_hamiltonian, build_basis

from conftest import (hamiltonian_matrix, propagated,
                      random_normalized_state, toy6_config, toy21_config)
from oracles import expectation, probabilities


@pytest.fixture(scope="module")
def production_basis():
    cfg = ModelConfig()
    return cfg, build_basis(cfg)


# -- initial states -----------------------------------------------------------

def test_initial_state_n2_occupies_rung3(production_basis):
    cfg, basis = production_basis
    psi = initial_state(cfg, 2)
    p = probabilities(psi)
    support = np.flatnonzero(p > 0)
    assert support.size == 48  # g(3)
    np.testing.assert_array_equal(basis.n[support], 2)
    np.testing.assert_array_equal(basis.m[support], 3)
    np.testing.assert_allclose(psi[support], 1.0 / math.sqrt(48.0))


def test_initial_state_n5_occupies_ground_rung():
    cfg = ModelConfig()
    psi = initial_state(cfg, 5)
    support = np.flatnonzero(probabilities(psi) > 0)
    assert support.size == 6  # g(0)
    np.testing.assert_allclose(psi[support], 1.0 / math.sqrt(6.0))


@pytest.mark.parametrize("n", range(6))
def test_initial_states_normalized(n):
    cfg = ModelConfig()
    psi = initial_state(cfg, n)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_initial_state_invalid_levels():
    cfg = ModelConfig()
    with pytest.raises(ValueError):
        initial_state(cfg, 6)
    with pytest.raises(ValueError):
        initial_state(cfg, -1)
    short = ModelConfig(n_env_levels=3)  # total_energy 5: m = 5 beyond the last rung, 2
    with pytest.raises(ValueError, match="rung m=5"):
        initial_state(short, 0)


def test_initial_state_random_phases_change_phases_not_probabilities():
    cfg = ModelConfig()
    phased_cfg = dataclasses.replace(cfg, random_initial_phases=True)
    flat = initial_state(cfg, 1)
    phased = initial_state(phased_cfg, 1)
    np.testing.assert_allclose(probabilities(phased), probabilities(flat), atol=1e-15)
    assert not np.allclose(phased, flat)
    again = initial_state(phased_cfg, 1)
    np.testing.assert_array_equal(phased, again)


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
    psi0 = random_normalized_state(toy6_ham.dim, 1)
    matrix = hamiltonian_matrix(toy6)
    for t in (0.3, 1.7, 4.0):
        fast = propagate(psi0, toy6_ham, t)
        oracle = _taylor_expm_apply(matrix, psi0, t)
        assert np.abs(fast - oracle).max() <= 1e-9


def test_propagate_t0_identity(toy6_ham):
    psi0 = random_normalized_state(toy6_ham.dim, 2)
    out = propagate(psi0, toy6_ham, 0.0)
    np.testing.assert_allclose(out, psi0, rtol=0, atol=1e-12)


def test_propagate_unitary_and_conserves_energy(toy6_ham):
    psi0 = random_normalized_state(toy6_ham.dim, 3)
    e0 = expectation(toy6_ham, psi0)
    for t in np.linspace(0.0, 20.0, 9):
        psi_t = propagate(psi0, toy6_ham, float(t))
        assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-10
        e_t = expectation(toy6_ham, psi_t)
        assert abs(e_t - e0) <= 1e-9 * max(1.0, abs(e0))


def test_propagate_group_property(toy6_ham):
    psi0 = random_normalized_state(toy6_ham.dim, 4)
    two_step = propagate(propagate(psi0, toy6_ham, 1.3), toy6_ham, 2.9)
    one_step = propagate(psi0, toy6_ham, 4.2)
    assert np.abs(two_step - one_step).max() <= 1e-9


def test_propagate_reversible(toy6_ham):
    psi0 = random_normalized_state(toy6_ham.dim, 5)
    back = propagate(propagate(psi0, toy6_ham, 7.7), toy6_ham, -7.7)
    assert np.abs(back - psi0).max() <= 1e-9


def test_alpha_zero_freezes_populations():
    cfg = toy6_config(alpha=0.0)
    ham = assemble_hamiltonian(cfg)
    psi0 = initial_state(cfg, 0)
    p0 = probabilities(psi0)
    for t in (0.5, 3.0, 50.0):
        pt = probabilities(propagate(psi0, ham, t))
        np.testing.assert_allclose(pt, p0, rtol=0, atol=1e-12)


def test_propagate_dimension_mismatch(toy6_ham):
    with pytest.raises(ValueError, match="dimension"):
        propagate(np.zeros(5, dtype=complex), toy6_ham, 1.0)


def test_propagate_blocks_match_single_calls(toy6_ham):
    psi0 = random_normalized_state(toy6_ham.dim, 6)
    times = np.linspace(0.0, 5.0, 11)
    (batch,) = propagated(psi0[None], toy6_ham, times)
    # every block's c, on both kernels, has a contiguous row axis, which
    # the observables view as float64
    for grid in (times, np.linspace(0.0, 5.0, NUFFT_MIN_TIMES)):
        for rows, c in propagate_blocks(psi0[None], toy6_ham, grid):
            assert c.strides[-1] == c.itemsize and c.shape == (1, grid.size, rows.size)
            assert c.view(np.float64).shape == (1, grid.size, 2 * rows.size)
    v, w = toy6_ham.eigenvectors, toy6_ham.eigenvalues
    for k, t in enumerate(times):
        single = propagate(psi0, toy6_ham, float(t))
        np.testing.assert_allclose(batch[k], single, rtol=0, atol=1e-12)
        # complex-arithmetic oracle, independent of the real-GEMM view
        direct = (v * np.exp(-1j * w * t)) @ (v.T.astype(complex) @ psi0)
        np.testing.assert_allclose(batch[k], direct, rtol=0, atol=1e-12)


def test_row_blocks_partition_the_basis():
    assert env_block_size(6, 1530) == 128  # production: 12 blocks of 6 x 128 rows
    cfg = toy21_config()
    ham = assemble_hamiltonian(cfg)
    ns, ne = cfg.n_system_levels, ham.dim // cfg.n_system_levels
    width = env_block_size(ns, ne)
    seen = []
    for rows, c in propagate_blocks(np.eye(ham.dim, dtype=complex)[:2], ham, [0.0, 1.0]):
        env = rows % ne
        assert c.shape == (2, 2, rows.size)
        assert np.array_equal(rows // ne, np.repeat(np.arange(ns), rows.size // ns))
        assert env.min() % width == 0 and env.max() - env.min() < width
        seen.append(rows)
    assert len(seen) >= 2
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(ham.dim))


def _toy21_states(ham, cfg):
    """Every toy21 initial state, with real and with random phases, and a full-support one."""
    for n in range(cfg.n_system_levels):
        for phases in (False, True):
            yield f"n={n} phases={phases}", initial_state(
                dataclasses.replace(cfg, random_initial_phases=phases), n)
    yield "full support", random_normalized_state(ham.dim, 21)


def test_eigen_coefficients_match_full_product(toy21, toy21_ham):
    v = toy21_ham.eigenvectors
    for label, c in _toy21_states(toy21_ham, toy21):
        trimmed = _eigen_coefficients(v, c)
        assert trimmed.shape == (toy21_ham.dim, 1)
        full = v.T @ c.real + 1j * (v.T @ c.imag)
        np.testing.assert_allclose(trimmed[:, 0], full, rtol=0, atol=1e-14, err_msg=label)


def test_eigen_coefficients_read_only_the_support():
    cfg = toy21_config()
    ham = assemble_hamiltonian(cfg)
    c = initial_state(cfg, 1)
    support = np.flatnonzero(c)
    poisoned = ham.eigenvectors.copy()
    outside = np.ones(ham.dim, dtype=bool)
    outside[support[0]:support[-1] + 1] = False
    poisoned[outside] = np.nan
    np.testing.assert_array_equal(_eigen_coefficients(poisoned, c),
                                  _eigen_coefficients(ham.eigenvectors, c))
    assert not np.any(_eigen_coefficients(ham.eigenvectors, np.zeros(ham.dim, complex)))


# -- the NUFFT path on uniform grids ----------------------------------------------

def _direct(monkeypatch, amplitudes, ham, times):
    with monkeypatch.context() as m:
        m.setattr(dynamics, "NUFFT_MIN_TIMES", 10 ** 9)
        return propagated(amplitudes, ham, times)


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
    # every state in one pass, each against its own direct product and oracle
    times = np.linspace(0.0, t_max, n_times)
    assert _wraps(toy21_ham, times) > min_wraps
    v, w = toy21_ham.eigenvectors, toy21_ham.eigenvalues
    labels, states = zip(*_toy21_states(toy21_ham, toy21))
    fast = propagated(np.array(states), toy21_ham, times)
    assert fast.shape == (len(states), n_times, toy21_ham.dim)
    for label, c, got in zip(labels, states, fast):
        direct = _direct(monkeypatch, c[None], toy21_ham, times)[0]
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12, err_msg=label)
        # complex-arithmetic oracle, independent of both kernels
        oracle = (np.exp(-1j * np.multiply.outer(times, w)) * (v.T @ c)) @ v.T
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12, err_msg=label)


@pytest.mark.parametrize("edge", ["low", "high"])
def test_nufft_kernel_wraps_around_the_grid(monkeypatch, toy21, toy21_ham, edge):
    # every eigenphase in one 2 pi wrap, the lowest just above 0 or the
    # highest just below 2 pi: its kernel spills into the far end of the
    # periodic grid, which only a shift into a wrap that holds no point reaches
    times = np.linspace(0.0, 40.0, NUFFT_MIN_TIMES)
    w, period = toy21_ham.eigenvalues, 2.0 * np.pi / times[1]
    shifted = w - w[0] + 1e-3 if edge == "low" else w - w[-1] + period - 1e-3
    assert shifted[0] > 0.0 and shifted[-1] < period
    ham = dataclasses.replace(toy21_ham, eigenvalues=shifted)
    labels, states = zip(*_toy21_states(ham, toy21))
    fast = propagated(np.array(states), ham, times)
    for label, c, got in zip(labels, states, fast):
        np.testing.assert_allclose(got, _direct(monkeypatch, c[None], ham, times)[0],
                                   rtol=0, atol=1e-12, err_msg=label)


@pytest.mark.parametrize("n_times, t_max, min_wraps", [
    (NUFFT_MIN_TIMES, 50.0, 0), (201, 631.0, 4), (600, 631.0, 1),
])
def test_nufft_matches_direct_product_mid(monkeypatch, mid_ham, n_times, t_max, min_wraps):
    cfg, ham = mid_ham
    times = np.linspace(0.0, t_max, n_times)
    assert _wraps(ham, times) > min_wraps
    states = np.array([
        initial_state(cfg, 0),
        initial_state(dataclasses.replace(cfg, random_initial_phases=True), 3),
        random_normalized_state(ham.dim, 8)])
    fast = propagated(states, ham, times)
    for c, got in zip(states, fast):
        direct = _direct(monkeypatch, c[None], ham, times)[0]
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


def _block_bytes(amplitudes, ham, times):
    """Bytes of the buffer that the row blocks are views of."""
    (_, c), *_ = propagate_blocks(amplitudes, ham, times)
    return c.base.nbytes


@pytest.mark.parametrize("universe", ["toy21", "mid"])
def test_random_phase_states_take_two_columns_and_match_direct_product(
        request, monkeypatch, universe):
    # every state of the pass has complex weights: two real columns each,
    # which double the plane and the plan, while the yielded block holds
    # each state's complex modes as it does for real weights
    cfg, ham = (request.getfixturevalue("mid_ham") if universe == "mid" else
                (request.getfixturevalue("toy21"), request.getfixturevalue("toy21_ham")))
    phased = dataclasses.replace(cfg, random_initial_phases=True)
    levels = [n for n in range(cfg.n_system_levels)
              if 0 <= cfg.total_energy - n < cfg.n_env_levels]
    times = np.linspace(0.0, 631.0, 201)
    states = np.array([initial_state(phased, n) for n in levels])
    real = np.array([initial_state(cfg, n) for n in levels])
    assert _block_bytes(states, ham, times) == _block_bytes(real, ham, times)
    fast = propagated(states, ham, times)
    for n, c, got in zip(levels, states, fast):
        direct = _direct(monkeypatch, c[None], ham, times)[0]
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12, err_msg=f"n={n}")


def test_nufft_state_bytes_independent_of_other_states_with_random_phases(toy21, toy21_ham):
    # real and complex weights side by side, in several orders: each
    # state's amplitudes are the bytes of its pass alone
    phased = dataclasses.replace(toy21, random_initial_phases=True)
    states = [initial_state(toy21, 0), initial_state(phased, 1), initial_state(phased, 2),
              random_normalized_state(toy21_ham.dim, 28), initial_state(toy21, 2)]
    times = np.linspace(0.0, 631.0, NUFFT_MIN_TIMES + 1)
    alone = [propagated(c[None], toy21_ham, times)[0].tobytes() for c in states]
    for order in ([1, 0], [2, 1, 3], [4, 3, 2, 1, 0], [0, 2, 4, 1, 3]):
        together = propagated(np.array([states[i] for i in order]), toy21_ham, times)
        for i, got in zip(order, together):
            assert got.tobytes() == alone[i], (order, i)


@pytest.mark.parametrize("phases", [False, True], ids=["real", "random_phases"])
def test_pass_bytes_count_the_nufft_grid(toy21, toy21_ham, phases):
    # the yielded block and one system level's plane, whose columns and
    # plan a random-phase state doubles; the traced bound on every other
    # allocation is tested at mid size (test_observables.py), where the
    # kernel's quadrature and Python's objects do not dominate
    cfg = dataclasses.replace(toy21, random_initial_phases=phases)
    states = [0, 2]
    amplitudes = np.array([initial_state(cfg, n) for n in states])
    for n_times in (NUFFT_MIN_TIMES, 250):
        block = _block_bytes(amplitudes, toy21_ham, np.linspace(0.0, 40.0, n_times))
        # one row block: 2 environment states in each of 3 system levels
        assert block == len(states) * 16 * n_times * 3 * 2
        planned = dynamics.pass_bytes(cfg, len(states), n_times) - 8 * toy21_ham.dim ** 2
        columns = (2 if phases else 1) * len(states)
        assert planned >= block + columns * 16 * 2 * n_times * 2
        if phases:
            real = dynamics.pass_bytes(toy21, len(states), n_times) - 8 * toy21_ham.dim ** 2
            # the second columns' planes, plan and weights, and spreading products
            plan = 2 * 16 + (4 * n_times) % 16 + 1
            assert planned - real == len(states) * (16 * 2 * n_times * 2 + 8 * 21 * plan
                                                    + 16 * len(states) * 2 * 16)


def test_nufft_bytes_independent_of_pass_workers(monkeypatch, mid_ham):
    # 3 workers on 2 states: more workers than states, and than this
    # machine's cores; on the NUFFT grid, on a direct one and at one time
    cfg, ham = mid_ham
    psi0 = np.array([initial_state(cfg, n) for n in (2, 4)])
    grids = {"nufft": np.linspace(0.0, 631.0, 600), "direct": np.linspace(0.0, 631.0, 40)}
    assert dynamics._uniform_step(grids["nufft"]) is not None
    assert grids["direct"].size < NUFFT_MIN_TIMES

    def outputs():
        single = propagate(psi0[1], ham, 12.5)
        return {**{name: propagated(psi0, ham, times) for name, times in grids.items()},
                "single time": single}

    monkeypatch.setattr(blas, "pass_workers", lambda: 1)
    one = outputs()
    for workers in (2, 3):
        monkeypatch.setattr(blas, "pass_workers", lambda workers=workers: workers)
        for name, got in outputs().items():
            assert one[name].tobytes() == got.tobytes(), (name, workers)


@pytest.mark.parametrize("phases", [False, True], ids=["real", "random_phases"])
def test_nufft_bytes_independent_of_rfft_chunks(monkeypatch, mid_ham, phases):
    # each rfft call transforms at most _FFT_VALUES // (2T + 1) rows of V,
    # and one row at the least: every row's modes are the bytes of the
    # whole level's transform (one call per state and level here), in
    # calls of one row and of 7 rows and a last one of 4 (32 rows a level)
    cfg, ham = mid_ham
    cfg = dataclasses.replace(cfg, random_initial_phases=phases)
    psi0 = np.array([initial_state(cfg, n) for n in range(6)])
    times = np.linspace(0.0, 631.0, 600)
    whole = [c.tobytes() for _, c in propagate_blocks(psi0, ham, times)]
    for fft_values in (1, 7 * 1201):
        monkeypatch.setattr(dynamics, "_FFT_VALUES", fft_values)
        assert [c.tobytes() for _, c in propagate_blocks(psi0, ham, times)] == whole


@pytest.mark.parametrize("n_rows", [1, 7, 26, 64, 80, 128])
def test_stacked_products_give_each_state_its_own_bytes(n_rows):
    # The properties the NUFFT's stacked spreading products rest on, in the
    # pass's column layout: each state's G = 16 columns of a spreading
    # product, then, after every state's, another G for each state whose
    # weights are complex (here the odd ones of six).  On one OpenBLAS
    # thread (`gemm_threads(1)`, as in the pass), with at most _K_PANEL
    # points, a state's columns in the stack of the first k states are the
    # bytes of its columns stacked alone.  And those bytes do not depend on
    # the thread count numpy's OpenBLAS had before the pass pinned it.  The
    # rows are an F-ordered slice of a taller matrix, like the views of V.
    rng, width, phased = np.random.default_rng(n_rows), dynamics._BLOCK, (1, 3, 5)
    v = np.asfortranarray(rng.standard_normal((n_rows + 37, dynamics._K_PANEL + 9)))

    def layout(states):
        """The (state, plane) of each G columns, in the pass's order."""
        return [(s, 0) for s in states] + [(s, 1) for s in states if s in phased]

    everyone = layout(range(6))
    for inner in (1, 31, 32, 244, 245, 257, 300, 383, dynamics._K_PANEL):
        rows = v[5:5 + n_rows, 3:3 + inner]
        spread = dict(zip(everyone, np.split(
            rng.standard_normal((inner, width * len(everyone))), len(everyone), axis=1)))
        stacks = [layout(range(k)) for k in range(1, 7)] + [layout([s]) for s in range(6)]
        products = []
        for threads in (1, 2):
            with blas.gemm_threads(threads), blas.gemm_threads(1):
                products.append([rows @ np.hstack([spread[c] for c in stack]) for stack in stacks])
        columns = [dict(zip(stack, np.split(product, len(stack), axis=1)))
                   for stack, product in zip(stacks, products[0])]
        stacked, alone = columns[:6], columns[6:]
        for k, got in enumerate(stacked, start=1):
            for s in range(k):
                for plane, own in alone[s].items():
                    assert got[plane].tobytes() == own.tobytes(), (inner, k, plane)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*products)), inner


def test_stacked_products_give_each_weight_column_its_own_bytes():
    # As above, one weight column at a time: a weight column's G = 16
    # columns of a spreading product, stacked with up to 11 other columns'
    # (six random-phase states), are the bytes of its product alone.
    rng, width = np.random.default_rng(16), dynamics._BLOCK
    v = np.asfortranarray(rng.standard_normal((128 + 37, dynamics._K_PANEL + 9)))
    for n_rows in (1, 26, 128):
        for inner in (1, 31, 244, 257, 383, dynamics._K_PANEL):
            rows = v[5:5 + n_rows, 3:3 + inner]
            spread = rng.standard_normal((inner, width * 12))
            with blas.gemm_threads(1):
                for columns in range(1, 13):
                    stacked = rows @ spread[:, :width * columns]
                    for c in range(columns):
                        cols = slice(width * c, width * (c + 1))
                        alone = rows @ np.ascontiguousarray(spread[:, cols])
                        assert stacked[:, cols].tobytes() == alone.tobytes(), (
                            n_rows, inner, columns, c)


# numpy's SIMD level on the hosts whose OpenBLAS picks each kernel: a Haswell
# or Zen 2 host has AVX2 and no AVX-512, a Sandy Bridge or Nehalem host no AVX2.
KERNEL_LEVELS = {"Haswell": "X86_V3", "Sandybridge": "X86_V2", "Nehalem": "X86_V2"}


def _numpy_features_above(level):
    """The SIMD features that numpy dispatches to in this process and a host at `level`
    lacks: those after `level` in numpy's dispatch list, which is in ascending order
    (X86_V3 X86_V4 AVX512_ICL AVX512_SPR over an X86_V2 baseline in numpy 2.4)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    dispatch = list(__cpu_dispatch__)
    above = dispatch[dispatch.index(level) + 1:] if level in dispatch else dispatch
    return [feature for feature in above if __cpu_features__.get(feature)]


@pytest.mark.parametrize("kernel", list(KERNEL_LEVELS))
def test_byte_tests_pass_under_openblas_kernel(tmp_path, kernel):
    # The four byte tests above, the toy21 output pins and the OpenBLAS wake
    # test, rerun in a child process whose OpenBLAS (numpy's DYNAMIC_ARCH
    # build, which runs the solve and the GEMMs) takes the kernels that
    # OPENBLAS_CORETYPE names: those a Haswell or Zen, a Sandy Bridge and a
    # Nehalem host would pick.  numpy's own loops are held to the SIMD level
    # that such a host runs.
    src = Path(dynamics.__file__).parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, CACHE_DIR_ENV: str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    above = _numpy_features_above(KERNEL_LEVELS[kernel])
    if above:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(above)
    probe = subprocess.run(
        [sys.executable, "-c", "from quniverse.blas import library; print(library()[0])"],
        env=env, capture_output=True, text=True, check=True)
    if kernel not in probe.stdout.split():
        pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernels "
                    f"(numpy's OpenBLAS reads {probe.stdout.strip()!r})")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_stacked_products_give_each_state_its_own_bytes",
         f"{__file__}::test_stacked_products_give_each_weight_column_its_own_bytes",
         f"{__file__}::test_nufft_bytes_independent_of_pass_workers",
         f"{__file__}::test_nufft_bytes_independent_of_rfft_chunks",
         f"{Path(__file__).with_name('test_cli.py')}::test_outputs_pinned_for_this_version",
         f"{Path(__file__).with_name('test_cli.py')}::"
         "test_cache_hit_run_sticks_and_compare_wake_no_openblas_worker"],
        env=env, cwd=src.parent, capture_output=True, text=True)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]


@pytest.mark.parametrize("t_max_ps", [1.5, 30.0])
def test_spreading_plan_covers_each_window_in_capped_pieces(mid_ham, t_max_ps):
    # At 1.5 ps a grid block's window holds up to ~700 points, so the cut
    # at _K_PANEL is exercised; at 30 ps a window's points span many wraps.
    cfg, ham = mid_ham
    e, n_times = ham.eigenvalues, 120
    step = units.ps_to_reduced_time(t_max_ps, cfg.energy_unit_wavenumbers) / (n_times - 1)
    plan = dynamics._spreading_plan(e, np.ones((e.size, 2)), step, n_times)
    n_grid, half = 4 * n_times, dynamics._KERNEL_WIDTH / 2
    u = e * (step * n_grid / (2.0 * np.pi))
    largest = 0
    for lo, hi, terms in plan:
        # brute force: point j lies in the window (lo - W/2, hi - 1 + W/2)
        # shifted by the one whole number of grid periods that could hold it
        first, last = lo - half, hi - 1 + half
        p = np.floor((u - first) / n_grid)
        inside = np.flatnonzero((u > first + p * n_grid) & (u < last + p * n_grid))
        pieces = [np.arange(j0, j1) for j0, j1, _ in terms]
        assert all(piece.size <= dynamics._K_PANEL for piece in pieces)
        assert all(s.shape == (j1 - j0, 2 * (hi - lo)) for j0, j1, s in terms)
        got = np.sort(np.concatenate(pieces)) if pieces else np.array([], int)
        np.testing.assert_array_equal(got, inside, err_msg=f"grid block {lo}..{hi - 1}")
        largest = max(largest, inside.size)
    assert largest > (dynamics._K_PANEL if t_max_ps == 1.5 else 0)


def test_pass_workers_follow_numpy_blas_thread_count():
    for threads in (1, 2, 3):
        with blas.gemm_threads(threads):
            assert blas.pass_workers() == threads


def test_only_uniform_grids_from_zero_take_the_nufft(monkeypatch, toy21, toy21_ham):
    def refuse(*args, **kwargs):
        raise AssertionError("NUFFT path taken")

    monkeypatch.setattr(dynamics, "_nufft_kernel", refuse)
    psi0 = initial_state(toy21, 1)[None]
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
        out = propagated(psi0, toy21_ham, times)
        assert out.shape == (1, times.size, toy21_ham.dim), label
    for times in (uniform, np.arange(NUFFT_MIN_TIMES) * 0.37):
        with pytest.raises(AssertionError, match="NUFFT path taken"):
            propagate_blocks(psi0, toy21_ham, times)


def test_nufft_refuses_unsorted_eigenvalues(toy21, toy21_ham):
    flipped = dataclasses.replace(toy21_ham, eigenvalues=toy21_ham.eigenvalues[::-1],
                                  eigenvectors=toy21_ham.eigenvectors[:, ::-1])
    psi0 = initial_state(toy21, 1)
    times = np.linspace(0.0, 50.0, NUFFT_MIN_TIMES)
    with pytest.raises(ValueError, match="ascending"):
        propagated(psi0[None], flipped, times)
    # the direct path needs no order
    np.testing.assert_allclose(propagate(psi0, flipped, 3.0),
                               propagate(psi0, toy21_ham, 3.0), rtol=0, atol=1e-12)


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
