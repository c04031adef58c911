import math

import numpy as np
import pytest

from quniverse.analysis import (
    DipInterval,
    detect_negative_production,
    entropy_production_rate,
    late_window_slice,
    stick_order,
)
from quniverse.cli import _stick_text, _write_sticks
from quniverse.config import ModelConfig
from quniverse.dynamics import initial_state, propagate
from quniverse.model import build_basis

from conftest import random_normalized_state, toy6_config
from oracles import probabilities, shell_decompose, universe_entropy


@pytest.fixture(scope="module")
def production_basis():
    cfg = ModelConfig()
    return cfg, build_basis(cfg)


# -- shell decomposition --------------------------------------------------------

def test_initial_state_confined_to_its_shell(production_basis):
    cfg, basis = production_basis
    for n in (0, 3, 5):
        psi = initial_state(cfg, n)
        populations, partials = shell_decompose(psi, basis)
        np.testing.assert_allclose(populations[5], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(partials[5], universe_entropy(psi), rtol=0, atol=1e-12)
        others = np.delete(partials, 5)
        np.testing.assert_array_equal(others, 0.0)


def test_uniform_shell_population_gives_log_count(production_basis):
    cfg, basis = production_basis
    idx = np.flatnonzero(basis.shell_label == 5)
    assert idx.size == 378
    amps = np.zeros(cfg.n_universe_states, dtype=complex)
    amps[idx] = 1.0 / math.sqrt(378.0)
    _, partials = shell_decompose(amps, basis)
    np.testing.assert_allclose(partials[5], math.log(378.0), rtol=1e-12)
    others = np.delete(partials, 5)
    np.testing.assert_array_equal(others, 0.0)
    np.testing.assert_allclose(partials.sum(), math.log(378.0), rtol=1e-12)


def test_shell_decomposition_sums(toy21_ham):
    psi = random_normalized_state(toy21_ham.dim, 31)
    populations, partials = shell_decompose(psi, build_basis(toy21_ham.config))
    np.testing.assert_allclose(populations.sum(), 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(partials.sum(), universe_entropy(psi), rtol=0, atol=1e-10)


# -- entropy production rate ------------------------------------------------------

def test_rate_of_constant_series_is_zero():
    t = np.linspace(0.0, 9.0, 10)
    np.testing.assert_array_equal(
        entropy_production_rate(t, np.full(10, 3.3)), np.zeros(10)
    )


def test_rate_of_linear_series_is_exact_everywhere():
    t = np.arange(8.0)
    np.testing.assert_allclose(
        entropy_production_rate(t, 2.5 * t + 1.0), np.full(8, 2.5), rtol=1e-13
    )


def test_rate_of_quadratic_exact_at_interior():
    t = np.arange(11.0)
    rate = entropy_production_rate(t, t ** 2)
    np.testing.assert_allclose(rate[1:-1], 2.0 * t[1:-1], rtol=0, atol=1e-12)


# -- dip detection ------------------------------------------------------------------

def test_no_dip_for_increasing_series():
    t = np.arange(20.0)
    rate = entropy_production_rate(t, np.log1p(t))
    assert detect_negative_production(t, rate) == []


def test_single_constructed_dip_recovered():
    t = np.arange(30.0)
    rate = np.full(30, 0.2)
    rate[12:17] = -0.5
    intervals = detect_negative_production(t, rate)
    assert intervals == [DipInterval(t_start=12.0, t_end=16.0, min_rate=-0.5)]


@pytest.mark.parametrize("rate, spans", [
    ([1, -1, -2, 1, 1, -0.5, 1, 1, -3, -1, 1, 1], [(1, 2), (5, 5), (8, 9)]),
    ([-1, -2, 1, 0, -0.5, 1, 1, -3, -1], [(0, 1), (4, 4), (7, 8)]),
], ids=["inside", "at_both_ends"])
def test_multiple_dips_disjoint_and_ordered(rate, spans):
    t = np.arange(float(len(rate)))
    intervals = detect_negative_production(t, np.array(rate, dtype=float))
    assert [(d.t_start, d.t_end) for d in intervals] == spans
    assert intervals[0].min_rate == -2.0
    starts = [d.t_start for d in intervals]
    assert starts == sorted(starts)
    for a, b in zip(intervals, intervals[1:]):
        assert a.t_end < b.t_start


# -- stick diagrams -----------------------------------------------------------------

def _sticks(path, cfg, n, t, amplitudes):
    """The columns of the sticks CSV of `amplitudes` at time t, as the CLI writes it."""
    with open(path, "w", newline="") as fh:
        _write_sticks(fh, cfg, n, t, amplitudes, _stick_text(cfg))
    table = np.loadtxt(path, delimiter=",", skiprows=2)
    assert path.read_text().splitlines()[1] == "energy,p,n,m,l,shell"
    return dict(zip(("energy", "p", "n", "m", "l", "shell"), table.T))


def test_sticks_of_initial_state(production_basis, tmp_path):
    cfg, basis = production_basis
    psi = initial_state(cfg, 2)
    diagram = _sticks(tmp_path / "sticks.csv", cfg, 2, 0.0, psi)
    order = stick_order(basis)
    assert diagram["p"].size == cfg.n_universe_states
    assert np.all(np.diff(diagram["energy"]) >= 0)
    np.testing.assert_array_equal(diagram["energy"], basis.zero_order_energy[order])
    np.testing.assert_array_equal(diagram["p"], probabilities(psi)[order])
    np.testing.assert_allclose(diagram["p"].sum(), 1.0, rtol=0, atol=1e-12)
    live = diagram["p"] > 0
    assert live.sum() == 48
    np.testing.assert_array_equal(diagram["shell"][live], 5)
    # shifted energies of the occupied sticks cluster near E = 5
    assert np.all(np.abs(diagram["energy"][live] - 5.0) < 1.0)


def test_sticks_frozen_at_alpha_zero(tmp_path):
    from quniverse.model import assemble_hamiltonian

    cfg = toy6_config(alpha=0.0)
    ham = assemble_hamiltonian(cfg)
    psi0 = initial_state(cfg, 1)
    before = _sticks(tmp_path / "before.csv", cfg, 1, 0.0, psi0)
    after = _sticks(tmp_path / "after.csv", cfg, 1, 25.0, propagate(psi0, ham, 25.0))
    np.testing.assert_allclose(after["p"], before["p"], rtol=0, atol=1e-12)


# -- late window ---------------------------------------------------------------------

def test_late_window_slice():
    values = np.arange(10.0)
    np.testing.assert_allclose(values[late_window_slice(10)].mean(), 8.5)
