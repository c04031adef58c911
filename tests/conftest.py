import os

import numpy as np
import pytest

from quniverse.cache import CACHE_DIR_ENV, cache_dir
from quniverse.config import ModelConfig
from quniverse.model import assemble_hamiltonian, build_basis, build_hamiltonian_matrix


# The acceptance suite keeps the shared cache on purpose: its
# production-size solves are paid once and reused by later runs.
SHARED_CACHE_TESTS = "test_acceptance.py"

# The user's cache directory, read before any test changes the environment
USER_CACHE_DIR = cache_dir()


@pytest.fixture(autouse=True)
def _private_cache_dir(request, tmp_path_factory, monkeypatch):
    """Keep unit tests out of the user's eigensystem cache."""
    if request.node.path.name != SHARED_CACHE_TESTS:
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))


def assemble_privately(config, tmp_path_factory):
    """assemble_hamiltonian in a fresh cache directory.

    For session- and module-scoped fixtures: pytest sets them up before
    the function-scoped _private_cache_dir, so they must set their own.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))
        return assemble_hamiltonian(config)


def _listing(path):
    """(name, size, mtime) of every file in `path`; None if it does not exist."""
    try:
        with os.scandir(path) as entries:
            return sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns) for e in entries)
    except FileNotFoundError:
        return None


def _guard_user_cache(item):
    """Fail a unit test's phase if it changed anything in the user's cache directory."""
    if item.path.name == SHARED_CACHE_TESTS:
        return (yield)
    before = _listing(USER_CACHE_DIR)
    result = yield
    after = _listing(USER_CACHE_DIR)
    if after != before:
        raise AssertionError(f"a unit test changed the user's cache {USER_CACHE_DIR}: "
                             f"{before} -> {after}")
    return result


# Setup and teardown are checked too: higher-scoped fixtures run there.
@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _guard_user_cache(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _guard_user_cache(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    return (yield from _guard_user_cache(item))


def toy6_config(**overrides):
    """2 system levels x 3 environment states: the smallest interesting universe."""
    params = dict(
        n_system_levels=2, polyad_N=1, omega0=3.0, kappa=1.0,
        n_env_levels=2, omega_E=1.0, degeneracy_A=1, degeneracy_b=2.0,
        alpha=0.3, energy_unit_wavenumbers=111.77, rng_seed=7, total_energy=1,
    )
    params.update(overrides)
    return ModelConfig(**params)


def toy21_config(**overrides):
    """3 system levels x 7 environment states, small enough for brute-force oracles."""
    params = dict(
        n_system_levels=3, polyad_N=2, omega0=5.0, kappa=1.0,
        n_env_levels=3, omega_E=1.0, degeneracy_A=1, degeneracy_b=2.0,
        alpha=0.1, energy_unit_wavenumbers=111.77, rng_seed=11, total_energy=2,
    )
    params.update(overrides)
    return ModelConfig(**params)


@pytest.fixture(scope="session")
def toy6():
    return toy6_config()


@pytest.fixture(scope="session")
def toy6_ham(toy6, tmp_path_factory):
    return assemble_privately(toy6, tmp_path_factory)


@pytest.fixture(scope="session")
def toy21():
    return toy21_config()


@pytest.fixture(scope="session")
def toy21_ham(toy21, tmp_path_factory):
    return assemble_privately(toy21, tmp_path_factory)


def random_normalized_state(dim, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


def hamiltonian_matrix(config):
    """The full dense H of (config, seed), from the fill that assemble_hamiltonian uses."""
    return build_hamiltonian_matrix(config, build_basis(config))
