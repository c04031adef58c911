import numpy as np
import pytest

from quniverse.cache import CACHE_DIR_ENV
from quniverse.config import ModelConfig
from quniverse.model import assemble_hamiltonian, build_basis, build_hamiltonian_matrix
from quniverse.rng import SeededRng


@pytest.fixture(autouse=True)
def _private_cache_dir(request, tmp_path_factory, monkeypatch):
    """Keep unit tests out of the user's eigensystem cache.

    The acceptance suite keeps the shared cache on purpose: its
    production-size solves are paid once and reused by later runs.
    """
    if request.node.path.name != "test_acceptance.py":
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))


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
def toy6_ham(toy6):
    return assemble_hamiltonian(toy6)


@pytest.fixture(scope="session")
def toy21():
    return toy21_config()


@pytest.fixture(scope="session")
def toy21_ham(toy21):
    return assemble_hamiltonian(toy21)


def random_normalized_state(dim, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


def hamiltonian_matrix(config):
    """The full dense H of (config, seed), from the fill that assemble_hamiltonian uses."""
    rng = SeededRng(config.rng_seed)
    return build_hamiltonian_matrix(config, build_basis(config, rng=rng), rng)
