"""quniverse: exact-diagonalization quantum thermodynamics of a small
system-environment universe.

A polyad of two coupled oscillators exchanges heat with a bath of
quasi-degenerate levels whose degeneracies grow exponentially (which
fixes the bath temperature).  The closed universe is propagated
analytically from its dense eigendecomposition; the package computes
the system's von Neumann entropy and free energy from the reduced
density matrix, the universe's reference-basis entropy, and the
microcanonical-shell decomposition relating the two.
"""

# Bump with every change that moves an output byte: the cache key covers
# it, and `quniverse sticks` refuses a manifest of another version.
__version__ = "0.3.0"

from .config import ModelConfig
from .model import (
    UniverseBasis,
    UniverseHamiltonian,
    assemble_hamiltonian,
    build_environment,
    build_system_levels,
    temperature_of,
)
from .dynamics import PureState, initial_state, propagate, propagate_to_times, time_grid
from .observables import (
    ReducedDensityMatrix,
    boltzmann_fit_temperature,
    free_energy_change,
    reduced_density_matrix,
    system_energy,
    trajectory_columns,
    universe_entropy,
    von_neumann_entropy,
)
from .analysis import (
    ShellDecomposition,
    StickDiagram,
    detect_negative_production,
    effective_state_count,
    entropy_production_rate,
    shell_decompose,
    stick_diagram,
)
from .rng import SeededRng

__all__ = [
    "ModelConfig",
    "PureState",
    "ReducedDensityMatrix",
    "SeededRng",
    "ShellDecomposition",
    "StickDiagram",
    "UniverseBasis",
    "UniverseHamiltonian",
    "__version__",
    "assemble_hamiltonian",
    "boltzmann_fit_temperature",
    "build_environment",
    "build_system_levels",
    "detect_negative_production",
    "effective_state_count",
    "entropy_production_rate",
    "free_energy_change",
    "initial_state",
    "propagate",
    "propagate_to_times",
    "reduced_density_matrix",
    "shell_decompose",
    "stick_diagram",
    "system_energy",
    "temperature_of",
    "time_grid",
    "trajectory_columns",
    "universe_entropy",
    "von_neumann_entropy",
]
