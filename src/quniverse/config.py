"""Model configuration: every physical and numerical parameter of a run.

A configuration plus its seed determines a universe realization
bit-exactly.  Configs serialize to a flat ``key = value`` text format;
unknown keys are rejected so a stale file cannot silently drive a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Coupling width in reduced units, calibrated empirically: at 0.005 the
# default run fragments essentially completely inside the total-energy
# shell with a few percent off-shell leakage, giving late-time
# S_univ ~ 6.0 and shell-5 partial entropy ~ 5.1 for every initial
# state.  Much larger values (>~ 0.01) dissolve the shell structure.
DEFAULT_ALPHA = 0.005

_COUPLING_SCOPES = ("all", "system_changing_only")


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of the system-environment universe.

    Energies are in reduced units (polyad spacing = kappa); the absolute
    scale enters only through `energy_unit_wavenumbers`.
    """

    n_system_levels: int = 6
    polyad_N: int = 5
    omega0: float = 34.64
    kappa: float = 1.0
    n_env_levels: int = 8
    omega_E: float = 1.0
    degeneracy_A: int = 6
    degeneracy_b: float = 2.0
    alpha: float = DEFAULT_ALPHA
    energy_unit_wavenumbers: float = 111.77
    rng_seed: int = 0
    total_energy: int = 5
    coupling_scope: str = "all"
    paper_compat: bool = False
    random_initial_phases: bool = False

    def __post_init__(self):
        if self.n_system_levels < 1:
            raise ValueError("n_system_levels must be a positive integer")
        if self.polyad_N < 0:
            raise ValueError("polyad_N must be non-negative")
        if self.n_system_levels != self.polyad_N + 1:
            raise ValueError(
                f"n_system_levels ({self.n_system_levels}) must equal "
                f"polyad_N + 1 ({self.polyad_N + 1})"
            )
        if self.n_env_levels < 1:
            raise ValueError("n_env_levels must be a positive integer")
        if self.omega_E <= 0.0:
            raise ValueError("omega_E must be positive")
        if self.degeneracy_A < 1:
            raise ValueError("degeneracy_A must be a positive integer")
        if self.degeneracy_b <= 1.0:
            raise ValueError(
                "degeneracy_b must exceed 1 (the bath temperature 1/(k_B ln b) "
                "is otherwise infinite or negative)"
            )
        # alpha = 0 is the exactly uncoupled limit and is meaningful.
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.energy_unit_wavenumbers <= 0.0:
            raise ValueError("energy_unit_wavenumbers must be positive")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ValueError("rng_seed must be a 64-bit unsigned integer")
        if self.total_energy < 0:
            raise ValueError("total_energy must be non-negative")
        if self.total_energy > self.polyad_N:
            raise ValueError(
                "total_energy must not exceed polyad_N, otherwise not every "
                "system level can participate in the microcanonical shell"
            )
        if self.coupling_scope not in _COUPLING_SCOPES:
            raise ValueError(f"coupling_scope must be one of {_COUPLING_SCOPES}")
        # The degeneracy law must produce exact positive integers.
        for m in range(self.n_env_levels):
            g = self.degeneracy_A * self.degeneracy_b ** (m * self.omega_E)
            if abs(g - round(g)) > 1e-9 * max(1.0, g) or round(g) < 1:
                raise ValueError(
                    f"degeneracy A*b^(m*omega_E) = {g} is not a positive integer "
                    f"at rung m={m}; rejected rather than rounded"
                )

    # -- derived counts ------------------------------------------------

    def degeneracy(self, m: int) -> int:
        """g(m) = A * b^(m * omega_E), validated integral in __post_init__."""
        if not 0 <= m < self.n_env_levels:
            raise ValueError(f"environment rung m={m} out of range 0..{self.n_env_levels - 1}")
        return round(self.degeneracy_A * self.degeneracy_b ** (m * self.omega_E))

    def degeneracies(self):
        return [self.degeneracy(m) for m in range(self.n_env_levels)]

    @property
    def n_env_states(self) -> int:
        return sum(self.degeneracies())

    @property
    def n_universe_states(self) -> int:
        return self.n_system_levels * self.n_env_states

    def shell_size(self, shell: int) -> int:
        """Number of product states |n,m,l> with nominal energy n + m = shell."""
        total = 0
        for n in range(self.n_system_levels):
            m = shell - n
            if 0 <= m < self.n_env_levels:
                total += self.degeneracy(m)
        return total

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_string(self, exclude=(), **extra) -> str:
        """Stable key = value rendering (sorted keys, repr floats) used for hashing.

        `exclude` leaves fields out and `extra` adds entries, so that a
        hash can cover part of the config plus inputs from outside it.
        """
        items = {k: v for k, v in self.to_dict().items() if k not in exclude}
        items.update(extra)
        return "\n".join(f"{k} = {_format_value(v)}" for k, v in sorted(items.items())) + "\n"

    def content_hash(self, exclude=(), **extra) -> str:
        """sha256 of `canonical_string(exclude, **extra)`: the one hashing scheme."""
        return hashlib.sha256(self.canonical_string(exclude, **extra).encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        """Parse `key = value` lines; unknown keys are refused by `from_dict`."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        data = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in data:
                raise ValueError(f"{path}:{lineno}: duplicate configuration key {key!r}")
            data[key] = _parse_value(value, types.get(key))
        return cls.from_dict(data)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text: str, annotation: str):
    kind = str(annotation)
    if kind == "bool":
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {text!r}")
    if kind == "int":
        return int(text)
    if kind == "float":
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {text!r}")
        return value
    return text
