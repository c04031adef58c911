"""Trajectory post-processing: shell decomposition, stick diagrams,
entropy production, and anomaly detection.

Shell membership uses the nominal integer label n + m, never the
Gaussian-shifted energies; the shifted zero-order energy only places
sticks on the energy axis for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PureState
from .model import UniverseBasis
from .observables import shell_partial_entropies

UNIFORM_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class ShellDecomposition:
    """Population and entropy contribution of each nominal energy shell."""

    labels: np.ndarray
    counts: np.ndarray
    populations: np.ndarray
    partial_entropies: np.ndarray

    @property
    def total_entropy(self) -> float:
        return float(self.partial_entropies.sum())

    def partial_entropy(self, shell: int) -> float:
        return float(self.partial_entropies[shell])

    def population(self, shell: int) -> float:
        return float(self.populations[shell])


def shell_decompose(state: PureState, basis: UniverseBasis) -> ShellDecomposition:
    """Group p_i = |c_i|^2 by shell label n + m.

    The per-shell partial entropies -sum(p ln p) are an exact additive
    decomposition of the zero-order-basis S_univ.
    """
    p = state.probabilities()
    n_shells = basis.n_system_levels - 1 + basis.degeneracies.size
    labels = np.arange(n_shells)
    counts = np.bincount(basis.shell_label, minlength=n_shells)
    populations = np.bincount(basis.shell_label, weights=p, minlength=n_shells)
    partials = shell_partial_entropies(p, basis.shell_label, n_shells)
    return ShellDecomposition(
        labels=labels, counts=counts, populations=populations, partial_entropies=partials
    )


def effective_state_count(entropy: float) -> float:
    """e^S: the equivalent number of equally occupied states."""
    if entropy < 0.0:
        raise ValueError("entropy must be non-negative")
    return float(np.exp(entropy))


def _check_uniform(times: np.ndarray) -> float:
    dt = np.diff(times)
    if dt.size == 0:
        raise ValueError("need at least 2 time points")
    scale = max(abs(float(dt[0])), 1e-300)
    if np.abs(dt - dt[0]).max() > UNIFORM_GRID_RTOL * scale:
        raise ValueError("time grid is not uniform")
    return float(dt[0])


def entropy_production_rate(times: np.ndarray, s_univ: np.ndarray) -> np.ndarray:
    """dS_univ/dt by central differences, one-sided at the endpoints.

    Exact for linear series everywhere and for quadratics at interior
    points (second-order central stencil).
    """
    times = np.asarray(times, dtype=float)
    s = np.asarray(s_univ, dtype=float)
    if times.shape != s.shape:
        raise ValueError("times and series must have matching shapes")
    if times.size < 3:
        raise ValueError("need at least 3 time points")
    dt = _check_uniform(times)
    rate = np.empty_like(s)
    rate[0] = (s[1] - s[0]) / dt
    rate[-1] = (s[-1] - s[-2]) / dt
    rate[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
    return rate


@dataclass(frozen=True)
class DipInterval:
    """A maximal contiguous stretch of negative entropy production."""

    t_start: float
    t_end: float
    min_rate: float


def detect_negative_production(times: np.ndarray, rates: np.ndarray,
                               threshold: float = 0.0) -> list[DipInterval]:
    """Maximal contiguous intervals where the rate drops below -threshold.

    `threshold` suppresses fluctuation noise; intervals come back
    disjoint and time-ordered.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    times = np.asarray(times, dtype=float)
    rates = np.asarray(rates, dtype=float)
    below = rates < -threshold
    intervals: list[DipInterval] = []
    i = 0
    while i < below.size:
        if below[i]:
            j = i
            while j + 1 < below.size and below[j + 1]:
                j += 1
            segment = rates[i:j + 1]
            intervals.append(DipInterval(
                t_start=float(times[i]),
                t_end=float(times[j]),
                min_rate=float(segment.min()),
            ))
            i = j + 1
        else:
            i += 1
    return intervals


@dataclass(frozen=True)
class StickDiagram:
    """(shifted zero-order energy, p_i) pairs at one instant, sorted by energy."""

    energy: np.ndarray
    p: np.ndarray
    n: np.ndarray
    m: np.ndarray
    l: np.ndarray
    shell: np.ndarray
    time: float

    @property
    def size(self) -> int:
        return self.energy.size

    def window(self, e_min: float, e_max: float) -> "StickDiagram":
        """Zoomed view restricted to energies in [e_min, e_max]."""
        sel = (self.energy >= e_min) & (self.energy <= e_max)
        return StickDiagram(
            energy=self.energy[sel], p=self.p[sel],
            n=self.n[sel], m=self.m[sel], l=self.l[sel],
            shell=self.shell[sel], time=self.time,
        )


def stick_diagram(state: PureState, basis: UniverseBasis) -> StickDiagram:
    """Full p_i versus shifted zero-order energy listing for one state."""
    p = state.probabilities()
    order = np.argsort(basis.zero_order_energy, kind="stable")
    return StickDiagram(
        energy=basis.zero_order_energy[order],
        p=p[order],
        n=basis.n[order],
        m=basis.m[order],
        l=basis.l[order],
        shell=basis.shell_label[order],
        time=state.time,
    )


def late_window_slice(n_points: int, fraction: float = 0.2) -> slice:
    """Index slice selecting the final `fraction` of a grid."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    return slice(min(n_points - 1, int(np.ceil((1.0 - fraction) * n_points))), n_points)
