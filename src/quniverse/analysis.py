"""Trajectory post-processing: stick diagrams, entropy production,
anomaly detection and the late-time window.

These functions read the columns of `observables.trajectories` or a
run's final state; none computes an observable of its own.  Shell
membership uses the nominal integer label n + m, never the
Gaussian-shifted energies; the shifted zero-order energy only places
sticks on the energy axis for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import UniverseBasis

# Late-time means are taken over this final share of a run's grid.
LATE_FRACTION = 0.2


def entropy_production_rate(times: np.ndarray, s_univ: np.ndarray) -> np.ndarray:
    """dS_univ/dt by central differences, one-sided at the endpoints.

    Exact for linear series everywhere and for quadratics at interior
    points (second-order central stencil).  The grid must be uniform, of
    at least 3 points: its step is taken as times[1] - times[0].
    """
    return np.gradient(np.asarray(s_univ, dtype=float), times[1] - times[0])


@dataclass(frozen=True)
class DipInterval:
    """A maximal contiguous stretch of negative entropy production."""

    t_start: float
    t_end: float
    min_rate: float


def detect_negative_production(times: np.ndarray, rates: np.ndarray) -> list[DipInterval]:
    """Maximal contiguous intervals where the rate is negative.

    Intervals come back disjoint and time-ordered.
    """
    times = np.asarray(times, dtype=float)
    rates = np.asarray(rates, dtype=float)
    # a dip runs from a False -> True edge of `rates < 0` to the next True -> False one
    edges = np.flatnonzero(np.diff(rates < 0.0, prepend=False, append=False))
    return [DipInterval(t_start=float(times[i]), t_end=float(times[j - 1]),
                        min_rate=float(rates[i:j].min()))
            for i, j in zip(edges[::2], edges[1::2])]


def stick_order(basis: UniverseBasis) -> np.ndarray:
    """Basis indices in stick order: ascending zero-order energy, ties in basis order."""
    return np.argsort(basis.zero_order_energy, kind="stable")


def late_window_slice(n_points: int) -> slice:
    """Index slice selecting the final LATE_FRACTION of a grid."""
    return slice(min(n_points - 1, int(np.ceil((1.0 - LATE_FRACTION) * n_points))), n_points)
