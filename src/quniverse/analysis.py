"""Trajectory post-processing: stick diagrams, entropy production,
anomaly detection, the late-time window, the paper's free-energy test
and a run's summary.

These functions read the columns of `observables.trajectories` or a
run's final state; none computes an observable of its own.  Shell
membership uses the nominal integer label n + m, never the
Gaussian-shifted energies; the shifted zero-order energy only places
sticks on the energy axis for plotting.

The paper's test, dF_sys = -T dS_univ, is `free_energy_agreement`: `run`
writes it into each summary row from the columns in memory, `compare`
from a CSV, whose `repr(x)` fields read back as the same float64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .model import UniverseBasis, build_basis, temperature_of
from .observables import Trajectory

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


def free_energy_agreement(columns: dict[str, np.ndarray]) -> dict:
    """How well dS_univ(t) tracks -dF(t)/(k_B T) over one trajectory's columns: the
    late-window means of both, the late mean of their absolute difference (also relative
    to that of dS_univ), its maximum and the series.  Where the difference exceeds twice
    its late mean and 0.05, the universe entropy runs ahead of the free-energy surrogate:
    a flagged transient, not a failure, that ends at the time after its last point."""
    t = columns["time_reduced"]
    ds_univ = columns["S_univ"] - columns["S_univ"][0]
    minus_df_kbt = columns["minus_dF_over_kT"]
    diff = ds_univ - minus_df_kbt
    late = late_window_slice(t.size)
    late_abs = float(np.abs(diff[late]).mean())
    late_mean_ds = float(ds_univ[late].mean())
    beyond = np.flatnonzero(np.abs(diff) > max(2.0 * late_abs, 0.05))
    return {
        "late_window_fraction": LATE_FRACTION,
        "late_mean_dS_univ": late_mean_ds,
        "late_mean_minus_dF_over_kT": float(minus_df_kbt[late].mean()),
        "late_mean_abs_difference": late_abs,
        "late_relative_discrepancy": late_abs / max(abs(late_mean_ds), 1e-12),
        "max_abs_difference": float(np.abs(diff).max()),
        "transient_flagged": bool(beyond.size),
        "transient_end_reduced": float(t[min(beyond[-1] + 1, t.size - 1)]) if beyond.size else 0.0,
        "series": {"time_reduced": t.tolist(), "dS_univ": ds_univ.tolist(),
                   "minus_dF_over_kT": minus_df_kbt.tolist(), "difference": diff.tolist()},
    }


def run_summary(config: ModelConfig, states: list[int], results: list[Trajectory]) -> dict:
    """A run's `summary.json` record.  Per state: the late-window and final S_univ and shell
    partial entropy, the effective state count exp(S_univ), the final shell population,
    four fields of `free_energy_agreement` and the health of `results`."""
    shell = config.total_energy
    in_shell = build_basis(config).shell_label == shell
    rows = []
    for n, result in zip(states, results):
        s_univ, partial = result.columns["S_univ"], result.columns[f"S_partial_{shell}"]
        late = late_window_slice(s_univ.size)
        final = result.final_amplitudes
        agreement = free_energy_agreement(result.columns)
        rows.append({
            "n": n,
            "S_univ": float(s_univ[late].mean()),
            "S_partial": float(partial[late].mean()),
            "S_univ_final": float(s_univ[-1]),
            "S_partial_final": float(partial[-1]),
            "effective_states": float(np.exp(s_univ[late].mean())),
            "shell_population_final": float((final.real ** 2 + final.imag ** 2)[in_shell].sum()),
            **{field: agreement[field] for field in (
                "late_mean_abs_difference", "late_relative_discrepancy",
                "transient_flagged", "transient_end_reduced")},
            "health": result.health,
        })
    return {
        "seed": config.rng_seed,
        "microcanonical_shell": shell,
        "shell_state_count": config.shell_size(shell),
        "late_window_fraction": LATE_FRACTION,
        "temperature_kelvin": temperature_of(config).kelvin,
        "states": rows,
    }
