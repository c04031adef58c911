"""Physical quantities of a trajectory, per time point.

Two entropies live side by side and must not be confused:

* S_vN -- von Neumann entropy of the system's reduced density matrix,
  -sum(lambda ln lambda) over RDM eigenvalues; zero for a product state
  and bounded by ln(n_system_levels).  Measures S-E entanglement.
* S_univ -- Shannon entropy -sum(p ln p) of the pure universe state's
  populations p_i = |c_i|^2 in the zero-order product basis.  (In the
  energy eigenbasis the populations never move, so an entropy taken
  there would be frozen by construction.)

All entropies are in nats.  `trajectories` is the one implementation of
the observables.  It streams: it takes the row blocks of
`dynamics.propagate_blocks` (one environment range in every system
level, so every RDM element is a sum over blocks), adds each block's
share of every state's sums at every time and drops the block.  The
gates, the RDM spectrum and the free energies follow once all blocks
are in.  The summation order over rows is fixed by the block layout, so
a state's values do not depend on the other states in the pass.  The
tests hold it against single-time references in `tests/oracles.py`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import blas, units
from .config import ModelConfig
from .dynamics import env_block_size
from .model import build_basis, build_system_levels, stage, temperature_of

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_CLIP_TOL = 1e-9
MAJORIZATION_TOL = 1e-9
# The eigenvectors must reconstruct each initial state at t = 0 to this
# bound: ~1000 times the error of an undamaged production pass.
RECONSTRUCTION_TOL = 1e-12
# Times per vectorized step of `trajectories`: ~2.4 MB of complex
# amplitudes per step for 6 states at production size.  Chunking the
# times moves no byte; at production, 32 took the same time as 64 and
# ~10 MB less peak memory (measured).
TIME_CHUNK = 32


def system_energy(populations: np.ndarray, system_levels: np.ndarray) -> np.ndarray:
    """U_S = sum_n e_n rho_S[n, n] on the shifted-origin ladder e_n = n*kappa.

    `populations` holds RDM diagonals on its last axis.
    """
    return np.asarray(populations, dtype=float) @ np.asarray(system_levels, dtype=float)


def free_energy_change(u_system: np.ndarray, s_vn: np.ndarray,
                       kbt_reduced: float) -> tuple[np.ndarray, np.ndarray]:
    """Helmholtz change dF = dU_S - T dS_vN of a series against its first entry.

    Returns (dF in reduced energy, -dF/(k_B T)); the second is the
    dimensionless quantity directly comparable with dS_univ.  Both are
    exactly zero at the first entry.
    """
    u = np.asarray(u_system, dtype=float)
    s = np.asarray(s_vn, dtype=float)
    df = (u - u[0]) - kbt_reduced * (s - s[0])
    # 0.0 - x equals -x except at x = 0, where it gives +0.0 rather than -0.0
    return df, (0.0 - df) / kbt_reduced


def boltzmann_fit_temperature(populations: np.ndarray, system_levels: np.ndarray,
                              energy_unit_wavenumbers: float) -> np.ndarray:
    """Least-squares Boltzmann temperature of RDM diagonals, in Kelvin.

    `populations` holds RDM diagonals on its last axis; the result has
    the remaining shape.  Diagnostic only; free energies always use the
    analytic temperature.  NaN means no fit: any population at or below
    EIGENVALUE_CLIP_TOL (so the round-off residue of an unoccupied
    level, e.g. at t = 0, is not fitted), or a non-positive fitted beta
    (e.g. maximally mixed).
    """
    pops = np.asarray(populations, dtype=float)
    e_c = np.asarray(system_levels, dtype=float)
    e_c = e_c - e_c.mean()
    denom = float(np.dot(e_c, e_c))
    fit = np.all(pops > EIGENVALUE_CLIP_TOL, axis=-1)
    if denom == 0.0:
        return np.full(fit.shape, np.nan)
    lnp = np.log(np.where(fit[..., None], pops, 1.0))
    beta_fit = -((lnp - lnp.mean(axis=-1, keepdims=True)) @ e_c) / denom
    fit &= beta_fit > 1e-12
    t_reduced = np.divide(1.0, beta_fit, out=np.full(fit.shape, np.nan), where=fit)
    return t_reduced * energy_unit_wavenumbers / units.KB_WAVENUMBER_PER_KELVIN


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p ln p elementwise with 0 ln 0 = 0."""
    out = np.zeros_like(p)
    np.log(p, out=out, where=p > 0.0)
    out *= p
    return out


def _require(ok: np.ndarray, times: np.ndarray, what: str) -> None:
    """Raise unless `ok` holds at every time, naming the first time it fails."""
    if not ok.all():
        raise ValueError(f"{what} at t={float(times[int(np.argmin(ok))])!r}")


def sum_bytes(config: ModelConfig, n_states: int, n_times: int) -> int:
    """Bytes that `trajectories` allocates for k states over T times, beside the blocks
    that it reduces.

    Per state and time its sums: sum p, sum p ln p, the shell sums and the
    raw RDM (696 B at production size).  Per state, its final amplitudes,
    one step's temporaries, 33 B per amplitude of TIME_CHUNK times of a
    block: p and p ln p (8 each), the p > 0 mask (1) and the conjugate
    (16), and those of the comparison at t = 0, 40 B per row of a block.
    And the basis's shell labels.
    """
    ns, ne = config.n_system_levels, config.n_env_states
    n, rows = ns * ne, ns * env_block_size(ns, ne)
    per_time = 8 * (2 + ns - 1 + config.n_env_levels) + 16 * ns * ns
    return n_states * (n_times * per_time + 16 * n + (33 * TIME_CHUNK + 40) * rows) + 8 * n


@dataclass
class Trajectory:
    """One state's observables over a run's grid.

    `columns` are keyed by the trajectory CSV header, in order;
    `final_amplitudes` are the state at the grid's last time; `health`
    holds the largest gate deviations over the grid (see `trajectories`).
    """

    columns: dict[str, np.ndarray]
    final_amplitudes: np.ndarray
    health: dict[str, float]


def trajectories(blocks: Iterable[tuple[np.ndarray, np.ndarray]], times: np.ndarray,
                 config: ModelConfig, initial: np.ndarray) -> list[Trajectory]:
    """Every observable at every time of k trajectories, reduced row block by row block.

    `blocks` yields `(rows, c)` as `dynamics.propagate_blocks` does: c[s, i, r]
    is the amplitude of state s at times[i] on basis index rows[r], and a
    block holds environment states e0..e1-1 in every system level, in
    system-major order.  Each block adds its share of every state's
    sum p, sum p ln p, shell partial sums and raw RDM c c^H at every time,
    TIME_CHUNK times at a time, and the largest difference of the state's
    amplitudes at times[0], which must be 0, from its initial amplitudes
    (the rows of `initial`, shape (k, dim)).  The block is then dropped;
    only the final-time amplitudes are kept.  Each state's sums depend on that state alone,
    and are made by the share that owns the state (`blas.run_shares`).

    Once every block is in, each state must pass the gates: its
    amplitudes at t = 0 within RECONSTRUCTION_TOL of `initial` (the
    eigenvectors reconstruct the initial state), and at every time unit
    norm, a hermitian RDM with unit trace and spectrum in [0, 1] (up
    to the module tolerances), S_vN in [0, ln N_S], S_univ in [0, ln N_SE],
    and the majorization bound S_vN <= -sum(rho_nn ln rho_nn).  A failure
    raises ValueError.  Free energies are relative to the first time, and
    T_fit_K is NaN where no Boltzmann fit exists; the basis, the system
    ladder, k_B T and the energy unit come from `config`.
    `health` reports the largest difference at t = 0, the largest norm
    error, RDM hermiticity error and RDM trace error, the most negative RDM
    eigenvalue before clipping, and the smallest majorization slack
    -sum(rho_nn ln rho_nn) - S_vN.  Each block's reduction, and the gates
    and columns, are `model.stage`s named "observables"; the blocks are
    made outside them.
    """
    times = np.asarray(times, dtype=float)
    shell_label = build_basis(config).shell_label
    ns, n_times, dim = config.n_system_levels, times.size, config.n_universe_states
    n_shells = ns - 1 + config.n_env_levels
    sums = None

    def add_share(own, c, rows, labels, starts):
        """Add the block's share to the sums of one share of the states."""
        norm2, plogp_sum, shell_plogp, rho, reconstruction = (x[own] for x in sums)
        c = c[own]
        np.maximum(reconstruction, np.abs(c[:, 0] - initial[own][:, rows]).max(axis=-1),
                   out=reconstruction)
        for start in range(0, n_times, TIME_CHUNK):
            chunk = c[:, start:start + TIME_CHUNK]
            span = slice(start, start + chunk.shape[1])
            p = chunk.real ** 2 + chunk.imag ** 2
            norm2[:, span] += p.sum(axis=-1)
            plogp = _xlogx(p)
            plogp_sum[:, span] += plogp.sum(axis=-1)
            runs = np.add.reduceat(plogp, starts, axis=-1)
            for r, shell in enumerate(labels[starts]):
                shell_plogp[:, span, shell] += runs[..., r]
            cs = chunk.reshape(*chunk.shape[:2], ns, -1)
            rho[:, span] += cs @ cs.conj().swapaxes(-1, -2)

    for rows, c in blocks:
        with stage("observables"):
            if sums is None:
                k = c.shape[0]
                sums = (np.zeros((k, n_times)), np.zeros((k, n_times)),
                        np.zeros((k, n_times, n_shells)),
                        np.zeros((k, n_times, ns, ns), dtype=np.complex128), np.zeros(k))
                final = np.empty((k, dim), dtype=np.complex128)
            # runs of one shell label along the block's rows (m grows with the
            # row within each system level)
            labels = shell_label[rows]
            starts = np.flatnonzero(np.diff(labels, prepend=-1))
            blas.run_shares(lambda own: add_share(own, c, rows, labels, starts), k)
            final[:, rows] = c[:, -1]
    with stage("observables"):
        ladder, kbt = build_system_levels(config), temperature_of(config).kbt_reduced
        return [_trajectory(*(x[s] for x in sums), final[s], times, dim, ladder, kbt,
                            config.energy_unit_wavenumbers) for s in range(k)]


def _trajectory(norm2, plogp_sum, shell_plogp, rho, reconstruction, final, times, n_universe,
                system_levels, kbt_reduced, unit) -> Trajectory:
    """Gate one state's sums and turn them into its columns and health."""
    ns = rho.shape[-1]
    _require(np.atleast_1d(reconstruction <= RECONSTRUCTION_TOL), times,
             f"the eigenvectors do not reconstruct the initial state: its amplitudes "
             f"differ by {reconstruction:.3e} (> {RECONSTRUCTION_TOL})")
    norm_err = np.abs(np.sqrt(norm2) - 1.0)
    _require(norm_err <= NORM_TOL, times,
             f"state norm deviates from 1 by {norm_err.max():.3e} (> {NORM_TOL})")
    rho_h = rho.conj().transpose(0, 2, 1)
    h_err = np.abs(rho - rho_h).max(axis=(1, 2))
    _require(h_err <= HERMITICITY_TOL, times,
             f"RDM hermiticity violated: max deviation {h_err.max():.3e}")
    rho = 0.5 * (rho + rho_h)  # exact hermiticity against rounding
    d = rho.diagonal(axis1=1, axis2=2).real
    t_err = np.abs(d.sum(axis=1) - 1.0)
    _require(t_err <= TRACE_TOL, times, f"RDM trace deviates from 1 by {t_err.max():.3e}")
    lam = np.linalg.eigvalsh(rho)
    _require((lam.min(axis=1) >= -EIGENVALUE_CLIP_TOL)
             & (lam.max(axis=1) <= 1.0 + EIGENVALUE_CLIP_TOL), times,
             f"RDM eigenvalues outside [-{EIGENVALUE_CLIP_TOL}, 1+{EIGENVALUE_CLIP_TOL}]: "
             f"[{lam.min()}, {lam.max()}]")
    s_vn = -_xlogx(np.clip(lam, 0.0, 1.0)).sum(axis=1)
    # majorization: the dephased (diagonal) distribution cannot carry
    # less entropy than the RDM spectrum
    slack = -_xlogx(np.clip(d, 0.0, 1.0)).sum(axis=1) - s_vn
    _require(slack >= -MAJORIZATION_TOL, times, "diagonal entropy below eigen-entropy")
    s_univ = -plogp_sum
    _require((s_vn >= -1e-12) & (s_vn <= np.log(ns) + 1e-9), times,
             f"S_vN range [{s_vn.min()}, {s_vn.max()}] outside [0, ln {ns}]")
    _require((s_univ >= -1e-12) & (s_univ <= np.log(n_universe) + 1e-9), times,
             f"S_univ range [{s_univ.min()}, {s_univ.max()}] outside [0, ln N_SE]")
    u = system_energy(d, system_levels)
    df, minus_df_kbt = free_energy_change(u, s_vn, kbt_reduced)
    cols = {
        "time_reduced": times,
        "time_ps": units.reduced_time_to_ps(times, unit),
        "S_vN": s_vn,
        "S_univ": s_univ,
        "U_S": u,
        "U_S_cm": u * unit,
        "dF": df,
        "dF_cm": df * unit,
        "minus_dF_over_kT": minus_df_kbt,
    }
    cols.update((f"S_partial_{s}", -shell_plogp[:, s]) for s in range(shell_plogp.shape[1]))
    cols.update((f"rdm_diag_{k}", d[:, k]) for k in range(ns))
    cols["T_fit_K"] = boltzmann_fit_temperature(d, system_levels, unit)
    health = {
        "max_reconstruction_error": float(reconstruction),
        "max_norm_error": float(norm_err.max()),
        "max_rdm_hermiticity_error": float(h_err.max()),
        "max_rdm_trace_error": float(t_err.max()),
        "min_rdm_eigenvalue": float(lam.min()),
        "min_majorization_slack": float(slack.min()),
    }
    return Trajectory(columns=cols, final_amplitudes=final, health=health)
