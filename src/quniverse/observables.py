"""Physical quantities of a trajectory, per time point.

Two entropies live side by side and must not be confused:

* S_vN -- von Neumann entropy of the system's reduced density matrix,
  -sum(lambda ln lambda) over RDM eigenvalues; zero for a product state
  and bounded by ln(n_system_levels).  Measures S-E entanglement.
* S_univ -- Shannon entropy -sum(p ln p) of the pure universe state's
  populations p_i = |c_i|^2 in the zero-order product basis.  (In the
  energy eigenbasis the populations never move, so an entropy taken
  there would be frozen by construction.)

All entropies are in nats.  `trajectory_columns` is the one
implementation of the observables: it evaluates every observable over a
whole trajectory in vectorized chunks of times.  The tests hold it
against single-time references in `tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from . import units
from .model import UniverseBasis

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_CLIP_TOL = 1e-9
# Rows per vectorized pass of trajectory_columns: ~10 MB per (64, 9180)
# complex block at production size.
TIME_CHUNK = 64


def shell_partial_entropies(p: np.ndarray, shell_labels: np.ndarray,
                            n_shells: int | None = None) -> np.ndarray:
    """-sum(p ln p) restricted to each nominal shell n + m.

    Disjoint index sets, so the entries sum exactly to the total
    zero-order-basis entropy.
    """
    if n_shells is None:
        n_shells = int(shell_labels.max()) + 1
    plogp = np.zeros_like(p)
    mask = p > 0.0
    plogp[mask] = -p[mask] * np.log(p[mask])
    return np.bincount(shell_labels, weights=plogp, minlength=n_shells)


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
    if kbt_reduced <= 0.0:
        raise ValueError("temperature must be positive")
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


def trajectory_columns(amplitudes: np.ndarray, times: np.ndarray, basis: UniverseBasis,
                       system_levels: np.ndarray, kbt_reduced: float,
                       energy_unit_wavenumbers: float) -> dict[str, np.ndarray]:
    """Every observable at every time of one trajectory, as named columns.

    `amplitudes` has one row per entry of `times`.  The keys are the
    trajectory CSV header, in order; free energies are relative to the
    first time, and T_fit_K is NaN where no Boltzmann fit exists.  Rows
    are processed TIME_CHUNK at a time, so temporaries stay small, and
    each row's values depend on that row alone.

    Every row must pass the gates: unit norm, a hermitian RDM with unit
    trace and spectrum in [0, 1] (up to the module tolerances), S_vN in
    [0, ln N_S], S_univ in [0, ln N_SE], and the majorization bound
    S_vN <= -sum(rho_nn ln rho_nn).  A failure raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    ns, n_env = basis.n_system_levels, basis.n_env_states
    n_shells = ns - 1 + basis.degeneracies.size
    shell_onehot = np.zeros((basis.size, n_shells))
    shell_onehot[np.arange(basis.size), basis.shell_label] = 1.0
    s_vn = np.empty(times.size)
    s_univ = np.empty(times.size)
    partials = np.empty((times.size, n_shells))
    diag = np.empty((times.size, ns))

    for start in range(0, times.size, TIME_CHUNK):
        rows = slice(start, start + TIME_CHUNK)
        t = times[rows]
        c = np.ascontiguousarray(amplitudes[rows], dtype=np.complex128)
        p = c.real ** 2 + c.imag ** 2
        norm_err = np.abs(np.sqrt(p.sum(axis=1)) - 1.0)
        _require(norm_err <= NORM_TOL, t,
                 f"state norm deviates from 1 by {norm_err.max():.3e} (> {NORM_TOL})")
        plogp = _xlogx(p)
        s_univ[rows] = -plogp.sum(axis=1)
        partials[rows] = -(plogp @ shell_onehot)

        cs = c.reshape(-1, ns, n_env)
        rho = cs @ cs.conj().transpose(0, 2, 1)
        rho_h = rho.conj().transpose(0, 2, 1)
        h_err = np.abs(rho - rho_h).max(axis=(1, 2))
        _require(h_err <= HERMITICITY_TOL, t,
                 f"RDM hermiticity violated: max deviation {h_err.max():.3e}")
        rho = 0.5 * (rho + rho_h)  # exact hermiticity against rounding
        d = rho.diagonal(axis1=1, axis2=2).real
        t_err = np.abs(d.sum(axis=1) - 1.0)
        _require(t_err <= TRACE_TOL, t, f"RDM trace deviates from 1 by {t_err.max():.3e}")
        lam = np.linalg.eigvalsh(rho)
        _require((lam.min(axis=1) >= -EIGENVALUE_CLIP_TOL)
                 & (lam.max(axis=1) <= 1.0 + EIGENVALUE_CLIP_TOL), t,
                 f"RDM eigenvalues outside [-{EIGENVALUE_CLIP_TOL}, 1+{EIGENVALUE_CLIP_TOL}]: "
                 f"[{lam.min()}, {lam.max()}]")
        s_vn[rows] = -_xlogx(np.clip(lam, 0.0, 1.0)).sum(axis=1)
        s_diag = -_xlogx(np.clip(d, 0.0, 1.0)).sum(axis=1)
        # majorization: the dephased (diagonal) distribution cannot carry
        # less entropy than the RDM spectrum
        _require(s_diag >= s_vn[rows] - 1e-9, t, "diagonal entropy below eigen-entropy")
        diag[rows] = d

    _require((s_vn >= -1e-12) & (s_vn <= np.log(ns) + 1e-9), times,
             f"S_vN range [{s_vn.min()}, {s_vn.max()}] outside [0, ln {ns}]")
    _require((s_univ >= -1e-12) & (s_univ <= np.log(basis.size) + 1e-9), times,
             f"S_univ range [{s_univ.min()}, {s_univ.max()}] outside [0, ln N_SE]")
    u = system_energy(diag, system_levels)
    df, minus_df_kbt = free_energy_change(u, s_vn, kbt_reduced)
    unit = energy_unit_wavenumbers
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
    cols.update((f"S_partial_{s}", partials[:, s]) for s in range(n_shells))
    cols.update((f"rdm_diag_{k}", diag[:, k]) for k in range(ns))
    cols["T_fit_K"] = boltzmann_fit_temperature(diag, system_levels, unit)
    return cols
