"""Single-time observables: the references the tests hold
`observables.trajectories` against, and the solved polyad block that
`model.build_system_levels`' analytic ladder is held against.

Each function computes one quantity of one state, given as its complex
amplitude array, the plain way: the
reduced density matrix by one reshape-and-contract, entropies from its
spectrum or from the populations, shell sums by bincount over the whole
basis.  The package itself evaluates the same quantities only over whole
trajectories, row block by row block, in `observables.trajectories`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from quniverse.config import ModelConfig
from quniverse.model import UniverseBasis, UniverseHamiltonian
from quniverse.observables import EIGENVALUE_CLIP_TOL, HERMITICITY_TOL, TRACE_TOL


@dataclass
class ReducedDensityMatrix:
    """System-side density matrix from tracing the universe projector over E."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    def validate(self) -> None:
        h_err = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if h_err > HERMITICITY_TOL:
            raise ValueError(f"RDM hermiticity violated: max deviation {h_err:.3e}")
        t_err = abs(float(self.matrix.trace().real) - 1.0)
        if t_err > TRACE_TOL:
            raise ValueError(f"RDM trace deviates from 1 by {t_err:.3e}")
        lam = np.linalg.eigvalsh(self.matrix)
        if lam.min() < -EIGENVALUE_CLIP_TOL or lam.max() > 1.0 + EIGENVALUE_CLIP_TOL:
            raise ValueError(f"RDM eigenvalues outside [0, 1]: [{lam.min()}, {lam.max()}]")


def probabilities(c: np.ndarray) -> np.ndarray:
    """|c_i|^2 as Re^2 + Im^2, the form the trajectory observables and the sticks use."""
    return c.real ** 2 + c.imag ** 2


def reduced_density_matrix(c: np.ndarray, config: ModelConfig) -> ReducedDensityMatrix:
    """rho_S[n, n'] = sum_{m,l} c_(n,m,l) conj(c_(n',m,l)).

    The flat basis order is system-major, so the trace over E is a
    reshape to (N_S, N_E) followed by one small contraction.
    """
    c = c.reshape(config.n_system_levels, config.n_env_states)
    rho = c @ c.conj().T
    rho = 0.5 * (rho + rho.conj().T)  # exact hermiticity against rounding
    return ReducedDensityMatrix(matrix=rho)


def shannon_entropy(p: np.ndarray) -> float:
    """-sum(p ln p) in nats with the 0 ln 0 = 0 convention."""
    p = np.asarray(p)
    pos = p[p > 0.0]
    return float(-np.dot(pos, np.log(pos)))


def von_neumann_entropy(rdm: ReducedDensityMatrix) -> float:
    """Entropy of the RDM spectrum, in nats.

    Eigenvalues are clipped to [0, 1] before the log; a clip larger than
    EIGENVALUE_CLIP_TOL signals a corrupted RDM and raises instead of
    being absorbed silently.
    """
    lam = np.linalg.eigvalsh(rdm.matrix)
    if lam.min() < -EIGENVALUE_CLIP_TOL or lam.max() > 1.0 + EIGENVALUE_CLIP_TOL:
        raise ValueError(
            f"RDM eigenvalues outside [-{EIGENVALUE_CLIP_TOL}, 1+{EIGENVALUE_CLIP_TOL}]: "
            f"[{lam.min()}, {lam.max()}]"
        )
    return shannon_entropy(np.clip(lam, 0.0, 1.0))


def universe_entropy(c: np.ndarray, reference=None) -> float:
    """Shannon entropy of |c_i|^2 in a reference basis, in nats.

    reference: None for the zero-order product basis (the default
    "good" basis for heat flow), or a UniverseHamiltonian for its energy
    eigenbasis (populations constant in time, entropy frozen).
    """
    if reference is None:
        return shannon_entropy(np.abs(c) ** 2)
    v = reference.eigenvectors
    a = v.T @ c.real + 1j * (v.T @ c.imag)
    return shannon_entropy(np.abs(a) ** 2)


def expectation(ham: UniverseHamiltonian, amplitudes: np.ndarray) -> float:
    """<psi|H|psi> for a normalized amplitude vector."""
    a_re = ham.eigenvectors.T @ amplitudes.real
    a_im = ham.eigenvectors.T @ amplitudes.imag
    return float(np.dot(ham.eigenvalues, a_re * a_re + a_im * a_im))


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


def shell_decompose(c: np.ndarray, basis: UniverseBasis) -> tuple[np.ndarray, np.ndarray]:
    """Population and partial entropy -sum(p ln p) of each shell n + m.

    Returns (populations, partial_entropies), indexed by shell.  The
    partial entropies are an exact additive decomposition of the
    zero-order-basis S_univ.
    """
    p = probabilities(c)
    n_shells = int(basis.shell_label.max()) + 1  # (N_S - 1) + (n_env_levels - 1) + 1
    populations = np.bincount(basis.shell_label, weights=p, minlength=n_shells)
    return populations, shell_partial_entropies(p, basis.shell_label, n_shells)


def polyad_eigenvalues(config: ModelConfig, omega0: float = 34.64) -> np.ndarray:
    """Absolute eigenvalues (ascending) of the coupled-oscillator polyad block.

    The polyad holds N = n_system_levels - 1 quanta.  In the local-mode
    basis {|n1, N - n1>} the block is tridiagonal with constant diagonal
    N*omega0, omega0 the local oscillators' frequency, and ladder
    off-diagonals (kappa/2) * sqrt((n1+1) n2).  This is kappa * Jx in the
    spin-N/2 representation, so the polyad eigenvalues are exactly equally
    spaced by kappa (normal-mode frequencies omega0 -/+ kappa/2), whatever
    omega0 is: the model measures them from the polyad's bottom.  Solved
    numerically, as the check of the ladder that `build_system_levels`
    uses.
    """
    N = config.n_system_levels - 1
    diag = np.full(N + 1, N * omega0, dtype=float)
    if N == 0:
        return diag
    n1 = np.arange(N, dtype=float)
    off = 0.5 * config.kappa * np.sqrt((n1 + 1.0) * (N - n1))
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
