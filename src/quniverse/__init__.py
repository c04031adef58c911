"""quniverse: exact-diagonalization quantum thermodynamics of a small
system-environment universe.

A polyad of two coupled oscillators exchanges heat with a bath of
quasi-degenerate levels whose degeneracies grow exponentially (which
fixes the bath temperature).  The closed universe is propagated
analytically from its dense eigendecomposition; the package computes
the system's von Neumann entropy and free energy from the reduced
density matrix, the universe's zero-order-basis entropy, and the
microcanonical-shell decomposition relating the two.

The public interface is the `quniverse` command line (`quniverse.cli`).
"""

# Bump with every change that moves an output byte, here and in
# pyproject.toml (tested): `quniverse sticks` refuses a manifest of
# another version.  The eigensystem cache key does not contain it (see
# `model.SOLVE_CONTRACT`).
__version__ = "0.11.0"
