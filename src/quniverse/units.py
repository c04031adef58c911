"""Physical constants and conversions between reduced and absolute units.

All model arithmetic is done in reduced units (energy in units of the
polyad spacing, hbar = 1).  Absolute reporting uses the wavenumber value
of one reduced energy unit, so one reduced time unit is 1/(2*pi*c*u)
seconds for an energy unit of u cm^-1.
"""

from __future__ import annotations

import math

# Boltzmann constant expressed as a wavenumber, cm^-1 per Kelvin.
KB_WAVENUMBER_PER_KELVIN = 0.69503476

# CODATA speed of light, cm/s.
SPEED_OF_LIGHT_CM_PER_S = 2.99792458e10

# Reference temperature conventionally paired with b = 2 at 111.77 cm^-1.
# The formula unit/(k_B ln b) gives ~232.0 K instead; both are reported
# and compat mode selects the reference value for free-energy work.
COMPAT_TEMPERATURE_KELVIN = 230.41


def reduced_time_unit_ps(energy_unit_wavenumbers: float) -> float:
    """Duration of one reduced time unit (hbar / energy unit) in picoseconds (~0.0475
    for 111.77 cm^-1)."""
    seconds = 1.0 / (2.0 * math.pi * SPEED_OF_LIGHT_CM_PER_S * energy_unit_wavenumbers)
    return seconds * 1e12


def reduced_time_to_ps(t: float, energy_unit_wavenumbers: float) -> float:
    return t * reduced_time_unit_ps(energy_unit_wavenumbers)


def ps_to_reduced_time(t_ps: float, energy_unit_wavenumbers: float) -> float:
    return t_ps / reduced_time_unit_ps(energy_unit_wavenumbers)


def temperature_kelvin(degeneracy_b: float, energy_unit_wavenumbers: float) -> float:
    """Bath temperature unit/(k_B ln b) implied by the degeneracy base."""
    return energy_unit_wavenumbers / (KB_WAVENUMBER_PER_KELVIN * math.log(degeneracy_b))


def kbt_reduced(temperature_k: float, energy_unit_wavenumbers: float) -> float:
    """k_B*T expressed in reduced energy units."""
    return KB_WAVENUMBER_PER_KELVIN * temperature_k / energy_unit_wavenumbers
