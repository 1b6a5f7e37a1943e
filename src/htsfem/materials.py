"""Constitutive laws and their differentials for Newton linearization.

The superconductor resistivity follows the power law
``rho = (e_c/j_c) * (|j|/j_c)**(n-1)`` with two regularizations that
restore continuity and coercivity of the linearized operators:

* a floor at ``j_reg`` below which rho is held constant, and
* a cap at ``rho_max = (e_c/j_c) * 10**(6*(n-1)/n)``, reached at
  ``j = j_c * 10**(6/n)``, above which the law continues linearly.

In the 2D in-plane-field setting the current density and electric field
are out-of-plane scalars, so the differential resistivity tensor
collapses to the scalar ``de/dj = n * rho(|j|)`` in the power regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MU0 = 4.0e-7 * np.pi


@dataclass(frozen=True)
class PowerLaw:
    """Power-law resistivity parameters.

    e_c: threshold electric field (V/m) reached at |j| = j_c.
    j_c: critical current density (A/m^2).
    n:   creep exponent; n = 1 gives a linear conductor.
    j_reg: regularization floor (A/m^2).
    """

    e_c: float
    j_c: float
    n: float
    j_reg: float

    def __post_init__(self):
        if self.e_c <= 0 or self.j_c <= 0:
            raise ValueError("e_c and j_c must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.j_reg < 0:
            raise ValueError("j_reg must be >= 0")

    @property
    def rho_c(self) -> float:
        return self.e_c / self.j_c

    @property
    def j_cap(self) -> float:
        """Current density where the resistivity cap engages."""
        return self.j_c * 10.0 ** (6.0 / self.n)

    @property
    def rho_max(self) -> float:
        return self.rho_c * 10.0 ** (6.0 * (self.n - 1.0) / self.n)


@dataclass(frozen=True)
class Materials:
    """The conductor's power law and the ferromagnet's relative
    permeability ``mu_r``.  The a-side is linear, b = mu0 mu_r h on the
    ferromagnet and b = mu0 h in air; a mesh without a ferromagnet (the
    tape's) reads no ``mu_r``."""

    power: PowerLaw
    mu_r: float

    def __post_init__(self):
        if self.mu_r < 1.0:
            raise ValueError("mu_r must be >= 1")


def rho_power(j_norm, law: PowerLaw):
    """Regularized power-law resistivity (Ohm m) at |j| (scalar or array)."""
    j = np.clip(np.abs(np.asarray(j_norm, dtype=float)), law.j_reg, None)
    if law.n == 1.0:
        rho = np.full_like(j, law.rho_c)
    else:
        # clip at the cap point before powering; the law is rho_max beyond
        rho = law.rho_c * (np.minimum(j, law.j_cap) / law.j_c) ** (law.n - 1.0)
        rho = np.minimum(rho, law.rho_max)
    return rho if rho.ndim else float(rho)


def de_dj(j_vector, rho, law: PowerLaw):
    """Differential resistivity de/dj (Ohm m) for out-of-plane current
    j, from its resistivity ``rho = rho_power(j, law)``.

    Equals n * rho(|j|) between the floor and the cap; held at
    n * rho(j_reg) below the floor (the raw derivative tends to zero
    there) and at rho_max above the cap, where the law is linear.  A
    linear law (n = 1) gives rho_c throughout, as rho_max = rho_c.
    """
    out = np.where(np.abs(j_vector) >= law.j_cap, law.rho_max, law.n * np.asarray(rho))
    return out if out.ndim else float(out)

