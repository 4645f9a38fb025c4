"""Collective basis and Hamiltonians for the four-SQUID / single-cavity system.

Each SQUID is a three-level Lambda system with levels |0>, |1>, |e>. Qubits 1-3
couple to the cavity with strength g, qubit 4 with sqrt(3)*g. On resonance the
coherent dynamics conserve the total excitation number, so the protocol lives in
the ten-state space below (nine one-excitation states plus the zero-excitation
ground state that dissipation leaks into):

    index  q1 q2 q3 q4  photons
    PSI1    0  0  0  1   0        initial state
    PSI2    0  0  0  e   0
    PSI3    0  0  0  0   1        single cavity photon
    PSI4    e  0  0  0   0
    PSI5    0  e  0  0   0
    PSI6    0  0  e  0   0
    PSI7    1  0  0  0   0        \
    PSI8    0  1  0  0   0         >  W = (PSI7+PSI8+PSI9)/sqrt(3)
    PSI9    0  0  1  0   0        /
    GROUND  0  0  0  0   0

All rates and couplings are unitless multiples of 1/T (hbar = 1, protocol
duration T = 1 unless stated otherwise).

The couplings and Rabi amplitudes are real, so every Hamiltonian here is a
real symmetric float64 array; the propagators in `dynamics` require that
form. States stay complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DIM = 10

PSI1, PSI2, PSI3, PSI4, PSI5, PSI6, PSI7, PSI8, PSI9, GROUND = range(DIM)

# (q1, q2, q3, q4, photon number) for each basis index.
LEVELS = (
    ("0", "0", "0", "1", 0),
    ("0", "0", "0", "e", 0),
    ("0", "0", "0", "0", 1),
    ("e", "0", "0", "0", 0),
    ("0", "e", "0", "0", 0),
    ("0", "0", "e", "0", 0),
    ("1", "0", "0", "0", 0),
    ("0", "1", "0", "0", 0),
    ("0", "0", "1", "0", 0),
    ("0", "0", "0", "0", 0),
)

# Qubit k in |e> with no photon -> state reached by absorbing the photon.
_EXCITED_OF_QUBIT = (PSI4, PSI5, PSI6, PSI2)
# Qubit k in |1> with no photon (the drive's lower level).
_ONE_OF_QUBIT = (PSI7, PSI8, PSI9, PSI1)


@dataclass(frozen=True)
class CouplingConfig:
    """Cavity coupling configuration. Qubits 1-3 share g, qubit 4 uses sqrt(3)*g."""

    g: float
    T: float = 1.0

    def __post_init__(self) -> None:
        if not (self.g > 0 and math.isfinite(self.g)):
            raise ValueError(f"coupling g must be positive and finite, got {self.g}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"duration T must be positive and finite, got {self.T}")

    @property
    def g4(self) -> float:
        return math.sqrt(3.0) * self.g


def basis_state(index: int) -> np.ndarray:
    psi = np.zeros(DIM, dtype=complex)
    psi[index] = 1.0
    return psi


def w_state() -> np.ndarray:
    """Symmetric one-excitation target (|psi7>+|psi8>+|psi9>)/sqrt(3)."""
    w = np.zeros(DIM, dtype=complex)
    w[[PSI7, PSI8, PSI9]] = 1.0 / math.sqrt(3.0)
    return w


def dark_state() -> np.ndarray:
    """Zero-eigenvalue eigenstate of the cavity coupling, no photon component.

    phi0 = (-|psi2> + (|psi4>+|psi5>+|psi6>)/sqrt(3)) / sqrt(2)
    """
    phi = np.zeros(DIM, dtype=complex)
    phi[PSI2] = -1.0 / math.sqrt(2.0)
    phi[[PSI4, PSI5, PSI6]] = 1.0 / math.sqrt(6.0)
    return phi


def cavity_hamiltonian(cfg: CouplingConfig) -> np.ndarray:
    """Qubit-cavity exchange on the ten-state space.

    Nonzero couplings: <psi2|H|psi3> = sqrt(3) g (qubit 4 absorbs the photon)
    and <psi4..6|H|psi3> = g (qubits 1-3), plus their transposes; real
    symmetric float64.
    """
    h = np.zeros((DIM, DIM))
    h[PSI2, PSI3] = cfg.g4
    h[PSI4, PSI3] = cfg.g
    h[PSI5, PSI3] = cfg.g
    h[PSI6, PSI3] = cfg.g
    return h + h.T


def drive_hamiltonian(omega) -> np.ndarray:
    """Classical drives Omega_k on the |1> <-> |e> transition of each qubit.

    omega is a length-4 sequence of real amplitudes (Omega_1 .. Omega_4),
    units 1/T; the result is real symmetric float64.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4,) or not np.all(np.isfinite(omega)):
        raise ValueError("omega must be 4 finite Rabi amplitudes")
    h = np.zeros((DIM, DIM))
    for k in range(4):
        h[_EXCITED_OF_QUBIT[k], _ONE_OF_QUBIT[k]] = omega[k]
    return h + h.T


def effective_hamiltonian(omega_a: float, omega_b: float) -> np.ndarray:
    """Three-level effective model embedded in the ten-state space.

    After adiabatic elimination of the cavity the dynamics reduce to
    H_eff = omega_a |W><phi0| - omega_b |psi1><phi0| + h.c.

    The three states have real amplitudes, so H_eff is real symmetric float64.
    """
    w = w_state().real
    phi0 = dark_state().real
    psi1 = basis_state(PSI1).real
    h = omega_a * np.outer(w, phi0) - omega_b * np.outer(psi1, phi0)
    return h + h.T


def effective_eigenframe(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instantaneous eigenstates of H_eff at mixing angle theta.

    Returns (phi_0, phi_plus, phi_minus) with eigenvalues (0, +Omega, -Omega)
    for H_eff built from omega_a = Omega cos(theta), omega_b = Omega sin(theta).
    The zero mode rotates |psi1> into |W| as theta goes 0 -> pi/2.
    """
    c, s = math.cos(theta), math.sin(theta)
    psi1 = basis_state(PSI1)
    phi0 = dark_state()
    w = w_state()
    zero = c * psi1 + s * w
    plus = (s * psi1 - phi0 - c * w) / math.sqrt(2.0)
    minus = (s * psi1 + phi0 - c * w) / math.sqrt(2.0)
    return zero, plus, minus
