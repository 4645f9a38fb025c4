"""Complex-arithmetic RK4 kernels, kept as an accuracy reference for the
real-symmetric kernels of `squidw.dynamics`.

These are the general forms that make no use of H being real: H psi as a
complex product, the commutator as two complex products H rho - rho H, the
dissipator in its canonical form sum_L L rho L^dag - {L^dag L, rho}/2 from
the operator matrices (not from the kernel's gain and scatter tables), and
rho re-symmetrized after every step. They integrate one point, without
stored frames or gates, and return the final state.
"""

import numpy as np

from squidw.dynamics import node_times


def schrodinger_final(h_of_t, psi0, n_steps: int, duration: float = 1.0) -> np.ndarray:
    nodes = node_times(n_steps, duration)
    h = duration / n_steps
    psi = np.array(psi0, dtype=complex)
    for step in range(n_steps):
        h1, h2, h3 = (
            np.asarray(h_of_t(nodes[k]), dtype=complex) for k in (2 * step, 2 * step + 1, 2 * step + 2)
        )
        k1 = -1j * (h1 @ psi)
        k2 = -1j * (h2 @ (psi + 0.5 * h * k1))
        k3 = -1j * (h2 @ (psi + 0.5 * h * k2))
        k4 = -1j * (h3 @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def dissipator(ops, rho: np.ndarray) -> np.ndarray:
    """sum_L L rho L^dag - (L^dag L rho + rho L^dag L) / 2 over the operator matrices ops."""
    out = np.zeros_like(rho, dtype=complex)
    for L in ops:
        ldl = L.conj().T @ L
        out += L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def lindblad_final(h_of_t, ops, rho0, n_steps: int, duration: float = 1.0) -> np.ndarray:
    nodes = node_times(n_steps, duration)
    h = duration / n_steps
    ops = [np.asarray(L, dtype=complex) for L in ops]

    def rhs(k, r):
        H = np.asarray(h_of_t(nodes[k]), dtype=complex)
        return -1j * (H @ r - r @ H) + dissipator(ops, r)

    rho = np.array(rho0, dtype=complex)
    for step in range(n_steps):
        k1 = rhs(2 * step, rho)
        k2 = rhs(2 * step + 1, rho + 0.5 * h * k1)
        k3 = rhs(2 * step + 1, rho + 0.5 * h * k2)
        k4 = rhs(2 * step + 2, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho
