"""Complex-arithmetic RK4 kernels, kept as an accuracy reference for the
real-symmetric kernels of `squidw.dynamics`.

These are the general forms that make no use of H being real: H psi as a
complex product, the commutator as two complex products H rho - rho H, the
population scatter as a complex product on the gathered diagonal, and rho
re-symmetrized after every step. They integrate one point, without stored
frames or gates, and return the final state.
"""

import numpy as np

from squidw.dynamics import _dissipator_tables, node_times
from squidw.state_space import DIM

_DIAG = np.arange(DIM)


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


def lindblad_final(h_of_t, ops, rho0, n_steps: int, duration: float = 1.0) -> np.ndarray:
    nodes = node_times(n_steps, duration)
    h = duration / n_steps
    gain, scatter, generic = _dissipator_tables(ops)
    assert generic == []
    scatter = scatter.astype(complex)

    def rhs(k, r):
        H = np.asarray(h_of_t(nodes[k]), dtype=complex)
        out = -1j * (H @ r - r @ H) + gain * r
        out[_DIAG, _DIAG] += scatter @ r[_DIAG, _DIAG]
        return out

    rho = np.array(rho0, dtype=complex)
    for step in range(n_steps):
        k1 = rhs(2 * step, rho)
        k2 = rhs(2 * step + 1, rho + 0.5 * h * k1)
        k3 = rhs(2 * step + 1, rho + 0.5 * h * k2)
        k4 = rhs(2 * step + 2, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho
