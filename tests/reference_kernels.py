"""Complex-arithmetic RK4 kernels, kept as an accuracy reference for the
real-symmetric kernels of `squidw.dynamics`.

These are the general forms that make no use of H being real: H psi as a
complex product, the commutator as two complex products H rho - rho H, the
dissipator in its canonical form sum_L L rho L^dag - {L^dag L, rho}/2 from
the operator matrices (not from the kernel's gain and scatter tables), and
rho re-symmetrized after every step. They integrate one point, without
stored frames or gates, and return the final state.

The stepwise kernels at the end are the batched real kernels of
`squidw.dynamics` with elementwise step arithmetic, before their slopes
were summed by one BLAS product.
"""

import numpy as np

from squidw.dynamics import _dissipator_tables, _step_size, _unpack, node_times
from squidw.state_space import DIM


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


# ---------------------------------------------------------------------------
# The stepwise kernels: the seven-call combination of the slopes, and the
# scatter written to its own (B, 10, 1) buffer and added on the slope's
# strided diagonal. The propagators' final states must equal theirs bit for
# bit, whatever order a BLAS library sums its products in.


def _stepwise_rk4(h_fn, bind, x: np.ndarray, n: int, half, whole, sixth) -> np.ndarray:
    x = x.copy()
    y, acc, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(6))
    f1, f2, f3, f4 = bind(x, k1), bind(y, k2), bind(y, k3), bind(y, k4)
    H = h_fn(0)
    for step in range(n):
        f1(H)
        H = h_fn(2 * step + 1)
        np.multiply(half, k1, out=y)
        y += x
        f2(H)
        np.multiply(half, k2, out=y)
        y += x
        f3(H)
        H = h_fn(2 * step + 2)
        np.multiply(whole, k3, out=y)
        y += x
        f4(H)
        np.multiply(2.0, k2, out=acc)
        acc += k1
        k3 *= 2.0
        acc += k3
        acc += k4
        acc *= sixth
        x += acc
    return x


def schrodinger_stepwise(h_fn, psi0, n_steps: int, durations) -> np.ndarray:
    """Final (B, 10) states of a batch; h_fn(k) gives the (B, 10, 10) real H at node k."""
    h = _step_size(np.asarray(durations, dtype=float), n_steps)
    psi = np.array(psi0, dtype=complex)[..., None]

    def bind(src, dst):
        p, out = src.view(np.float64), dst.view(np.float64)
        return lambda H: np.matmul(H, p, out=out)

    return _stepwise_rk4(h_fn, bind, psi, n_steps, -1j * (0.5 * h), -1j * h, -1j * (h / 6.0))[..., 0]


def lindblad_stepwise(h_fn, noises, rho0, n_steps: int, durations) -> np.ndarray:
    """Final (B, 10, 10) density matrices of a batch, one NoiseModel per point."""
    h = _step_size(np.asarray(durations, dtype=float), n_steps)
    rho = np.array(rho0, dtype=complex)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    gain, scatter = (np.stack(t) for t in zip(*map(_dissipator_tables, noises)))
    has_gain, has_scatter = bool(gain.any()), bool(scatter.any())
    m = rho.real + rho.imag
    hm, mh, sc = np.empty_like(m), np.empty_like(m), np.empty((len(m), DIM, 1))
    comm_t, mh_t = hm.swapaxes(1, 2), mh.swapaxes(1, 2)

    def diagonal(a):
        return a.reshape(-1, DIM * DIM)[:, :: DIM + 1][..., None]

    def bind(src, dst):
        pops, dst_diag = diagonal(src), diagonal(dst)

        def noiseless(H):
            np.matmul(H, src, out=hm)
            np.matmul(src, H, out=mh)
            np.subtract(comm_t, mh_t, out=dst)

        def jump_free(H):
            np.matmul(H, src, out=hm)
            np.matmul(src, H, out=mh)
            np.subtract(hm, mh, out=hm)
            np.multiply(gain, src, out=dst)
            np.add(dst, comm_t, out=dst)

        def rhs(H):
            jump_free(H)
            np.matmul(scatter, pops, out=sc)
            np.add(dst_diag, sc, out=dst_diag)

        return rhs if has_scatter else jump_free if has_gain else noiseless

    return _unpack(_stepwise_rk4(h_fn, bind, m, n_steps, 0.5 * h, h, h / 6.0))
