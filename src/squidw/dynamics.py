"""Time evolution and observables.

Pure states follow i dpsi/dt = H(t) psi, density matrices follow the Lindblad
master equation with the 17-operator noise model (per-qubit decay to both
lower levels, per-qubit dephasing on both transitions, cavity photon loss).
Both propagators use fixed-step classical RK4 so results are bit-reproducible;
norm and trace drift are tracked as convergence diagnostics, never corrected
by renormalization.

Both propagators integrate a batch: B points that share a step count advance
together, each state carrying a leading batch axis. Duration and stored
frames belong to each point: point b steps by h_b = duration_b / n_steps and
stores its own n_frames_b frames. The Hamiltonian is supplied as h_fn(k), the
(B, 10, 10) stack at RK4 node k, which for point b is the time
t_k = k h_b / 2 (see node_times), so callers sample their drives once on each
point's node grid and assemble H there. Every product, reduction and gate is
taken point by point, so a point's bytes are the same whatever batch it ran
in.

H must be real symmetric float64, as every Hamiltonian of `state_space` is;
anything else raises ValueError. The kernels use that form. H psi is a real
matrix product on the float64 view of the complex state. The density matrix
rho = A + iB (A real symmetric, B real antisymmetric) is integrated as the
one real matrix M = A + B = Re rho + Im rho, which obeys

    dM/dt = [H, M]^T + G o M + S diag(M)   (the last term on the diagonal)

for the elementwise gain table G and population scatter S of the dissipator:
two real products per node, and every elementwise op on half the bytes of
the complex rho. Stored frames and the final state are unpacked as
rho = (M + M^T)/2 + i (M - M^T)/2, which is exactly Hermitian.

The propagators call h_fn 3 (closed) or 4 (open) times per step, with
repeated nodes, and use each H before the next call: the array h_fn returns
may be overwritten by its next call, so a caller can keep one H buffer,
rewrite only its drive entries at a new node, and hand back the same buffer
when a node is asked for again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_space import (
    DIM,
    GROUND,
    LEVELS,
    PSI3,
    _EXCITED_OF_QUBIT,
    _ONE_OF_QUBIT,
    w_state,
)

MAX_FRAMES = 500

NORM_TOL = 1e-6  # pure-state norm drift gate
TRACE_TOL = 1e-8  # density-matrix trace drift gate
EIG_TOL = -1e-6  # most negative admissible eigenvalue


class ConvergenceError(RuntimeError):
    """Raised when drift diagnostics exceed their gates; point is the batch
    index of the point that failed worst, when the raiser knows it."""

    def __init__(self, message: str, point: int | None = None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class NoiseModel:
    """Decay and dephasing rates, units 1/T.

    kappa: cavity photon loss; gamma: spontaneous emission |e> -> |1> and
    |e> -> |0| for every qubit; gamma_phi: dephasing on both transitions of
    every qubit.
    """

    kappa: float = 0.0
    gamma: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kappa", "gamma", "gamma_phi"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite nonnegative rate, got {v}")

    @property
    def is_closed(self) -> bool:
        return self.kappa == 0.0 and self.gamma == 0.0 and self.gamma_phi == 0.0


@dataclass(frozen=True)
class TimeGrid:
    """Fixed integration grid; n_steps RK4 steps across the run window."""

    n_steps: int = 2000

    def __post_init__(self) -> None:
        if self.n_steps < 100:
            raise ValueError(f"n_steps must be at least 100, got {self.n_steps}")


@dataclass
class Trajectory:
    """Stored frames (at most MAX_FRAMES per point) plus endpoint diagnostics.

    A propagator returns the trajectory of its whole batch: every per-point
    field is indexed by point first. The per-frame fields (times, states,
    fidelities, populations) are arrays with a leading batch axis of length
    B when every point stores the same number of frames, and lists of B
    per-point arrays otherwise. point(b) gives the trajectory of one point,
    with its own frame times and the diagnostics as floats.
    """

    times: np.ndarray | list  # stored frame times, per point
    states: np.ndarray | list  # state vector or density matrix per point and stored frame
    fidelities: np.ndarray | list  # per point and stored frame
    populations: np.ndarray | list  # per point and stored frame, 10 diagonal occupations
    final_state: np.ndarray
    drift: np.ndarray  # |norm - 1| or |trace - 1| at the final time, per point
    min_eigenvalue: np.ndarray | None  # over each point's stored frames; density runs only
    n_steps: int

    def point(self, b: int) -> "Trajectory":
        return Trajectory(
            times=self.times[b],
            states=self.states[b],
            fidelities=self.fidelities[b],
            populations=self.populations[b],
            final_state=self.final_state[b],
            drift=float(self.drift[b]),
            min_eigenvalue=None if self.min_eigenvalue is None else float(self.min_eigenvalue[b]),
            n_steps=self.n_steps,
        )


def fidelity(state: np.ndarray, target: np.ndarray | None = None) -> float:
    """|<W|psi>|^2 for vectors, |<W|rho|W>| for density matrices."""
    w = w_state() if target is None else target
    state = np.asarray(state)
    if state.ndim == 1:
        return float(abs(np.vdot(w, state)) ** 2)
    return float(abs(w.conj() @ state @ w))


def node_times(n_steps: int, duration: float) -> np.ndarray:
    """The 2 n_steps + 1 RK4 nodes t_k = k h / 2, h = duration / n_steps.

    Even nodes are the step boundaries s h, odd nodes the midpoints
    s h + h / 2; the last node is exactly `duration`.
    """
    h = duration / n_steps
    t = np.empty(2 * n_steps + 1)
    t[0::2] = np.arange(n_steps + 1) * h
    t[1::2] = t[0:-1:2] + 0.5 * h
    t[-1] = duration
    return t


def _frame_indices(n_steps: int, n_frames: int) -> np.ndarray:
    """The distinct steps of n_frames evenly spaced ones, 0 and n_steps included.

    Rounded linspace is nondecreasing, so dropping consecutive repeats
    leaves np.unique's result without the numpy.ma import np.unique costs.
    """
    n_frames = int(min(max(n_frames, 2), MAX_FRAMES, n_steps + 1))
    steps = np.linspace(0, n_steps, n_frames).round().astype(int)
    return steps[np.concatenate(([True], steps[1:] != steps[:-1]))]


def _durations(duration, batch: int) -> np.ndarray:
    """One duration per point from a scalar or a (B,) sequence."""
    d = np.asarray(duration, dtype=float)
    if d.ndim > 1 or (d.ndim == 1 and len(d) != batch):
        raise ValueError(
            f"duration must be a scalar or have one entry per point, got shape {d.shape}"
        )
    return np.broadcast_to(d, (batch,))


def _step_size(durations: np.ndarray, n_steps: int):
    """h = duration / n_steps: one Python float when every point has the same
    duration, else one per point shaped (B, 1, 1) to scale a batch of
    states. Both give the same bytes; scaling by a Python float is about a
    third cheaper than broadcasting a (B, 1, 1) factor, and about 0.4 us per
    product cheaper than a numpy float64 on a batch of one."""
    if len(set(durations.tolist())) == 1:
        return float(durations[0]) / n_steps
    return (durations / n_steps)[:, None, None]


class _Frames:
    """Each point's stored frames: only its own _frame_indices(n, n_frames_b).

    at(step) gives the indices of the points that keep step (None when no
    point does), and store(points, states) appends their states.
    """

    def __init__(self, n_steps: int, n_frames, state0: np.ndarray):
        batch = len(state0)
        counts = np.broadcast_to(np.asarray(n_frames), (batch,))
        by_count = {int(c): _frame_indices(n_steps, int(c)) for c in set(counts.tolist())}
        self.keep = [by_count[int(c)] for c in counts]
        at: dict[int, list] = {}
        for b, keep in enumerate(self.keep):
            for step in keep[1:]:
                at.setdefault(int(step), []).append(b)
        self._at = {step: np.array(points) for step, points in at.items()}
        self.stored = [[s] for s in state0.copy()]

    def at(self, step: int):
        return self._at.get(step)

    def store(self, points: np.ndarray, states: np.ndarray) -> None:
        for b, s in zip(points, states):
            self.stored[b].append(s)


def _batched(items: list):
    """One array with a leading batch axis when the items share a shape, else the list."""
    return np.stack(items) if len({item.shape for item in items}) == 1 else items


def _trajectory(frames: _Frames, final, drift, min_eig, n_steps: int, durations) -> Trajectory:
    """Package each point's stored states; fidelities are taken point by point."""
    states = [np.array(s) for s in frames.stored]
    nodes = {}
    times = []
    for d, keep in zip(durations.tolist(), frames.keep):
        if d not in nodes:
            nodes[d] = node_times(n_steps, d)
        times.append(nodes[d][2 * keep])
    return Trajectory(
        times=_batched(times),
        states=_batched(states),
        fidelities=_batched([np.array([fidelity(s) for s in point]) for point in states]),
        populations=_batched(
            [
                np.abs(st) ** 2 if st.ndim == 2 else np.real(np.diagonal(st, axis1=-2, axis2=-1))
                for st in states
            ]
        ),
        final_state=final,
        drift=drift,
        min_eigenvalue=min_eig,
        n_steps=n_steps,
    )


def _which(b: int, values: np.ndarray) -> str:
    """Names point b in an error message when the batch has more than one."""
    return f" (batch point {b})" if len(values) > 1 else ""


def _real_h(h_fn, k: int) -> np.ndarray:
    """h_fn(k), which must be a float64 array: the kernels view H as real."""
    H = h_fn(k)
    if not (isinstance(H, np.ndarray) and H.dtype == np.float64):
        raise ValueError("h_fn must return real symmetric float64 Hamiltonians")
    return H


def propagate_schrodinger(
    h_fn,
    psi0: np.ndarray,
    grid: TimeGrid | None = None,
    duration: float | np.ndarray = 1.0,
    n_frames: int | list = 2,
) -> Trajectory:
    """Fixed-step RK4 on i dpsi/dt = H(t) psi for B states; no renormalization.

    psi0 has shape (B, 10). duration and n_frames are scalars or one value
    per point. h_fn(k) returns the (B, 10, 10) real symmetric float64
    Hamiltonians at node k, point b's at node k of
    node_times(grid.n_steps, duration_b); step s calls it at node 2s before
    k1, at 2s+1 before k2 and k3, and at 2s+2 before k4, and the returned
    array may be overwritten by the next call. H psi is one real product on
    the float64 view of psi, and the -i sits in the RK4 coefficients
    (-i h/2, -i h, -i h/6). Every product is taken point by point, so a
    point's result does not depend on the batch it runs in.
    """
    grid = grid or TimeGrid()
    psi = np.array(psi0, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != DIM:
        raise ValueError(f"psi0 must have shape (B, {DIM})")
    if any(abs(np.linalg.norm(p) - 1.0) > 1e-9 for p in psi):
        raise ValueError("psi0 must be normalized")
    n = grid.n_steps
    durations = _durations(duration, len(psi))
    h = _step_size(durations, n)
    # The stages are H psi; the -i of dpsi/dt = -i H psi rides on the RK4
    # coefficients. A product with -i only swaps parts and flips a sign, so
    # this gives the bytes of stages -i H psi with real coefficients.
    half, whole, sixth = -1j * (0.5 * h), -1j * h, -1j * (h / 6.0)
    frames = _Frames(n, n_frames, psi)
    psi = psi[..., None]

    def rhs(H: np.ndarray, p: np.ndarray) -> np.ndarray:
        # (B, 10, 10) @ (B, 10, 2): real and imaginary parts in one product.
        return (H @ p.view(np.float64)).view(complex)

    for step in range(n):
        # Each H is used before the next h_fn call, which may overwrite it.
        k1 = rhs(_real_h(h_fn, 2 * step), psi)
        h_mid = _real_h(h_fn, 2 * step + 1)
        k2 = rhs(h_mid, psi + half * k1)
        k3 = rhs(h_mid, psi + half * k2)
        k4 = rhs(_real_h(h_fn, 2 * step + 2), psi + whole * k3)
        psi = psi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points = frames.at(step + 1)
        if points is not None:
            frames.store(points, psi[points, :, 0])

    psi = psi[..., 0]
    drift = np.array([abs(np.linalg.norm(p) - 1.0) for p in psi])
    traj = _trajectory(frames, psi, drift, None, n, durations)
    b = int(np.argmax(drift))
    if drift[b] > NORM_TOL:
        raise ConvergenceError(
            f"norm drift {drift[b]:.3e} exceeds {NORM_TOL:.0e} after {n} steps{_which(b, drift)}",
            b,
        )
    return traj


def lindblad_operators(noise: NoiseModel) -> list[np.ndarray]:
    """The 17 jump operators as 10x10 matrices.

    Order: 4 decays |e> -> |1> (one per qubit), 4 decays |e> -> |0> (into the
    global ground state), 4 dephasings on the e/1 transition, 4 dephasings on
    the e/0 transition, cavity photon loss.
    """
    ops: list[np.ndarray] = []
    sg = math.sqrt(noise.gamma)
    for k in range(4):
        L = np.zeros((DIM, DIM), dtype=complex)
        L[_ONE_OF_QUBIT[k], _EXCITED_OF_QUBIT[k]] = sg
        ops.append(L)
    for k in range(4):
        L = np.zeros((DIM, DIM), dtype=complex)
        L[GROUND, _EXCITED_OF_QUBIT[k]] = sg
        ops.append(L)
    sp = math.sqrt(noise.gamma_phi / 2.0)
    for level in ("1", "0"):
        for k in range(4):
            diag = np.zeros(DIM)
            for idx, labels in enumerate(LEVELS):
                if labels[k] == "e":
                    diag[idx] = 1.0
                elif labels[k] == level:
                    diag[idx] = -1.0
            ops.append(sp * np.diag(diag).astype(complex))
    L = np.zeros((DIM, DIM), dtype=complex)
    L[GROUND, PSI3] = math.sqrt(noise.kappa)
    ops.append(L)
    return ops


def _classify_operators(ops):
    """Split operators into single-entry jumps, real diagonals, and the rest.

    The tests are exact: an operator with an off-diagonal entry and any other
    nonzero, or a diagonal one with any imaginary part, however small, is not
    tabulable and lands in the rest.
    """
    jumps, diags, generic = [], [], []
    for L in ops:
        L = np.asarray(L)
        rows, cols = np.nonzero(L)
        if rows.size == 0:
            continue
        if np.array_equal(rows, cols):
            d = np.diagonal(L)
            if d.imag.any():
                generic.append(L)
            else:
                diags.append(d.real.astype(float))
        elif rows.size == 1:
            dst, src = int(rows[0]), int(cols[0])
            jumps.append((dst, src, float(abs(L[dst, src]) ** 2)))
        else:
            generic.append(L)
    return jumps, diags, generic


def _dissipator_tables(ops):
    """Precompute the elementwise gain matrix and the population scatter.

    For jumps L = sqrt(r) |dst><src| and real diagonals L = diag(d), the
    dissipator contributes G*rho elementwise plus a classical rate matrix S
    acting on the diagonal, with G_ij = sum_d d_i d_j - (k_i + k_j)/2 and
    k_i the total outflow rate from basis state i.
    """
    jumps, diags, generic = _classify_operators(ops)
    k = np.zeros(DIM)
    dd = np.zeros((DIM, DIM))
    for dst, src, r in jumps:
        k[src] += r
    for d in diags:
        k += d * d
        dd += np.outer(d, d)
    gain = dd - 0.5 * (k[:, None] + k[None, :])
    scatter = np.zeros((DIM, DIM))
    for dst, src, r in jumps:
        scatter[dst, src] += r
    return gain, scatter, generic


def _unpack(m: np.ndarray) -> np.ndarray:
    """rho = (M + M^T)/2 + i (M - M^T)/2 from the packed M = Re rho + Im rho;
    exactly Hermitian, whatever M is."""
    mt = m.swapaxes(-1, -2)
    rho = np.empty(m.shape, dtype=complex)
    rho.real = 0.5 * (m + mt)
    rho.imag = 0.5 * (m - mt)
    return rho


def propagate_lindblad(
    h_fn,
    lindblads,
    rho0: np.ndarray,
    grid: TimeGrid | None = None,
    duration: float | np.ndarray = 1.0,
    n_frames: int | list = 2,
) -> Trajectory:
    """Fixed-step RK4 on the Lindblad master equation for B density matrices.

    rho0 has shape (B, 10, 10). lindblads gives one operator list per point
    (any iterable: it is read once, before stepping, and only the stacked
    dissipator tables are kept). h_fn, duration and n_frames follow the
    contract of propagate_schrodinger; each step calls h_fn at nodes 2s,
    2s+1 (twice) and 2s+2, each just before the stage that uses it.

    rho0 is symmetrized once on entry and packed as M = Re rho + Im rho (the
    symmetric real part plus the antisymmetric imaginary part). For real
    symmetric H, the real symmetric gain table G and the real population
    scatter S, the master equation reads dM/dt = [H, M]^T + G o M plus
    S diag(M) on the diagonal: two real products per RK4 stage. Stored
    frames and the final state are unpacked as (M + M^T)/2 + i (M - M^T)/2,
    so they are exactly Hermitian. Trace is checked at the end; positivity
    with eigvalsh at each point's own stored frames. Both gate the result.
    """
    grid = grid or TimeGrid()
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (DIM, DIM):
        raise ValueError(f"rho0 must have shape (B, {DIM}, {DIM})")
    for r in rho:
        if abs(np.trace(r).real - 1.0) > 1e-9 or np.max(np.abs(r - r.conj().T)) > 1e-9:
            raise ValueError("rho0 must be Hermitian with unit trace")
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    tables = [_dissipator_tables(ops) for ops in lindblads]
    if len(tables) != len(rho):
        raise ValueError(f"need one operator list per point, got {len(tables)} for {len(rho)}")
    if any(generic for _, _, generic in tables):
        raise ValueError("only single-entry jumps and real diagonal operators are supported")
    gain = np.stack([t[0] for t in tables])
    scatter = np.stack([t[1] for t in tables])

    def rhs(k: int, m: np.ndarray) -> np.ndarray:
        H = _real_h(h_fn, k)
        x = H @ m
        x -= m @ H
        out = gain * m
        out += x.swapaxes(1, 2)
        # Strided views of the diagonals.
        pops = m.reshape(-1, DIM * DIM)[:, :: DIM + 1]
        diag = out.reshape(-1, DIM * DIM)[:, :: DIM + 1]
        diag += (scatter @ pops[..., None])[..., 0]
        return out

    n = grid.n_steps
    durations = _durations(duration, len(rho))
    h = _step_size(durations, n)
    half, sixth = 0.5 * h, h / 6.0
    frames = _Frames(n, n_frames, rho)
    min_eig = np.linalg.eigvalsh(rho).min(axis=-1)
    m = rho.real + rho.imag
    for step in range(n):
        k1 = rhs(2 * step, m)
        k2 = rhs(2 * step + 1, m + half * k1)
        k3 = rhs(2 * step + 1, m + half * k2)
        k4 = rhs(2 * step + 2, m + h * k3)
        m = m + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points = frames.at(step + 1)
        if points is not None:
            stored = _unpack(m[points])
            frames.store(points, stored)
            min_eig[points] = np.minimum(min_eig[points], np.linalg.eigvalsh(stored).min(axis=-1))

    rho = _unpack(m)
    drift = np.array([abs(float(np.trace(r).real) - 1.0) for r in rho])
    traj = _trajectory(frames, rho, drift, min_eig, n, durations)
    b = int(np.argmax(drift))
    if drift[b] > TRACE_TOL:
        raise ConvergenceError(
            f"trace drift {drift[b]:.3e} exceeds {TRACE_TOL:.0e} after {n} steps{_which(b, drift)}",
            b,
        )
    b = int(np.argmin(min_eig))
    if min_eig[b] < EIG_TOL:
        raise ConvergenceError(
            f"density matrix eigenvalue {min_eig[b]:.3e} below {EIG_TOL:.0e}{_which(b, min_eig)}",
            b,
        )
    return traj
