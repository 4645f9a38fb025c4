"""Time evolution and observables.

Pure states follow i dpsi/dt = H(t) psi, density matrices follow the Lindblad
master equation with the 17-operator noise model (per-qubit decay to both
lower levels, per-qubit dephasing on both transitions, cavity photon loss).
Both propagators use fixed-step classical RK4 so results are bit-reproducible;
norm and trace drift are tracked as convergence diagnostics, never corrected
by renormalization. A run that fails a gate raises ConvergenceError before
its trajectory is packaged, and a run whose stored frame is not finite
raises it at that frame.

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
the complex rho. A batch whose tables are all zero (no noise) or whose
scatter is (no jumps, as with dephasing only) skips the terms it lacks; a
term it skips adds only zeros, so the bytes are those of the full form.
Stored frames and the final state are unpacked as
rho = (M + M^T)/2 + i (M - M^T)/2, which is exactly Hermitian.

RK4 advances the state in place. Each propagator call allocates its buffers
once (state, stage state, four slopes, accumulator, and the Lindblad
scratch) and builds every view of them, the float64 views and the strided
diagonals, before stepping, so no array is allocated inside the step loop.
A right-hand side then writes its slope through out=: one matmul for
Schrodinger; for Lindblad three numpy calls without noise, five without
jumps and seven with them. The stepper yields its live state buffer, and
the propagators copy whatever they store.

h_fn is a stream: the propagators call it exactly once per node, in
increasing k = 0, 1, ..., 2 n_steps; a step's last H also serves the next
step's first stage, and the midpoint H both middle stages. Each H is used
before the next call, which may overwrite it, so a caller can keep one H
buffer and rewrite only its drive entries. Every H passes the float64 check.
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

_W = w_state()  # fidelity's default target, built once
_W.flags.writeable = False


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
    w = _W if target is None else target
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
    point does), and store(step, points, states) appends their states. Both
    propagators store through it, so both stop at the first stored frame
    that is not finite: a diverged run, which no later step can mend and no
    gate can judge.
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

    def store(self, step: int, points: np.ndarray, states: np.ndarray) -> None:
        finite = np.isfinite(states.reshape(len(states), -1)).all(axis=1)
        if not finite.all():
            b = int(points[np.argmin(finite)])
            message = f"state is not finite after {step} steps{_which(b, self.stored)}"
            raise ConvergenceError(message, b)
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
    """h_fn(k), checked at every node to be a float64 array: the kernels view H as real."""
    H = h_fn(k)
    if not (isinstance(H, np.ndarray) and H.dtype == np.float64):
        raise ValueError("h_fn must return real symmetric float64 Hamiltonians")
    return H


def _rk4(h_fn, bind, x: np.ndarray, n: int, half, whole, sixth):
    """Advance x in place through n RK4 steps, yielding (step + 1, x) after each.

    The yielded x is the live state buffer, which the next step overwrites,
    so a caller copies whatever it keeps. bind(src, dst) returns the
    right-hand side f(H) that writes the slope at state src into dst; bind
    runs once per stage, before stepping, so a kernel builds its views of
    the buffers once. h_fn is called once per node, in increasing k. The
    stage state, the four slopes and the accumulator are allocated here,
    once, and nothing is allocated inside the step loop. Each sum and
    product is the one of x + sixth * (k1 + 2 k2 + 2 k3 + k4) with its
    operands swapped at most, which leaves IEEE results bit for bit alike.
    """
    y, acc, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(6))
    f1, f2, f3, f4 = bind(x, k1), bind(y, k2), bind(y, k3), bind(y, k4)
    H = _real_h(h_fn, 0)
    for step in range(n):
        f1(H)
        H = _real_h(h_fn, 2 * step + 1)
        np.multiply(half, k1, out=y)
        y += x
        f2(H)
        np.multiply(half, k2, out=y)
        y += x
        f3(H)
        H = _real_h(h_fn, 2 * step + 2)
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
        yield step + 1, x


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
    node_times(grid.n_steps, duration_b). It is called exactly once per
    node, in increasing k: node 2s+1 serves k2 and k3 of step s, node 2s+2
    its k4 and the next step's k1. The returned array may be overwritten by
    the next call. H psi is one real product on the float64 view of psi,
    and the -i sits in the RK4 coefficients (-i h/2, -i h, -i h/6). Every
    product is taken point by point, so a point's result does not depend on
    the batch it runs in. A non-finite stored frame fails the run at once;
    the norm is gated at the end, before the run is packaged.
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

    def bind(src: np.ndarray, dst: np.ndarray):
        # (B, 10, 10) @ (B, 10, 2): real and imaginary parts in one product.
        p, out = src.view(np.float64), dst.view(np.float64)
        return lambda H: np.matmul(H, p, out=out)

    for step, psi in _rk4(h_fn, bind, psi, n, half, whole, sixth):
        points = frames.at(step)
        if points is not None:
            frames.store(step, points, psi[points, :, 0])

    psi = psi[..., 0]
    drift = np.array([abs(np.linalg.norm(p) - 1.0) for p in psi])
    b = int(np.argmax(drift))
    if not drift[b] <= NORM_TOL:
        raise ConvergenceError(
            f"norm drift {drift[b]:.3e} exceeds {NORM_TOL:.0e} after {n} steps{_which(b, drift)}",
            b,
        )
    return _trajectory(frames, psi, drift, None, n, durations)


def _noise_terms(noise: NoiseModel):
    """The 17-operator noise model, written once: (jumps, diagonals).

    jumps are the 9 operators sqrt(r) |dst><src| as (dst, src, sqrt(r)): 4
    decays |e> -> |1> (one per qubit), 4 decays |e> -> |0> (into the global
    ground state), cavity photon loss. diagonals are the 8 real dephasing
    diagonals, 4 on the e/1 transition, then 4 on the e/0 transition.
    """
    sg = math.sqrt(noise.gamma)
    jumps = [(_ONE_OF_QUBIT[k], _EXCITED_OF_QUBIT[k], sg) for k in range(4)]
    jumps += [(GROUND, _EXCITED_OF_QUBIT[k], sg) for k in range(4)]
    jumps.append((GROUND, PSI3, math.sqrt(noise.kappa)))
    sp = math.sqrt(noise.gamma_phi / 2.0)
    diagonals = [
        sp * np.array([1.0 if s[k] == "e" else -1.0 if s[k] == level else 0.0 for s in LEVELS])
        for level in ("1", "0")
        for k in range(4)
    ]
    return jumps, diagonals


def lindblad_operators(noise: NoiseModel) -> list[np.ndarray]:
    """The 17 jump operators as 10x10 matrices.

    Order: 4 decays |e> -> |1> (one per qubit), 4 decays |e> -> |0> (into the
    global ground state), 4 dephasings on the e/1 transition, 4 dephasings on
    the e/0 transition, cavity photon loss.
    """
    jumps, diagonals = _noise_terms(noise)
    ops = [np.zeros((DIM, DIM), dtype=complex) for _ in jumps]
    for L, (dst, src, amplitude) in zip(ops, jumps):
        L[dst, src] = amplitude
    ops[8:8] = [np.diag(d).astype(complex) for d in diagonals]
    return ops


def _dissipator_tables(noise: NoiseModel):
    """Precompute the elementwise gain matrix and the population scatter.

    For jumps L = sqrt(r) |dst><src| and real diagonals L = diag(d), the
    dissipator contributes G*rho elementwise plus a classical rate matrix S
    acting on the diagonal, with G_ij = sum_d d_i d_j - (k_i + k_j)/2 and
    k_i the total outflow rate from basis state i.
    """
    jumps, diagonals = _noise_terms(noise)
    k, dd, scatter = np.zeros(DIM), np.zeros((DIM, DIM)), np.zeros((DIM, DIM))
    for dst, src, amplitude in jumps:
        k[src] += amplitude**2
        scatter[dst, src] += amplitude**2
    for d in diagonals:
        k += d * d
        dd += np.outer(d, d)
    return dd - 0.5 * (k[:, None] + k[None, :]), scatter


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
    noises,
    rho0: np.ndarray,
    grid: TimeGrid | None = None,
    duration: float | np.ndarray = 1.0,
    n_frames: int | list = 2,
) -> Trajectory:
    """Fixed-step RK4 on the Lindblad master equation for B density matrices.

    rho0 has shape (B, 10, 10). noises gives one NoiseModel per point, whose
    17 operators (lindblad_operators) enter only through the stacked gain
    and scatter tables (_dissipator_tables). h_fn, duration and n_frames
    follow the contract of propagate_schrodinger: h_fn is called once per
    node, in increasing k, each time just before the first stage that uses it.

    rho0 is symmetrized once on entry and packed as M = Re rho + Im rho (the
    symmetric real part plus the antisymmetric imaginary part). For real
    symmetric H, the real symmetric gain table G and the real population
    scatter S, the master equation reads dM/dt = [H, M]^T + G o M plus
    S diag(M) on the diagonal: two real products per RK4 stage. Which terms
    the batch has is decided once, from the stacked tables: its right-hand
    side is 3 numpy calls when G and S are zero (the commutator written
    straight into the slope), 5 when only S is, and 7 otherwise. Stored
    frames and the final state are unpacked as (M + M^T)/2 + i (M - M^T)/2,
    so they are exactly Hermitian. Trace is checked at the end; positivity
    with eigvalsh at each point's own stored frames. Both gate the result
    before it is packaged, and a non-finite stored frame fails the run at once.
    """
    grid = grid or TimeGrid()
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (DIM, DIM):
        raise ValueError(f"rho0 must have shape (B, {DIM}, {DIM})")
    for r in rho:
        if abs(np.trace(r).real - 1.0) > 1e-9 or np.max(np.abs(r - r.conj().T)) > 1e-9:
            raise ValueError("rho0 must be Hermitian with unit trace")
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    if len(noises) != len(rho):
        raise ValueError(f"need one NoiseModel per point, got {len(noises)} for {len(rho)}")
    gain, scatter = (np.stack(t) for t in zip(*map(_dissipator_tables, noises)))
    # The terms the batch has, decided once: a right-hand side computes only those.
    has_gain, has_scatter = bool(gain.any()), bool(scatter.any())

    m = rho.real + rho.imag
    # Scratch shared by every stage: the two products and the scatter.
    hm, mh, sc = np.empty_like(m), np.empty_like(m), np.empty((len(m), DIM, 1))
    comm_t, mh_t = hm.swapaxes(1, 2), mh.swapaxes(1, 2)

    def diagonal(a: np.ndarray) -> np.ndarray:
        """The (B, 10, 1) strided view of the diagonals of a (B, 10, 10) buffer."""
        return a.reshape(-1, DIM * DIM)[:, :: DIM + 1][..., None]

    def bind(src: np.ndarray, dst: np.ndarray):
        pops, dst_diag = diagonal(src), diagonal(dst)

        def noiseless(H: np.ndarray) -> None:
            np.matmul(H, src, out=hm)
            np.matmul(src, H, out=mh)
            np.subtract(comm_t, mh_t, out=dst)

        def jump_free(H: np.ndarray) -> None:
            np.matmul(H, src, out=hm)
            np.matmul(src, H, out=mh)
            np.subtract(hm, mh, out=hm)
            np.multiply(gain, src, out=dst)
            np.add(dst, comm_t, out=dst)

        def rhs(H: np.ndarray) -> None:
            np.matmul(H, src, out=hm)
            np.matmul(src, H, out=mh)
            np.subtract(hm, mh, out=hm)
            np.multiply(gain, src, out=dst)
            np.add(dst, comm_t, out=dst)
            np.matmul(scatter, pops, out=sc)
            np.add(dst_diag, sc, out=dst_diag)

        return rhs if has_scatter else jump_free if has_gain else noiseless

    n = grid.n_steps
    durations = _durations(duration, len(rho))
    h = _step_size(durations, n)
    frames = _Frames(n, n_frames, rho)
    min_eig = np.linalg.eigvalsh(rho).min(axis=-1)
    for step, m in _rk4(h_fn, bind, m, n, 0.5 * h, h, h / 6.0):
        points = frames.at(step)
        if points is not None:
            stored = _unpack(m[points])
            frames.store(step, points, stored)  # before eigvalsh, which cannot judge nan
            min_eig[points] = np.minimum(min_eig[points], np.linalg.eigvalsh(stored).min(axis=-1))

    rho = _unpack(m)
    drift = np.array([abs(float(np.trace(r).real) - 1.0) for r in rho])
    b = int(np.argmax(drift))
    if not drift[b] <= TRACE_TOL:
        raise ConvergenceError(
            f"trace drift {drift[b]:.3e} exceeds {TRACE_TOL:.0e} after {n} steps{_which(b, drift)}",
            b,
        )
    b = int(np.argmin(min_eig))
    if not min_eig[b] >= EIG_TOL:
        raise ConvergenceError(
            f"density matrix eigenvalue {min_eig[b]:.3e} below {EIG_TOL:.0e}{_which(b, min_eig)}",
            b,
        )
    return _trajectory(frames, rho, drift, min_eig, n, durations)
