"""Time evolution and observables.

Pure states follow i dpsi/dt = H(t) psi, density matrices follow the Lindblad
master equation with the 17-operator noise model (per-qubit decay to both
lower levels, per-qubit dephasing on both transitions, cavity photon loss).
Both propagators use fixed-step classical RK4 so results are bit-reproducible;
norm and trace drift are tracked as convergence diagnostics, never corrected
by renormalization. A run that fails a gate raises ConvergenceError before
its trajectory is packaged. A run with a stored frame that is not finite
raises it too, after its last step and before any gate, naming the
earliest such frame.

Both propagators integrate a batch: B points that share n_steps, a plain int,
advance together, each state carrying a leading batch axis. Duration and
stored frames belong to each point: point b steps by
h_b = duration_b / n_steps and stores its own n_frames_b frames. The
Hamiltonian is supplied as h_fn(k), the (B, 10, 10) stack at RK4 node k, which
for point b is the time t_k = k h_b / 2 (see node_times), so callers sample
their drives once on each point's node grid and assemble H there; a stack of
any other shape raises ValueError. Every product, reduction and gate is taken
point by point, so a point's bytes are the same whatever batch it ran in.

H must be real symmetric float64, as every Hamiltonian of `state_space` is;
anything else raises ValueError. The kernels work in real arithmetic on that
form: propagate_schrodinger and propagate_lindblad say how each right-hand
side uses it, and _rk4 how the steps are taken and summed.

h_fn is a stream: the propagators call it exactly once per node, in
increasing k = 0, 1, ..., 2 n_steps; a step's last H also serves the next
step's first stage, and the midpoint H both middle stages. Each H is used
before the next call, which may overwrite it, so a caller can keep one H
buffer and rewrite only its drive entries. Every H passes the float64 check.

A stack with batch stride 0 (np.broadcast_to(H, (B, 10, 10))) means one H
shared by every point, and once given it must stay one: when node 0's
stack is such a broadcast, propagate_lindblad may take each product once
for the whole batch, and then refuses, naming the node, any later stack
whose batch stride is not 0.
"""

from __future__ import annotations

import math
import numbers
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

_W = w_state()  # fidelity's target, built once
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


@dataclass
class Trajectory:
    """Stored frames (at most MAX_FRAMES per point) plus endpoint diagnostics.

    A propagator returns the trajectory of its whole batch: every per-point
    field is indexed by point first, and each per-frame field (times,
    states, fidelities, populations) is a list of B per-point arrays, one
    row per stored frame. point(b) gives the trajectory of one point: those
    fields are its arrays, and the diagnostics are floats.
    """

    times: list  # stored frame times, per point
    states: list  # state vector or density matrix per point and stored frame
    fidelities: list  # per point and stored frame
    populations: list  # per point and stored frame, 10 diagonal occupations
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


def fidelity(state: np.ndarray) -> float:
    """|<W|psi>|^2 for vectors, |<W|rho|W>| for density matrices."""
    state = np.asarray(state)
    if state.ndim == 1:
        return float(abs(np.vdot(_W, state)) ** 2)
    return float(abs(_W.conj() @ state @ _W))


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


def _whole(name: str, value) -> int:
    """value as an int; ValueError unless it is a whole number, which int()
    alone would not check (it truncates 150.7 to 150)."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _step_count(n_steps) -> int:
    """n_steps as an int; ValueError unless it is a whole number, at least 100."""
    n_steps = _whole("n_steps", n_steps)
    if n_steps < 100:
        raise ValueError(f"n_steps must be at least 100, got {n_steps}")
    return n_steps


def _frame_count(n_frames) -> int:
    """n_frames as an int; ValueError unless it is a whole number from 2 to MAX_FRAMES."""
    n_frames = _whole("n_frames", n_frames)
    if not 2 <= n_frames <= MAX_FRAMES:
        raise ValueError(f"n_frames must be 2 to {MAX_FRAMES}, got {n_frames}")
    return n_frames


def _frame_indices(n_steps: int, n_frames) -> np.ndarray:
    """The distinct steps of n_frames evenly spaced ones, 0 and n_steps included.

    n_frames is refused as _frame_count refuses it; more than n_steps + 1
    keeps every step. Rounded linspace is nondecreasing, so dropping
    consecutive repeats leaves np.unique's result without the numpy.ma
    import np.unique costs.
    """
    n_frames = _frame_count(n_frames)
    steps = np.linspace(0, n_steps, min(n_frames, n_steps + 1)).round().astype(int)
    return steps[np.concatenate(([True], steps[1:] != steps[:-1]))]


def _per_point(name: str, value, batch: int) -> np.ndarray:
    """A scalar or (B,) value as one entry per point; ValueError, naming it, for any other shape."""
    v = np.asarray(value)
    if v.shape not in ((), (batch,)):
        raise ValueError(
            f"{name} must be a scalar or have one entry per point, got shape {v.shape}"
        )
    return np.broadcast_to(v, (batch,))


def _steps(n_steps, duration, batch: int):
    """(n, durations, h): n_steps as _step_count takes it, one duration per
    point (_per_point) and their _step_size; ValueError unless each duration
    is finite and positive, since a zero, negative or non-finite one steps
    nowhere, backwards or into nan."""
    n = _step_count(n_steps)
    d = _per_point("duration", np.asarray(duration, dtype=float), batch)
    if not ((d > 0) & (d < math.inf)).all():
        raise ValueError(f"duration must be finite and positive, got {duration}")
    return n, d, _step_size(d, n)


def _step_size(durations: np.ndarray, n_steps: int):
    """h = duration / n_steps: one Python float when every point has the same
    duration, else one per point shaped (B, 1, 1) to scale a batch of
    states. The propagators build their RK4 coefficients from it once per
    run, each in its cheapest form, which each propagator's docstring
    gives; every form gives the same bytes, since each product is
    elementwise on the same operands.
    """
    if len(set(durations.tolist())) == 1:
        return float(durations[0]) / n_steps
    return (durations / n_steps)[:, None, None]


class _Frames:
    """Each point's stored frames: only its own _frame_indices(n, n_frames_b).

    stored[b] is point b's own (frames, *state) array, whose frame 0 is its
    row of the live state buffer when the run starts. steps is the set of
    steps after 0 that some point keeps, and store(step), for one of them,
    copies the live row of each point that keeps step into its frame for
    it, one assignment per point and nothing else, since it runs inside the
    step loop. A diverged run is judged once, after its last step: check raises
    ConvergenceError at the earliest stored frame that is not finite, which
    no later step can mend and no gate can judge.
    """

    def __init__(self, n_steps: int, n_frames, live: np.ndarray):
        counts = _per_point("n_frames", n_frames, len(live)).tolist()
        keeps = {c: _frame_indices(n_steps, c) for c in sorted(set(counts))}
        self.keep, self.stored, self._at = [keeps[c] for c in counts], [], {}
        for keep, row in zip(self.keep, live):
            frames = np.empty((len(keep), *row.shape), live.dtype)
            frames[0] = row
            self.stored.append(frames)
            for frame, step in zip(frames[1:], keep[1:].tolist()):
                self._at.setdefault(step, []).append((frame, row))
        self.steps = frozenset(self._at)

    def store(self, step: int) -> None:
        for frame, row in self._at[step]:
            frame[...] = row

    def check(self, states: list) -> None:
        """ConvergenceError unless every point's stored states (one array of
        frames per point) are finite. It names the earliest stored step that
        is not, and the first point that is not finite there."""
        diverged = []
        for b, (keep, frames) in enumerate(zip(self.keep, states)):
            finite = np.isfinite(frames.reshape(len(frames), -1)).all(axis=1)
            if not finite.all():
                diverged.append((int(keep[np.argmin(finite)]), b))
        if diverged:
            step, b = min(diverged)
            raise ConvergenceError(f"state is not finite after {step} steps{_which(b, states)}", b)


def _trajectory(keep: list, states: list, final, drift, min_eig, n_steps: int, durations) -> Trajectory:
    """Package each point's stored states, kept at steps keep; fidelities
    are taken point by point."""
    nodes = {d: node_times(n_steps, d) for d in set(durations.tolist())}
    times = [nodes[d][2 * k] for d, k in zip(durations.tolist(), keep)]
    return Trajectory(
        times=times,
        states=states,
        fidelities=[np.array([fidelity(s) for s in point]) for point in states],
        populations=[
            np.abs(st) ** 2 if st.ndim == 2 else np.real(np.diagonal(st, axis1=-2, axis2=-1))
            for st in states
        ],
        final_state=final,
        drift=drift,
        min_eigenvalue=min_eig,
        n_steps=n_steps,
    )


def _which(b: int, values: np.ndarray) -> str:
    """Names point b in an error message when the batch has more than one."""
    return f" (batch point {b})" if len(values) > 1 else ""


def _drift(what: str, values: list, tol: float, n_steps: int) -> np.ndarray:
    """|value - 1| per point, value its norm or trace; ConvergenceError,
    naming the worst point, unless every one is within tol."""
    drift = np.array([abs(v - 1.0) for v in values])
    b = int(np.argmax(drift))
    if not drift[b] <= tol:
        message = f"{what} drift {drift[b]:.3e} exceeds {tol:.0e} after {n_steps} steps"
        raise ConvergenceError(message + _which(b, drift), b)
    return drift


_RK4_WEIGHTS = np.array([[1.0, 2.0, 2.0, 1.0]] * 2)  # k1 + 2 k2 + 2 k3 + k4, twice: a GEMM


def _rk4(
    H, h_fn, bind, x: np.ndarray, batch: int, n: int, half, whole, sixth, frames, shared=False
) -> None:
    """Advance x in place through n RK4 steps, storing the steps frames keeps.

    x is the live state buffer of a batch of batch points, which the next
    step overwrites, so frames.store copies whatever it keeps; it is called
    after the steps in frames.steps and no other (_Frames). half, whole and
    sixth are the propagator's RK4 coefficients, each a Python scalar or an
    array of x's shape. bind(src, dst) returns the right-hand side f(H)
    that writes the slope at state src into dst; bind runs once per stage,
    before stepping, so a kernel builds its views of the buffers once. H is
    node 0's stack, which the propagator fetched to choose its kernel, and
    h_fn is called for every later node, once each, in increasing k. Every
    node's stack is checked, node 0's included: shared says the kernel
    takes the products once for the whole batch, so every node must then be
    a batch-stride-0 stack. The loop tests the accepted case inline (a
    plain ndarray whose dtype is the float64 instance, of shape
    (batch, 10, 10), with batch stride 0 when shared) and calls checked,
    which refuses with its message or accepts a subclass, only when that
    test fails. The stage state, the four slopes (the rows of one
    (4, *x.shape) buffer) and the accumulator are allocated here, once, and
    nothing is allocated inside the step loop. x is the propagator's own
    copy of its initial state, so neither that state nor an earlier call's
    result is written.

    The slopes are summed by one np.dot GEMM, _RK4_WEIGHTS @ slopes on
    their float64 views, at every batch size, into a (2, *x.shape) buffer
    whose row 0 is the accumulator, then scaled and added to x: three numpy
    calls where the elementwise combination takes seven. The weights 1 and 2 make every
    product exact, and the two-row product is a GEMM, whose K loop adds the
    four slopes left to right, so the sum is ((k1 + 2 k2) + 2 k3) + k4 bit
    for bit. Each sum and product is then the one of
    x + sixth * (k1 + 2 k2 + 2 k3 + k4) with its operands swapped at most,
    which leaves IEEE results bit for bit alike. A one-row product would be
    a gemv, which OpenBLAS's Haswell and Zen kernels do not sum in row
    order. tests/reference_kernels.py keeps the elementwise combination, and
    test_steps_match_the_stepwise_reference_bit_for_bit (tests/test_dynamics.py)
    pins both propagators to it bit for bit. The GEMM order holds on
    OpenBLAS's SkylakeX, Haswell, Zen and Sandybridge kernels, and CI runs
    the pins under each of them (OPENBLAS_CORETYPE; SkylakeX only on a
    runner with AVX-512) as well as on the runner's own core. Nehalem's GEMM
    adds K in another order, so there the pins fail: a BLAS that sums in
    another order fails them rather than change outputs silently.
    """
    y = np.empty_like(x)
    slopes = np.empty((4, *x.shape), dtype=x.dtype)
    sums = np.empty((2, *x.shape), dtype=x.dtype)
    acc = sums[0]
    weighted, summed = (a.view(np.float64).reshape(len(a), -1) for a in (slopes, sums))
    k1, k2, k3, k4 = slopes
    f1, f2, f3, f4 = bind(x, k1), bind(y, k2), bind(y, k3), bind(y, k4)
    # A step is about 21 numpy calls on tens to hundreds of doubles, so the
    # interpreter around each call costs about as much as its arithmetic.
    # Each ufunc is therefore a local name given its output positionally (a
    # keyword out= costs about 45 ns more per call), H is tested inline
    # against names bound here, once (the dtype by identity with the
    # float64 instance), and store runs only at kept steps. The operations,
    # operands and order are those of the plain form, and so are the bytes.
    multiply, add, dot = np.multiply, np.add, np.dot
    ndarray, real, shape = np.ndarray, np.dtype(np.float64), (batch, DIM, DIM)
    store, kept = frames.store, frames.steps

    def checked(H, k: int) -> np.ndarray:
        """H, node k's stack, checked: a float64 array, since the kernels
        view H as real, with one H per point, since matmul would broadcast a
        shorter stack over the whole batch, and, for a shared kernel, one H
        for them all."""
        if not (isinstance(H, np.ndarray) and H.dtype == real):
            raise ValueError("h_fn must return real symmetric float64 Hamiltonians")
        if H.shape != shape:
            raise ValueError(
                f"h_fn must return one Hamiltonian per point, shape "
                f"{shape}, got {H.shape} at node {k}"
            )
        if shared and H.strides[0]:
            raise ValueError(
                f"h_fn returned one shared Hamiltonian (a batch-stride-0 stack) at node 0 "
                f"and must at every node, got a stack with batch stride {H.strides[0]} at node {k}"
            )
        return H

    H = checked(H, 0)
    for step in range(1, n + 1):
        f1(H)
        k = 2 * step - 1
        H = h_fn(k)
        if not (type(H) is ndarray and H.dtype is real and H.shape == shape) or shared and H.strides[0]:
            H = checked(H, k)
        multiply(half, k1, y)
        add(y, x, y)
        f2(H)
        multiply(half, k2, y)
        add(y, x, y)
        f3(H)
        H = h_fn(k + 1)
        if not (type(H) is ndarray and H.dtype is real and H.shape == shape) or shared and H.strides[0]:
            H = checked(H, k + 1)
        multiply(whole, k3, y)
        add(y, x, y)
        f4(H)
        dot(_RK4_WEIGHTS, weighted, summed)
        multiply(acc, sixth, acc)
        add(x, acc, x)
        if step in kept:
            store(step)


def propagate_schrodinger(
    h_fn,
    psi0: np.ndarray,
    n_steps: int,
    duration: float | np.ndarray = 1.0,
    n_frames: int | list = 2,
) -> Trajectory:
    """Fixed-step RK4 on i dpsi/dt = H(t) psi for a batch of states; no renormalization.

    psi0 has shape (P, 10), P points, n_steps is a whole number of at least
    100, and duration and n_frames are scalars or one value per point; any
    other shape, a duration that is not finite and positive, or an n_frames
    that is not a whole number from 2 to MAX_FRAMES raises ValueError, and more
    than n_steps + 1 frames keeps every step. h_fn(k) returns the (P, 10, 10)
    real symmetric float64 Hamiltonians at node k, point b's at node k of
    node_times(n_steps, duration_b); any other shape raises it too.
    It is called as the stream the module docstring describes. The
    right-hand side is one matmul: H psi as one real product on the float64
    view of psi, (10, 10) @ (10, 2) per point, with the -i in the RK4
    coefficients -i h/2, -i h and -i h/6, each a complex array of the
    state's (P, 10, 1) shape built once per call, whether the points share
    one duration or not. Written out, a product with one costs less than
    with _step_size's scalar or (P, 1, 1) form (timeit minima: 0.5 against
    0.9 us at the closed coupling sweep's 30 points of one duration, 0.8
    against 1.7 us at reproduce all's 60 of mixed ones). Every product is
    taken point by point, so a point's result does not depend on the batch
    it runs in. The stored frames are checked for finiteness after the last
    step (_Frames.check), then the norm is gated, both before the run is
    packaged.
    """
    psi = np.array(psi0, dtype=complex, order="C")  # C order: the kernel views it as float64
    if psi.ndim != 2 or psi.shape[1] != DIM:
        raise ValueError(f"psi0 must have shape (P, {DIM})")
    if not np.isfinite(psi).all():
        raise ValueError("psi0 must be finite")
    if any(not abs(np.linalg.norm(p) - 1.0) <= 1e-9 for p in psi):
        raise ValueError("psi0 must be normalized")
    n, durations, h = _steps(n_steps, duration, len(psi))
    x = psi[..., None]  # RK4 advances psi in place, through its (P, 10, 1) view
    # The stages are H psi; the -i of dpsi/dt = -i H psi rides on the RK4
    # coefficients. A product with -i only swaps parts and flips a sign, so
    # this gives the bytes of stages -i H psi with real coefficients.
    coefficients = -1j * (0.5 * h), -1j * h, -1j * (h / 6.0)
    half, whole, sixth = (np.broadcast_to(c, x.shape).copy() for c in coefficients)
    frames = _Frames(n, n_frames, psi)

    def bind(src: np.ndarray, dst: np.ndarray):
        # (P, 10, 10) @ (P, 10, 2): real and imaginary parts in one product.
        p, out, matmul = src.view(np.float64), dst.view(np.float64), np.matmul
        return lambda H: matmul(H, p, out)

    # A diverging run overflows to inf and nan, which the check of its stored
    # frames rejects with ConvergenceError after the last step; float warnings
    # on the way only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4(h_fn(0), h_fn, bind, x, len(psi), n, half, whole, sixth, frames)
    frames.check(frames.stored)
    drift = _drift("norm", [np.linalg.norm(p) for p in psi], NORM_TOL, n)
    return _trajectory(frames.keep, frames.stored, psi, drift, None, n, durations)


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


def _last_minimum(values: np.ndarray) -> float:
    """The minimum of values, as np.minimum folds them in order: a tie keeps
    the later value, which decides between 0.0 and -0.0."""
    return values[len(values) - 1 - np.argmin(values[::-1])]


def _unpack(m: np.ndarray) -> np.ndarray:
    """rho = (M + M^T)/2 + i (M - M^T)/2 from the packed M = Re rho + Im rho;
    exactly Hermitian, whatever M is."""
    mt = m.swapaxes(-1, -2)
    rho = np.empty(m.shape, dtype=complex)
    rho.real = 0.5 * (m + mt)
    rho.imag = 0.5 * (m - mt)
    return rho


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The (B, 10, 1) strided view of the diagonals of a (B, 10, 10) buffer."""
    return a.reshape(-1, DIM * DIM)[:, :: DIM + 1][..., None]


def _point_innermost_diagonal(a: np.ndarray) -> np.ndarray:
    """The (B, 10, 1) strided view of the diagonals of a (10, 10, B) buffer."""
    return a.reshape(DIM * DIM, -1)[:: DIM + 1].T[..., None]


def propagate_lindblad(
    h_fn,
    noises,
    rho0: np.ndarray,
    n_steps: int,
    duration: float | np.ndarray = 1.0,
    n_frames: int | list = 2,
) -> Trajectory:
    """Fixed-step RK4 on the Lindblad master equation for B density matrices.

    rho0 has shape (B, 10, 10). noises gives one NoiseModel per point, whose
    17 operators (lindblad_operators) enter only through the stacked gain
    and scatter tables (_dissipator_tables). h_fn, duration and n_frames
    follow the contract of propagate_schrodinger. After the last step the
    stored frames are checked for finiteness (_Frames.check), then trace
    and positivity are gated, the latter over each point's own stored
    frames by one eigvalsh call per point (LAPACK decomposes each matrix
    alone, whatever the stack); all this happens before the run is packaged.

    rho0 is symmetrized once on entry, and rho = A + iB (A real symmetric,
    B real antisymmetric) is integrated as the one real matrix
    M = A + B = Re rho + Im rho. For real symmetric H, the real symmetric
    gain table G and the real population scatter S it obeys

        dM/dt = [H, M]^T + G o M + S diag(M)   (the last term on the diagonal)

    which takes two real products per RK4 stage and does every elementwise
    op on half the bytes of the complex rho. Frames are stored as copies of
    M and, after the last step, each point's frames are unpacked by one
    call, as is the final state, as rho = (M + M^T)/2 + i (M - M^T)/2, which
    is exactly Hermitian. Frame 0 stays the symmetrized rho0. The RK4
    coefficients h/2, h and h/6 are Python floats when the points share one
    duration, as every open batch of reproduce all and verify does, where
    an array is slower (timeit minima: 1.58 against 2.58 us a product at
    reproduce all's 38 open points). When they do not, they are float
    arrays of the state's shape, in its kernel's layout (_step_size).

    The right-hand side writes its slope through output arguments into
    buffers allocated once per call. BLAS writes both products through
    transposed outputs (np.matmul(H, M, out=hm_t.swapaxes(1, 2))), so the
    scratch holds (HM)^T and (MH)^T contiguously, the commutator writes the
    contiguous hm_t - mh_t straight into the slope, and no call reads or
    writes a strided matrix; each entry of a product written that way is the
    same dot product. Whether the batch has noise is decided once, from its
    stacked tables. Without any (verify's zero-noise point) the commutator
    is the whole right-hand side, three numpy calls; the skipped dissipator
    would only add zeros, so a point's bytes are the same whichever
    right-hand side its batch runs. With any noise the slope is the
    commutator plus the dissipator: the gain and scatter products write the
    dissipator into the spent hm_t and one add sums it in, six calls. IEEE
    addition commutes bit for bit (c + d == d + c, zeros included), so this
    has the bytes of the reference's dissipator + commutator. The gain
    table's diagonal is folded into the scatter table once per call, so the
    scatter product writes the dissipator's whole diagonal over the zeros
    the gain product left there. That keeps every byte because no state
    both gains and loses population by jumps: the states a jump lands on
    have a gain diagonal of exactly 0 and the jump sources receive no
    scatter, so each diagonal entry adds the same two terms as before. A
    cascade jump would break this and change the rounding;
    test_no_state_both_loses_and_gains_population_by_jumps pins the
    condition. Dephasing alone leaves a gain diagonal of exactly 0 and no
    scatter, so such a batch (fig7's open points) runs the same six calls.

    A batch of one point (verify's open point) takes its two products with
    np.dot on the 2-D views, as np.dot(M^T, H) into (HM)^T and np.dot(H,
    M^T) into (MH)^T, since np.dot writes only C-contiguous outputs.
    np.matmul's transposed output hands BLAS H^T where np.dot hands it H,
    the same operand for a symmetric H, so each is the same cblas_dgemm
    product with less dispatch (timeit minima: 1.3 against 1.9 us for the
    two products). Its scatter product keeps np.matmul, which writes the
    strided diagonal. tests/reference_kernels.py keeps the
    strided transposed add and the strided diagonal add, and
    test_steps_match_the_stepwise_reference_bit_for_bit pins both kernels to
    them bit for bit, each alone and in mixed batches.

    A batch of more than DIM points whose node-0 stack has batch stride 0
    (table1's 17 open rows, run alone) sees one H (the module docstring's
    rule) and runs the point-innermost kernel. M, the gain table and the
    scratch are held in (row, col, point) layout, and (HM)^T is
    np.matmul(H, M.transpose(1, 0, 2), hm_t) and
    (MH)^T np.matmul(H, M, mh_t.transpose(1, 0, 2)): each is DIM GEMMs of
    (10, 10) @ (10, B) where the per-point kernel takes B GEMMs of
    (10, 10) @ (10, 10), and both land in the state's own layout, so the
    commutator is still one contiguous subtract. Both kernels do the same
    flops, but the shared one makes 2 DIM BLAS calls per commutator where
    the per-point one makes 2 B, hence B > DIM. The scatter stays one
    per-point gemv, through (B, 10, 1) strided diagonal views, and a
    per-point step size is written out over the (10, 10, B) state, so it
    lies along the point axis. _Frames stores through
    the (B, 10, 10) transposed view, so the stored frames, their unpacking,
    eigvalsh and the gates are those of the per-point kernel. The bytes
    agree: each entry of (HM)^T and (MH)^T is the same 10-term dot product,
    its factors at most swapped (H is symmetric), summed over K in the same
    order in either GEMM shape, and every elementwise op sees the same
    operands. test_a_shared_hamiltonian_is_bitwise_its_stacked_copy pins
    this against the per-point kernel and the stepwise reference, and CI
    runs it on each OpenBLAS core type, as _rk4's pins.
    """
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (DIM, DIM):
        raise ValueError(f"rho0 must have shape (B, {DIM}, {DIM})")
    if not np.isfinite(rho).all():
        raise ValueError("rho0 must be finite")
    for r in rho:
        if not (abs(np.trace(r).real - 1.0) <= 1e-9 and np.max(np.abs(r - r.conj().T)) <= 1e-9):
            raise ValueError("rho0 must be Hermitian with unit trace")
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    if len(noises) != len(rho):
        raise ValueError(f"need one NoiseModel per point, got {len(noises)} for {len(rho)}")
    gain, scatter = (np.stack(t) for t in zip(*map(_dissipator_tables, noises)))
    noisy = bool(gain.any() or scatter.any())
    n, durations, h = _steps(n_steps, duration, len(rho))
    m = rho.real + rho.imag
    if noisy:  # the fold
        _diagonal(scatter)[...] += _diagonal(gain)
        _diagonal(gain)[...] = 0.0
    H = h_fn(0)
    shared = len(m) > DIM and isinstance(H, np.ndarray) and H.strides[:1] == (0,)
    if shared:  # the state, the gain table and the scratch in (row, col, point) layout
        x, gain = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (m, gain))
        m = x.transpose(2, 0, 1)
        diagonal = _point_innermost_diagonal
    else:
        x, diagonal = m, _diagonal
    if not isinstance(h, float):  # one step size per point, written out over the state
        h = np.broadcast_to(h.reshape(-1) if shared else h, x.shape).copy()
    hm_t, mh_t = np.empty_like(x), np.empty_like(x)

    def bind(src: np.ndarray, dst: np.ndarray):
        # Local ufuncs and positional outputs, as in _rk4's loop.
        matmul, subtract, multiply, add = np.matmul, np.subtract, np.multiply, np.add

        if shared:  # DIM GEMMs of (10, 10) @ (10, B) per product
            src_t, mh = src.transpose(1, 0, 2), mh_t.transpose(1, 0, 2)

            def commutator(H: np.ndarray) -> None:
                H = H[0]
                matmul(H, src_t, hm_t)
                matmul(H, src, mh)
                subtract(hm_t, mh_t, dst)

        elif len(src) == 1:  # (HM)^T = M^T H and (MH)^T = H M^T, as H is symmetric
            dot, m_t, hm_1, mh_1 = np.dot, src[0].T, hm_t[0], mh_t[0]

            def commutator(H: np.ndarray) -> None:
                H = H[0]
                dot(m_t, H, hm_1)
                dot(H, m_t, mh_1)
                subtract(hm_t, mh_t, dst)

        else:
            hm, mh = hm_t.swapaxes(1, 2), mh_t.swapaxes(1, 2)

            def commutator(H: np.ndarray) -> None:
                matmul(H, src, hm)
                matmul(src, H, mh)
                subtract(hm_t, mh_t, dst)

        if not noisy:
            return commutator
        pops, diag = diagonal(src), diagonal(hm_t)

        def rhs(H: np.ndarray) -> None:
            commutator(H)
            multiply(gain, src, hm_t)
            matmul(scatter, pops, diag)
            add(dst, hm_t, dst)

        return rhs

    frames = _Frames(n, n_frames, m)
    with np.errstate(over="ignore", invalid="ignore"):  # as in propagate_schrodinger
        _rk4(H, h_fn, bind, x, len(m), n, 0.5 * h, h, h / 6.0, frames, shared)
        # One unpack per point's stored frames; a diverged M unpacks to inf and nan.
        states = [_unpack(stored) for stored in frames.stored]
    for state, r in zip(states, rho):
        state[0] = r  # the symmetrized rho0, which M = Re rho + Im rho only rounds
    frames.check(states)  # before eigvalsh, which cannot judge nan
    min_eig = np.array([_last_minimum(np.linalg.eigvalsh(s).min(axis=-1)) for s in states])

    rho = _unpack(m)
    drift = _drift("trace", [np.trace(r).real for r in rho], TRACE_TOL, n)
    b = int(np.argmin(min_eig))
    if not min_eig[b] >= EIG_TOL:
        message = f"density matrix eigenvalue {min_eig[b]:.3e} below {EIG_TOL:.0e}"
        raise ConvergenceError(message + _which(b, min_eig), b)
    return _trajectory(frames.keep, states, rho, drift, min_eig, n, durations)
