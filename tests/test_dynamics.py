"""Integrators checked against matrix exponentials, a superoperator oracle,
and analytic decay laws."""

import itertools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import reference_kernels
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from single_point import one_point

import squidw
from squidw.dynamics import (
    EIG_TOL,
    MAX_FRAMES,
    ConvergenceError,
    NoiseModel,
    TRACE_TOL,
    _dissipator_tables,
    _frame_indices,
    _last_minimum,
    _step_count,
    fidelity,
    lindblad_operators,
    node_times,
    propagate_lindblad,
    propagate_schrodinger,
)
from squidw.pulse_design import (
    ScheduleParams,
    dressed_pulses,
    gaussian_fit_pulses,
    stirap_pulses,
)
from squidw.state_space import (
    DIM,
    GROUND,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI5,
    PSI7,
    PSI8,
    basis_state,
    cavity_hamiltonian,
    drive_hamiltonian,
    w_state,
)


def _gaussian_h(g: float):
    hc = cavity_hamiltonian(g)
    sch = gaussian_fit_pulses(ScheduleParams())
    return lambda t: hc + drive_hamiltonian(sch.qubit_amplitudes(t))


def _random_density(rng) -> np.ndarray:
    a = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# jump operator structure


def test_lindblad_operator_count_and_order():
    noise = NoiseModel(kappa=2.0, gamma=1.0, gamma_phi=0.5)
    ops = lindblad_operators(noise)
    assert len(ops) == 17
    sg = math.sqrt(1.0)
    # decays |e> -> |1>: qubit 1 sends PSI4 to PSI7, qubit 4 sends PSI2 to PSI1
    assert ops[0][PSI7, PSI4] == sg and np.count_nonzero(ops[0]) == 1
    assert ops[3][PSI1, PSI2] == sg
    # decays |e> -> |0>: everything lands in GROUND
    assert ops[4][GROUND, PSI4] == sg
    assert ops[7][GROUND, PSI2] == sg
    # cavity loss comes last
    assert ops[16][GROUND, PSI3] == pytest.approx(math.sqrt(2.0))
    assert np.count_nonzero(ops[16]) == 1


def test_dephasing_operators_are_balanced_diagonals():
    noise = NoiseModel(gamma_phi=0.5)
    ops = lindblad_operators(noise)
    sp = math.sqrt(0.25)
    d_e1_q1 = np.real(np.diag(ops[8]))  # e/1 dephasing on qubit 1
    assert d_e1_q1[PSI4] == pytest.approx(sp)
    assert d_e1_q1[PSI7] == pytest.approx(-sp)
    assert d_e1_q1[GROUND] == 0.0
    d_e0_q1 = np.real(np.diag(ops[12]))  # e/0 dephasing on qubit 1
    assert d_e0_q1[PSI4] == pytest.approx(sp)
    assert d_e0_q1[PSI7] == 0.0
    assert d_e0_q1[GROUND] == pytest.approx(-sp)
    # zero-rate models still give 17 well-formed (zero) operators
    assert all(np.max(np.abs(op)) == 0.0 for op in lindblad_operators(NoiseModel()))


# ---------------------------------------------------------------------------
# batched call contract


def test_batched_propagators_keep_the_call_contract():
    """One call integrates the batch: one Trajectory with the integer step
    count, per-point endpoint diagnostics, and h_fn called exactly once per
    RK4 node, in increasing k = 0, 1, ..., 2n."""
    n = 120
    sch = gaussian_fit_pulses(ScheduleParams())
    hc = np.stack([cavity_hamiltonian(g) for g in (5.0, 10.0, 20.0)])
    nodes = node_times(n, 1.0)
    calls = []

    def h_fn(k):
        calls.append(k)
        return hc + drive_hamiltonian(sch.qubit_amplitudes(nodes[k]))

    psi0 = np.tile(basis_state(PSI1), (3, 1))
    traj = propagate_schrodinger(h_fn, psi0, n)
    assert calls == list(range(2 * n + 1))
    assert type(traj.n_steps) is int and traj.n_steps == n
    assert traj.final_state.shape == (3, DIM) and traj.drift.shape == (3,)
    assert traj.min_eigenvalue is None
    for b in range(3):
        alone = propagate_schrodinger(lambda k: h_fn(k)[b : b + 1], psi0[b : b + 1], n)
        assert np.array_equal(alone.final_state[0], traj.final_state[b])
        assert alone.drift[0] == traj.drift[b]

    calls.clear()
    noises = [NoiseModel(kappa=k, gamma_phi=0.1) for k in (0.5, 1.0, 2.0)]
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (3, 1, 1))
    traj = propagate_lindblad(h_fn, noises, rho0, n, n_frames=4)
    assert calls == list(range(2 * n + 1))
    assert type(traj.n_steps) is int and traj.n_steps == n
    assert traj.final_state.shape == (3, DIM, DIM)
    assert traj.drift.shape == traj.min_eigenvalue.shape == (3,)
    assert len(traj.states) == len(traj.fidelities) == 3
    assert all(s.shape == (4, DIM, DIM) for s in traj.states)
    assert all(f.shape == (4,) for f in traj.fidelities)
    one = traj.point(1)
    assert isinstance(one.drift, float) and isinstance(one.min_eigenvalue, float)
    assert np.array_equal(one.final_state, traj.final_state[1])
    # each per-frame field is a list of B arrays, point(b)'s own, whether
    # the points store equal frame counts or mixed ones
    mixed = propagate_lindblad(h_fn, noises, rho0, n, n_frames=[2, 5, 11])
    for run, counts in ((traj, [4, 4, 4]), (mixed, [2, 5, 11])):
        for name in ("times", "states", "fidelities", "populations"):
            field = getattr(run, name)
            assert type(field) is list and len(field) == 3
            assert all(field[b] is getattr(run.point(b), name) for b in range(3))
        assert [len(t) for t in run.times] == counts
    # more cavity loss, less photon population left at the end
    photon = traj.final_state[:, PSI3, PSI3].real
    assert photon[0] > photon[1] > photon[2]


def test_h_fn_may_overwrite_the_array_it_returned():
    """The propagators use each H before the next h_fn call, so an h_fn that
    rewrites one buffer in place gives the same bytes as one that returns a
    fresh array each call, on a batch of mixed durations and frame counts."""
    n_steps = 150
    durations = np.array([1.0, 0.9, 1.1])
    sch = gaussian_fit_pulses(ScheduleParams())
    hc = np.stack([cavity_hamiltonian(g) for g in (10.0, 20.0, 30.0)])
    nodes = [node_times(n_steps, d) for d in durations]

    def fresh(k):
        return hc + np.stack([drive_hamiltonian(sch.qubit_amplitudes(t[k])) for t in nodes])

    buffer = np.empty_like(hc)

    def in_place(k):
        buffer[...] = fresh(k)
        return buffer

    psi0 = np.tile(basis_state(PSI1), (3, 1))
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (3, 1, 1))
    noises = [NoiseModel(kappa=k, gamma=0.2, gamma_phi=0.1) for k in (0.5, 1.0, 2.0)]
    for propagate, args in ((propagate_schrodinger, (psi0,)), (propagate_lindblad, (noises, rho0))):
        a, b = (
            propagate(h_fn, *args, n_steps, duration=durations, n_frames=[2, 5, 11])
            for h_fn in (fresh, in_place)
        )
        assert np.array_equal(a.final_state, b.final_state)
        assert np.array_equal(a.drift, b.drift)
        if a.min_eigenvalue is not None:
            assert np.array_equal(a.min_eigenvalue, b.min_eigenvalue)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa, sb)


def test_in_place_stepping_leaves_inputs_frames_and_results_alone():
    """The state is advanced in place, so check that it never aliases what
    the caller gave or got: the initial state is untouched, a frame stored
    mid-run is the exact final state of a run stopped there (later steps do
    not overwrite it), and a second call leaves the first one's result as
    it was."""
    sch = gaussian_fit_pulses(ScheduleParams())
    hc = np.stack([cavity_hamiltonian(g) for g in (10.0, 30.0)])
    # 200 steps over 1.0 and 100 over 0.5 share h = 0.005 and nodes k h / 2
    nodes = node_times(200, 1.0)

    def h_fn(k):
        return hc + drive_hamiltonian(sch.qubit_amplitudes(nodes[k]))

    psi0 = np.tile(basis_state(PSI1), (2, 1))
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (2, 1, 1))
    noises = [NoiseModel(kappa=k, gamma=0.2, gamma_phi=0.1) for k in (0.5, 1.0)]
    for propagate, state0, pre in ((propagate_schrodinger, psi0, ()), (propagate_lindblad, rho0, (noises,))):
        given_state = state0.copy()
        full = propagate(h_fn, *pre, state0, 200, duration=1.0, n_frames=3)
        assert np.array_equal(state0, given_state)
        frames = lambda traj: b"".join(s.tobytes() for s in traj.states)
        kept = full.final_state.tobytes(), frames(full)
        half = propagate(h_fn, *pre, state0, 100, duration=0.5)
        assert full.times[0][1] == half.times[0][-1] == 0.5
        assert np.stack([s[1] for s in full.states]).tobytes() == half.final_state.tobytes()
        assert (full.final_state.tobytes(), frames(full)) == kept


@pytest.mark.parametrize("bad_node", [1, 2 * 57 + 1, 2 * 120])
def test_every_node_passes_the_float64_check(bad_node):
    """An h_fn that turns complex mid-run is refused at that node, an odd
    one or the last, by both propagators: the check is not made on node 0
    alone."""
    n_steps = 120
    hc = cavity_hamiltonian(10.0)[None]
    h_fn = lambda k: hc.astype(complex) if k == bad_node else hc
    psi0 = basis_state(PSI1)[None]
    rho0 = np.outer(psi0[0], psi0[0].conj())[None]
    with pytest.raises(ValueError, match="float64"):
        propagate_schrodinger(h_fn, psi0, n_steps)
    with pytest.raises(ValueError, match="float64"):
        propagate_lindblad(h_fn, [NoiseModel(kappa=0.5)], rho0, n_steps)


def test_a_mis_sized_hamiltonian_stack_is_refused():
    """h_fn returns one H per point; a stack of any other length, or a
    single H that matmul would broadcast over the whole batch, is refused by
    both propagators, at whichever node it appears."""
    n_steps = 100
    hc = cavity_hamiltonian(1.0)
    psi0 = np.tile(basis_state(PSI1), (3, 1))
    rho0 = np.tile(np.outer(psi0[0], psi0[0].conj()), (3, 1, 1))
    runs = (
        lambda h_fn: propagate_schrodinger(h_fn, psi0, n_steps),
        lambda h_fn: propagate_lindblad(h_fn, [NoiseModel(kappa=0.5)] * 3, rho0, n_steps),
    )
    good = np.stack([hc] * 3)
    for run in runs:
        for bad in (hc, hc[None], np.stack([hc] * 2), np.stack([hc] * 30)):
            with pytest.raises(ValueError, match="one Hamiltonian per point,"):
                run(lambda k: bad)
        run(lambda k: good)
        # the shape is checked at every node: a stack that changes length
        # mid-run, at an odd node or the last, is refused at that node
        for node, bad in itertools.product((1, 2 * 57 + 1, 2 * 100), (hc, good[:2])):
            message = f"shape (3, {DIM}, {DIM}), got {bad.shape} at node {node}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                run(lambda k: bad if k == node else good)
    # A batch-stride-0 stack at node 0 means one H for every point, from
    # which a batch of more than DIM points takes each product once for the
    # whole batch; a full stack at a later node, odd or the last, is refused
    # at that node. At DIM points the per-point kernel runs, and takes both.
    for batch, node in itertools.product((DIM + 1, 17), (1, 2 * n_steps)):
        shared, full = np.broadcast_to(hc, (batch, DIM, DIM)), np.stack([hc] * batch)
        h_fn = lambda k: full if k == node else shared
        rho = np.tile(rho0[:1], (batch, 1, 1))
        message = f"got a stack with batch stride {full.strides[0]} at node {node}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            propagate_lindblad(h_fn, [NoiseModel(kappa=0.5)] * batch, rho, n_steps)
        propagate_lindblad(lambda k: h_fn(k)[:DIM], [NoiseModel(kappa=0.5)] * DIM, rho[:DIM], n_steps)


# ---------------------------------------------------------------------------
# closed-system propagation


def test_no_drive_leaves_initial_state_alone():
    hc = cavity_hamiltonian(30.0)
    traj = one_point(propagate_schrodinger, lambda t: hc, basis_state(PSI1), 500)
    assert abs(abs(traj.final_state[PSI1]) - 1.0) < 1e-12
    assert fidelity(traj.final_state) < 1e-24


def test_rk4_matches_piecewise_matrix_exponential():
    segments, per_seg = 10, 400
    hc = cavity_hamiltonian(30.0)
    sch = gaussian_fit_pulses(ScheduleParams())
    seg_h = [
        hc + drive_hamiltonian(sch.qubit_amplitudes((i + 0.5) / segments))
        for i in range(segments)
    ]
    psi_exact = basis_state(PSI1)
    psi_rk = basis_state(PSI1)
    for h in seg_h:
        psi_exact = expm(-1j * h / segments) @ psi_exact
        psi_rk = one_point(
            propagate_schrodinger,
            lambda t, h=h: h,
            psi_rk,
            per_seg,
            duration=1.0 / segments,
        ).final_state
    assert np.max(np.abs(psi_rk - psi_exact)) < 1e-8


def test_rk4_is_fourth_order():
    h_fn = _gaussian_h(5.0)
    ref = one_point(propagate_schrodinger, h_fn, basis_state(PSI1), 6400).final_state
    errs = [
        np.linalg.norm(
            one_point(propagate_schrodinger, h_fn, basis_state(PSI1), n).final_state - ref
        )
        for n in (200, 400)
    ]
    assert 13.0 < errs[0] / errs[1] < 19.0


def test_a_diverged_point_is_a_convergence_failure_that_names_it():
    """At g = 1e5 a 100-step run overflows to inf and then nan. Both
    propagators run to their last step and then raise ConvergenceError at
    the earliest stored step that is not finite, naming the first point not
    finite there, before a gate or eigvalsh sees it; the overflow on the way
    raises no float warning (which this suite turns into an error). Each
    case pins the step for the Schrodinger, noiseless and noisy Lindblad
    runs: a point that diverges first but stores only its last step does
    not decide the step, and a tie names the first point."""
    n_steps = 100
    psi = basis_state(PSI4)  # a state the cavity couples
    cases = (
        ((1e5,), 101, (26, 23, 23), 0),
        ((1.0, 1e5), 5, (50, 25, 25), 1),
        ((1.0, 3e4, 1e5), 101, (26, 23, 23), 2),
        ((1.0, 3e4, 1e5), [2, 101, 2], (31, 28, 28), 1),
        ((1e5, 3e4, 1.0), 2, (100, 100, 100), 0),
    )
    for couplings, n_frames, steps, point in cases:
        batch = len(couplings)
        hc = np.stack([cavity_hamiltonian(g) for g in couplings])
        psi0 = np.tile(psi, (batch, 1))
        rho0 = np.tile(np.outer(psi, psi.conj()), (batch, 1, 1))
        runs = (
            (propagate_schrodinger, (psi0,)),
            (propagate_lindblad, ([NoiseModel()] * batch, rho0)),
            (propagate_lindblad, ([NoiseModel(kappa=1.0)] * batch, rho0)),
        )
        named = f" (batch point {point})" if batch > 1 else ""
        for (propagate, args), step in zip(runs, steps):
            with pytest.raises(ConvergenceError) as raised:
                propagate(lambda k: hc, *args, n_steps, n_frames=n_frames)
            assert str(raised.value) == f"state is not finite after {step} steps{named}"
            assert raised.value.point == point
    # the finite point alone passes
    propagate_schrodinger(lambda k: hc[2:], psi0[2:], n_steps)


def test_a_run_that_fails_a_gate_is_not_packaged(monkeypatch):
    """The gates run before the trajectory is packaged, so a failed run
    takes no fidelity of its frames: neither a diverged closed batch nor a
    finite open run whose trace drifted."""
    calls = []
    monkeypatch.setattr(squidw.dynamics, "fidelity", lambda state: calls.append(state))
    n_steps = 100
    hc = np.stack([cavity_hamiltonian(g) for g in (1.0, 1e5)])
    psi0 = np.tile(basis_state(PSI4), (2, 1))
    hc_stiff, sch = cavity_hamiltonian(150.0), stirap_pulses(50.0)
    stiff = lambda t: hc_stiff + drive_hamiltonian(sch.qubit_amplitudes(t))
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1)).astype(complex)
    with pytest.raises(ConvergenceError, match="not finite"):
        propagate_schrodinger(lambda k: hc, psi0, n_steps, n_frames=5)
    with pytest.raises(ConvergenceError, match="trace drift"):
        one_point(propagate_lindblad, stiff, NoiseModel(kappa=1.0), rho0, n_steps, n_frames=5)
    assert calls == []


def test_schrodinger_norm_gate_trips_on_stiff_underresolved_run():
    hc = cavity_hamiltonian(150.0)
    sch = stirap_pulses(50.0)
    h_fn = lambda t: hc + drive_hamiltonian(sch.qubit_amplitudes(t))
    with pytest.raises(ConvergenceError):
        one_point(propagate_schrodinger, h_fn, basis_state(PSI1), 100)


def test_permutation_symmetry_of_closed_dynamics():
    traj = one_point(propagate_schrodinger, _gaussian_h(30.0), basis_state(PSI1), 2000)
    psi = traj.final_state
    for a, b in ((PSI4, PSI5), (PSI7, PSI8)):
        swapped = psi.copy()
        swapped[[a, b]] = swapped[[b, a]]
        # qubits 1-3 are driven identically, so swapping any pair is a symmetry
        assert np.max(np.abs(swapped - psi)) < 1e-9


def test_trajectory_frames_and_populations():
    traj = one_point(
        propagate_schrodinger, _gaussian_h(30.0), basis_state(PSI1), 1000, n_frames=101
    )
    assert len(traj.states) == 101
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.times) > 0)
    pops = traj.populations
    assert pops.shape == (101, DIM)
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-9
    assert traj.fidelities[0] == pytest.approx(0.0, abs=1e-30)
    assert traj.fidelities[-1] > 0.99
    big = one_point(
        propagate_schrodinger, _gaussian_h(10.0), basis_state(PSI1), 1000,
        n_frames=MAX_FRAMES,
    )
    assert len(big.states) == MAX_FRAMES


@pytest.mark.parametrize("open_system", [False, True], ids=["closed", "open"])
def test_propagators_refuse_a_frame_count_outside_2_to_max_frames(open_system):
    """A count outside 2 to MAX_FRAMES is refused, not clamped, for a point
    and for one point of a batch; more frames than steps + 1 store every
    step: a count is judged against MAX_FRAMES alone, not against the grid."""
    n_steps = 100
    hc = cavity_hamiltonian(10.0)
    psi0 = basis_state(PSI1)

    def frames_of(n_frames, batch=1):
        h = np.tile(hc, (batch, 1, 1))
        if open_system:
            rho0 = np.tile(np.outer(psi0, psi0), (batch, 1, 1))
            traj = propagate_lindblad(
                lambda k: h, [NoiseModel(kappa=0.1)] * batch, rho0, n_steps, n_frames=n_frames
            )
        else:
            psi = np.tile(psi0, (batch, 1))
            traj = propagate_schrodinger(lambda k: h, psi, n_steps, n_frames=n_frames)
        return [len(traj.point(b).times) for b in range(batch)]

    for bad in (0, 1, -3, MAX_FRAMES + 1, 10**6):
        with pytest.raises(ValueError, match=f"n_frames must be 2 to {MAX_FRAMES}, got {bad}$"):
            frames_of(bad)
        with pytest.raises(ValueError, match=f"got {bad}$"):
            frames_of([5, bad], batch=2)
    # a fractional count is refused, not truncated
    for bad in (7.5, np.float64(2.25)):
        with pytest.raises(ValueError, match=f"n_frames must be an integer, got {bad}$"):
            frames_of(bad)
        with pytest.raises(ValueError, match=f"n_frames must be an integer, got {bad}$"):
            frames_of([5, bad], batch=2)
    # a list of the wrong length is refused by name, not by numpy's broadcast
    with pytest.raises(ValueError, match="n_frames must be a scalar or have one entry per point"):
        frames_of([5, 6], batch=3)
    assert frames_of(np.int64(7)) == [7] and frames_of(7.0) == [7]
    assert frames_of(MAX_FRAMES) == [101]
    assert frames_of([2, 101, 102], batch=3) == [2, 101, 101]


def test_frame_indices_match_np_unique():
    # rounded linspace is nondecreasing, so dropping consecutive repeats is np.unique
    for n_steps in (100, 101, 333, 1000, 2000):
        for n_frames in (2, 3, 7, 201, 401, n_steps, n_steps + 1, MAX_FRAMES):
            if n_frames > MAX_FRAMES:
                continue
            capped = min(n_frames, n_steps + 1)
            expected = np.unique(np.linspace(0, n_steps, capped).round().astype(int))
            got = _frame_indices(n_steps, n_frames)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (n_steps, n_frames)


def test_integrating_does_not_import_numpy_ma():
    # np.unique imports numpy.ma (milliseconds and megabytes) on its first call
    script = (
        "import sys\n"
        "from squidw.experiments import RunSpec, run_points\n"
        "run_points([RunSpec(g=10.0, n_steps=100, n_frames=7)])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(squidw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "numpy.ma was imported"


def test_schrodinger_input_validation():
    with pytest.raises(ValueError):
        one_point(propagate_schrodinger, _gaussian_h(10.0), 2.0 * basis_state(PSI1), 100)
    complex_h = lambda t: _gaussian_h(10.0)(t).astype(complex)
    with pytest.raises(ValueError, match="float64"):
        one_point(propagate_schrodinger, complex_h, basis_state(PSI1), 100)
    with pytest.raises(ValueError, match="n_steps must be at least 100, got 50"):
        one_point(propagate_schrodinger, _gaussian_h(10.0), basis_state(PSI1), 50)
    with pytest.raises(ValueError, match="n_steps must be an integer, got 150.5"):
        _step_count(150.5)
    assert type(_step_count(np.int64(150))) is int
    with pytest.raises(ValueError):
        NoiseModel(kappa=-1.0)
    # a duration that is not finite and positive is refused, not integrated
    # to psi0, backwards or into nan; so is one such entry among the points
    h_fn, psi0 = lambda k: np.zeros((2, DIM, DIM)), np.tile(basis_state(PSI1), (2, 1))
    for bad in (0.0, -0.5, np.nan, np.inf, [1.0, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            propagate_schrodinger(h_fn, psi0, 100, duration=bad)
    with pytest.raises(ValueError, match="one entry per point, got shape"):
        propagate_schrodinger(h_fn, psi0, 100, duration=[1.0, 1.0, 1.0])
    # psi0 is P states of 10 amplitudes; a stack of state columns is refused
    for bad in (basis_state(PSI1), psi0[..., None], np.tile(np.eye(DIM), (2, 1, 1))):
        with pytest.raises(ValueError, match=re.escape(f"psi0 must have shape (P, {DIM})")):
            propagate_schrodinger(h_fn, bad, 100)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schrodinger_refuses_a_non_finite_state(bad):
    psi0 = basis_state(PSI1)
    psi0[PSI2] = bad
    with pytest.raises(ValueError, match="finite"):
        one_point(propagate_schrodinger, _gaussian_h(10.0), psi0, 100)


# ---------------------------------------------------------------------------
# open-system propagation


def test_zero_noise_master_equation_matches_schrodinger():
    h_fn = _gaussian_h(30.0)
    psi0 = basis_state(PSI1)
    traj_s = one_point(propagate_schrodinger, h_fn, psi0, 2000)
    rho0 = np.outer(psi0, psi0.conj())
    traj_l = one_point(propagate_lindblad, h_fn, NoiseModel(), rho0, 2000)
    assert abs(fidelity(traj_s.final_state) - fidelity(traj_l.final_state)) < 1e-7
    pure = np.outer(traj_s.final_state, traj_s.final_state.conj())
    assert np.max(np.abs(traj_l.final_state - pure)) < 1e-7


def test_cavity_decay_follows_exponential_law():
    kappa = 0.8
    rho0 = np.outer(basis_state(PSI3), basis_state(PSI3).conj())
    traj = one_point(
        propagate_lindblad, lambda t: np.zeros((DIM, DIM)), NoiseModel(kappa=kappa), rho0, 1000
    )
    p3 = traj.final_state[PSI3, PSI3].real
    pg = traj.final_state[GROUND, GROUND].real
    assert p3 == pytest.approx(math.exp(-kappa), abs=1e-10)
    assert pg == pytest.approx(1.0 - math.exp(-kappa), abs=1e-10)


def test_fast_dissipator_matches_superoperator_oracle():
    """The tabulated gain/scatter path must equal the canonical Lindblad form."""
    rng = np.random.default_rng(42)
    noise = NoiseModel(kappa=0.9, gamma=0.4, gamma_phi=0.6)
    ops = lindblad_operators(noise)
    # the propagators take real symmetric H, the form of the model's Hamiltonians
    h = rng.normal(size=(DIM, DIM))
    h = h + h.T

    # full 100x100 superoperator acting on row-major vec(rho)
    eye = np.eye(DIM)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for L in ops:
        ldl = L.conj().T @ L
        sup += np.kron(L, L.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))

    rho0 = _random_density(rng)
    duration, n = 0.3, 200
    traj = one_point(propagate_lindblad, lambda t: h, noise, rho0, n, duration=duration)

    vec = rho0.reshape(-1)
    dt = duration / n
    for _ in range(n):
        k1 = sup @ vec
        k2 = sup @ (vec + 0.5 * dt * k1)
        k3 = sup @ (vec + 0.5 * dt * k2)
        k4 = sup @ (vec + dt * k3)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(traj.final_state - vec.reshape(DIM, DIM))) < 1e-10


def test_packed_kernel_matches_complex_reference_on_a_general_state():
    """On the model's runs each entry of rho is in practice purely real or
    purely imaginary, which would hide a mistake in packing rho as
    M = Re rho + Im rho. Here the real and imaginary parts of rho0 overlap
    and H(t) is a random real symmetric matrix that changes in time."""
    rng = np.random.default_rng(7)
    h0, h1, h2 = (a + a.T for a in rng.normal(size=(3, DIM, DIM)))

    def h_of_t(t):
        return h0 + math.cos(3.0 * t) * h1 + t * h2

    noise = NoiseModel(kappa=0.9, gamma=0.4, gamma_phi=0.6)
    rho0 = _random_density(rng)
    assert np.all(((rho0.real != 0) & (rho0.imag != 0)) | np.eye(DIM, dtype=bool))
    duration, n = 0.7, 300
    traj = one_point(
        propagate_lindblad, h_of_t, noise, rho0, n, duration=duration, n_frames=31
    )
    ref = reference_kernels.lindblad_final(h_of_t, lindblad_operators(noise), rho0, n, duration)
    assert np.max(np.abs(traj.final_state - ref)) <= 1e-12
    assert len(traj.states) == 31
    for rho in traj.states:
        assert np.array_equal(rho, rho.conj().T)


def test_dissipator_tables_apply_the_canonical_dissipator():
    """For random rates, zeros included, the tables act on any rho as
    gain o rho + diag(S diag rho), which equals the canonical
    sum_L L rho L^dag - {L^dag L, rho}/2 over the 17 matrices of
    lindblad_operators: the two forms are written from one noise model."""
    rng = np.random.default_rng(11)
    rates = rng.exponential(size=(40, 3)) * (rng.random((40, 3)) < 0.6)
    for kappa, gamma, gamma_phi in [(0.0, 0.0, 0.0), *rates]:
        noise = NoiseModel(kappa=kappa, gamma=gamma, gamma_phi=gamma_phi)
        gain, scatter = _dissipator_tables(noise)
        rho = _random_density(rng)
        tabulated = gain * rho + np.diag(scatter @ np.diag(rho))
        canonical = reference_kernels.dissipator(lindblad_operators(noise), rho)
        assert np.max(np.abs(tabulated - canonical)) <= 1e-14


def test_dissipator_tables_split():
    gain, scatter = _dissipator_tables(NoiseModel(kappa=1.0, gamma=1.0, gamma_phi=1.0))
    # scatter rows: PSI4 loses gamma into PSI7 and gamma into GROUND
    assert scatter[PSI7, PSI4] == pytest.approx(1.0)
    assert scatter[GROUND, PSI4] == pytest.approx(1.0)
    # populations only move through decay: the dephasing pieces cancel on the
    # diagonal, leaving gain_ii = -(total decay rate out of i)
    assert gain[PSI4, PSI4] == pytest.approx(-2.0)
    assert gain[PSI3, PSI3] == pytest.approx(-1.0)  # cavity loss only
    assert gain[GROUND, GROUND] == pytest.approx(0.0)
    assert np.max(np.abs(gain - gain.T)) == 0.0


def test_no_state_both_loses_and_gains_population_by_jumps():
    """The condition that makes the scatter fold of propagate_lindblad exact:
    for every rate triple, zeros included, a row of the scatter table with an
    entry has a gain diagonal of exactly 0, so writing the gain diagonal into
    the scatter leaves each diagonal entry the same two-term sum."""
    grid = [0.0, 1e-3, 0.3, 0.5, 1.7]
    rng = np.random.default_rng(5)
    random = rng.exponential(size=(300, 3)) * (rng.random((300, 3)) < 0.6)
    for kappa, gamma, gamma_phi in [*itertools.product(grid, repeat=3), *random]:
        gain, scatter = _dissipator_tables(NoiseModel(kappa=kappa, gamma=gamma, gamma_phi=gamma_phi))
        receives = scatter.any(axis=1)
        assert not np.any(receives & (np.diag(gain) != 0.0)), (kappa, gamma, gamma_phi)
        assert np.all(np.diag(scatter) == 0.0)


def test_open_run_preserves_trace_hermiticity_positivity():
    h_fn = _gaussian_h(30.0)
    noise = NoiseModel(kappa=0.033 * 30, gamma=0.0073 * 30, gamma_phi=0.001 * 30)
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1).conj())
    traj = one_point(propagate_lindblad, h_fn, noise, rho0, 2000, n_frames=51)
    assert traj.drift < 1e-10
    assert traj.min_eigenvalue is not None and traj.min_eigenvalue > EIG_TOL
    for rho in traj.states:
        # exactly: the real-H commutator keeps every RK4 stage Hermitian
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-9


_FLAVORS = {
    "gaussian": gaussian_fit_pulses(ScheduleParams()),
    "stirap": stirap_pulses(10.0),
    "dressed": dressed_pulses(ScheduleParams()),
}
_RATES = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def _open_point(draw):
    """Rates, a flavor and a coupling for one open point."""
    noise = NoiseModel(kappa=draw(_RATES), gamma=draw(_RATES), gamma_phi=draw(_RATES))
    return noise, draw(st.sampled_from(sorted(_FLAVORS))), draw(st.floats(min_value=1.0, max_value=30.0))


def test_open_runs_keep_trace_hermiticity_positivity_under_random_rates():
    """Any rates, flavors and couplings drawn, each point of a 400-step batch
    keeps its trace within TRACE_TOL, stores exactly Hermitian frames, and
    keeps its smallest stored eigenvalue at or above EIG_TOL. (At 200 steps
    RK4 itself breaks positivity: the noiseless dressed run at g = 19 ends
    at eigenvalue -1.07e-6, and 400 steps leave -1.5e-7 at g = 30.)"""
    n_steps = 400
    nodes = node_times(n_steps, 1.0)
    drives = {
        name: np.stack([drive_hamiltonian(w) for w in sch.qubit_amplitudes(nodes).T])
        for name, sch in _FLAVORS.items()
    }

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(st.lists(_open_point(), min_size=1, max_size=3), st.integers(2, 21))
    def check(points, n_frames):
        h = np.stack([cavity_hamiltonian(g) + drives[f] for _, f, g in points], axis=1)
        rho0 = np.tile(np.outer(basis_state(PSI1), basis_state(PSI1).conj()), (len(points), 1, 1))
        noises = [noise for noise, _, _ in points]
        traj = propagate_lindblad(h.__getitem__, noises, rho0, n_steps, n_frames=n_frames)
        assert np.all(traj.drift <= TRACE_TOL)
        assert np.all(traj.min_eigenvalue >= EIG_TOL)
        for b in range(len(points)):
            states = traj.point(b).states
            assert np.array_equal(states, states.conj().swapaxes(-1, -2))
            assert np.all(np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0) <= TRACE_TOL)
            assert np.linalg.eigvalsh(states).min() >= EIG_TOL

    check()


def test_permutation_symmetry_of_open_dynamics():
    noise = NoiseModel(kappa=0.1, gamma=0.05, gamma_phi=0.02)
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1).conj())
    traj = one_point(propagate_lindblad, _gaussian_h(30.0), noise, rho0, 1000)
    rho = traj.final_state
    perm = list(range(DIM))
    perm[PSI4], perm[PSI5] = perm[PSI5], perm[PSI4]
    perm[PSI7], perm[PSI8] = perm[PSI8], perm[PSI7]
    p = np.eye(DIM)[perm]
    assert np.max(np.abs(p @ rho @ p.T - rho)) < 1e-9


def test_lindblad_input_validation():
    noise = NoiseModel()
    good = np.outer(basis_state(PSI1), basis_state(PSI1).conj())
    with pytest.raises(ValueError):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, 2.0 * good, 100)
    skew = good.copy()
    skew[0, 1] = 0.5
    with pytest.raises(ValueError):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, skew, 100)
    with pytest.raises(ValueError):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, np.eye(4), 100)
    with pytest.raises(ValueError, match="float64"):
        one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM), dtype=complex), noise, good, 100)
    with pytest.raises(ValueError, match="one NoiseModel per point"):
        propagate_lindblad(lambda k: np.zeros((2, DIM, DIM)), [noise], np.stack([good, good]), 100)
    # a duration that is not finite and positive is refused, not stored as
    # the frame times [0, 0], integrated backwards or into nan
    h_fn, rho0 = lambda k: np.zeros((2, DIM, DIM)), np.stack([good, good])
    for bad in (0.0, -0.5, np.nan, np.inf, [1.0, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            propagate_lindblad(h_fn, [noise] * 2, rho0, 100, duration=bad)
    # Hermitian to 1e-11 is accepted, and symmetrized once on entry
    skew[0, 1] = 1e-11
    traj = one_point(propagate_lindblad, lambda t: np.zeros((DIM, DIM)), noise, skew, 100)
    assert np.array_equal(traj.states[0], traj.states[0].conj().T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lindblad_refuses_a_non_finite_state(bad):
    rho0 = np.outer(basis_state(PSI1), basis_state(PSI1))
    rho0[PSI1, PSI2] = rho0[PSI2, PSI1] = bad
    with pytest.raises(ValueError, match="finite"):
        one_point(propagate_lindblad, _gaussian_h(10.0), NoiseModel(gamma=0.3), rho0, 100)


def _random_batch(rng, batch: int, durations=(0.6, 1.0)):
    """h_fn for a batch of random real symmetric H(t) = h0 + cos(3t) h1 + t h2,
    each point on the node grid of its own duration, drawn from durations."""
    h0, h1, h2 = (a + a.swapaxes(1, 2) for a in rng.normal(size=(3, batch, DIM, DIM)))
    durations = rng.choice(list(durations), size=batch)
    n = 120
    t = np.stack([node_times(n, d) for d in durations], axis=1)[..., None, None]
    hs = h0 + np.cos(3.0 * t) * h1 + t * h2
    return (lambda k: hs[k]), n, durations


_DEPHASING = NoiseModel(gamma_phi=0.5)
_DECAY = NoiseModel(gamma=0.4)
_MIXED = [NoiseModel(kappa=0.9, gamma=0.4, gamma_phi=0.6), _DEPHASING, NoiseModel()]


@pytest.mark.parametrize(
    "batch, kinds, durations",
    [pytest.param(b, _MIXED, (0.6, 1.0), id=str(b)) for b in (1, 3, 17, 38, 60)]
    + [
        pytest.param(b, [noise], (0.6, 1.0), id=f"{b}-{name}")
        for name, noise in (("decay", _DECAY), ("dephasing", _DEPHASING), ("noiseless", NoiseModel()))
        for b in (1, 7)
    ]
    + [pytest.param(b, _MIXED, (1.0,), id=f"{b}-one-duration") for b in (30, 17)],
)
def test_steps_match_the_stepwise_reference_bit_for_bit(batch, kinds, durations):
    """The stacked sum of the slopes, the products written through transposed
    outputs and the scatter written on the slope's diagonal give the bytes of
    the seven-call combination, the transposed add and the strided diagonal
    add. Batches with any noise, dephasing alone included, run the general
    kernel, whose bytes for a dephasing-only batch are pinned against the
    reference's jump-free kernel; a batch of only noiseless points runs the
    noiseless kernel, so each selection is pinned alone. A batch
    of only decay points runs the jump kernel without dephasing, whose
    rounding at a single point is the one that would show a cascade jump
    breaking the scatter fold. An open batch of one takes its products
    through np.dot, so the ids [1], [1-decay], [1-dephasing] and
    [1-noiseless] pin that path against the reference's np.matmul; [1]
    also pins a closed batch of one, which runs the matmul of any batch.
    Every batch sums its slopes with one np.dot, the reference
    elementwise; [38] is the 3,800 state columns of reproduce all's open
    batch, and [60] its closed one. The reference scales
    by _step_size's Python float or (B, 1, 1) array, where the propagators
    scale by arrays of the state's shape, except propagate_lindblad at one
    duration, which keeps Python floats. Most ids draw each point's
    duration from 0.6 and 1.0, which mixes them; [30-one-duration] (the
    shape of a closed coupling sweep) and [17-one-duration] run one."""
    rng = np.random.default_rng(batch)
    h_fn, n, durations = _random_batch(rng, batch, durations)
    frames = [2 + b % 5 for b in range(batch)]
    psi0 = rng.normal(size=(batch, DIM)) + 1j * rng.normal(size=(batch, DIM))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    traj = propagate_schrodinger(h_fn, psi0, n, duration=durations, n_frames=frames)
    ref = reference_kernels.schrodinger_stepwise(h_fn, psi0, n, durations)
    assert np.array_equal(traj.final_state, ref)

    noises = [kinds[b % len(kinds)] for b in range(batch)]
    rho0 = np.stack([_random_density(rng) for _ in range(batch)])
    traj = propagate_lindblad(h_fn, noises, rho0, n, duration=durations, n_frames=frames)
    ref = reference_kernels.lindblad_stepwise(h_fn, noises, rho0, n, durations)
    assert np.array_equal(traj.final_state, ref)


@pytest.mark.parametrize(
    "noise",
    [None, NoiseModel(), _MIXED[0], _DEPHASING],
    ids=["closed", "open-noiseless", "open-jumps-dephasing", "open-dephasing"],
)
def test_a_point_alone_is_bitwise_the_same_point_in_a_batch(noise):
    """An open batch of one point takes its products through np.dot, a
    larger batch through np.matmul; each kernel selection, and the closed
    kernel, gives a point alone the bytes it gets in a batch of three,
    between two points of other H, noise, duration and frame count. Every
    batch sums its slopes with one np.dot, whatever its size;
    test_batched_point_is_bitwise_its_solo_run (tests/test_experiments.py)
    pins a point alone against the same point in a batch of 25 that shares
    one H."""
    rng = np.random.default_rng(31)
    n, durations, frames = 120, np.array([0.6, 1.0, 0.8]), [9, 4, 2]
    h0, h1, h2 = (a + a.swapaxes(1, 2) for a in rng.normal(size=(3, 3, DIM, DIM)))
    t = np.stack([node_times(n, d) for d in durations], axis=1)[..., None, None]
    hs = h0 + np.cos(3.0 * t) * h1 + t * h2
    if noise is None:
        state0 = rng.normal(size=(3, DIM)) + 1j * rng.normal(size=(3, DIM))
        state0 /= np.linalg.norm(state0, axis=1, keepdims=True)
        run = lambda h_fn, pick: propagate_schrodinger(
            h_fn, state0[pick], n, duration=durations[pick], n_frames=frames[pick]
        )
    else:
        state0 = np.stack([_random_density(rng) for _ in range(3)])
        noises = [NoiseModel(kappa=0.3), noise, NoiseModel(gamma=0.2, gamma_phi=0.1)]
        run = lambda h_fn, pick: propagate_lindblad(
            h_fn,
            noises[pick],
            state0[pick],
            n,
            duration=durations[pick],
            n_frames=frames[pick],
        )
    batched = run(lambda k: hs[k], slice(0, 3)).point(1)
    alone = run(lambda k: hs[k, 1:2], slice(1, 2)).point(0)
    assert np.array_equal(alone.final_state, batched.final_state)
    assert np.array_equal(alone.states, batched.states)
    assert np.array_equal(alone.drift, batched.drift)
    assert np.array_equal(alone.min_eigenvalue, batched.min_eigenvalue)


@pytest.mark.parametrize(
    "batch, kinds, durations",
    [pytest.param(b, _MIXED, (0.6, 1.0), id=str(b)) for b in (11, 17, 38)]
    + [pytest.param(17, _MIXED, (1.0,), id="17-one-duration")]
    + [
        pytest.param(b, [noise], (0.6, 1.0), id=f"{b}-{name}")
        for name, noise in (("decay", _DECAY), ("dephasing", _DEPHASING), ("noiseless", NoiseModel()))
        for b in (11, 17)
    ],
)
def test_a_shared_hamiltonian_is_bitwise_its_stacked_copy(batch, kinds, durations):
    """An h_fn that returns one H as a batch-stride-0 broadcast makes a batch
    of more than DIM points run the point-innermost kernel, whose products
    are DIM GEMMs over the whole batch. Every point gets the bytes of the
    same batch with the stack copied (np.stack), which runs the per-point
    kernel, and the stepwise reference's final state, with jumps, dephasing
    alone or no noise, at mixed or equal durations and mixed frame counts."""
    rng = np.random.default_rng(batch + len(kinds) + len(durations))
    n = 120
    h0, h1, h2 = (a + a.T for a in rng.normal(size=(3, DIM, DIM)))
    t = node_times(n, 1.0)[:, None, None]
    hs = h0 + np.cos(3.0 * t) * h1 + t * h2
    shared = lambda k: np.broadcast_to(hs[k], (batch, DIM, DIM))
    stacked = lambda k: np.stack([hs[k]] * batch)
    duration = rng.choice(durations, size=batch)
    frames = [2 + b % 5 for b in range(batch)]
    noises = [kinds[b % len(kinds)] for b in range(batch)]
    rho0 = np.stack([_random_density(rng) for _ in range(batch)])
    one, copied = (
        propagate_lindblad(h_fn, noises, rho0, n, duration=duration, n_frames=frames)
        for h_fn in (shared, stacked)
    )
    assert one.final_state.tobytes() == copied.final_state.tobytes()
    assert [s.tobytes() for s in one.states] == [s.tobytes() for s in copied.states]
    assert one.drift.tobytes() == copied.drift.tobytes()
    assert one.min_eigenvalue.tobytes() == copied.min_eigenvalue.tobytes()
    ref = reference_kernels.lindblad_stepwise(stacked, noises, rho0, n, duration)
    assert one.final_state.tobytes() == ref.tobytes()


@pytest.mark.parametrize("batch", [1, 3])
def test_stored_frames_and_their_minimum_eigenvalue_are_exact(batch):
    """A stored frame is a plain copy of the live state, and propagate_lindblad
    takes eigvalsh once per point over all of its stored frames, after the
    last step; a batch's points store 50, 2 and 17 frames. Each point's frame
    0 is its initial state (rho0 symmetrized, not its round trip through M),
    its last frame is its final state, and min_eigenvalue is, bit for bit,
    np.minimum folded in step order over eigvalsh of each frame taken alone;
    the fold decides between 0.0 and -0.0, since a tie keeps the later
    value."""
    rng = np.random.default_rng(50 + batch)
    n = 200
    hs = rng.normal(size=(3, batch, DIM, DIM))
    hs += hs.swapaxes(2, 3)
    t = node_times(n, 1.0)[:, None, None, None]
    h = hs[0] + np.cos(3.0 * t) * hs[1] + t * hs[2]
    psi0 = rng.normal(size=(batch, DIM)) + 1j * rng.normal(size=(batch, DIM))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    rho0 = np.stack([_random_density(rng) for _ in range(batch)])
    noises = [NoiseModel(kappa=0.3, gamma=0.2 * b, gamma_phi=0.1) for b in range(batch)]
    counts = [50, 2, 17][:batch]
    closed = propagate_schrodinger(lambda k: h[k], psi0, n, n_frames=counts)
    opened = propagate_lindblad(lambda k: h[k], noises, rho0, n, n_frames=counts)
    symmetrized = 0.5 * (rho0 + rho0.conj().swapaxes(1, 2))
    for traj, state0 in ((closed, psi0), (opened, symmetrized)):
        for b in range(batch):
            assert len(traj.states[b]) == counts[b]
            assert traj.states[b][0].tobytes() == state0[b].tobytes()
            assert traj.states[b][-1].tobytes() == traj.final_state[b].tobytes()
    for b in range(batch):
        folded = np.linalg.eigvalsh(opened.states[b][0]).min()
        for rho in opened.states[b][1:]:
            folded = np.minimum(folded, np.linalg.eigvalsh(rho).min())
        assert opened.min_eigenvalue[b].tobytes() == folded.tobytes()
    # np.min's SIMD reduction may keep either zero of a tie; the fold keeps the later
    for first, later in ((0.0, -0.0), (-0.0, 0.0)):
        values = np.linspace(1.0, 2.0, 500)
        values[[252, 315]] = first, later
        assert _last_minimum(values).tobytes() == np.float64(later).tobytes()


# ---------------------------------------------------------------------------
# observables


def test_fidelity_forms_agree():
    rng = np.random.default_rng(9)
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    assert fidelity(psi) == pytest.approx(fidelity(rho), abs=1e-14)
    assert fidelity(w_state()) == pytest.approx(1.0, abs=1e-15)
