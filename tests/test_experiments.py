"""Study drivers: determinism, physics invariants, and output formats."""

import csv
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import reference_kernels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidw import experiments
from squidw.dynamics import (
    MAX_FRAMES,
    ConvergenceError,
    fidelity,
    lindblad_operators,
    node_times,
)
from squidw.experiments import (
    CHECKS,
    Check,
    ResultRecord,
    RunSpec,
    TABLE1_REFERENCE,
    TABLE2_QUADRANT_ORDER,
    TABLE2_REFERENCE,
    quadrant_order,
    run_points,
    sweep_grid,
    variation_quadrants,
    _MODES,
    _axes_meta,
    _plan_records,
    _plan_trace,
    _run_plan,
)
from squidw.pulse_design import ScheduleParams, dressed_pulses, gaussian_fit_pulses, stirap_pulses
from squidw.state_space import (
    PSI1,
    basis_state,
    cavity_hamiltonian,
    drive_hamiltonian,
)

BASE = RunSpec(n_steps=500)


def _sweep(axes, outdir):
    """The records of a sweep over BASE, written to outdir."""
    return _run_plan(
        _plan_records("sweep", sweep_grid(BASE, axes), {"axes": _axes_meta(axes)}), str(outdir)
    )


def _target(name, outdir, n_steps):
    """A reproduce target's output under the default duration reading, written to outdir."""
    return _run_plan(CHECKS[name].plan(n_steps, "rescale"), str(outdir))


# ---------------------------------------------------------------------------
# determinism


def test_sweep_outputs_are_byte_identical(tmp_path):
    axes = (("g", (10.0, 20.0, 30.0)),)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    _sweep(axes, d1)
    _sweep(axes, d2)
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "sweep.meta.json").read_bytes() == (d2 / "sweep.meta.json").read_bytes()


# Closed and open points under both duration readings, at five durations and
# with 2, 5 or 21 stored frames, plus an effective-model point among the
# closed ones; run_points puts every closed point in one batch and every open
# point in another. The closed batch is wide: overlaps
# computed across a batch (a (B, 10) @ (10,) product) round differently from
# the single-point ones once B reaches a dozen or so.
MIXED = [
    RunSpec(label=f"c{g:g}", g=g, delta_omega=0.1 * (g % 2), n_steps=400, n_frames=5)
    for g in np.linspace(10.0, 30.0, 16)
] + [
    RunSpec(label=f"r{dt:+g}", g=30.0, delta_t=dt, n_steps=400, n_frames=frames)
    for dt, frames in ((-0.1, 2), (-0.05, 21), (0.05, 5), (0.1, 21))
] + [
    RunSpec(label="eff", flavor="dressed", effective=True, n_steps=400, n_frames=21),
    RunSpec(label="o30", g=30.0, kappa_over_g=1e-2, n_steps=400, n_frames=5),
    RunSpec(label="c30s", g=30.0, delta_t=-0.1, mode="truncate", n_steps=400, n_frames=5),
    RunSpec(label="o25", g=25.0, gamma_over_g=5e-3, delta_g=-0.1, n_steps=400, n_frames=5),
    RunSpec(label="o30s", g=30.0, gammaphi_over_g=1e-3, delta_t=-0.1, mode="truncate", n_steps=400),
    RunSpec(label="c25s", g=25.0, delta_t=-0.1, mode="truncate", n_steps=400, n_frames=5),
    RunSpec(label="c30l", g=30.0, delta_t=0.1, mode="truncate", n_steps=400, n_frames=21),
    RunSpec(label="o20", g=20.0, kappa_over_g=5e-3, gammaphi_over_g=5e-4, n_steps=400, n_frames=5),
    RunSpec(label="o20s", g=20.0, gamma_over_g=1e-2, delta_t=-0.1, mode="truncate", n_steps=400),
    RunSpec(label="o25r", g=25.0, kappa_over_g=2e-3, delta_t=0.05, n_steps=400, n_frames=21),
    RunSpec(
        label="o25l", g=25.0, gammaphi_over_g=5e-4, delta_t=0.1, mode="truncate", n_steps=400,
        n_frames=21,
    ),
]


def _write_run(outdir, records, trajectories):
    results = list(zip(records, trajectories))
    _plan_records("mixed", MIXED, {"points": len(records)}).finish(results, str(outdir))
    for point in results:
        name, meta = f"traj_{point[0].label}", {"label": point[0].label}
        _plan_trace(name, None, meta).finish([point], str(outdir))


def test_batch_composition_does_not_change_bytes(tmp_path, monkeypatch):
    """One batch per closed/open, one point at a time, or split into two
    halves: the same bytes, the drift and min_eigenvalue columns included.
    Each point keeps its own frames, at its own times. The effective point
    shares the cavity points' batch (whose H buffers then rewrite the union
    of both drive patterns) without changing its bytes or theirs. A copy of
    a spec under another label is integrated once with it and recorded
    under its own label."""
    integrated = []
    run_batch = experiments._run_batch

    def counted(specs):
        integrated.extend(specs)
        return run_batch(specs)

    monkeypatch.setattr(experiments, "_run_batch", counted)
    original = next(i for i, s in enumerate(MIXED) if s.label == "o25")
    copy = replace(MIXED[original], label="o25 again")
    batched = run_points(MIXED + [copy])
    assert len(integrated) == len(MIXED) and copy not in integrated
    (copy_record, copy_traj), batched = batched[-1], batched[:-1]
    record, traj = batched[original]
    assert copy_record == record._replace(label="o25 again")
    assert copy_traj.states.tobytes() == traj.states.tobytes()
    assert copy_traj.final_state.tobytes() == traj.final_state.tobytes()
    assert {r.min_eigenvalue is None for r, _ in batched} == {True, False}
    for spec, (_, traj) in zip(MIXED, batched):
        assert len(traj.times) == len(traj.states) == spec.n_frames
        assert traj.times[0] == 0.0 and traj.times[-1] == spec.duration
    _write_run(tmp_path / "batched", *zip(*batched))
    alone = [run_points([spec])[0] for spec in MIXED]
    _write_run(tmp_path / "alone", *zip(*alone))
    half = len(MIXED) // 2
    _write_run(tmp_path / "split", *zip(*(run_points(MIXED[:half]) + run_points(MIXED[half:]))))
    names = sorted(p.name for p in (tmp_path / "batched").iterdir())
    assert len(names) == 2 + 2 * len(MIXED)
    for other in ("alone", "split"):
        assert sorted(p.name for p in (tmp_path / other).iterdir()) == names
        for name in names:
            expected = (tmp_path / "batched" / name).read_bytes()
            assert (tmp_path / other / name).read_bytes() == expected, name


@st.composite
def _pooled_spec(draw):
    """A 200-step point from a small pool: each flavor, g 5 or 30, a duration
    error under either reading, 2 or 7 frames, an amplitude error of 0 or 5%
    (a scaled schedule), and closed, open or effective. The stirap peak is
    10, at which every point of the pool passes the drift gates in 200
    steps."""
    flavor = draw(st.sampled_from(("gaussian", "stirap", "dressed")))
    kind = draw(st.sampled_from(("closed", "open", "effective")))
    return RunSpec(
        flavor=flavor,
        g=draw(st.sampled_from((5.0, 30.0))),
        delta_t=draw(st.sampled_from((-0.1, 0.0, 0.1))),
        mode=draw(st.sampled_from(("rescale", "truncate"))),
        n_frames=draw(st.sampled_from((2, 7))),
        delta_omega=draw(st.sampled_from((0.0, 0.05))),
        omega0=10.0 if flavor == "stirap" else None,
        kappa_over_g=1e-2 if kind == "open" else 0.0,
        gammaphi_over_g=1e-3 if kind == "open" else 0.0,
        effective=kind == "effective",
        n_steps=200,
    )


def test_batched_point_is_bitwise_its_solo_run():
    """Whatever batch a point shares, and in whatever order, run_points gives
    it the states, fidelities, drift and minimum eigenvalue of its solo run,
    which takes its open products through np.dot where a batch takes
    np.matmul.
    The four explicit batches are one with groups of several points (three
    cavity points of one schedule, beside the effective point of that
    schedule and a scaled schedule), one in which every point is its own
    group (each sees its own drive), and twelve and twenty-five open points
    of one H, each with its own rates, which take each product once for the
    whole batch. The twenty-five are 2,500 state columns, which one np.dot
    sums as it sums each point's 100 alone."""
    solo = {}
    point = RunSpec(n_steps=200)

    def open_points(count: int) -> list[RunSpec]:
        # i = 15, 30, ... would be cavity loss alone, whose density matrix
        # breaks the eigenvalue gate at 200 steps
        indices = itertools.islice((i for i in itertools.count(1) if i % 15), count)
        return [
            replace(
                point,
                kappa_over_g=1e-3 * (i % 4),
                gamma_over_g=1e-3 * (i % 3),
                gammaphi_over_g=1e-4 * (i % 5),
                n_frames=(2, 7)[i % 2],
            )
            for i in indices
        ]

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(st.lists(_pooled_spec(), min_size=1, max_size=5))
    @example([
        replace(point, g=5.0),
        point,
        replace(point, n_frames=7),
        replace(point, effective=True),
        replace(point, g=5.0, delta_omega=0.05),
    ])
    @example([
        point,
        replace(point, flavor="stirap", omega0=10.0),
        replace(point, flavor="dressed", delta_omega=0.05),
        replace(point, effective=True),
    ])
    @example(open_points(12))
    @example(open_points(25))
    def check(specs):
        for spec, (_, traj) in zip(specs, run_points(specs)):
            if spec not in solo:
                solo[spec] = run_points([spec])[0][1]
            alone = solo[spec]
            assert traj.states.tobytes() == alone.states.tobytes()
            assert traj.final_state.tobytes() == alone.final_state.tobytes()
            assert traj.fidelities.tobytes() == alone.fidelities.tobytes()
            assert traj.drift == alone.drift
            assert traj.min_eigenvalue == alone.min_eigenvalue

    check()


@pytest.mark.parametrize("g", [0.5, 5.0, 30.0, 300.0])
def test_no_drive_writes_where_a_cavity_hamiltonian_is_nonzero(g):
    """_run_batch writes a D_a + b D_b, with no h0 operand, at every entry
    where a drive kind is nonzero. That is h0 + a D_a + b D_b only because
    the cavity Hamiltonian is zero at each of those entries."""
    drives = np.array([experiments._CHANNEL_DRIVES, experiments._EFFECTIVE_DRIVES])
    driven = (drives != 0).any(axis=(0, 1))
    h0 = cavity_hamiltonian(g)
    assert driven.any() and np.any(h0 != 0.0)
    assert np.all(h0[driven] == 0.0)


# Noiseless and dephasing-only density-matrix points. Alone, a noiseless
# point runs the 3-call right-hand side and a dephasing-only point the
# general one; batched with a decaying point, both run the general one. At
# 400 steps every point passes the positivity gate.
_PARTIAL_DISSIPATOR = [
    RunSpec(
        flavor=flavor,
        g=g,
        omega0=10.0 if flavor == "stirap" else None,
        gammaphi_over_g=rate,
        master_equation=True,
        n_steps=400,
        n_frames=7,
    )
    for flavor in ("gaussian", "stirap", "dressed")
    for g in (5.0, 30.0)
    for rate in (0.0, 1e-3)
]


def test_partial_dissipators_are_bitwise_the_general_one():
    """Each noiseless or dephasing-only point run alone gives the bytes it
    gets in a batch with a decaying point, where every term is computed."""
    decaying = RunSpec(kappa_over_g=1e-2, gamma_over_g=1e-3, n_steps=400)
    batched = run_points(_PARTIAL_DISSIPATOR + [decaying])
    for spec, (_, traj) in zip(_PARTIAL_DISSIPATOR, batched):
        [(_, alone)] = run_points([spec])
        assert traj.states.tobytes() == alone.states.tobytes(), spec
        assert traj.final_state.tobytes() == alone.final_state.tobytes(), spec
        assert traj.fidelities.tobytes() == alone.fidelities.tobytes(), spec
        assert traj.drift == alone.drift, spec
        assert traj.min_eigenvalue == alone.min_eigenvalue, spec


def test_noiseless_dissipator_matches_complex_reference():
    spec = _PARTIAL_DISSIPATOR[0]
    [(record, traj)] = run_points([spec])
    hc = cavity_hamiltonian(spec.coupling)
    schedule = spec.schedule()

    def h_of_t(t):
        return hc + drive_hamiltonian(schedule.qubit_amplitudes(t))

    psi1 = basis_state(PSI1)
    final = reference_kernels.lindblad_final(
        h_of_t, lindblad_operators(spec.noise), np.outer(psi1, psi1), spec.n_steps, spec.duration
    )
    assert np.max(np.abs(traj.final_state - final)) <= 1e-12
    assert abs(record.fidelity - fidelity(final)) <= 1e-12


# ---------------------------------------------------------------------------
# accuracy


def test_real_kernels_match_complex_reference():
    """run_points' real-symmetric kernels against the general complex kernels
    of tests/reference_kernels.py, with H assembled independently from
    qubit_amplitudes: every fidelity agrees to 1e-12 on a mixed batch."""
    n = 400
    specs = [
        RunSpec(label="gaussian g30", g=30.0, n_steps=n),
        RunSpec(label="gaussian g10", g=10.0, n_steps=n),
        RunSpec(label="stirap", flavor="stirap", g=30.0, omega0=9.8, n_steps=n),
        RunSpec(label="truncate", delta_t=0.05, delta_omega=-0.05, mode="truncate", n_steps=n),
        RunSpec(label="truncate open", delta_t=-0.05, kappa_over_g=0.01, mode="truncate", n_steps=n),
    ]
    specs += [
        RunSpec(label=f"table1 {i}", kappa_over_g=k, gamma_over_g=g, gammaphi_over_g=p, n_steps=n)
        for i, (k, g, p, _) in enumerate(TABLE1_REFERENCE)
        if i % 4 == 0
    ]
    psi1 = basis_state(PSI1)
    for spec, (record, _) in zip(specs, run_points(specs)):
        hc = cavity_hamiltonian(spec.coupling)
        schedule = spec.schedule()

        def h_of_t(t):
            return hc + drive_hamiltonian(schedule.qubit_amplitudes(t))

        if spec.closed:
            final = reference_kernels.schrodinger_final(h_of_t, psi1, n, spec.duration)
        else:
            ops = lindblad_operators(spec.noise)
            final = reference_kernels.lindblad_final(h_of_t, ops, np.outer(psi1, psi1), n, spec.duration)
        assert abs(record.fidelity - fidelity(final)) <= 1e-12, spec.label


# ---------------------------------------------------------------------------
# output formats


def test_csv_format(tmp_path):
    _sweep((("g", (15.0,)),), tmp_path)
    raw = (tmp_path / "sweep.csv").read_bytes()
    assert raw.count(b"\r\n") == 2  # header + one row, CRLF terminated
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == ResultRecord._fields
    record = dict(zip(rows[0], rows[1]))
    assert record["flavor"] == "gaussian"
    assert float(record["g"]) == 15.0
    # floats round-trip exactly through repr
    assert repr(float(record["fidelity"])) == record["fidelity"]
    assert record["omega0"] == ""  # None renders as the empty field


def test_meta_format(tmp_path):
    # the axis names are recorded as given, aliases included
    _sweep((("g", (15.0,)), ("dT_over_T", (0.0,))), tmp_path)
    meta = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["driver"] == "sweep"
    assert "code_version" in meta
    assert meta["axes"] == [["g", [15.0]], ["dT_over_T", [0.0]]]


def test_compare_files(tmp_path):
    _, [comparison] = _target("realistic", tmp_path, n_steps=1000)
    assert set(comparison) >= {"label", "reference", "computed", "delta", "passed"}
    with open(tmp_path / "realistic_compare.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "reference", "computed", "delta", "status"]
    assert rows[1][4] in ("pass", "FAIL")


# ---------------------------------------------------------------------------
# physics invariants


def test_fidelity_monotone_in_each_noise_rate():
    values = {
        "kappa_over_g": (0.0, 5e-3, 1e-2),
        "gamma_over_g": (0.0, 5e-3, 1e-2),
        "gammaphi_over_g": (0.0, 5e-4, 1e-3),
    }
    combos = list(itertools.product(*values.values()))
    results = run_points(
        RunSpec(n_steps=1000, kappa_over_g=k, gamma_over_g=g, gammaphi_over_g=p)
        for k, g, p in combos
    )
    grid = {combo: record.fidelity for combo, (record, _) in zip(combos, results)}
    for axis in range(3):
        for combo, f in grid.items():
            nxt = list(combo)
            idx = list(values.values())[axis].index(combo[axis])
            if idx + 1 < 3:
                nxt[axis] = list(values.values())[axis][idx + 1]
                assert grid[tuple(nxt)] <= f + 1e-4, (combo, axis)


def test_dephasing_hurts_more_than_cavity_loss():
    (kappa, _), (phi, _) = run_points([RunSpec(kappa_over_g=1e-3), RunSpec(gammaphi_over_g=1e-3)])
    assert phi.fidelity < kappa.fidelity


def test_effective_model_shortcut_is_exact(monkeypatch):
    """verify judges the three-level effective model on the effective point
    of its own closed batch, through one call of the module attribute
    run_effective_model; the verdict passes and prints what that call
    returned."""
    results = []
    run_effective_model = experiments.run_effective_model

    def tap(point, A):
        results.append(run_effective_model(point, A))
        return results[-1]

    monkeypatch.setattr(experiments, "run_effective_model", tap)
    shortcut = {v.label: v for v in CHECKS["verify"]()}["effective-model shortcut"]
    [(fid, tracking)] = results
    assert shortcut.passed
    assert shortcut.detail == f"F={fid:.6f}, max |P_phi0 - sin^2 mu| = {tracking:.2e}"


def test_verify_integrator_verdict_fails_an_underresolved_effective_run():
    """verify judges RK4 on its effective run's stored frames against the
    exact dressed state. On verify's own grid the verdict passes; with the
    effective spec alone moved to 100 steps, whose frames are about 1e-7
    off, it fails, and only it."""
    label = "integrator vs exact dressed state"
    verify = CHECKS["verify"]
    plan = verify.plan(2000, None)

    def verdicts(plan):
        return {v.label: v for v in verify.judge(_run_plan(plan, None))}

    assert all(v.passed for v in verdicts(plan).values())
    coarse = verdicts(plan._replace(specs=[replace(plan.specs[0], n_steps=100), *plan.specs[1:]]))
    assert [v.label for v in coarse.values() if not v.passed] == [label]
    assert float(coarse[label].detail.rsplit(" ", 1)[1]) > 1e-8


def test_fig6_judges_each_axis_of_its_plan():
    """fig6 reads its records in its plan's order, one block of six rising
    values per rate axis, and prints one verdict per axis, by name. A last
    point raised 2e-4 above its neighbour, twice the noise allowance, fails
    its own axis's verdict and no other, and so does a flat block: each
    axis must fall by its least total drop, not only never rise."""
    fig6 = CHECKS["fig6"]
    records = _run_plan(fig6.plan(1000, "rescale"), None)
    verdicts = fig6.judge(records)
    assert [v.label for v in verdicts] == [
        "fig6 gamma_over_g monotone",
        "fig6 gammaphi_over_g monotone",
        "fig6 kappa_over_g monotone",
    ]
    assert all(v.passed for v in verdicts)
    details = {v.label: v.detail for v in verdicts}
    rates = ("kappa_over_g", "gamma_over_g", "gammaphi_over_g")
    for block, axis in enumerate(rates):
        last = 6 * block + 5
        assert [getattr(records[last], rate) > 0 for rate in rates] == [r == axis for r in rates]
        detail = f"F drops {records[0].fidelity:.4f} -> {records[last].fidelity:.4f} over the scan"
        assert details[f"fig6 {axis} monotone"] == detail
        raised = list(records)
        raised[last] = records[last]._replace(fidelity=records[last - 1].fidelity + 2e-4)
        assert [v.label for v in fig6.judge(raised) if not v.passed] == [f"fig6 {axis} monotone"]
    # the kappa block flattened to its first value never rises, but falls by nothing
    flat = [r._replace(fidelity=records[0].fidelity) if i < 6 else r for i, r in enumerate(records)]
    assert [v.label for v in fig6.judge(flat) if not v.passed] == ["fig6 kappa_over_g monotone"]


# ---------------------------------------------------------------------------
# variation modes


def _fidelities(*specs):
    return [record.fidelity for record, _ in run_points(specs)]


def test_rescale_mode_is_duration_invariant():
    base = RunSpec(n_steps=1000, mode="rescale")
    f0, f_short = _fidelities(base, replace(base, delta_t=-0.10))
    # shapes re-parameterize with T, so a duration error is almost a no-op
    assert abs(f_short - f0) < 2e-3


def test_truncate_mode_cuts_the_waveform():
    base = RunSpec(n_steps=1000, mode="truncate")
    f0, f_short = _fidelities(base, replace(base, delta_t=-0.10))
    drop = f0 - f_short
    assert 1e-3 < drop < 6e-3  # cutting the last tenth costs a few parts in 1e3


def test_variation_grid_modes_differ():
    row = RunSpec(delta_t=0.10, delta_omega=0.10, delta_g=0.10, n_steps=1000)
    f_rescale, f_truncate = _fidelities(row, replace(row, mode="truncate"))
    assert f_rescale != f_truncate


def test_single_axis_sensitivities_are_pinned():
    """1 - F from one 10% error at a time (gaussian, g = 30, 2000 steps), as
    README's "Known discrepancy" quotes them. A model change that moves any
    of them by more than 0.002 shows here."""
    pinned = {
        RunSpec(delta_omega=+0.10): 0.0250,
        RunSpec(delta_omega=-0.10): 0.0281,
        RunSpec(delta_t=+0.10, mode="truncate"): 0.00052,
        RunSpec(delta_t=-0.10, mode="truncate"): 0.00275,
    }
    for (spec, expected), (record, _) in zip(pinned.items(), run_points(pinned)):
        assert abs((1.0 - record.fidelity) - expected) <= 0.002, (spec, record.fidelity)


def test_table2_quadrant_order_is_the_published_ranking():
    quads = variation_quadrants(TABLE2_REFERENCE)
    assert quads[(-1, 1)] == pytest.approx((0.9965 + 0.9964) / 2)
    assert quads[(-1, -1)] == pytest.approx((0.9798 + 0.9796) / 2)
    # opposite-sign duration and amplitude errors partly cancel
    assert TABLE2_QUADRANT_ORDER == ((-1, 1), (1, -1), (1, 1), (-1, -1))
    # the ranking holds on each dg slice of the table on its own too
    for dg in (0.10, -0.10):
        slice_quads = variation_quadrants(r for r in TABLE2_REFERENCE if r[2] == dg)
        assert quadrant_order(slice_quads) == TABLE2_QUADRANT_ORDER


def test_every_check_is_a_plan_and_a_judge():
    # verify included: each entry plans its runs apart from judging them
    assert all(isinstance(check, Check) for check in CHECKS.values())
    assert "verify" in CHECKS


def test_check_refuses_a_setting_its_plan_does_not_take():
    # a check passes its settings to its plan: fig3 sweeps g and takes no
    # single g, so its plan refuses g before any run rather than ignore it
    with pytest.raises(TypeError, match=r"_plan_coupling_sweep\(\) got an unexpected .* 'g'"):
        CHECKS["fig3"](g=10.0)


def test_only_known_discrepancies_fail():
    # `reproduce all` under the default rescale reading, and fig8/table2 under
    # truncate: every failing check carries the known-discrepancy flag, and
    # every flagged check fails under one of the two readings.
    runs = [("rescale", name) for name in CHECKS if name != "verify"]
    runs += [("truncate", "fig8"), ("truncate", "table2")]
    failed, flagged = set(), set()
    for mode, name in runs:
        for v in CHECKS[name](n_steps=1000, mode=mode):
            if not v.passed:
                failed.add(v.label)
            if v.known_discrepancy:
                flagged.add(v.label)
    assert failed == flagged
    table2 = {label for label in flagged if label.startswith("table2 ")}
    assert flagged - table2 == {"fig8 sign correlation"} and len(table2) == 8


def test_convergence_failure_names_the_run():
    # one batch holds several drivers' points; the error says which run failed
    specs = [
        RunSpec(label="fine", g=10.0, n_steps=100),
        RunSpec(label="stiff", flavor="stirap", g=150.0, omega0=50.0, n_steps=100),
    ]
    # a run shared by two labels is named by the first
    specs.append(replace(specs[1], label="stiff again"))
    with pytest.raises(ConvergenceError, match=r"\(batch point 1\), run 'stiff'$"):
        run_points(specs)


def test_evaluate_point_validation():
    """A RunSpec refuses settings no run can have, when it is made."""
    with pytest.raises(ValueError, match="stretch"):
        RunSpec(mode="stretch")
    # a duration, amplitude or coupling error that is not finite, or at or
    # below -1, under either duration reading, is refused by name
    bads = (math.nan, math.inf, -math.inf, -1.0, -3.0)
    names = ("delta_t", "delta_omega", "delta_g")
    for bad, mode, name in itertools.product(bads, _MODES, names):
        with pytest.raises(ValueError, match=f"{name} must be finite and exceed -1, got {bad}"):
            RunSpec(mode=mode, **{name: bad})
    # the coupling g (1 + delta_g) must be positive and finite, effective
    # points included
    for bad in ({"g": 0.0}, {"g": math.inf}, {"flavor": "dressed", "effective": True, "g": -1.0}):
        with pytest.raises(ValueError, match="coupling g must be positive and finite"):
            RunSpec(**bad)
    with pytest.raises(ValueError, match="kappa"):
        RunSpec(kappa_over_g=-1e-3)
    # only the stirap flavor has a channel peak omega0, and it needs one that
    # is finite and positive: refused when the spec is made, not when a batch
    # that holds it is integrated
    for flavor in ("gaussian", "dressed"):
        with pytest.raises(ValueError, match=f"flavor '{flavor}' takes none"):
            RunSpec(flavor=flavor, omega0=50.0)
    with pytest.raises(ValueError, match="flavor 'stirap' needs one"):
        RunSpec(flavor="stirap", kappa_over_g=0.01)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"omega0 must be positive, got {bad}"):
            RunSpec(flavor="stirap", omega0=bad)
    # only the dressed flavor reads A: the gaussian fit is the A = 0.5 fit,
    # and another A would only sample and integrate the same run again
    for flavor, omega0 in (("gaussian", None), ("stirap", 50.0)):
        with pytest.raises(ValueError, match=f"flavor '{flavor}' is built for A = 0.5"):
            RunSpec(flavor=flavor, omega0=omega0, A=0.3)
        assert RunSpec(flavor=flavor, omega0=omega0, A=0.5).A == 0.5
    assert RunSpec(flavor="dressed", A=0.3).A == 0.3
    for bad in (0.0, 2.0, math.nan):
        with pytest.raises(ValueError, match=r"A must lie in \(0, pi/2\)"):
            RunSpec(flavor="dressed", A=bad)
    # the integration grid's own rule, checked when the spec is made
    with pytest.raises(ValueError, match="n_steps must be at least 100"):
        RunSpec(n_steps=99)
    # a frame count outside 2 to MAX_FRAMES is refused, not clamped
    for bad in (-3, 0, 1, MAX_FRAMES + 1, 10**6):
        with pytest.raises(ValueError, match=f"n_frames must be 2 to {MAX_FRAMES}, got {bad}"):
            RunSpec(n_steps=400, n_frames=bad)
    # more frames than steps + 1 is accepted, as the propagators accept it:
    # 500 frames over 101 steps store every step
    assert RunSpec(n_steps=100, n_frames=MAX_FRAMES).n_frames == MAX_FRAMES
    # a fractional step or frame count is refused, not truncated; numpy
    # integers are taken as ints
    with pytest.raises(ValueError, match="n_steps must be an integer, got 150.7"):
        RunSpec(n_steps=150.7)
    with pytest.raises(ValueError, match="n_frames must be an integer, got 7.5"):
        RunSpec(n_steps=400, n_frames=7.5)
    spec = RunSpec(n_steps=np.int64(400), n_frames=np.int32(7))
    assert (type(spec.n_steps), type(spec.n_frames)) == (int, int)
    # the two switches are True or False, not anything truthy: "False" would
    # otherwise run the effective model and "no" the master equation
    switches, bads = ("master_equation", "effective"), ("False", "no", 0, 1, None)
    for name, bad in itertools.product(switches, bads):
        with pytest.raises(ValueError, match=f"{name} must be True or False, got {bad!r}"):
            RunSpec(flavor="dressed", **{name: bad})
    spec = RunSpec(flavor="dressed", master_equation=np.True_, effective=np.False_)
    assert (spec.master_equation, spec.effective) == (True, False)
    assert (type(spec.master_equation), type(spec.effective)) == (bool, bool)


def test_effective_spec_rejects_settings_it_would_ignore():
    # an effective point is closed and has no cavity
    for bad in (
        dict(kappa_over_g=1e-3),
        dict(gamma_over_g=1e-3),
        dict(gammaphi_over_g=1e-4),
        dict(master_equation=True),
        dict(delta_g=0.1),
    ):
        with pytest.raises(ValueError, match="effective"):
            RunSpec(flavor="dressed", effective=True, **bad)
    assert RunSpec(flavor="dressed", effective=True, delta_t=0.1, delta_omega=-0.1).closed


def test_evaluate_point_rejects_unknown_keys():
    # a misspelt rate must not silently turn an open run into a closed one,
    # whether it names a RunSpec field or a sweep axis
    with pytest.raises(TypeError, match="'kappa_over_G'"):
        RunSpec(kappa_over_G=1e-2)
    with pytest.raises(ValueError, match="'kappa_over_G'"):
        sweep_grid(BASE, (("kappa_over_G", (1e-2,)),))


# ---------------------------------------------------------------------------
# driver plumbing


def test_sweepspec_validation():
    """sweep_grid refuses more than two axes, an unknown name and an empty
    axis, and reads a one-shot iterable of values as its tuple."""
    with pytest.raises(ValueError, match="flavor"):
        replace(BASE, flavor="square")
    with pytest.raises(ValueError, match="mode"):
        replace(BASE, mode="other")
    with pytest.raises(ValueError, match="at most two"):
        sweep_grid(BASE, (("g", (1.0,)), ("g", (2.0,)), ("g", (3.0,))))
    # a second axis on the same field would silently replace the first
    for twice in ((("g", (1.0,)), ("g", (2.0,))), (("dT_over_T", (0.1,)), ("delta_t", (0.2,)))):
        with pytest.raises(ValueError, match="another axis"):
            sweep_grid(BASE, twice)
    with pytest.raises(ValueError, match="voltage"):
        sweep_grid(BASE, (("voltage", (1.0,)),))
    with pytest.raises(ValueError, match="no values"):
        sweep_grid(BASE, (("g", ()),))
    # a generator of values gives the specs its tuple does
    assert sweep_grid(BASE, (("g", (float(x) for x in (10, 20))),)) == sweep_grid(
        BASE, (("g", (10.0, 20.0)),)
    )
    # an alias and the RunSpec field it names set the same field
    for name in ("dT_over_T", "delta_t"):
        [point] = sweep_grid(BASE, ((name, (0.1,)),))
        assert point == replace(BASE, label="delta_t=0.1", delta_t=0.1)


def test_runspec_schedule_is_the_flavors_schedule():
    """Each flavor's RunSpec.schedule() gives, bit for bit, the envelopes of
    its pulse_design builder, on both channels."""
    p = ScheduleParams()
    ts = np.linspace(0.0, 1.0, 21)
    for spec, direct in (
        (RunSpec(flavor="dressed"), dressed_pulses(p)),
        (RunSpec(flavor="gaussian"), gaussian_fit_pulses(p)),
        (RunSpec(flavor="stirap", omega0=9.8), stirap_pulses(9.8, params=p)),
    ):
        assert np.array_equal(spec.schedule().envelopes(ts), direct.envelopes(ts))


def test_a_schedule_sampled_whole_is_its_node_blocks_bit_for_bit():
    """_run_batch samples each distinct schedule once, on all 2n + 1 RK4
    nodes, and reads the samples block by block. Sampled whole or in
    _NODE_BLOCK-node blocks, a schedule gives the same bytes, for every
    distinct schedule that `reproduce all` plans under either mode and that
    verify plans, at its defaults and at A = 0.003 on 4000 steps: no
    envelope sample depends on its neighbours."""
    plans = [
        check.plan(RunSpec.n_steps, mode)
        for name, check in CHECKS.items()
        if name != "verify"
        for mode in _MODES
    ]
    plans += [CHECKS["verify"].plan(RunSpec.n_steps), CHECKS["verify"].plan(4000, A=0.003)]
    distinct = {(s.schedule_key(), s.n_steps): s for plan in plans for s in plan.specs}
    assert len(distinct) == 32
    for spec in distinct.values():
        schedule, ts = spec.schedule(), node_times(spec.n_steps, spec.duration)
        blocks = [
            schedule.envelopes(ts[start : start + experiments._NODE_BLOCK])
            for start in range(0, len(ts), experiments._NODE_BLOCK)
        ]
        assert schedule.envelopes(ts).tobytes() == np.concatenate(blocks).tobytes(), spec


def test_two_axis_sweep_covers_product():
    records = sweep_grid(BASE, (("g", (10.0, 20.0)), ("kappa_over_g", (0.0, 1e-3))))
    assert len(records) == 4
    combos = {(r.g, r.kappa_over_g) for r in records}
    assert combos == {(10.0, 0.0), (10.0, 1e-3), (20.0, 0.0), (20.0, 1e-3)}
    assert all("g=" in r.label and "kappa_over_g=" in r.label for r in records)


def test_stirap_comparison_curves(tmp_path):
    records, curves = _target("fig5", tmp_path, n_steps=1000)
    labels = {r.label for r in records}
    assert "protocol_g30" in labels and "stirap_9.8_30" in labels
    assert set(curves) == labels
    traj = curves["protocol_g30"]
    assert len(traj.times) == len(traj.fidelities) == 201
    assert (tmp_path / "stirap_comparison.csv").exists()
    assert (tmp_path / "stirap_comparison_final.csv").exists()


def test_dephasing_comparison_orders_protocols(tmp_path):
    records = _target("fig7", tmp_path, n_steps=1000)
    protocol = {r.gammaphi_over_g: r.fidelity for r in records if r.flavor == "gaussian"}
    stirap = {r.gammaphi_over_g: r.fidelity for r in records if r.flavor == "stirap"}
    assert set(protocol) == set(stirap) and len(protocol) == 6
    assert {0.0, 1e-3} <= set(protocol)
    assert all(protocol[v] > stirap[v] for v in protocol)
    assert (tmp_path / "dephasing_comparison.csv").exists()
