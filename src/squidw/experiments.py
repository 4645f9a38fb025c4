"""Reproduce targets, their reference checks, and the one run builder.

Every run is described by a frozen `RunSpec` (flavor, coupling, noise ratios,
variation errors, grid, stored frames) and goes through one builder,
`run_points`. It integrates specs that differ only in label once, and
groups the distinct runs into batches that share closed/open and n_steps;
duration and stored frames stay per point. For each batch it stacks
the cavity Hamiltonians H_c(g) as (B, 10, 10), samples the two channel
envelopes of each distinct schedule once at its 2n+1 RK4 nodes and
integrates H = H_c + a(t) D_a + b(t) D_b for the whole batch in one
propagator call (with the stacked dissipator tables for open runs). An
effective point (the three-level model `verify` checks) has no H_c and its
own pair of drives, and may share a batch with cavity points. Batches
run one after another in the calling process; the `jobs` argument of
run_coupling_sweep and run_reference_decoherence_table is accepted for
compatibility and ignored. A sweep is `sweep_grid`: up to two axes over a
base RunSpec.

Every reproduce target, `simulate` and `sweep` run a `Plan`: its name, its
RunSpecs and a finish step that turns their results into the output and
files. Two builders make
every plan but fig5's: `_plan_records` writes `<name>.csv` of the
ResultRecords (RFC-4180, header row) and `<name>.meta.json`
(schema-versioned), and with reference fidelities also `<name>_compare.csv`
with reference value, computed value, delta and verdict per row;
`_plan_trace` writes one run's stored frames. Every file goes through one
writer, `_write`. Identical inputs give byte-identical files, whatever the
batching.

The bundled reference tables are the expected outcomes. `CHECKS` holds one
`Check` per `reproduce` target plus `verify`: the target's plan and a judge
that turns the plan's output into `Verdict` rows. Every "F within tol of
reference" verdict comes from one `_compare`/`_compared` pair. `reproduce
all` gathers every plan, integrates them in one run_points call (one closed
and one open batch), then finishes and judges target by target. The CLI
prints the verdicts and the acceptance tests assert on them, so every
reference check and its bound is written once, here.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Callable
from dataclasses import astuple, dataclass, fields, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import dressed_frames
from .dynamics import (
    ConvergenceError,
    NoiseModel,
    TimeGrid,
    Trajectory,
    fidelity,
    node_times,
    propagate_lindblad,
    propagate_schrodinger,
)
from .pulse_design import (
    PulseSchedule,
    ScheduleParams,
    dressed_pulses,
    gaussian_fit_pulses,
    intermediate_population_bound,
    scaled,
    stirap_pulses,
    with_duration,
)
from .state_space import (
    DIM,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI5,
    PSI6,
    PSI7,
    PSI8,
    PSI9,
    CouplingConfig,
    basis_state,
    cavity_hamiltonian,
    dark_state,
    drive_hamiltonian,
    effective_hamiltonian,
)

SCHEMA_VERSION = 1
CODE_VERSION = "0.1.0"

FIDELITY_TOLERANCE = 0.01

# Final fidelity versus (kappa/g, gamma/g, gamma_phi/g) at g = 30/T with the
# gaussian flavor; the regression anchors for the decoherence study.
TABLE1_REFERENCE = (
    (1.0e-2, 1.0e-2, 1.0e-3, 0.9389),
    (1.0e-2, 1.0e-2, 0.8e-3, 0.9421),
    (1.0e-2, 0.8e-2, 1.0e-3, 0.9473),
    (0.8e-2, 1.0e-2, 1.0e-3, 0.9390),
    (0.8e-2, 0.8e-2, 0.8e-3, 0.9507),
    (0.8e-2, 0.8e-2, 0.5e-3, 0.9556),
    (0.8e-2, 0.5e-2, 0.8e-3, 0.9635),
    (0.5e-2, 0.8e-2, 0.8e-3, 0.9509),
    (0.5e-2, 0.5e-2, 0.5e-3, 0.9687),
    (0.5e-2, 0.5e-2, 0.3e-3, 0.9721),
    (0.5e-2, 0.3e-2, 0.5e-3, 0.9775),
    (0.3e-2, 0.5e-2, 0.5e-3, 0.9659),
    (0.3e-2, 0.3e-2, 0.3e-3, 0.9811),
    (0.3e-2, 0.3e-2, 0.1e-3, 0.9845),
    (0.3e-2, 0.1e-2, 0.3e-3, 0.9900),
    (0.1e-2, 0.3e-2, 0.3e-3, 0.9812),
    (0.1e-2, 0.1e-2, 0.1e-3, 0.9936),
)

# Reference fidelities versus the error triple (dT/T, dOmega0/Omega0, dg/g).
# Known discrepancy: no row lands within 0.01 under mode="truncate" (each sits
# 0.012-0.026 low). Only 2 of 8 do under mode="rescale", which makes dT nearly
# a no-op although rows that differ only in dT differ by up to 0.0146. See
# README.
TABLE2_REFERENCE = (
    (+0.10, +0.10, +0.10, 0.9907),
    (+0.10, +0.10, -0.10, 0.9907),
    (+0.10, -0.10, +0.10, 0.9944),
    (+0.10, -0.10, -0.10, 0.9944),
    (-0.10, +0.10, +0.10, 0.9965),
    (-0.10, +0.10, -0.10, 0.9964),
    (-0.10, -0.10, +0.10, 0.9798),
    (-0.10, -0.10, -0.10, 0.9796),
)


def variation_quadrants(rows) -> dict:
    """Mean fidelity over dg of each (sign dT, sign dOmega) quadrant of (dT, dOmega, dg, F) rows."""
    groups = {}
    for dt, do, _, f in rows:
        groups.setdefault((int(np.sign(dt)), int(np.sign(do))), []).append(f)
    return {quad: sum(fs) / len(fs) for quad, fs in groups.items()}


def quadrant_order(quad: dict) -> tuple:
    """Quadrant keys of `quad` from the highest fidelity to the lowest."""
    return tuple(sorted(quad, key=quad.get, reverse=True))


# Published ranking of the four (dT, dOmega) sign quadrants, reproduced under
# mode="truncate" only: (-,+) > (+,-) > (+,+) > (-,-). Opposite-sign duration
# and amplitude errors partly cancel; a short run with a weak drive is worst.
TABLE2_QUADRANT_ORDER = quadrant_order(variation_quadrants(TABLE2_REFERENCE))

# (omega0, g, expected F, tolerance) for the baseline comparison.
STIRAP_REFERENCE = (
    (9.8, 30.0, 0.275, 0.03),
    (40.0, 120.0, 0.985, 0.01),
)
# The strongest baseline configuration must clear 0.99 yet stay below the
# dressed protocol.
STIRAP_STRONG = (50.0, 150.0)

DEPHASING_REFERENCE = {"protocol": (0.983, 0.01), "stirap": (0.942, 0.02)}

REALISTIC_RATIOS = (1.32 / 180.0, 1.32 / 180.0, 0.01 / 180.0)
REALISTIC_REFERENCE = 0.9659

# Fig. 3: the closed-system fidelity needs a strong coupling. It clears the
# strong floor at g = 30/T and the moderate floor at g = 20, 15 and 10/T, and
# stays below the weak ceiling at g = 1/T, where the cavity cannot mediate.
STRONG_COUPLING_FLOOR = 0.99
MODERATE_COUPLING_FLOOR = 0.98
WEAK_COUPLING_CEILING = 0.9
COUPLING_FLOORS = (
    (30.0, STRONG_COUPLING_FLOOR),
    (20.0, MODERATE_COUPLING_FLOOR),
    (15.0, MODERATE_COUPLING_FLOOR),
    (10.0, MODERATE_COUPLING_FLOOR),
)

# verify's dressing-amplitude trade-off: a smaller A needs a larger peak drive
# and allows less intermediate-state population, sin^2 A.
TRADEOFF_AMPLITUDES = (0.2, 0.35, 0.5)


# ---------------------------------------------------------------------------
# reference checks: one entry per reproduce target, plus verify


class Verdict(NamedTuple):
    """One judged reference check.

    known_discrepancy marks a check that fails under at least one reading of
    the paper, as documented in README ("Known discrepancy").
    """

    label: str
    passed: bool
    detail: str
    known_discrepancy: bool = False


class Plan(NamedTuple):
    """A command's runs: finish(results, outdir) turns the run_points results
    of specs into the command's output, writing its files when outdir is
    given; the one sidecar it writes is `<name>.meta.json`."""

    name: str
    specs: list
    finish: Callable


class Check(NamedTuple):
    """A reproduce target: its plan, its judge, and the note its known
    discrepancy prints.

    plan(n_steps, mode) returns the target's Plan; judge(output) turns the
    plan's output into verdicts. Planning apart from running lets `reproduce
    all` integrate every target's points in one run_points call.
    """

    plan: Callable
    judge: Callable
    note: str = ""

    def __call__(self, outdir=None, n_steps: int = 2000, mode: str = "rescale") -> list[Verdict]:
        """Plan, run, write and judge this target alone."""
        return self.judge(_run_plan(self.plan(n_steps, mode), outdir))

    def note_for(self, verdicts) -> str:
        """The note if a known discrepancy shows among the verdicts, else ''."""
        shown = any(v.known_discrepancy and not v.passed for v in verdicts)
        return self.note if shown else ""


def _compare(label: str, reference: float, computed: float, tol: float) -> dict:
    delta = computed - reference
    return {
        "label": label,
        "reference": reference,
        "computed": computed,
        "delta": delta,
        "tolerance": tol,
        "passed": bool(abs(delta) <= tol),
    }


def _compared(label: str, c: dict, known_discrepancy: bool = False) -> Verdict:
    """The verdict of a reference comparison (see _compare)."""
    return Verdict(
        label,
        c["passed"],
        f"F={c['computed']:.4f}, reference {c['reference']}+-{c['tolerance']}",
        known_discrepancy,
    )


def _judge_compared(prefix: str, known_discrepancy: bool = False) -> Callable:
    """The judge of a (records, comparisons) output: one verdict per comparison."""
    return lambda output: [_compared(prefix + c["label"], c, known_discrepancy) for c in output[1]]


def _judge_fig3(records) -> list[Verdict]:
    """A coupling the records lack reads F = nan, which fails its verdict."""
    f = {r.g: r.fidelity for r in records}
    out = []
    for g, floor in COUPLING_FLOORS:
        fid = f.get(g, math.nan)
        out.append(Verdict(f"fig3 g={g:g}", fid >= floor, f"F={fid:.4f}, need >= {floor}"))
    weak, ceiling = f.get(1.0, math.nan), WEAK_COUPLING_CEILING
    out.append(Verdict("fig3 g=1", weak < ceiling, f"F={weak:.4f}, need < {ceiling}"))
    return out


def _dark_mode(traj: Trajectory, params: ScheduleParams) -> tuple[float, float]:
    """(max |P_phi0 - sin^2 mu|, max P_phi0) over traj's stored frames: how
    closely the population of the cavity's dark mode rides the
    intermediate-state population sin^2 mu of params, and its peak."""
    pops = np.abs(traj.states @ dark_state().conj()) ** 2
    deviation = np.abs(pops - intermediate_population_bound(traj.times, params))
    return float(np.max(deviation)), float(np.max(pops))


def _judge_fig4(traj) -> list[Verdict]:
    pops = traj.populations
    p1_start = pops[0][PSI1]
    thirds = pops[-1][PSI7 : PSI9 + 1]
    max_p3 = float(np.max(pops[:, PSI3]))
    tracking, peak = _dark_mode(traj, ScheduleParams())
    return [
        Verdict("fig4 P1(0)", abs(p1_start - 1.0) < 1e-9, f"P1(0)={p1_start:.6f}"),
        Verdict(
            "fig4 W components",
            all(abs(p - 1.0 / 3.0) <= 0.01 for p in thirds),
            "P7,P8,P9(T)=" + ",".join(f"{p:.4f}" for p in thirds) + ", need 1/3 each +-0.01",
        ),
        Verdict("fig4 max P3", max_p3 < 0.01, f"max={max_p3:.5f}, need < 0.01"),
        Verdict(
            "fig4 dark-mode tracking",
            tracking <= 0.02 and peak <= 0.25,
            f"max |P_phi0 - sin^2 mu| = {tracking:.4f}, need <= 0.02; "
            f"peak P_phi0 = {peak:.4f}, need <= 0.25",
        ),
    ]


def _judge_fig5(output) -> list[Verdict]:
    records, _ = output
    f = {r.label: r.fidelity for r in records}
    protocol = f["protocol_g30"]
    out = []
    for omega0, g, ref, tol in STIRAP_REFERENCE:
        label = f"stirap_{omega0:g}_{g:g}"
        out.append(_compared(f"fig5 stirap ({omega0:g},{g:g})", _compare(label, ref, f[label], tol)))
    omega0, g = STIRAP_STRONG
    strong = f[f"stirap_{omega0:g}_{g:g}"]
    out.append(
        Verdict(
            f"fig5 stirap ({omega0:g},{g:g})",
            strong > 0.99 and strong < protocol,
            f"F={strong:.4f}, need > 0.99 and below protocol {protocol:.4f}",
        )
    )
    return out


def _judge_fig6(records) -> list[Verdict]:
    """Fidelity falls along each rate axis, up to 1e-4 of integrator noise."""
    names = ("kappa_over_g", "gamma_over_g", "gammaphi_over_g")
    per_axis: dict[str, list] = {}
    for rec in records:
        coords = (rec.kappa_over_g, rec.gamma_over_g, rec.gammaphi_over_g)
        nonzero = [i for i, c in enumerate(coords) if c > 0]
        if nonzero:
            per_axis.setdefault(names[nonzero[0]], []).append((coords[nonzero[0]], rec.fidelity))
        else:
            for name in names:
                per_axis.setdefault(name, []).append((0.0, rec.fidelity))
    out = []
    for name, pts in sorted(per_axis.items()):
        fids = [f for _, f in sorted(pts)]
        out.append(
            Verdict(
                f"fig6 {name} monotone",
                all(fids[i + 1] <= fids[i] + 1e-4 for i in range(len(fids) - 1)),
                f"F drops {fids[0]:.4f} -> {fids[-1]:.4f} over the scan",
            )
        )
    return out


def _judge_fig7(records) -> list[Verdict]:
    protocol = {r.gammaphi_over_g: r.fidelity for r in records if r.flavor == "gaussian"}
    stirap = {r.gammaphi_over_g: r.fidelity for r in records if r.flavor == "stirap"}
    top = max(protocol)
    out = []
    for name, curve in (("protocol", protocol), ("stirap", stirap)):
        ref, tol = DEPHASING_REFERENCE[name]
        out.append(_compared(f"fig7 {name} at 1e-3", _compare(name, ref, curve[top], tol)))
    out.append(
        Verdict(
            "fig7 ordering",
            all(protocol[v] > stirap[v] for v in protocol),
            "protocol above baseline at every dephasing value",
        )
    )
    return out


def _judge_fig8(records) -> list[Verdict]:
    """Coupling-error insensitivity and the published (dT, dOmega) quadrant order."""
    f = {(r.delta_t, r.delta_omega, r.delta_g): r.fidelity for r in records}
    base = f[(0.0, 0.0, 0.0)]
    dg_dev = max(abs(f[(0.0, 0.0, s * 0.10)] - base) for s in (+1, -1))
    quad = {(a, b): f[(a * 0.10, b * 0.10, 0.0)] for a in (+1, -1) for b in (+1, -1)}
    order = quadrant_order(quad)
    return [
        Verdict(
            "fig8 dg insensitivity",
            dg_dev < 1e-3,
            f"|F(dg=+-10%) - F(0)| = {dg_dev:.2e}, need < 1e-3",
        ),
        Verdict(
            "fig8 sign correlation",
            order == TABLE2_QUADRANT_ORDER,
            "(dT,dOmega) quadrants "
            + " > ".join(f"({a:+d},{b:+d})={quad[(a, b)]:.4f}" for a, b in order)
            + ", published order "
            + " > ".join(f"({a:+d},{b:+d})" for a, b in TABLE2_QUADRANT_ORDER),
            known_discrepancy=True,
        ),
    ]


def _judge_verify(m: dict) -> list[Verdict]:
    report = m["cancellation"]
    peaks, bounds = m["peak_drives"], m["population_bounds"]
    return [
        Verdict("spin-1 commutators", m["commutator"] < 1e-15, f"max residual {m['commutator']:.2e}"),
        Verdict("dressing endpoints", m["endpoints"] < 1e-10, f"max |V - I| {m['endpoints']:.2e}"),
        Verdict(
            "dressed-frame cancellation",
            report["passed"],
            f"worst (0,+-) residual {max(report['max_offdiag_0p'], report['max_offdiag_0m']):.2e} "
            f"relative, (+,-) {report['max_offdiag_pm']:.2e}",
        ),
        Verdict(
            "cavity spectrum", m["spectrum"] < 1e-9, f"max eigenvalue deviation {m['spectrum']:.2e}"
        ),
        Verdict(
            "effective-model shortcut",
            m["effective_fidelity"] >= 0.9999 and m["tracking"] <= 1e-3,
            f"F={m['effective_fidelity']:.6f}, max |P_phi0 - sin^2 mu| = {m['tracking']:.2e}",
        ),
        Verdict(
            "zero-noise equivalence",
            m["zero_noise_gap"] < 1e-7,
            f"|F_schrodinger - F_lindblad| = {m['zero_noise_gap']:.2e}",
        ),
        Verdict(
            "integrator vs matrix exponential",
            m["integrator"] < 1e-8,
            f"max state deviation {m['integrator']:.2e}",
        ),
        Verdict(
            "permutation symmetry",
            m["symmetry"] < 1e-9,
            f"max amplitude difference among qubits 1-3 {m['symmetry']:.2e}",
        ),
        Verdict(
            "dressing-amplitude trade-off",
            all(a > b for a, b in zip(peaks, peaks[1:]))
            and all(a < b for a, b in zip(bounds, bounds[1:])),
            "peak drive " + " > ".join(f"{p:.2f}" for p in peaks)
            + " /T and sin^2 A " + " < ".join(f"{b:.4f}" for b in bounds)
            + " at A = " + ", ".join(f"{a:g}" for a in TRADEOFF_AMPLITUDES),
        ),
        Verdict(
            "effective vs full model",
            m["effective_overlap"] >= 0.999,
            f"|<psi_eff|psi_full>|^2 = {m['effective_overlap']:.10f} at g=300, need >= 0.999",
        ),
    ]


_FLAVORS = ("dressed", "gaussian", "stirap")
_MODES = ("rescale", "truncate")


@dataclass
class ResultRecord:
    """One resolved sweep point: inputs, final fidelity, diagnostics."""

    label: str
    flavor: str
    g: float
    kappa_over_g: float
    gamma_over_g: float
    gammaphi_over_g: float
    delta_t: float
    delta_omega: float
    delta_g: float
    omega0: float | None
    n_steps: int
    duration: float
    fidelity: float
    drift: float
    min_eigenvalue: float | None
    code_version: str = CODE_VERSION


# The CSV columns are the fields in order; a record's row is its astuple.
ResultRecord.CSV_HEADER = tuple(f.name for f in fields(ResultRecord))


def build_schedule(
    flavor: str,
    params: ScheduleParams,
    omega0: float | None = None,
) -> PulseSchedule:
    if flavor == "dressed":
        return dressed_pulses(params)
    if flavor == "gaussian":
        return gaussian_fit_pulses(params)
    if flavor == "stirap":
        if omega0 is None:
            raise ValueError("stirap flavor needs omega0")
        return stirap_pulses(omega0, params=params)
    raise ValueError(f"unknown flavor {flavor!r}")


@dataclass(frozen=True)
class RunSpec:
    """One run from |psi1>: drive, coupling, noise, errors, grid and frames.

    Rates are ratios to the nominal coupling g and act at the erroneous
    coupling g (1 + delta_g). The run lasts 1 + delta_t; mode="rescale"
    re-parameterizes the waveforms by that duration, mode="truncate" keeps the
    nominal waveforms and cuts or extends the run window (README, "Known
    discrepancy"). master_equation integrates the density matrix even when
    every rate is zero.

    An effective point runs the three-level effective model: H = a(t) D_a +
    b(t) D_b with the effective drives, no cavity (so g only labels its
    record), and the envelopes of its schedule, which for the dressed flavor
    are exactly Omega_a and Omega_b. It is closed and has no coupling error.
    """

    label: str = ""
    flavor: str = "gaussian"
    g: float = 30.0
    A: float = 0.5
    kappa_over_g: float = 0.0
    gamma_over_g: float = 0.0
    gammaphi_over_g: float = 0.0
    delta_t: float = 0.0
    delta_omega: float = 0.0
    delta_g: float = 0.0
    omega0: float | None = None
    n_steps: int = 2000
    mode: str = "rescale"
    n_frames: int = 2
    master_equation: bool = False
    effective: bool = False

    def __post_init__(self) -> None:
        for name in ("g", "A", "kappa_over_g", "gamma_over_g", "gammaphi_over_g",
                     "delta_t", "delta_omega", "delta_g"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.omega0 is not None:
            object.__setattr__(self, "omega0", float(self.omega0))
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "n_frames", int(self.n_frames))
        TimeGrid(self.n_steps)  # raises on a step count the integration grid refuses
        if self.flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}, got {self.flavor!r}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown variation mode {self.mode!r}")
        if self.delta_t <= -1.0:
            raise ValueError("delta_t must exceed -1")
        if not -1.0 < self.delta_omega < math.inf:  # nan fails both
            raise ValueError(f"delta_omega must be finite and exceed -1, got {self.delta_omega}")
        if self.omega0 is not None and self.flavor != "stirap":
            raise ValueError(
                f"omega0 is the stirap channel peak; flavor {self.flavor!r} takes none"
            )
        if self.effective and (
            self.master_equation
            or self.delta_g != 0.0
            or any((self.kappa_over_g, self.gamma_over_g, self.gammaphi_over_g))
        ):
            raise ValueError(
                "an effective point is closed and has no cavity: it takes no rates, "
                "master_equation or delta_g"
            )
        self.noise  # raises on a coupling or rate that CouplingConfig or NoiseModel refuses

    @property
    def duration(self) -> float:
        return 1.0 + self.delta_t

    @property
    def coupling(self) -> CouplingConfig:
        return CouplingConfig(g=self.g * (1.0 + self.delta_g), T=self.duration)

    @property
    def noise(self) -> NoiseModel:
        g_eff = self.coupling.g
        return NoiseModel(
            kappa=self.kappa_over_g * g_eff,
            gamma=self.gamma_over_g * g_eff,
            gamma_phi=self.gammaphi_over_g * g_eff,
        )

    @property
    def closed(self) -> bool:
        return not self.master_equation and self.noise.is_closed

    def schedule(self) -> PulseSchedule:
        if self.mode == "rescale":
            params = ScheduleParams(T=self.duration, A=self.A)
            schedule = build_schedule(self.flavor, params, self.omega0)
        else:
            schedule = build_schedule(self.flavor, ScheduleParams(T=1.0, A=self.A), self.omega0)
            schedule = with_duration(schedule, self.duration)
        if self.delta_omega != 0.0:
            schedule = scaled(schedule, 1.0 + self.delta_omega)
        return schedule

    def schedule_key(self) -> tuple:
        """The fields that set schedule(): equal keys, equal schedules."""
        return (self.flavor, self.A, self.omega0, self.mode, self.delta_t, self.delta_omega)

    def record(self, traj: Trajectory) -> ResultRecord:
        """The CSV row of this run, from its one-point trajectory: the fields
        it shares with ResultRecord by name, and the outcome."""
        return ResultRecord(
            **{k: getattr(self, k) for k in ResultRecord.CSV_HEADER if hasattr(self, k)},
            fidelity=fidelity(traj.final_state),
            drift=traj.drift,
            min_eigenvalue=traj.min_eigenvalue,
        )


_AXIS_TO_KEY = {
    "g": "g",
    "kappa_over_g": "kappa_over_g",
    "gamma_over_g": "gamma_over_g",
    "gammaphi_over_g": "gammaphi_over_g",
    "dT_over_T": "delta_t",
    "dOmega_over_Omega": "delta_omega",
    "dg_over_g": "delta_g",
    "omega0_stirap": "omega0",
}


def _axis_field(name: str) -> str:
    """The RunSpec field a sweep axis sets: name, a field a sweep may vary,
    or the field its alias in _AXIS_TO_KEY names."""
    key = _AXIS_TO_KEY.get(name, name)
    if key not in _AXIS_TO_KEY.values():
        raise ValueError(f"unknown axis {name!r}; choose from {sorted(_AXIS_TO_KEY)}")
    return key


def sweep_grid(base: RunSpec, axes) -> list[RunSpec]:
    """The cartesian grid of up to two (name, values) axes on distinct fields
    over base: one RunSpec per point, which sets each axis's _axis_field to
    one of its values and is labelled by them."""
    if len(axes) > 2:
        raise ValueError("at most two sweep axes are supported")
    points = [{}]
    for name, values in axes:
        key = _axis_field(name)
        if key in points[0]:
            raise ValueError(f"axis {name!r} sets {key}, which another axis sets")
        if len(tuple(values)) == 0:
            raise ValueError(f"axis {name!r} has no values")
        points = [dict(p, **{key: float(v)}) for p in points for v in values]
    return [
        replace(base, label=",".join(f"{k}={v:g}" for k, v in sorted(p.items())) or "base", **p)
        for p in points
    ]


# Channel a drives qubits 1-3 and channel b qubit 4, each at sqrt(2) times
# its envelope (PulseSchedule.qubit_amplitudes), so the drive part of H is
# a(t) D_a + b(t) D_b.
_SQRT2 = math.sqrt(2.0)
_CHANNEL_DRIVES = (
    drive_hamiltonian([_SQRT2, _SQRT2, _SQRT2, 0.0]),
    drive_hamiltonian([0.0, 0.0, 0.0, _SQRT2]),
)
# The effective three-level model: omega_a couples W, omega_b couples psi1.
_EFFECTIVE_DRIVES = (effective_hamiltonian(1.0, 0.0), effective_hamiltonian(0.0, 1.0))


# RK4 nodes whose envelopes are sampled at a time, so that a batch holds a
# block of its drive history rather than all 2n+1 nodes of it.
_NODE_BLOCK = 256


def _integrate(
    h0, drives, sample, state0, durations, n_steps, n_frames, noises=None
) -> Trajectory:
    """B points on one step count: H_b(t) = h0[b] + a_b(t) D_a[b] + b_b(t) D_b[b].

    h0 and each of the drives (D_a, D_b) are (B, 10, 10), durations and
    n_frames one value per point, and sample(ts) the (len(ts[b]), B, 2)
    channel envelopes with point b's at its own times ts[b]. The envelopes
    are sampled block by block at each point's node_times(n_steps,
    duration_b). The propagators call h_fn once per node, in increasing k,
    and it keeps one H buffer, starting as h0: at each node it rewrites only
    the entries where some point's D_a or D_b is nonzero, as
    h0 + a D_a + b D_b (a point whose drives are zero at such an entry gets
    its h0 entry back exactly). When k leaves the current node block, the
    next block's entries are summed in one broadcast into a contiguous
    (nodes, B * entries) array; each node is then one write of its row
    through a flat index of those entries in H. For a batch of cavity points
    those are the same 8 entries as for one point. So H is assembled once
    per node and never stored for the whole run. noises, one NoiseModel per
    point, selects the master equation.
    """
    d_a, d_b = drives
    grids = {d: node_times(n_steps, d) for d in set(durations)}
    nodes = [grids[d] for d in durations]
    rows, cols = np.nonzero(((d_a != 0) | (d_b != 0)).any(axis=0))
    base, da, db = h0[:, rows, cols], d_a[:, rows, cols], d_b[:, rows, cols]
    H = h0.copy()
    flat = H.reshape(-1)
    index = (np.arange(len(h0))[:, None] * (DIM * DIM) + rows * DIM + cols).ravel()
    start, entries = 0, np.empty((0, index.size))

    def h_fn(k: int) -> np.ndarray:
        nonlocal start, entries
        if k - start == len(entries):
            start = k
            env = sample([t[start : start + _NODE_BLOCK] for t in nodes])[..., None]
            # The block's drive entries, (nodes, B, entries), each summed as
            # (base + a D_a) + b D_b, then one row per node.
            block = env[:, :, 0] * da
            block += base
            block += env[:, :, 1] * db
            entries = block.reshape(len(block), -1)
        flat[index] = entries[k - start]
        return H

    grid = TimeGrid(n_steps)
    duration = np.array(durations, dtype=float)
    if noises is None:
        psi0 = np.tile(state0, (len(h0), 1))
        return propagate_schrodinger(h_fn, psi0, grid, duration=duration, n_frames=n_frames)
    rho0 = np.tile(np.outer(state0, state0.conj()), (len(h0), 1, 1))
    return propagate_lindblad(h_fn, noises, rho0, grid, duration=duration, n_frames=n_frames)


def _run_batch(specs: list[RunSpec]) -> list[Trajectory]:
    """Integrate specs that share closed/open and n_steps, each at its own
    duration and with its own stored frames; one trajectory per spec.

    Each distinct schedule is built and sampled once per node block, and its
    samples serve every point that uses it. Open points pass their
    NoiseModel, from which the propagator builds its dissipator tables.
    Effective points run without the cavity, on the effective drives.
    """
    first = specs[0]
    h0 = np.stack(
        [np.zeros((DIM, DIM)) if s.effective else cavity_hamiltonian(s.coupling) for s in specs]
    )
    drives = [_EFFECTIVE_DRIVES if s.effective else _CHANNEL_DRIVES for s in specs]
    distinct: dict[tuple, int] = {}
    which = [distinct.setdefault(s.schedule_key(), len(distinct)) for s in specs]
    # Points that share a schedule share its duration, so the first one's
    # node times serve them all.
    firsts = [which.index(u) for u in range(len(distinct))]
    schedules = [specs[b].schedule() for b in firsts]

    def sample(ts):
        samples = [sch.envelopes(ts[b]) for sch, b in zip(schedules, firsts)]
        return np.stack(samples, axis=1)[:, which]

    try:
        traj = _integrate(
            h0,
            (np.stack([d_a for d_a, _ in drives]), np.stack([d_b for _, d_b in drives])),
            sample,
            basis_state(PSI1),
            [s.duration for s in specs],
            first.n_steps,
            [s.n_frames for s in specs],
            None if first.closed else [s.noise for s in specs],
        )
    except ConvergenceError as exc:
        # A batch mixes drivers' points; name the one that failed.
        if exc.point is None or not specs[exc.point].label:
            raise
        raise ConvergenceError(f"{exc}, run {specs[exc.point].label!r}") from exc
    return [traj.point(b) for b in range(len(specs))]


def run_points(specs) -> list[tuple[ResultRecord, Trajectory]]:
    """Run every spec through one builder; (record, trajectory) per spec, in order.

    Specs that differ only in label are one run: it is integrated once, for
    the first of them, and each records it under its own label. Runs that
    share closed/open and n_steps form one batch, whatever their durations
    and stored frames. A point's result does not depend on its batch, so any
    grouping gives the same bytes.
    """
    specs = list(specs)
    keys = [replace(s, label="") for s in specs]
    runs: dict[RunSpec, RunSpec] = {}
    for key, s in zip(keys, specs):
        runs.setdefault(key, s)
    batches: dict[tuple, list[RunSpec]] = {}
    for key in runs:
        batches.setdefault((key.closed, key.n_steps), []).append(key)
    trajectories = {}
    for members in batches.values():
        trajectories.update(zip(members, _run_batch([runs[key] for key in members])))
    return [(s.record(trajectories[key]), trajectories[key]) for s, key in zip(specs, keys)]


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_meta(path, name: str, payload: dict) -> None:
    meta = {"schema_version": SCHEMA_VERSION, "code_version": CODE_VERSION, "driver": name}
    meta.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write(outdir, name: str, header, rows, meta: dict | None = None) -> None:
    """<name>.csv in outdir, and its <name>.meta.json sidecar when meta is
    given; nothing when outdir is None."""
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, f"{name}.csv"), header, rows)
    if meta is not None:
        write_meta(os.path.join(outdir, f"{name}.meta.json"), name, meta)


COMPARE_HEADER = ("label", "reference", "computed", "delta", "status")
TRACE_HEADER = ("t", "fidelity") + tuple(f"P{i}" for i in range(1, 10)) + ("PG",)


# ---------------------------------------------------------------------------
# plans


def _run_plans(plans, outdir) -> list:
    """Integrate every plan's specs in one run_points call, then finish the
    plans in order; one output per plan."""
    results = iter(run_points([spec for plan in plans for spec in plan.specs]))
    return [plan.finish(list(islice(results, len(plan.specs))), outdir) for plan in plans]


def _run_plan(plan: Plan, outdir):
    [output] = _run_plans([plan], outdir)
    return output


def _plan_records(name: str, specs, meta: dict, refs=None) -> Plan:
    """specs, finished as <name>.csv of their records with meta; with refs
    (one reference fidelity per spec) also as <name>_compare.csv of their
    comparisons. The output is the records, or (records, comparisons)."""

    def finish(results, outdir):
        records = [record for record, _ in results]
        _write(outdir, name, ResultRecord.CSV_HEADER, map(astuple, records), meta)
        if refs is None:
            return records
        comparisons = [
            _compare(r.label, ref, r.fidelity, FIDELITY_TOLERANCE) for r, ref in zip(records, refs)
        ]
        rows = [
            (c["label"], c["reference"], c["computed"], c["delta"], "pass" if c["passed"] else "FAIL")
            for c in comparisons
        ]
        _write(outdir, f"{name}_compare", COMPARE_HEADER, rows)
        return records, comparisons

    return Plan(name, specs, finish)


def _plan_trace(name: str, spec: RunSpec, meta: dict) -> Plan:
    """One spec, finished as <name>.csv of its stored frames (time, fidelity,
    populations) with meta. The output is its trajectory."""

    def finish(results, outdir) -> Trajectory:
        [(_, traj)] = results
        _write(outdir, name, TRACE_HEADER, zip(traj.times, traj.fidelities, *traj.populations.T), meta)
        return traj

    return Plan(name, [spec], finish)


def _axes_meta(axes) -> list:
    """Sweep axes as a meta records them: each name as given, its values as floats."""
    return [[n, [float(v) for v in vs]] for n, vs in axes]


# A reproduce target plans from (n_steps, mode); one without a duration
# error ignores mode. `reproduce all` gathers every target's plan and runs
# them in one run_points call (see CHECKS).


def _plan_coupling_sweep(n_steps: int, mode=None, g_values=None):
    if g_values is None:
        g_values = [float(g) for g in range(1, 31)]
    axes = (("g", tuple(g_values)),)
    base = RunSpec(n_steps=n_steps)
    meta = {"flavor": base.flavor, "g": base.g, "axes": _axes_meta(axes), "n_steps": n_steps,
            "mode": base.mode}
    return _plan_records("coupling_sweep", sweep_grid(base, axes), meta)


def run_coupling_sweep(g_values=None, outdir=None, jobs: int = 1, n_steps: int = 2000):
    """Closed-system final fidelity versus the coupling g (gaussian flavor)."""
    return _run_plan(_plan_coupling_sweep(n_steps, g_values=g_values), outdir)


def _plan_population_trace(n_steps: int, mode=None):
    meta = {"flavor": "gaussian", "g": 30.0, "n_steps": n_steps, "closed_system": True}
    return _plan_trace("population_trace", RunSpec(n_steps=n_steps, n_frames=401), meta)


def _plan_stirap_comparison(n_steps: int, mode=None):
    configs = [(omega0, g) for omega0, g, _, _ in STIRAP_REFERENCE] + [STIRAP_STRONG]
    specs = [RunSpec(label="protocol_g30", g=30.0, n_steps=n_steps, n_frames=201)]
    specs += [
        RunSpec(
            label=f"stirap_{omega0:g}_{g:g}",
            flavor="stirap",
            g=g,
            omega0=omega0,
            n_steps=n_steps,
            n_frames=201,
        )
        for omega0, g in configs
    ]
    meta = {"configs": [[s.omega0, s.g] for s in specs[1:]], "n_steps": n_steps}

    def finish(results, outdir):
        records = [record for record, _ in results]
        curves: dict[str, Trajectory] = {record.label: traj for record, traj in results}
        rows = [
            (label, t, f) for label, traj in curves.items() for t, f in zip(traj.times, traj.fidelities)
        ]
        _write(outdir, "stirap_comparison", ("label", "t", "fidelity"), rows, meta)
        _write(outdir, "stirap_comparison_final", ResultRecord.CSV_HEADER, map(astuple, records))
        return records, curves

    return Plan("stirap_comparison", specs, finish)


_DECOHERENCE_AXES = (
    ("kappa_over_g", tuple(np.linspace(0.0, 1.0e-2, 6))),
    ("gamma_over_g", tuple(np.linspace(0.0, 1.0e-2, 6))),
    ("gammaphi_over_g", tuple(np.linspace(0.0, 1.0e-3, 6))),
)


def _plan_decoherence_grid(n_steps: int, mode=None):
    base = RunSpec(n_steps=n_steps)
    return _plan_records(
        "decoherence_grid",
        [spec for axis in _DECOHERENCE_AXES for spec in sweep_grid(base, (axis,))],
        {"axes": _axes_meta(_DECOHERENCE_AXES), "n_steps": n_steps, "g": 30.0},
    )


def _plan_decoherence_table(n_steps: int, mode=None):
    specs = [
        RunSpec(
            label=f"k{kog:g}_g{gog:g}_p{pog:g}",
            kappa_over_g=kog,
            gamma_over_g=gog,
            gammaphi_over_g=pog,
            n_steps=n_steps,
        )
        for kog, gog, pog, _ in TABLE1_REFERENCE
    ]
    meta = {"rows": len(specs), "g": 30.0, "n_steps": n_steps}
    return _plan_records("table1", specs, meta, [row[3] for row in TABLE1_REFERENCE])


def run_reference_decoherence_table(outdir=None, jobs: int = 1, n_steps: int = 2000):
    """All 17 reference decoherence rows plus the side-by-side comparison."""
    return _run_plan(_plan_decoherence_table(n_steps), outdir)


_DEPHASING_VALUES = tuple(np.linspace(0.0, 1.0e-3, 6))


def _plan_dephasing_comparison(n_steps: int, mode=None):
    """Protocol versus the strongest STIRAP baseline as dephasing grows."""
    specs = [
        RunSpec(label=f"protocol_p{v:g}", gammaphi_over_g=v, n_steps=n_steps)
        for v in _DEPHASING_VALUES
    ]
    specs += [
        RunSpec(
            label=f"stirap_p{v:g}",
            flavor="stirap",
            g=STIRAP_STRONG[1],
            gammaphi_over_g=v,
            omega0=STIRAP_STRONG[0],
            n_steps=n_steps,
        )
        for v in _DEPHASING_VALUES
    ]
    meta = {
        "gammaphi_over_g": [float(v) for v in _DEPHASING_VALUES],
        "n_steps": n_steps,
        "assumption": "baseline pair (omega0, g) = (50, 150)/T, the only "
        "configuration of the comparison set that clears 0.99 when closed",
    }
    return _plan_records("dephasing_comparison", specs, meta)


def _plan_variation(n_steps: int, mode: str, rows=TABLE2_REFERENCE, name="table2"):
    """Rows of signed errors on duration, amplitude and coupling, (dT,
    dOmega, dg), or (dT, dOmega, dg, F) to compare each with a reference F."""
    specs = [
        RunSpec(
            label=f"dT{dt:+g}_dO{do:+g}_dg{dg:+g}",
            delta_t=dt,
            delta_omega=do,
            delta_g=dg,
            n_steps=n_steps,
            mode=mode,
        )
        for dt, do, dg, *_ in rows
    ]
    meta = {"mode": mode, "rows": len(specs), "n_steps": n_steps}
    refs = [row[3] for row in rows] if len(rows[0]) > 3 else None
    return _plan_records(name, specs, meta, refs)


_SCAN_DELTAS = (-0.10, -0.05, 0.0, 0.05, 0.10)
_SCAN_ROWS = (
    tuple((d, 0.0, 0.0) for d in _SCAN_DELTAS)
    + tuple((0.0, d, 0.0) for d in _SCAN_DELTAS)
    + tuple((0.0, 0.0, d) for d in _SCAN_DELTAS)
    + tuple((a, b, 0.0) for a in (0.10, -0.10) for b in (0.10, -0.10))
)


def _plan_variation_scan(n_steps: int, mode: str):
    return _plan_variation(n_steps, mode, _SCAN_ROWS, "variation_scan")


def _plan_realistic(n_steps: int, mode=None):
    kog, gog, pog = REALISTIC_RATIOS
    spec = RunSpec(
        label="realistic",
        kappa_over_g=kog,
        gamma_over_g=gog,
        gammaphi_over_g=pog,
        n_steps=n_steps,
    )
    meta = {"ratios": list(REALISTIC_RATIOS), "n_steps": n_steps}
    return _plan_records("realistic", [spec], meta, [REALISTIC_REFERENCE])


def _effective_spec(params: ScheduleParams, n_steps: int) -> RunSpec:
    """The effective model under the exact corrected controls, 500 stored frames."""
    return RunSpec(
        label="effective_model",
        flavor="dressed",
        A=params.A,
        delta_t=params.T - 1.0,
        n_steps=n_steps,
        n_frames=500,
        effective=True,
    )


def run_effective_model(point, A: float) -> tuple[float, float]:
    """(final fidelity, max |P_phi0 - sin^2 mu| over stored frames) of an
    effective point (_effective_spec) run at dressing amplitude A, given as
    its run_points (record, trajectory). The shortcut is exact at this
    level, so the fidelity should be ~1 and the dark-subspace population
    should ride sin^2 mu tightly."""
    record, traj = point
    tracking, _ = _dark_mode(traj, ScheduleParams(T=record.duration, A=A))
    return record.fidelity, tracking


def _expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def _verify(g: float = 30.0, A: float = 0.5, n_steps: int = 2000) -> list[Verdict]:
    """The verdicts of `squidw verify`."""
    return _judge_verify(_measure_verify(g, A, n_steps))


def _measure_verify(g: float, A: float, n_steps: int) -> dict:
    """The numbers `verify` judges: dressed-frame algebra and integrator oracles.

    The effective model, the zero-noise Schrodinger/Lindblad pair at g and
    the full dressed model at g = 300/T run in one run_points call (one
    closed batch of three at the default steps, and one open batch). The
    integrator oracle stays a direct propagator call: it checks RK4 under a
    piecewise-constant H, which no RunSpec describes. The dressing-amplitude
    trade-off reads pulse envelopes only.
    """
    m_x, m_y, m_z = dressed_frames.SPIN1
    out = {
        "commutator": max(
            float(np.max(np.abs(m_x @ m_y - m_y @ m_x - 1j * m_z))),
            float(np.max(np.abs(m_y @ m_z - m_z @ m_y - 1j * m_x))),
            float(np.max(np.abs(m_z @ m_x - m_x @ m_z - 1j * m_y))),
        )
    }

    params = ScheduleParams(A=A)
    out["endpoints"] = max(
        float(np.max(np.abs(dressed_frames.dressing_transform(t, params) - np.eye(3))))
        for t in (0.0, params.T)
    )
    out["cancellation"] = dressed_frames.verify_cancellation(params, n_grid=100)

    hc = cavity_hamiltonian(CouplingConfig(g=g))
    eigs = np.sort(np.linalg.eigvalsh(hc[PSI2 : PSI6 + 1, PSI2 : PSI6 + 1]))
    expected = np.sort([-math.sqrt(6) * g, 0.0, 0.0, 0.0, math.sqrt(6) * g])
    out["spectrum"] = float(np.max(np.abs(eigs - expected)))

    closed = RunSpec(g=g, A=A, n_steps=max(1000, min(n_steps, 2000)))
    effective, schrodinger, lindblad, full = run_points([
        _effective_spec(params, n_steps),
        closed,
        replace(closed, master_equation=True),
        replace(closed, flavor="dressed", g=300.0),
    ])
    out["effective_fidelity"], out["tracking"] = run_effective_model(effective, A)
    out["zero_noise_gap"] = abs(schrodinger[0].fidelity - lindblad[0].fidelity)
    overlap = np.vdot(effective[1].final_state, full[1].final_state)
    out["effective_overlap"] = float(abs(overlap) ** 2)
    # Swapping two of the qubits 1-3 exchanges their excited amplitudes
    # (psi4-6) and their W components (psi7-9).
    psi = schrodinger[1].final_state
    swapped = psi[[PSI5, PSI6, PSI8, PSI9]] - psi[[PSI4, PSI4, PSI7, PSI7]]
    out["symmetry"] = float(np.max(np.abs(swapped)))
    out["peak_drives"] = [
        dressed_pulses(ScheduleParams(A=a)).peak_amplitude for a in TRADEOFF_AMPLITUDES
    ]
    out["population_bounds"] = [math.sin(a) ** 2 for a in TRADEOFF_AMPLITUDES]

    # RK4 against the exact propagator of a piecewise-constant drive. One
    # call carries the 10 basis states through each of the 10 segments
    # (point 10 i + j is basis state j under segment i's H), and the
    # segment propagators are then chained on |psi1>.
    segments = 10
    amplitudes = build_schedule("gaussian", params, None).qubit_amplitudes(
        (np.arange(segments) + 0.5) / segments
    )
    hs = np.stack([hc + drive_hamiltonian(a) for a in amplitudes.T])
    per_point = np.repeat(hs, DIM, axis=0)
    columns = propagate_schrodinger(
        lambda k: per_point,
        np.tile(np.eye(DIM, dtype=complex), (segments, 1)),
        TimeGrid(400),
        duration=1.0 / segments,
    ).final_state
    psi_exact = psi_rk = basis_state(PSI1)
    for h, u in zip(hs, columns.reshape(segments, DIM, DIM).transpose(0, 2, 1)):
        psi_exact = _expm_hermitian(h, 1.0 / segments) @ psi_exact
        psi_rk = u @ psi_rk
    out["integrator"] = float(np.max(np.abs(psi_rk - psi_exact)))
    return out


# One entry per reproduce target, in the order `reproduce all` prints them,
# plus verify, which measures rather than plans.
CHECKS = {
    "fig3": Check(_plan_coupling_sweep, _judge_fig3),
    "fig4": Check(_plan_population_trace, _judge_fig4),
    "fig5": Check(_plan_stirap_comparison, _judge_fig5),
    "fig6": Check(_plan_decoherence_grid, _judge_fig6),
    "fig7": Check(_plan_dephasing_comparison, _judge_fig7),
    "fig8": Check(
        _plan_variation_scan,
        _judge_fig8,
        "the published quadrant order needs a duration error that changes the run; under "
        "--mode rescale dT is a near no-op, so the quad follows dOmega alone. --mode "
        "truncate reproduces the order (see README)",
    ),
    "table1": Check(_plan_decoherence_table, _judge_compared("table1 ")),
    "table2": Check(
        _plan_variation,
        _judge_compared("table2 ", known_discrepancy=True),
        "the reference magnitudes are a known discrepancy under both duration-error "
        "readings; their quadrant order is checked by `reproduce fig8` and holds under "
        "--mode truncate (see README)",
    ),
    "realistic": Check(_plan_realistic, _judge_compared("")),
    "verify": _verify,
}
