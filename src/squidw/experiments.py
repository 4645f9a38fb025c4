"""Named, reproducible experiment drivers plus generic sweep machinery.

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
run one after another in the calling process; the drivers' `jobs` argument
is accepted for compatibility and ignored.

Every driver writes `<name>.csv` (RFC-4180, header row) and `<name>.meta.json`
(schema-versioned) into an output directory and returns its records. Table
drivers additionally emit `<name>_compare.csv` holding reference value,
computed value, delta, and verdict per row. All runs are deterministic:
identical inputs produce byte-identical files, whatever the batching.

The bundled reference tables are the expected outcomes. `CHECKS` holds one
`Check` per `reproduce` target plus `verify`. A target's Check holds its
driver's plan (the RunSpecs, plus a finish step that turns their results
into the driver's output and files) and a judge that turns that output into
`Verdict` rows; each driver run_X runs its own plan. `reproduce all`
gathers every plan, integrates them in one run_points call (one closed and
one open batch), then finishes and judges target by target. The CLI prints
the verdicts and the acceptance tests assert on them, so every reference
check and its bound is written once, here.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import dressed_frames
from .dynamics import (
    ConvergenceError,
    NoiseModel,
    TimeGrid,
    Trajectory,
    fidelity,
    lindblad_operators,
    node_times,
    propagate_lindblad,
    propagate_schrodinger,
)
from .pulse_design import (
    PulseSchedule,
    ScheduleParams,
    dressed_pulses,
    gaussian_fit_pulses,
    scaled,
    schedule_angles,
    stirap_pulses,
    with_duration,
)
from .state_space import (
    DIM,
    PSI1,
    PSI2,
    PSI3,
    PSI6,
    PSI7,
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
# strong floor at g = 30/T and the moderate floor from g = 10/T up, and stays
# below the weak ceiling at g = 1/T, where the cavity cannot mediate.
STRONG_COUPLING_FLOOR = 0.99
MODERATE_COUPLING_FLOOR = 0.98
WEAK_COUPLING_CEILING = 0.9


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


class Check(NamedTuple):
    """A reproduce target: its plan, its judge, and the note its known
    discrepancy prints.

    plan(n_steps, mode) returns the target's RunSpecs and its finish step;
    finish(results, outdir) turns their run_points results into the driver's
    output (writing its files when outdir is given); judge(output) turns that
    output into verdicts. Planning apart from running lets `reproduce all`
    integrate every target's points in one run_points call.
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


def _compared(label: str, c: dict, known_discrepancy: bool = False) -> Verdict:
    """A verdict from a driver's reference comparison (see _compare)."""
    return Verdict(
        label,
        c["passed"],
        f"F={c['computed']:.4f}, reference {c['reference']}+-{c['tolerance']}",
        known_discrepancy,
    )


def _judge_fig3(records) -> list[Verdict]:
    f = {r.g: r.fidelity for r in records}
    strong, moderate, weak = STRONG_COUPLING_FLOOR, MODERATE_COUPLING_FLOOR, WEAK_COUPLING_CEILING
    return [
        Verdict("fig3 g=30", f[30.0] >= strong, f"F={f[30.0]:.4f}, need >= {strong}"),
        Verdict("fig3 g=10", f[10.0] >= moderate, f"F={f[10.0]:.4f}, need >= {moderate}"),
        Verdict("fig3 g=1", f[1.0] < weak, f"F={f[1.0]:.4f}, need < {weak}"),
    ]


def _judge_fig4(traj) -> list[Verdict]:
    pops = traj.populations
    p1_start = pops[0][PSI1]
    thirds = pops[-1][PSI7 : PSI9 + 1]
    max_p3 = float(np.max(pops[:, PSI3]))
    return [
        Verdict("fig4 P1(0)", abs(p1_start - 1.0) < 1e-9, f"P1(0)={p1_start:.6f}"),
        Verdict(
            "fig4 W components",
            all(abs(p - 1.0 / 3.0) <= 0.01 for p in thirds),
            "P7,P8,P9(T)=" + ",".join(f"{p:.4f}" for p in thirds) + ", need 1/3 each +-0.01",
        ),
        Verdict("fig4 max P3", max_p3 < 0.01, f"max={max_p3:.5f}, need < 0.01"),
    ]


def _judge_fig5(output) -> list[Verdict]:
    records, _ = output
    f = {r.label: r.fidelity for r in records}
    protocol = f["protocol_g30"]
    out = []
    for omega0, g, ref, tol in STIRAP_REFERENCE:
        fid = f[f"stirap_{omega0:g}_{g:g}"]
        out.append(
            Verdict(
                f"fig5 stirap ({omega0:g},{g:g})",
                abs(fid - ref) <= tol,
                f"F={fid:.4f}, reference {ref}+-{tol}",
            )
        )
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
        out.append(
            Verdict(
                f"fig7 {name} at 1e-3",
                abs(curve[top] - ref) <= tol,
                f"F={curve[top]:.4f}, reference {ref}+-{tol}",
            )
        )
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


def _judge_table1(output) -> list[Verdict]:
    return [_compared(f"table1 {c['label']}", c) for c in output[1]]


def _judge_table2(output) -> list[Verdict]:
    return [_compared(f"table2 {c['label']}", c, True) for c in output[1]]


def _judge_realistic(output) -> list[Verdict]:
    return [_compared("realistic", output[1])]


def _judge_verify(m: dict) -> list[Verdict]:
    report = m["cancellation"]
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
    ]


_AXIS_NAMES = frozenset(
    {
        "g",
        "kappa_over_g",
        "gamma_over_g",
        "gammaphi_over_g",
        "dT_over_T",
        "dOmega_over_Omega",
        "dg_over_g",
        "omega0_stirap",
    }
)

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

    CSV_HEADER = (
        "label",
        "flavor",
        "g",
        "kappa_over_g",
        "gamma_over_g",
        "gammaphi_over_g",
        "delta_t",
        "delta_omega",
        "delta_g",
        "omega0",
        "n_steps",
        "duration",
        "fidelity",
        "drift",
        "min_eigenvalue",
        "code_version",
    )

    def row(self) -> list:
        d = asdict(self)
        return [d[k] for k in self.CSV_HEADER]


@dataclass(frozen=True)
class SweepSpec:
    """Up to two named axes swept over a base configuration."""

    flavor: str = "gaussian"
    g: float = 30.0
    A: float = 0.5
    noise: NoiseModel = field(default_factory=NoiseModel)
    axes: tuple = ()
    variation: tuple = (0.0, 0.0, 0.0)
    omega0: float | None = None
    n_steps: int = 2000
    mode: str = "rescale"

    def __post_init__(self) -> None:
        if self.flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}, got {self.flavor!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if len(self.axes) > 2:
            raise ValueError("at most two sweep axes are supported")
        for name, values in self.axes:
            if name not in _AXIS_NAMES:
                raise ValueError(f"unknown axis {name!r}; choose from {sorted(_AXIS_NAMES)}")
            if len(tuple(values)) == 0:
                raise ValueError(f"axis {name!r} has no values")


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
    coupling g (1 + delta_g). The run lasts 1 + delta_t; `mode` says how the
    waveforms meet that duration (see run_variation_grid). master_equation
    integrates the density matrix even when every rate is zero.

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

    @classmethod
    def from_job(cls, job: dict) -> "RunSpec":
        """A spec from a dict of its fields; an unknown key is an error, not a default."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(job) - known)
        if unknown:
            raise ValueError(f"unknown run key {unknown[0]!r}; choose from {sorted(known)}")
        return cls(**job)

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
        """The CSV row of this run, from its one-point trajectory."""
        return ResultRecord(
            label=self.label,
            flavor=self.flavor,
            g=self.g,
            kappa_over_g=self.kappa_over_g,
            gamma_over_g=self.gamma_over_g,
            gammaphi_over_g=self.gammaphi_over_g,
            delta_t=self.delta_t,
            delta_omega=self.delta_omega,
            delta_g=self.delta_g,
            omega0=self.omega0,
            n_steps=self.n_steps,
            duration=self.duration,
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


def _sweep_specs(spec: SweepSpec) -> list[RunSpec]:
    """The grid of a sweep, one RunSpec per point, labelled by its axis values."""
    base = RunSpec(
        flavor=spec.flavor,
        g=spec.g,
        A=spec.A,
        kappa_over_g=spec.noise.kappa / spec.g,
        gamma_over_g=spec.noise.gamma / spec.g,
        gammaphi_over_g=spec.noise.gamma_phi / spec.g,
        delta_t=spec.variation[0],
        delta_omega=spec.variation[1],
        delta_g=spec.variation[2],
        omega0=spec.omega0,
        n_steps=spec.n_steps,
        mode=spec.mode,
    )
    points = [{}]
    for axis_name, values in spec.axes:
        key = _AXIS_TO_KEY[axis_name]
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
    h0, drives, sample, state0, durations, n_steps, n_frames, lindblads=None
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
    per node and never stored for the whole run. lindblads, one operator
    list per point (any iterable), selects the master equation.
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
    if lindblads is None:
        psi0 = np.tile(state0, (len(h0), 1))
        return propagate_schrodinger(h_fn, psi0, grid, duration=duration, n_frames=n_frames)
    rho0 = np.tile(np.outer(state0, state0.conj()), (len(h0), 1, 1))
    return propagate_lindblad(h_fn, lindblads, rho0, grid, duration=duration, n_frames=n_frames)


def _run_batch(specs: list[RunSpec]) -> list[Trajectory]:
    """Integrate specs that share closed/open and n_steps, each at its own
    duration and with its own stored frames; one trajectory per spec.

    Each distinct schedule is built and sampled once per node block, and its
    samples serve every point that uses it. Open points' operator lists are
    built one at a time while the propagator tabulates them, so none is
    alive while it steps. Effective points run without the cavity, on the
    effective drives.
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

    lindblads = None if first.closed else (lindblad_operators(s.noise) for s in specs)
    try:
        traj = _integrate(
            h0,
            (np.stack([d_a for d_a, _ in drives]), np.stack([d_b for _, d_b in drives])),
            sample,
            basis_state(PSI1),
            [s.duration for s in specs],
            first.n_steps,
            [s.n_frames for s in specs],
            lindblads,
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


def _records(results) -> list[ResultRecord]:
    return [record for record, _ in results]


def evaluate_point(job) -> ResultRecord:
    """Run one point (a batch of one); job is a RunSpec or a dict of its fields."""
    spec = job if isinstance(job, RunSpec) else RunSpec.from_job(job)
    return spec.record(_run_batch([spec])[0])


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


def _emit(outdir, name: str, records: list[ResultRecord], meta: dict) -> None:
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    write_csv(
        os.path.join(outdir, f"{name}.csv"),
        ResultRecord.CSV_HEADER,
        [r.row() for r in records],
    )
    write_meta(os.path.join(outdir, f"{name}.meta.json"), name, meta)


COMPARE_HEADER = ("label", "reference", "computed", "delta", "status")


def _emit_compare(outdir, name: str, comparisons: list[dict]) -> None:
    if outdir is None:
        return
    write_csv(
        os.path.join(outdir, f"{name}_compare.csv"),
        COMPARE_HEADER,
        [
            (c["label"], c["reference"], c["computed"], c["delta"], "pass" if c["passed"] else "FAIL")
            for c in comparisons
        ],
    )


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


def _write_trajectory(outdir, name: str, traj: Trajectory, meta: dict, label: str = "") -> None:
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    header = ("t", "fidelity") + tuple(f"P{i}" for i in range(1, 10)) + ("PG",)
    rows = [
        (traj.times[i], traj.fidelities[i], *traj.populations[i]) for i in range(len(traj.times))
    ]
    write_csv(os.path.join(outdir, f"{name}.csv"), header, rows)
    write_meta(os.path.join(outdir, f"{name}.meta.json"), name, meta)


# ---------------------------------------------------------------------------
# named drivers


def _sweep_meta(spec: SweepSpec) -> dict:
    return {
        "flavor": spec.flavor,
        "g": spec.g,
        "axes": [[n, [float(v) for v in vs]] for n, vs in spec.axes],
        "n_steps": spec.n_steps,
        "mode": spec.mode,
    }


# A driver is a plan, (RunSpecs, finish), with finish(results, outdir) turning
# the run_points results of those specs into the driver's output and writing
# its files when outdir is given. run_X runs its own plan; `reproduce all`
# gathers every target's plan and runs them in one run_points call (see
# CHECKS). A reproduce target plans from (n_steps, mode); one without a
# duration error ignores mode.


def _run_plan(plan, outdir):
    specs, finish = plan
    return finish(run_points(specs), outdir)


def _plan_sweep(spec: SweepSpec, name: str):
    def finish(results, outdir) -> list[ResultRecord]:
        records = _records(results)
        _emit(outdir, name, records, _sweep_meta(spec))
        return records

    return _sweep_specs(spec), finish


def run_sweep(spec: SweepSpec, outdir=None, jobs: int = 1, name: str = "sweep"):
    """Expand the spec's axes into a grid and evaluate every point."""
    return _run_plan(_plan_sweep(spec, name), outdir)


def _plan_coupling_sweep(n_steps: int, mode=None, g_values=None):
    if g_values is None:
        g_values = [float(g) for g in range(1, 31)]
    spec = SweepSpec(flavor="gaussian", axes=(("g", tuple(g_values)),), n_steps=n_steps)
    return _plan_sweep(spec, "coupling_sweep")


def run_coupling_sweep(g_values=None, outdir=None, jobs: int = 1, n_steps: int = 2000):
    """Closed-system final fidelity versus the coupling g (gaussian flavor)."""
    return _run_plan(_plan_coupling_sweep(n_steps, g_values=g_values), outdir)


def _plan_population_trace(n_steps: int, mode=None, g: float = 30.0, n_frames: int = 401):
    def finish(results, outdir) -> Trajectory:
        [(_, traj)] = results
        meta = {"flavor": "gaussian", "g": g, "n_steps": n_steps, "closed_system": True}
        _write_trajectory(outdir, "population_trace", traj, meta)
        return traj

    return [RunSpec(g=g, n_steps=n_steps, n_frames=n_frames)], finish


def run_population_trace(outdir=None, g: float = 30.0, n_steps: int = 2000, n_frames: int = 401):
    """Basis-state populations along the headline closed-system run."""
    return _run_plan(_plan_population_trace(n_steps, g=g, n_frames=n_frames), outdir)


def _plan_stirap_comparison(n_steps: int, mode=None, configs=None, n_frames: int = 201):
    if configs is None:
        configs = [(omega0, g) for omega0, g, _, _ in STIRAP_REFERENCE] + [STIRAP_STRONG]
    specs = [RunSpec(label="protocol_g30", g=30.0, n_steps=n_steps, n_frames=n_frames)]
    specs += [
        RunSpec(
            label=f"stirap_{omega0:g}_{g:g}",
            flavor="stirap",
            g=g,
            omega0=omega0,
            n_steps=n_steps,
            n_frames=n_frames,
        )
        for omega0, g in configs
    ]

    def finish(results, outdir):
        records = _records(results)
        curves: dict[str, Trajectory] = {record.label: traj for record, traj in results}
        if outdir is not None:
            os.makedirs(outdir, exist_ok=True)
            rows = []
            for label, traj in curves.items():
                rows.extend((label, traj.times[i], traj.fidelities[i]) for i in range(len(traj.times)))
            write_csv(os.path.join(outdir, "stirap_comparison.csv"), ("label", "t", "fidelity"), rows)
            write_meta(
                os.path.join(outdir, "stirap_comparison.meta.json"),
                "stirap_comparison",
                {"configs": [[r.omega0, r.g] for r in records[1:]], "n_steps": n_steps},
            )
            write_csv(
                os.path.join(outdir, "stirap_comparison_final.csv"),
                ResultRecord.CSV_HEADER,
                [r.row() for r in records],
            )
        return records, curves

    return specs, finish


def run_stirap_comparison(configs=None, outdir=None, jobs: int = 1, n_steps: int = 2000, n_frames: int = 201):
    """Fidelity curves: the protocol at g = 30/T versus the STIRAP baseline."""
    return _run_plan(_plan_stirap_comparison(n_steps, configs=configs, n_frames=n_frames), outdir)


_DECOHERENCE_AXES = (
    ("kappa_over_g", tuple(np.linspace(0.0, 1.0e-2, 6))),
    ("gamma_over_g", tuple(np.linspace(0.0, 1.0e-2, 6))),
    ("gammaphi_over_g", tuple(np.linspace(0.0, 1.0e-3, 6))),
)


def _plan_decoherence_grid(n_steps: int, mode=None, axes=_DECOHERENCE_AXES):
    specs = [
        spec
        for axis_name, values in axes
        for spec in _sweep_specs(
            SweepSpec(flavor="gaussian", axes=((axis_name, tuple(values)),), n_steps=n_steps)
        )
    ]

    def finish(results, outdir) -> list[ResultRecord]:
        records = _records(results)
        _emit(
            outdir,
            "decoherence_grid",
            records,
            {"axes": [[n, [float(v) for v in vs]] for n, vs in axes], "n_steps": n_steps, "g": 30.0},
        )
        return records

    return specs, finish


def run_decoherence_grid(axes=None, outdir=None, jobs: int = 1, n_steps: int = 2000):
    """One-dimensional decoherence scans around the closed-system baseline."""
    axes = _DECOHERENCE_AXES if axes is None else axes
    return _run_plan(_plan_decoherence_grid(n_steps, axes=axes), outdir)


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

    def finish(results, outdir):
        records = _records(results)
        comparisons = [
            _compare(rec.label, ref[3], rec.fidelity, FIDELITY_TOLERANCE)
            for rec, ref in zip(records, TABLE1_REFERENCE)
        ]
        _emit(outdir, "table1", records, {"rows": len(records), "g": 30.0, "n_steps": n_steps})
        _emit_compare(outdir, "table1", comparisons)
        return records, comparisons

    return specs, finish


def run_reference_decoherence_table(outdir=None, jobs: int = 1, n_steps: int = 2000):
    """All 17 reference decoherence rows plus the side-by-side comparison."""
    return _run_plan(_plan_decoherence_table(n_steps), outdir)


_DEPHASING_VALUES = tuple(np.linspace(0.0, 1.0e-3, 6))


def _plan_dephasing_comparison(n_steps: int, mode=None, values=_DEPHASING_VALUES):
    specs = [
        RunSpec(label=f"protocol_p{v:g}", gammaphi_over_g=v, n_steps=n_steps) for v in values
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
        for v in values
    ]

    def finish(results, outdir) -> list[ResultRecord]:
        records = _records(results)
        _emit(
            outdir,
            "dephasing_comparison",
            records,
            {
                "gammaphi_over_g": [float(v) for v in values],
                "n_steps": n_steps,
                "assumption": "baseline pair (omega0, g) = (50, 150)/T, the only "
                "configuration of the comparison set that clears 0.99 when closed",
            },
        )
        return records

    return specs, finish


def run_dephasing_comparison(values=None, outdir=None, jobs: int = 1, n_steps: int = 2000):
    """Protocol versus STIRAP baseline as dephasing grows (kappa = gamma = 0).

    The baseline uses (omega0, g) = (50, 150)/T, the strongest configuration
    of the comparison set; this choice is recorded in the metadata.
    """
    values = _DEPHASING_VALUES if values is None else values
    return _run_plan(_plan_dephasing_comparison(n_steps, values=values), outdir)


_TABLE2_ROWS = tuple((dt, do, dg) for dt, do, dg, _ in TABLE2_REFERENCE)
_TABLE2_REFS = tuple(r[3] for r in TABLE2_REFERENCE)


def _plan_variation(n_steps: int, mode: str, rows=_TABLE2_ROWS, name="table2", refs=_TABLE2_REFS):
    """The variation rows; finish compares them with refs (one per row)
    unless refs is None."""
    specs = [
        RunSpec(
            label=f"dT{dt:+g}_dO{do:+g}_dg{dg:+g}",
            delta_t=dt,
            delta_omega=do,
            delta_g=dg,
            n_steps=n_steps,
            mode=mode,
        )
        for dt, do, dg in rows
    ]

    def finish(results, outdir):
        records = _records(results)
        comparisons = None
        if refs is not None:
            comparisons = [
                _compare(rec.label, ref, rec.fidelity, FIDELITY_TOLERANCE)
                for rec, ref in zip(records, refs)
            ]
            _emit_compare(outdir, name, comparisons)
        _emit(outdir, name, records, {"mode": mode, "rows": len(records), "n_steps": n_steps})
        return records, comparisons

    return specs, finish


def run_variation_grid(rows=None, outdir=None, jobs: int = 1, n_steps: int = 2000, mode: str = "rescale", name: str = "table2"):
    """Fidelity under signed 10% errors on duration, amplitude, and coupling.

    mode="rescale" re-parameterizes the waveforms by the erroneous duration
    T' (the default interpretation); mode="truncate" keeps the nominal
    waveforms and cuts or extends the run window instead. The comparison
    against the reference rows is reported honestly: under truncate the rows
    keep the published ranking but sit 0.012-0.026 low (0 of 8 within the
    band); under rescale dT barely matters and 2 of 8 land in the band. See
    the README.
    """
    refs = _TABLE2_REFS if rows is None else None
    rows = _TABLE2_ROWS if rows is None else rows
    return _run_plan(_plan_variation(n_steps, mode, rows, name, refs), outdir)


_SCAN_DELTAS = (-0.10, -0.05, 0.0, 0.05, 0.10)
_SCAN_ROWS = (
    tuple((d, 0.0, 0.0) for d in _SCAN_DELTAS)
    + tuple((0.0, d, 0.0) for d in _SCAN_DELTAS)
    + tuple((0.0, 0.0, d) for d in _SCAN_DELTAS)
    + tuple((a, b, 0.0) for a in (0.10, -0.10) for b in (0.10, -0.10))
)


def _plan_variation_scan(n_steps: int, mode: str):
    specs, finish = _plan_variation(n_steps, mode, _SCAN_ROWS, "variation_scan", None)
    return specs, lambda results, outdir: finish(results, outdir)[0]


def run_variation_scan(outdir=None, jobs: int = 1, n_steps: int = 2000, mode: str = "rescale"):
    """Single-axis error scans plus the sign-correlation quad at dg = 0."""
    return _run_plan(_plan_variation_scan(n_steps, mode), outdir)


def _plan_realistic(n_steps: int, mode=None):
    kog, gog, pog = REALISTIC_RATIOS
    spec = RunSpec(
        label="realistic",
        kappa_over_g=kog,
        gamma_over_g=gog,
        gammaphi_over_g=pog,
        n_steps=n_steps,
    )

    def finish(results, outdir):
        [(record, _)] = results
        comparison = _compare("realistic", REALISTIC_REFERENCE, record.fidelity, FIDELITY_TOLERANCE)
        _emit(outdir, "realistic", [record], {"ratios": list(REALISTIC_RATIOS), "n_steps": n_steps})
        _emit_compare(outdir, "realistic", [comparison])
        return record, comparison

    return [spec], finish


def run_realistic_parameters(outdir=None, n_steps: int = 2000):
    """Single open-system run at experimentally quoted rate ratios."""
    return _run_plan(_plan_realistic(n_steps), outdir)


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


def run_effective_model(params: ScheduleParams | None = None, n_steps: int = 2000, point=None):
    """Three-level effective dynamics with the exact corrected controls.

    Returns (final fidelity, max |P_phi0 - sin^2 mu| over stored frames); the
    shortcut is exact at this level, so the fidelity should be ~1 and the
    dark-subspace population should ride sin^2 mu tightly. point is the
    (record, trajectory) of the effective run when it was already integrated
    in a larger batch (as verify does); without it the run is made here.
    """
    p = params or ScheduleParams()
    if point is None:
        [point] = run_points([_effective_spec(p, n_steps)])
    record, traj = point
    _, _, mu, _ = schedule_angles(traj.times, ScheduleParams(T=record.duration, A=p.A))
    pops = np.abs(traj.states @ dark_state().conj()) ** 2
    return record.fidelity, float(np.max(np.abs(pops - np.sin(mu) ** 2)))


def _expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def _verify(g: float = 30.0, A: float = 0.5, n_steps: int = 2000) -> list[Verdict]:
    """The verdicts of `squidw verify`."""
    return _judge_verify(_measure_verify(g, A, n_steps))


def _measure_verify(g: float, A: float, n_steps: int) -> dict:
    """The numbers `verify` judges: dressed-frame algebra and integrator oracles.

    The effective model and the zero-noise Schrodinger/Lindblad pair run in
    one run_points call (one closed batch of two at the default steps, and
    one open batch); the integrator oracle is one more propagator call.
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
    effective, schrodinger, lindblad = run_points(
        [_effective_spec(params, n_steps), closed, replace(closed, master_equation=True)]
    )
    out["effective_fidelity"], out["tracking"] = run_effective_model(params, n_steps, effective)
    out["zero_noise_gap"] = abs(schrodinger[0].fidelity - lindblad[0].fidelity)

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
    "table1": Check(_plan_decoherence_table, _judge_table1),
    "table2": Check(
        _plan_variation,
        _judge_table2,
        "the reference magnitudes are a known discrepancy under both duration-error "
        "readings; their quadrant order is checked by `reproduce fig8` and holds under "
        "--mode truncate (see README)",
    ),
    "realistic": Check(_plan_realistic, _judge_realistic),
    "verify": _verify,
}
