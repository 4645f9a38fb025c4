"""Reproduce targets, their reference checks, and the one run builder.

Every run is described by a frozen `RunSpec` (flavor, coupling, noise ratios,
variation errors, grid, stored frames) and goes through one builder,
`run_points`. It integrates specs that differ only in label once, and
groups the distinct runs into batches that share closed/open and n_steps;
duration and stored frames stay per point. For each batch `_run_batch`
stacks the cavity Hamiltonians H_c(g) as (B, 10, 10), samples the two channel
envelopes of each distinct schedule once, at all its 2n+1 RK4 nodes,
and integrates H = H_c + a(t) D_a + b(t) D_b for the whole batch in one
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
that turns the plan's output into `Verdict` rows; verify's finish adds the
dressed-frame algebra and judges the integrator on its own effective run,
against the exact dressed state. Every "F within tol of reference" verdict
comes from one `_compare`/`_compared` pair. `reproduce all` gathers every
plan, integrates them in one run_points call (one closed and one open
batch), then finishes and judges target by target. The CLI prints the
verdicts and the acceptance tests assert on them, so every check and its
bound is written once, here.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import dressed_frames
from .dynamics import (
    ConvergenceError,
    NoiseModel,
    Trajectory,
    _frame_count,
    _step_count,
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
    basis_state,
    cavity_hamiltonian,
    dark_state,
    drive_hamiltonian,
    effective_hamiltonian,
)

SCHEMA_VERSION = 1
CODE_VERSION = "0.1.0"

# A bound this repo chose: each table1, table2 and realistic row within 0.01
# of its published value, 200 times the 5e-5 that 4-digit rounding allows.
FIDELITY_TOLERANCE = 0.01

# Final fidelity versus (kappa/g, gamma/g, gamma_phi/g) at g = 30/T with the
# gaussian flavor; the regression anchors for the decoherence study. Source:
# the paper's decoherence table, published to 4 digits.
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
    # Known outlier: published as 0.9659, computes to 0.9689. The published
    # value sits 0.0031 below a least-squares fit of ln F, linear in the three
    # rates, to the other 16 rows, and below the row (0.5e-2, 0.5e-2, 0.5e-3)
    # at 0.9687, whose kappa is higher. 0.9659 is also REALISTIC_REFERENCE.
    (0.3e-2, 0.5e-2, 0.5e-3, 0.9659),
    (0.3e-2, 0.3e-2, 0.3e-3, 0.9811),
    (0.3e-2, 0.3e-2, 0.1e-3, 0.9845),
    (0.3e-2, 0.1e-2, 0.3e-3, 0.9900),
    (0.1e-2, 0.3e-2, 0.3e-3, 0.9812),
    (0.1e-2, 0.1e-2, 0.1e-3, 0.9936),
)

# Reference fidelities versus the error triple (dT/T, dOmega0/Omega0, dg/g).
# Source: the paper's variation table, published to 4 digits. Known
# discrepancy: no row lands within 0.01 under mode="truncate" (each sits
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

# (omega0, g, expected F, tolerance) for the baseline comparison. Source:
# readings of the STIRAP curves' endpoints in the paper's fig. 5, so the
# tolerance is the reading's, not a published precision.
STIRAP_REFERENCE = (
    (9.8, 30.0, 0.275, 0.03),
    (40.0, 120.0, 0.985, 0.01),
)
# The strongest baseline configuration must clear 0.99 yet stay below the
# dressed protocol.
STIRAP_STRONG = (50.0, 150.0)

# (expected F, tolerance) of each curve at the largest dephasing rate. Source:
# readings of the paper's fig. 7, with the reading's tolerance.
DEPHASING_REFERENCE = {"protocol": (0.983, 0.01), "stirap": (0.942, 0.02)}

REALISTIC_RATIOS = (1.32 / 180.0, 1.32 / 180.0, 0.01 / 180.0)
# Source: the paper's fidelity at experimentally quoted rates, published to 4
# digits.
REALISTIC_REFERENCE = 0.9659

# Fig. 3: the closed-system fidelity needs a strong coupling. It clears the
# strong floor at g = 30/T and the moderate floor at g = 20, 15 and 10/T, and
# stays below the weak ceiling at g = 1/T, where the cavity cannot mediate.
# The floors and the ceiling are bounds this repo chose for fig. 3's curve, not
# published values.
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
#
# A comment on each numeric bound of the judges gives its source, physics or
# numerics, and what it reads at reproduce's default 2000 steps.


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
    of specs into the command's output, writing its files, if it has any,
    when outdir is given; the one sidecar it writes is `<name>.meta.json`."""

    name: str
    specs: list
    finish: Callable


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
        # Source: numerics, the run starts in |psi1> exactly; reads 0.0.
        Verdict("fig4 P1(0)", abs(p1_start - 1.0) < 1e-9, f"P1(0)={p1_start:.6f}"),
        Verdict(
            "fig4 W components",
            # Source: physics, W's thirds read off fig. 4; the worst reads
            # 3.32e-5 from 1/3.
            all(abs(p - 1.0 / 3.0) <= 0.01 for p in thirds),
            "P7,P8,P9(T)=" + ",".join(f"{p:.4f}" for p in thirds) + ", need 1/3 each +-0.01",
        ),
        # Source: physics, fig. 4's cavity-excited population is negligible at
        # g = 30/T; reads 0.00883.
        Verdict("fig4 max P3", max_p3 < 0.01, f"max={max_p3:.5f}, need < 0.01"),
        Verdict(
            "fig4 dark-mode tracking",
            # Source: physics, the dark mode rides sin^2 mu up to the finite g
            # and peaks at sin^2 A = 0.2298; reads 0.00614 and 0.2249.
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
            # Source: physics, fig. 5's strongest STIRAP curve ends near 1;
            # reads 0.9963 against the protocol's 0.9999.
            strong > 0.99 and strong < protocol,
            f"F={strong:.4f}, need > 0.99 and below protocol {protocol:.4f}",
        )
    )
    return out


# The least total drop F(first) - F(last) along each fig6 axis, half of
# what it reads at 2000 steps, so a curve that barely falls, or not at all,
# fails its axis.
_FIG6_DROPS = {
    # Source: physics, fig. 6's cavity-loss curve is the flattest, as the
    # dark state keeps the cavity almost empty; reads 6.5e-4.
    "kappa_over_g": 3.2e-4,
    # Source: physics, fig. 6's spontaneous-emission curve; reads 0.0441.
    "gamma_over_g": 0.022,
    # Source: physics, fig. 6's dephasing curve, over a scan ten times
    # shorter; reads 0.0173.
    "gammaphi_over_g": 0.0086,
}


def _judge_fig6(records) -> list[Verdict]:
    """Fidelity falls along each rate axis, up to 1e-4 of integrator noise
    per step, and by at least _FIG6_DROPS over the scan. The records come in
    _plan_decoherence_grid's order: one block per axis of _DECOHERENCE_AXES,
    one record per value, values rising. The verdicts are printed by axis
    name."""
    records = iter(records)
    fids = {name: [next(records).fidelity for _ in values] for name, values in _DECOHERENCE_AXES}
    return [
        Verdict(
            f"fig6 {name} monotone",
            # Source: numerics, RK4's noise. Every step falls, the kappa
            # steps least, by 1.30e-4.
            all(f[i + 1] <= f[i] + 1e-4 for i in range(len(f) - 1))
            and f[0] - f[-1] >= _FIG6_DROPS[name],
            f"F drops {f[0]:.4f} -> {f[-1]:.4f} over the scan",
        )
        for name, f in sorted(fids.items())
    ]


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
            # Source: physics, the effective model holds at any large g, so a
            # 10% coupling error barely moves F; reads 3.83e-5 under both
            # duration readings.
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
    """All ten verify bounds, the 1e-6 dressed-frame cancellation bound
    included. The verdict lines keep their wording: only effective vs full
    model states its bound."""
    report = m["cancellation"]
    peaks, bounds = m["peak_drives"], m["population_bounds"]
    # Readings are at verify's defaults, g = 30/T and A = 0.5; those that
    # depend on RK4 are at 1000 steps, the fewest verify runs.
    return [
        # Source: numerics, float rounding of exact 3x3 products; reads 2.2e-16.
        Verdict("spin-1 commutators", m["commutator"] < 1e-15, f"max residual {m['commutator']:.2e}"),
        # Source: numerics, float rounding, since V(0) = V(T) = I exactly; reads 0.0.
        Verdict("dressing endpoints", m["endpoints"] < 1e-10, f"max |V - I| {m['endpoints']:.2e}"),
        Verdict(
            "dressed-frame cancellation",
            # Source: numerics, float rounding of an exact cancellation; reads 9.64e-17.
            report["max_offdiag_0p"] < 1e-6 and report["max_offdiag_0m"] < 1e-6,
            f"worst (0,+-) residual {max(report['max_offdiag_0p'], report['max_offdiag_0m']):.2e} "
            f"relative, (+,-) {report['max_offdiag_pm']:.2e}",
        ),
        # Source: numerics, eigvalsh's rounding at eigenvalues +-sqrt(6) g; reads 4.26e-14.
        Verdict(
            "cavity spectrum", m["spectrum"] < 1e-9, f"max eigenvalue deviation {m['spectrum']:.2e}"
        ),
        Verdict(
            "effective-model shortcut",
            # Source: physics, the shortcut is exact in the effective model, so
            # F = 1 and the population rides sin^2 mu up to RK4's error; reads
            # 1 - 4.4e-14 and 8.70e-12.
            m["effective_fidelity"] >= 0.9999 and m["tracking"] <= 1e-3,
            f"F={m['effective_fidelity']:.6f}, max |P_phi0 - sin^2 mu| = {m['tracking']:.2e}",
        ),
        Verdict(
            "zero-noise equivalence",
            # Source: numerics, RK4 on psi and on rho at 1000 steps; reads 4.62e-12.
            m["zero_noise_gap"] < 1e-7,
            f"|F_schrodinger - F_lindblad| = {m['zero_noise_gap']:.2e}",
        ),
        Verdict(
            "integrator vs exact dressed state",
            # Source: numerics, RK4 at 1000 steps; reads 9.69e-12.
            m["integrator"] < 1e-8,
            f"max state deviation {m['integrator']:.2e}",
        ),
        Verdict(
            "permutation symmetry",
            # Source: numerics, float rounding, since qubits 1-3 get equal
            # drives; reads 0.0.
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
            # Source: physics, the effective model is the large-g limit of
            # the full one, here at g = 300/T; reads 1 - 6.3e-10.
            m["effective_overlap"] >= 0.999,
            f"|<psi_eff|psi_full>|^2 = {m['effective_overlap']:.10f} at g=300, need >= 0.999",
        ),
    ]


_FLAVORS = ("dressed", "gaussian", "stirap")
_MODES = ("rescale", "truncate")


class ResultRecord(NamedTuple):
    """One resolved sweep point: inputs, final fidelity, diagnostics. The
    fields are the CSV columns, in order, so a record is its own CSV row."""

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


@dataclass(frozen=True)
class RunSpec:
    """One run from |psi1>: drive, coupling, noise, errors, grid and frames.

    Rates are ratios to the nominal coupling g and act at `coupling`, the
    erroneous coupling g (1 + delta_g), a float that must be positive and
    finite; each error, delta_t, delta_omega and delta_g, must be finite and
    exceed -1. The run lasts 1 + delta_t; mode="rescale"
    re-parameterizes the waveforms by that duration, mode="truncate" keeps the
    nominal waveforms and cuts or extends the run window (README, "Known
    discrepancy"). master_equation and effective are True or False;
    master_equation integrates the density matrix even when
    every rate is zero. n_frames, 2 to MAX_FRAMES, is the number of evenly
    spaced frames stored; fewer distinct ones are kept on a grid of fewer
    than n_frames - 1 steps. Only the dressed flavor reads the dressing
    amplitude A; the gaussian fit is the A = 0.5 fit, so the gaussian and
    stirap flavors take no other A. omega0 is the stirap channel peak: the
    stirap flavor needs one, and every other flavor takes none. The spec
    builds its schedule when it is made, so an A outside (0, pi/2) or an
    omega0 that is not finite and positive is refused then, before any run.

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
        for name in ("master_equation", "effective"):  # bool("False") is True
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be True or False, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bool(getattr(self, name)))
        # The propagators' own rules, applied here.
        object.__setattr__(self, "n_steps", _step_count(self.n_steps))
        object.__setattr__(self, "n_frames", _frame_count(self.n_frames))
        if self.flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}, got {self.flavor!r}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown variation mode {self.mode!r}")
        for name in ("delta_t", "delta_omega", "delta_g"):
            if not -1.0 < getattr(self, name) < math.inf:  # nan fails both
                raise ValueError(f"{name} must be finite and exceed -1, got {getattr(self, name)}")
        if (self.omega0 is None) == (self.flavor == "stirap"):
            need = "needs one" if self.omega0 is None else "takes none"
            raise ValueError(f"omega0 is the stirap channel peak; flavor {self.flavor!r} {need}")
        if self.A != 0.5 and self.flavor != "dressed":
            raise ValueError(
                f"A is the dressing amplitude; flavor {self.flavor!r} is built for A = 0.5 "
                f"and takes no other, got {self.A}"
            )
        self.schedule()  # raises on an A outside (0, pi/2) or an omega0 that is not positive
        if self.effective and (
            self.master_equation
            or self.delta_g != 0.0
            or any((self.kappa_over_g, self.gamma_over_g, self.gammaphi_over_g))
        ):
            raise ValueError(
                "an effective point is closed and has no cavity: it takes no rates, "
                "master_equation or delta_g"
            )
        cavity_hamiltonian(self.coupling)  # raises on a g (1 + delta_g) not positive and finite
        self.noise  # raises on a rate that NoiseModel refuses

    @property
    def duration(self) -> float:
        return 1.0 + self.delta_t

    @property
    def coupling(self) -> float:
        return self.g * (1.0 + self.delta_g)

    @property
    def noise(self) -> NoiseModel:
        g_eff = self.coupling
        return NoiseModel(
            kappa=self.kappa_over_g * g_eff,
            gamma=self.gamma_over_g * g_eff,
            gamma_phi=self.gammaphi_over_g * g_eff,
        )

    @property
    def closed(self) -> bool:
        return not self.master_equation and self.noise.is_closed

    def schedule(self) -> PulseSchedule:
        """The flavor's waveforms (stirap's peaking at omega0), scaled by
        1 + delta_omega. A truncated run keeps the nominal waveforms; its
        window is self.duration."""
        params = ScheduleParams(T=self.duration if self.mode == "rescale" else 1.0, A=self.A)
        if self.flavor == "dressed":
            schedule = dressed_pulses(params)
        elif self.flavor == "gaussian":
            schedule = gaussian_fit_pulses(params)
        else:
            schedule = stirap_pulses(self.omega0, params=params)
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
            **{k: getattr(self, k) for k in ResultRecord._fields if hasattr(self, k)},
            fidelity=fidelity(traj.final_state),
            drift=traj.drift,
            min_eigenvalue=traj.min_eigenvalue,
        )


class Check(NamedTuple):
    """A reproduce target, or verify: its plan, its judge, and the note its
    known discrepancy prints.

    plan(n_steps, mode) returns the target's Plan (verify's also takes g and
    A); judge(output) turns the plan's output into verdicts. Planning apart
    from running lets `reproduce all` integrate every target's points in one
    run_points call.
    """

    plan: Callable
    judge: Callable
    note: str = ""

    def __call__(
        self, n_steps: int = RunSpec.n_steps, mode: str = RunSpec.mode, **settings
    ) -> list[Verdict]:
        """Plan, run and judge this target alone, writing no file; settings
        (verify's g and A) go to the plan, which refuses any it does not take."""
        return self.judge(_run_plan(self.plan(n_steps, mode, **settings), None))

    def note_for(self, verdicts) -> str:
        """The note if a known discrepancy shows among the verdicts, else ''."""
        shown = any(v.known_discrepancy and not v.passed for v in verdicts)
        return self.note if shown else ""


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
    over base, values any iterable: one RunSpec per point, which sets each
    axis's _axis_field to one of its values and is labelled by them."""
    if len(axes) > 2:
        raise ValueError("at most two sweep axes are supported")
    points = [{}]
    for name, values in axes:
        key = _axis_field(name)
        if key in points[0]:
            raise ValueError(f"axis {name!r} sets {key}, which another axis sets")
        values = tuple(values)  # a one-shot iterable is read once
        if not values:
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


# RK4 nodes whose drive entries are assembled at a time, so that a batch
# holds a block of its (nodes, B, entries) drive entries rather than all 2n+1
# nodes of them.
_NODE_BLOCK = 256


def _run_batch(specs: list[RunSpec]) -> list[Trajectory]:
    """Integrate specs that share closed/open and n_steps from |psi1>, each at
    its own duration and with its own stored frames; one trajectory per spec.

    Point b's H is h0[b] + a_b(t) D_a + b_b(t) D_b: h0 is its cavity
    Hamiltonian and (D_a, D_b) the channel drives, or, for an effective
    point, h0 = 0 and the effective drives. Each distinct schedule is built
    and sampled once, at all node_times(n_steps, duration) of its duration,
    and its samples serve every point that uses it: a (2n+1, S, 2) history
    of S x (2n+1) x 16 bytes, 64 KB per schedule at 2000 steps. The
    propagators call h_fn once per node, in increasing k, and it keeps one H
    buffer, starting as h0: at each node it rewrites only the entries where
    a drive kind of the batch is nonzero (8 for cavity points alone).

    Points of one schedule and one kind (cavity or effective) see one drive
    and form a group. Each group's entries are summed once per block of
    _NODE_BLOCK nodes, from that slice of the history, as a D_a + b D_b,
    with no h0 operand: no cavity Hamiltonian is nonzero where a drive kind
    is, so each entry is h0 + a D_a + b D_b. Equal operands give equal
    floats, so every point of a group gets the bytes it would get alone.
    np.take expands the (nodes, G, entries) group buffer to a (nodes, B,
    entries) one, one row per point; both are allocated once per batch.
    Each block's node rows are listed as views once, when it is filled,
    so each node is one write of a ready-made row through a flat index of
    those entries in H, and H is never stored for the whole run. Open
    points pass their NoiseModel, from which the propagator builds its
    dissipator tables.

    When the batch is one group and its cavity Hamiltonians are equal,
    every point sees one H at every node. The buffer is then that one H,
    each node writes its 8 drive entries once rather than once per point,
    and h_fn hands it over as np.broadcast_to(H, (B, 10, 10)), a
    batch-stride-0 view, from which propagate_lindblad may take each
    product once for the whole batch (the dynamics module's h_fn rule).
    """
    first = specs[0]
    distinct: dict[tuple, int] = {}
    which = [distinct.setdefault(s.schedule_key(), len(distinct)) for s in specs]
    firsts = [specs[which.index(u)] for u in range(len(distinct))]
    history = np.stack(
        [s.schedule().envelopes(node_times(first.n_steps, s.duration)) for s in firsts], axis=1
    )
    groups: dict[tuple, int] = {}
    member = [groups.setdefault((u, s.effective), len(groups)) for u, s in zip(which, specs)]
    sched_of = [u for u, _ in groups]
    drives = np.array([_EFFECTIVE_DRIVES if e else _CHANNEL_DRIVES for _, e in groups])
    rows, cols = np.nonzero((drives != 0).any(axis=(0, 1)))
    da, db = drives[:, 0, rows, cols], drives[:, 1, rows, cols]
    h0 = np.stack(
        [np.zeros((DIM, DIM)) if s.effective else cavity_hamiltonian(s.coupling) for s in specs]
    )
    if len(groups) == 1 and (h0 == h0[0]).all():  # every point sees one H
        h0, member = h0[:1], [0]
    H = np.broadcast_to(h0, (len(specs), DIM, DIM))
    nodes = min(_NODE_BLOCK, len(history))
    sums, terms = np.empty((2, nodes, len(groups), rows.size))
    points = np.empty((nodes, len(h0), rows.size))
    flat = h0.reshape(-1)
    index = (np.arange(len(h0))[:, None] * (DIM * DIM) + rows * DIM + cols).ravel()
    start, node_rows = 0, []

    def h_fn(k: int) -> np.ndarray:
        nonlocal start, node_rows
        if k - start == len(node_rows):
            start = k
            env = history[start : start + _NODE_BLOCK][:, sched_of, :, None]
            n = len(env)
            # Each group's drive entries for the block, a D_a + b D_b.
            block, term = sums[:n], terms[:n]
            np.multiply(env[:, :, 0], da, out=block)
            np.multiply(env[:, :, 1], db, out=term)
            block += term
            # mode="raise" would make np.take buffer its output.
            np.take(block, member, axis=1, out=points[:n], mode="clip")
            node_rows = list(points[:n].reshape(n, -1))  # one view per node, made once per block
        flat[index] = node_rows[k - start]
        return H

    psi1 = basis_state(PSI1)
    if first.closed:
        propagate, states = propagate_schrodinger, (np.tile(psi1, (len(specs), 1)),)
    else:
        rho0 = np.tile(np.outer(psi1, psi1.conj()), (len(specs), 1, 1))
        propagate, states = propagate_lindblad, ([s.noise for s in specs], rho0)
    duration, frames = np.array([s.duration for s in specs]), [s.n_frames for s in specs]
    try:
        traj = propagate(h_fn, *states, first.n_steps, duration=duration, n_frames=frames)
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
    if isinstance(value, float):
        # repr(float(...)): numpy 2 writes repr(np.float64(x)) as np.float64(x)
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
        _write(outdir, name, ResultRecord._fields, records, meta)
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


def run_coupling_sweep(g_values=None, outdir=None, jobs: int = 1, n_steps: int = RunSpec.n_steps):
    """Closed-system final fidelity versus the coupling g (gaussian flavor)."""
    return _run_plan(_plan_coupling_sweep(n_steps, g_values=g_values), outdir)


def _plan_population_trace(n_steps: int, mode=None):
    spec = RunSpec(n_steps=n_steps, n_frames=401)
    meta = {"flavor": spec.flavor, "g": spec.g, "n_steps": n_steps, "closed_system": spec.closed}
    return _plan_trace("population_trace", spec, meta)


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
        _write(outdir, "stirap_comparison_final", ResultRecord._fields, records)
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
        {"axes": _axes_meta(_DECOHERENCE_AXES), "n_steps": n_steps, "g": base.g},
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
    meta = {"rows": len(specs), "g": specs[0].g, "n_steps": n_steps}
    return _plan_records("table1", specs, meta, [row[3] for row in TABLE1_REFERENCE])


def run_reference_decoherence_table(outdir=None, jobs: int = 1, n_steps: int = RunSpec.n_steps):
    """All 17 reference decoherence rows plus the side-by-side comparison."""
    return _run_plan(_plan_decoherence_table(n_steps), outdir)


_DEPHASING_VALUES = tuple(np.linspace(0.0, 1.0e-3, 6))


def _plan_dephasing_comparison(n_steps: int, mode=None):
    """Protocol versus the strongest STIRAP baseline as dephasing grows."""
    omega0, g = STIRAP_STRONG
    specs = [
        RunSpec(label=f"protocol_p{v:g}", gammaphi_over_g=v, n_steps=n_steps)
        for v in _DEPHASING_VALUES
    ]
    specs += [
        RunSpec(
            label=f"stirap_p{v:g}",
            flavor="stirap",
            g=g,
            gammaphi_over_g=v,
            omega0=omega0,
            n_steps=n_steps,
        )
        for v in _DEPHASING_VALUES
    ]
    meta = {
        "gammaphi_over_g": [float(v) for v in _DEPHASING_VALUES],
        "n_steps": n_steps,
        "assumption": f"baseline pair (omega0, g) = ({omega0:g}, {g:g})/T, the only "
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


def run_effective_model(point, A: float) -> tuple[float, float]:
    """(final fidelity, max |P_phi0 - sin^2 mu| over stored frames) of an
    effective point (verify's) run at dressing amplitude A, given as
    its run_points (record, trajectory). The shortcut is exact at this
    level, so the fidelity should be ~1 and the dark-subspace population
    should ride sin^2 mu tightly."""
    record, traj = point
    tracking, _ = _dark_mode(traj, ScheduleParams(T=record.duration, A=A))
    return record.fidelity, tracking


def _plan_verify(n_steps: int, mode=None, g: float = RunSpec.g, A: float = RunSpec.A) -> Plan:
    """The effective model, the zero-noise Schrodinger/Lindblad pair at g and
    the full dressed model at g = 300/T (one closed batch of three and one
    open batch, every run on max(1000, n_steps) steps, once _step_count has
    taken n_steps), finished as the numbers _judge_verify bounds, with those of the
    dressed-frame algebra and the dressing-amplitude trade-off, which reads
    pulse envelopes only. The integrator is judged on the effective run's 500
    stored frames against the exact dressed state it should follow,
    permutation symmetry on the Schrodinger point's final state and effective
    vs full model on the overlap of the effective and g = 300 final states.
    The integrator's error scales as h^4 and grows as A falls, since the
    corrected drives grow as theta_dot / tan mu, so a small A needs more
    steps: A = 0.003 passes at 4000. A is the amplitude of the two dressed
    points, the effective and the full model. verify writes no file."""
    params = ScheduleParams(A=A)
    closed = RunSpec(g=g, n_steps=max(1000, _step_count(n_steps)))
    specs = [
        # the effective model under the exact corrected controls
        RunSpec(label="effective_model", flavor="dressed", A=A, n_steps=closed.n_steps,
                n_frames=500, effective=True),
        closed,
        replace(closed, master_equation=True),
        replace(closed, flavor="dressed", g=300.0, A=A),
    ]

    def finish(results, outdir) -> dict:
        effective, schrodinger, lindblad, full = results
        m_x, m_y, m_z = dressed_frames.SPIN1
        out = {
            "commutator": max(
                float(np.max(np.abs(m_x @ m_y - m_y @ m_x - 1j * m_z))),
                float(np.max(np.abs(m_y @ m_z - m_z @ m_y - 1j * m_x))),
                float(np.max(np.abs(m_z @ m_x - m_x @ m_z - 1j * m_y))),
            ),
            "endpoints": max(
                float(np.max(np.abs(dressed_frames.dressing_transform(t, params) - np.eye(3))))
                for t in (0.0, params.T)
            ),
            "cancellation": dressed_frames.verify_cancellation(params),
        }
        hc = cavity_hamiltonian(g)
        eigs = np.sort(np.linalg.eigvalsh(hc[PSI2 : PSI6 + 1, PSI2 : PSI6 + 1]))
        expected = np.sort([-math.sqrt(6) * g, 0.0, 0.0, 0.0, math.sqrt(6) * g])
        out["spectrum"] = float(np.max(np.abs(eigs - expected)))
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
        exact = dressed_frames.dressed_state(effective[1].times, params)
        out["integrator"] = float(np.max(np.abs(effective[1].states - exact)))
        return out

    return Plan("verify", specs, finish)


# One entry per reproduce target, in the order `reproduce all` prints them,
# plus verify, whose plan also takes g and A and which `reproduce all` skips.
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
    "verify": Check(_plan_verify, _judge_verify),
}
