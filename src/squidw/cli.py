"""Command-line entry point.

Commands:

* ``pulses``     dump any flavor's four waveforms to per-qubit CSV files
* ``simulate``   one trajectory, final fidelity printed
* ``sweep``      generic 1- or 2-axis parameter sweep
* ``reproduce``  regenerate a named study and print pass/fail verdicts
                 against the bundled reference values
* ``verify``     dressed-frame cancellation and integrator oracle checks

Configuration comes from defaults, then an optional ``key = value`` config
file, then flags (flags win). Exit codes: 0 success, 1 validation failure,
2 convergence failure.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import experiments
from .dressed_frames import M_X, M_Y, M_Z, dressing_transform, verify_cancellation
from .dynamics import ConvergenceError, NoiseModel, TimeGrid, propagate_schrodinger
from .experiments import RunSpec, SweepSpec, build_schedule
from .pulse_design import ScheduleParams
from .state_space import (
    PSI1,
    PSI2,
    PSI6,
    CouplingConfig,
    basis_state,
    cavity_hamiltonian,
    drive_hamiltonian,
)

ENV_OUTDIR = "SQUIDW_OUT"

_TARGETS = (
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "realistic",
    "all",
)


@dataclass
class RunConfig:
    """Resolved run configuration; every field round-trips through the config file."""

    command: str = ""
    flavor: str = "gaussian"
    g: float = 30.0
    A: float = 0.5
    kappa: float = 0.0
    gamma: float = 0.0
    gamma_phi: float = 0.0
    delta_t: float = 0.0
    delta_omega: float = 0.0
    delta_g: float = 0.0
    omega0: float = 50.0
    n_steps: int = 2000
    outdir: str = "out"
    write_meta: bool = True
    mode: str = "rescale"
    jobs: int = 1

    def to_file(self, path: str) -> None:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {_serialize(getattr(self, f.name))}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        cfg = cls()
        cfg.apply(parse_config_file(path), source=path)
        return cfg

    def apply(self, mapping: dict, source: str = "config") -> None:
        types = {f.name: f.type for f in fields(self)}
        for key, raw in mapping.items():
            if key not in types:
                raise ValueError(f"{source}: unknown config key {key!r}")
            current = getattr(self, key)
            if isinstance(current, bool):
                if str(raw).lower() not in ("true", "false"):
                    raise ValueError(f"{source}: {key} must be true or false, got {raw!r}")
                value = str(raw).lower() == "true"
            elif isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = str(raw)
            setattr(self, key, value)


def _serialize(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_file(path: str) -> dict:
    """Read a ``key = value`` file; '#' starts a comment, blank lines ignored."""
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
                key, _, raw = text.partition("=")
                mapping[key.strip()] = raw.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return mapping


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squidw",
        description="W-state preparation toolkit: pulse design, dynamics, reproducible studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", "-o", dest="outdir", help="output directory")
        p.add_argument("--flavor", choices=("dressed", "gaussian", "stirap"))
        p.add_argument("--g", type=float, help="cavity coupling, units 1/T")
        p.add_argument("--A", type=float, help="dressing amplitude knob")
        p.add_argument("--kappa", type=float, help="cavity decay rate, units 1/T")
        p.add_argument("--gamma", type=float, help="qubit decay rate, units 1/T")
        p.add_argument("--gammaphi", dest="gamma_phi", type=float, help="dephasing rate, units 1/T")
        p.add_argument("--omega0", type=float, help="stirap channel peak, units 1/T")
        p.add_argument("--delta-t", dest="delta_t", type=float, help="fractional duration error")
        p.add_argument("--delta-omega", dest="delta_omega", type=float, help="fractional amplitude error")
        p.add_argument("--delta-g", dest="delta_g", type=float, help="fractional coupling error")
        p.add_argument("--steps", dest="n_steps", type=int, help="RK4 steps (default 2000)")
        p.add_argument("--mode", choices=("rescale", "truncate"), help="duration-error interpretation")
        p.add_argument("--jobs", type=int, help="accepted and ignored: runs are batched in one process")
        p.add_argument("--no-meta", action="store_true", help="skip .meta.json sidecars")

    p_pulses = sub.add_parser("pulses", help="export waveforms to per-qubit CSVs")
    add_common(p_pulses)
    p_pulses.add_argument("--samples", type=int, default=501, help="grid points (default 501)")

    p_sim = sub.add_parser("simulate", help="run one trajectory and print F(T)")
    add_common(p_sim)
    p_sim.add_argument("--frames", type=int, default=201, help="stored frames (default 201)")

    p_sweep = sub.add_parser("sweep", help="sweep up to two named axes")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="sweep axis (repeatable, max 2); names: g, kappa_over_g, gamma_over_g, "
        "gammaphi_over_g, dT_over_T, dOmega_over_Omega, dg_over_g, omega0_stirap",
    )

    p_rep = sub.add_parser("reproduce", help="regenerate a named study with verdicts")
    add_common(p_rep)
    p_rep.add_argument("target", choices=_TARGETS)

    p_ver = sub.add_parser("verify", help="frame-cancellation and oracle checks")
    add_common(p_ver)

    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if os.environ.get(ENV_OUTDIR):
        cfg.outdir = os.environ[ENV_OUTDIR]
    if getattr(args, "config", None):
        cfg.apply(parse_config_file(args.config), source=args.config)
    cfg.command = args.command
    for f in fields(RunConfig):
        if f.name in ("command", "write_meta"):
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if getattr(args, "no_meta", False):
        cfg.write_meta = False
    return cfg


def _ensure_outdir(cfg: RunConfig) -> str:
    try:
        os.makedirs(cfg.outdir, exist_ok=True)
        probe = os.path.join(cfg.outdir, ".writable")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ValueError(f"output directory {cfg.outdir!r} is not writable: {exc}") from exc
    return cfg.outdir


def _strip_meta(cfg: RunConfig) -> None:
    if cfg.write_meta:
        return
    for path in glob.glob(os.path.join(cfg.outdir, "*.meta.json")):
        os.remove(path)


def _verdict(label: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")
    return passed


# ---------------------------------------------------------------------------
# commands


def _cmd_pulses(cfg: RunConfig, samples: int) -> int:
    if samples < 2:
        raise ValueError("--samples must be at least 2")
    outdir = _ensure_outdir(cfg)
    schedule = build_schedule(
        cfg.flavor, ScheduleParams(A=cfg.A), cfg.omega0 if cfg.flavor == "stirap" else None
    )
    ts = np.linspace(0.0, schedule.duration, samples)
    amps = np.array([schedule.qubit_amplitudes(t) for t in ts])
    paths = []
    for k in range(4):
        path = os.path.join(outdir, f"pulses_{cfg.flavor}_q{k + 1}.csv")
        experiments.write_csv(path, ("t", f"{cfg.flavor}_qubit{k + 1}"), zip(ts, amps[:, k]))
        paths.append(path)
    experiments.write_meta(
        os.path.join(outdir, f"pulses_{cfg.flavor}.meta.json"),
        "pulses",
        {"flavor": cfg.flavor, "samples": samples, "omega0": cfg.omega0, "A": cfg.A},
    )
    _strip_meta(cfg)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_simulate(cfg: RunConfig, frames: int) -> int:
    outdir = _ensure_outdir(cfg)
    # simulate takes absolute rates; a run spec holds them relative to g.
    g_eff = CouplingConfig(g=cfg.g * (1.0 + cfg.delta_g)).g
    spec = RunSpec(
        flavor=cfg.flavor,
        g=cfg.g,
        A=cfg.A,
        kappa_over_g=cfg.kappa / g_eff,
        gamma_over_g=cfg.gamma / g_eff,
        gammaphi_over_g=cfg.gamma_phi / g_eff,
        delta_t=cfg.delta_t,
        delta_omega=cfg.delta_omega,
        delta_g=cfg.delta_g,
        omega0=cfg.omega0 if cfg.flavor == "stirap" else None,
        n_steps=cfg.n_steps,
        mode=cfg.mode,
        n_frames=frames,
    )
    [(record, traj)] = experiments.run_points([spec])
    experiments._write_trajectory(
        outdir,
        "simulate",
        traj,
        {
            "flavor": cfg.flavor,
            "g": cfg.g,
            "kappa": cfg.kappa,
            "gamma": cfg.gamma,
            "gamma_phi": cfg.gamma_phi,
            "n_steps": cfg.n_steps,
        },
    )
    _strip_meta(cfg)
    print(f"F(T) = {record.fidelity:.6f}")
    print(f"drift = {traj.drift:.3e}, wrote {os.path.join(outdir, 'simulate.csv')}")
    return 0


def _parse_axis(text: str):
    name, eq, values = text.partition("=")
    if not eq or not values:
        raise ValueError(f"--axis expects NAME=V1,V2,..., got {text!r}")
    try:
        vals = tuple(float(v) for v in values.split(","))
    except ValueError as exc:
        raise ValueError(f"--axis {name}: values must be numbers, got {values!r}") from exc
    return name.strip(), vals


def _cmd_sweep(cfg: RunConfig, axis_args: list) -> int:
    outdir = _ensure_outdir(cfg)
    axes = tuple(_parse_axis(a) for a in axis_args)
    spec = SweepSpec(
        flavor=cfg.flavor,
        g=cfg.g,
        A=cfg.A,
        noise=NoiseModel(kappa=cfg.kappa, gamma=cfg.gamma, gamma_phi=cfg.gamma_phi),
        axes=axes,
        variation=(cfg.delta_t, cfg.delta_omega, cfg.delta_g),
        omega0=cfg.omega0 if cfg.flavor == "stirap" else None,
        n_steps=cfg.n_steps,
        mode=cfg.mode,
    )
    records = experiments.run_sweep(spec, outdir)
    _strip_meta(cfg)
    print(f"{len(records)} points, wrote {os.path.join(outdir, 'sweep.csv')}")
    return 0


def _reproduce_fig3(cfg: RunConfig, outdir: str) -> list:
    records = experiments.run_coupling_sweep(outdir=outdir, n_steps=cfg.n_steps)
    by_g = {r.g: r.fidelity for r in records}
    return [
        _verdict("fig3 g=30", by_g[30.0] >= 0.99, f"F={by_g[30.0]:.4f}, need >= 0.99"),
        _verdict("fig3 g=10", by_g[10.0] >= 0.98, f"F={by_g[10.0]:.4f}, need >= 0.98"),
        _verdict("fig3 g=1", by_g[1.0] < 0.9, f"F={by_g[1.0]:.4f}, need < 0.9"),
    ]


def _reproduce_fig4(cfg: RunConfig, outdir: str) -> list:
    traj = experiments.run_population_trace(outdir=outdir, n_steps=cfg.n_steps)
    pops = traj.populations
    p1_start = pops[0][PSI1]
    final = pops[-1]
    thirds = [final[i] for i in range(6, 9)]
    max_p3 = float(np.max(pops[:, 2]))
    return [
        _verdict("fig4 P1(0)", abs(p1_start - 1.0) < 1e-9, f"P1(0)={p1_start:.6f}"),
        _verdict(
            "fig4 W components",
            all(abs(p - 1.0 / 3.0) <= 0.01 for p in thirds),
            "P7,P8,P9(T)=" + ",".join(f"{p:.4f}" for p in thirds) + ", need 1/3 each +-0.01",
        ),
        _verdict("fig4 max P3", max_p3 < 0.01, f"max={max_p3:.5f}, need < 0.01"),
    ]


def _reproduce_fig5(cfg: RunConfig, outdir: str) -> list:
    records, _ = experiments.run_stirap_comparison(outdir=outdir, n_steps=cfg.n_steps)
    by_label = {r.label: r.fidelity for r in records}
    protocol = by_label["protocol_g30"]
    out = []
    for omega0, g, ref, tol in experiments.STIRAP_REFERENCE:
        f = by_label[f"stirap_{omega0:g}_{g:g}"]
        out.append(
            _verdict(
                f"fig5 stirap ({omega0:g},{g:g})",
                abs(f - ref) <= tol,
                f"F={f:.4f}, reference {ref}+-{tol}",
            )
        )
    strong = by_label[f"stirap_{experiments.STIRAP_STRONG[0]:g}_{experiments.STIRAP_STRONG[1]:g}"]
    out.append(
        _verdict(
            "fig5 stirap (50,150)",
            strong > 0.99 and strong < protocol,
            f"F={strong:.4f}, need > 0.99 and below protocol {protocol:.4f}",
        )
    )
    return out


def _reproduce_fig6(cfg: RunConfig, outdir: str) -> list:
    records = experiments.run_decoherence_grid(outdir=outdir, n_steps=cfg.n_steps)
    out = []
    per_axis: dict[str, list] = {}
    for rec in records:
        coords = (rec.kappa_over_g, rec.gamma_over_g, rec.gammaphi_over_g)
        nonzero = [i for i, c in enumerate(coords) if c > 0]
        axis = ("kappa_over_g", "gamma_over_g", "gammaphi_over_g")[nonzero[0]] if nonzero else None
        if axis is None:
            for name in ("kappa_over_g", "gamma_over_g", "gammaphi_over_g"):
                per_axis.setdefault(name, []).append((0.0, rec.fidelity))
        else:
            per_axis.setdefault(axis, []).append((coords[nonzero[0]], rec.fidelity))
    for name, pts in sorted(per_axis.items()):
        pts.sort()
        fids = [f for _, f in pts]
        monotone = all(fids[i + 1] <= fids[i] + 1e-4 for i in range(len(fids) - 1))
        out.append(
            _verdict(
                f"fig6 {name} monotone",
                monotone,
                f"F drops {fids[0]:.4f} -> {fids[-1]:.4f} over the scan",
            )
        )
    return out


def _reproduce_fig7(cfg: RunConfig, outdir: str) -> list:
    records = experiments.run_dephasing_comparison(outdir=outdir, n_steps=cfg.n_steps)
    protocol = {r.gammaphi_over_g: r.fidelity for r in records if r.flavor == "gaussian"}
    stirap = {r.gammaphi_over_g: r.fidelity for r in records if r.flavor == "stirap"}
    ref_p, tol_p = experiments.DEPHASING_REFERENCE["protocol"]
    ref_s, tol_s = experiments.DEPHASING_REFERENCE["stirap"]
    top = max(protocol)
    return [
        _verdict(
            "fig7 protocol at 1e-3",
            abs(protocol[top] - ref_p) <= tol_p,
            f"F={protocol[top]:.4f}, reference {ref_p}+-{tol_p}",
        ),
        _verdict(
            "fig7 stirap at 1e-3",
            abs(stirap[top] - ref_s) <= tol_s,
            f"F={stirap[top]:.4f}, reference {ref_s}+-{tol_s}",
        ),
        _verdict(
            "fig7 ordering",
            all(protocol[v] > stirap[v] for v in protocol),
            "protocol above baseline at every dephasing value",
        ),
    ]


def _reproduce_fig8(cfg: RunConfig, outdir: str) -> list:
    records = experiments.run_variation_scan(
        outdir=outdir, n_steps=cfg.n_steps, mode=cfg.mode
    )
    by_triple = {(r.delta_t, r.delta_omega, r.delta_g): r.fidelity for r in records}
    base = by_triple[(0.0, 0.0, 0.0)]
    dg_dev = max(abs(by_triple[(0.0, 0.0, s * 0.10)] - base) for s in (+1, -1))
    quad = {
        (a, b): by_triple[(a * 0.10, b * 0.10, 0.0)]
        for a in (+1, -1)
        for b in (+1, -1)
    }
    order = experiments.quadrant_order(quad)
    ordered = order == experiments.TABLE2_QUADRANT_ORDER
    out = [
        _verdict(
            "fig8 dg insensitivity",
            dg_dev < 1e-3,
            f"|F(dg=+-10%) - F(0)| = {dg_dev:.2e}, need < 1e-3",
        ),
        _verdict(
            "fig8 sign correlation",
            ordered,
            "(dT,dOmega) quadrants "
            + " > ".join(f"({a:+d},{b:+d})={quad[(a, b)]:.4f}" for a, b in order)
            + ", published order "
            + " > ".join(f"({a:+d},{b:+d})" for a, b in experiments.TABLE2_QUADRANT_ORDER),
        ),
    ]
    if not ordered:
        print(
            "note: the published quadrant order needs a duration error that changes the "
            "run; under --mode rescale dT is a near no-op, so the quad follows dOmega "
            "alone. --mode truncate reproduces the order (see README)"
        )
    return out


def _reproduce_table1(cfg: RunConfig, outdir: str) -> list:
    _, comparisons = experiments.run_reference_decoherence_table(
        outdir=outdir, n_steps=cfg.n_steps
    )
    return [
        _verdict(
            f"table1 {c['label']}",
            c["passed"],
            f"F={c['computed']:.4f}, reference {c['reference']}+-{c['tolerance']}",
        )
        for c in comparisons
    ]


def _reproduce_table2(cfg: RunConfig, outdir: str) -> list:
    _, comparisons = experiments.run_variation_grid(
        outdir=outdir, n_steps=cfg.n_steps, mode=cfg.mode
    )
    out = [
        _verdict(
            f"table2 {c['label']}",
            c["passed"],
            f"F={c['computed']:.4f}, reference {c['reference']}+-{c['tolerance']}",
        )
        for c in comparisons
    ]
    if not all(c["passed"] for c in comparisons):
        print(
            "note: the reference magnitudes are a known discrepancy under both duration-error "
            "readings; their quadrant order is checked by `reproduce fig8` and holds under "
            "--mode truncate (see README)"
        )
    return out


def _reproduce_realistic(cfg: RunConfig, outdir: str) -> list:
    _, comparison = experiments.run_realistic_parameters(outdir=outdir, n_steps=cfg.n_steps)
    return [
        _verdict(
            "realistic",
            comparison["passed"],
            f"F={comparison['computed']:.4f}, reference {comparison['reference']}"
            f"+-{comparison['tolerance']}",
        )
    ]


_REPRODUCERS = {
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "fig7": _reproduce_fig7,
    "fig8": _reproduce_fig8,
    "table1": _reproduce_table1,
    "table2": _reproduce_table2,
    "realistic": _reproduce_realistic,
}


def _cmd_reproduce(cfg: RunConfig, target: str) -> int:
    outdir = _ensure_outdir(cfg)
    targets = list(_REPRODUCERS) if target == "all" else [target]
    verdicts = []
    for name in targets:
        verdicts.extend(_REPRODUCERS[name](cfg, outdir))
    _strip_meta(cfg)
    passed = sum(1 for v in verdicts if v)
    print(f"{passed} of {len(verdicts)} reference checks pass")
    return 0


def _expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def _cmd_verify(cfg: RunConfig) -> int:
    ok = True

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")

    comm = max(
        float(np.max(np.abs(M_X @ M_Y - M_Y @ M_X - 1j * M_Z))),
        float(np.max(np.abs(M_Y @ M_Z - M_Z @ M_Y - 1j * M_X))),
        float(np.max(np.abs(M_Z @ M_X - M_X @ M_Z - 1j * M_Y))),
    )
    check("spin-1 commutators", comm < 1e-15, f"max residual {comm:.2e}")

    params = ScheduleParams(A=cfg.A)
    v0 = dressing_transform(0.0, params)
    vt = dressing_transform(params.T, params)
    dev = max(float(np.max(np.abs(v0 - np.eye(3)))), float(np.max(np.abs(vt - np.eye(3)))))
    check("dressing endpoints", dev < 1e-10, f"max |V - I| {dev:.2e}")

    report = verify_cancellation(params, n_grid=100)
    check(
        "dressed-frame cancellation",
        report["passed"],
        f"worst (0,+-) residual {max(report['max_offdiag_0p'], report['max_offdiag_0m']):.2e} "
        f"relative, (+,-) {report['max_offdiag_pm']:.2e}",
    )

    coupling = CouplingConfig(g=cfg.g)
    hc = cavity_hamiltonian(coupling)
    block = hc[PSI2 : PSI6 + 1, PSI2 : PSI6 + 1]
    eigs = np.sort(np.linalg.eigvalsh(block))
    expected = np.sort([-math.sqrt(6) * cfg.g, 0.0, 0.0, 0.0, math.sqrt(6) * cfg.g])
    spec_dev = float(np.max(np.abs(eigs - expected)))
    check("cavity spectrum", spec_dev < 1e-9, f"max eigenvalue deviation {spec_dev:.2e}")

    fid, tracking = experiments.run_effective_model(params, n_steps=cfg.n_steps)
    check(
        "effective-model shortcut",
        fid >= 0.9999 and tracking <= 1e-3,
        f"F={fid:.6f}, max |P_phi0 - sin^2 mu| = {tracking:.2e}",
    )

    closed = RunSpec(g=cfg.g, A=cfg.A, n_steps=max(1000, min(cfg.n_steps, 2000)))
    results = experiments.run_points([closed, replace(closed, master_equation=True)])
    gap = abs(results[0][0].fidelity - results[1][0].fidelity)
    check("zero-noise equivalence", gap < 1e-7, f"|F_schrodinger - F_lindblad| = {gap:.2e}")

    schedule = build_schedule("gaussian", ScheduleParams(A=cfg.A), None)
    segments = 10
    seg_h = [
        hc + drive_hamiltonian(schedule.qubit_amplitudes((i + 0.5) / segments))
        for i in range(segments)
    ]
    psi_exact = basis_state(PSI1)
    psi_rk = psi_exact[None]
    for h in seg_h:
        psi_exact = _expm_hermitian(h, 1.0 / segments) @ psi_exact
        psi_rk = propagate_schrodinger(
            lambda k, h=h: h[None], psi_rk, TimeGrid(400), duration=1.0 / segments
        ).final_state
    rk_dev = float(np.max(np.abs(psi_rk - psi_exact)))
    check("integrator vs matrix exponential", rk_dev < 1e-8, f"max state deviation {rk_dev:.2e}")

    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = _resolve(args)
        if args.command == "pulses":
            return _cmd_pulses(cfg, args.samples)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.frames)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.axis)
        if args.command == "reproduce":
            return _cmd_reproduce(cfg, args.target)
        if args.command == "verify":
            return _cmd_verify(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
