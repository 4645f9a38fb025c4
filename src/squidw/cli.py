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
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import experiments
from .dynamics import ConvergenceError
from .experiments import RunSpec, build_schedule
from .pulse_design import ScheduleParams

ENV_OUTDIR = "SQUIDW_OUT"


@dataclass
class RunConfig:
    """Resolved run configuration; every field but command is a config file key."""

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
        "gammaphi_over_g, dT_over_T, dOmega_over_Omega, dg_over_g, omega0_stirap, or "
        "the RunSpec field an alias names (delta_t, delta_omega, delta_g, omega0)",
    )

    p_rep = sub.add_parser("reproduce", help="regenerate a named study with verdicts")
    add_common(p_rep)
    p_rep.add_argument("target", choices=(*_REPRODUCERS, "all"))

    p_ver = sub.add_parser("verify", help="frame-cancellation and oracle checks")
    add_common(p_ver)

    return parser


def _defaults() -> RunConfig:
    """The configuration before any config file or flag: the defaults, with
    the output directory from SQUIDW_OUT when it is set."""
    cfg = RunConfig()
    if os.environ.get(ENV_OUTDIR):
        cfg.outdir = os.environ[ENV_OUTDIR]
    return cfg


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = _defaults()
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


# ---------------------------------------------------------------------------
# commands


def _cmd_pulses(cfg: RunConfig, samples: int) -> int:
    if samples < 2:
        raise ValueError("--samples must be at least 2")
    outdir = _ensure_outdir(cfg)
    omega0 = cfg.omega0 if cfg.flavor == "stirap" else None
    schedule = build_schedule(cfg.flavor, ScheduleParams(A=cfg.A), omega0)
    ts = np.linspace(0.0, schedule.duration, samples)
    amps = schedule.qubit_amplitudes(ts)
    paths = []
    for k in range(4):
        path = os.path.join(outdir, f"pulses_{cfg.flavor}_q{k + 1}.csv")
        experiments.write_csv(path, ("t", f"{cfg.flavor}_qubit{k + 1}"), zip(ts, amps[k]))
        paths.append(path)
    experiments.write_meta(
        os.path.join(outdir, f"pulses_{cfg.flavor}.meta.json"),
        "pulses",
        {"flavor": cfg.flavor, "samples": samples, "omega0": omega0, "A": cfg.A},
    )
    _strip_meta(cfg)
    for p in paths:
        print(f"wrote {p}")
    return 0


# simulate and sweep take absolute rates; a RunSpec holds them as ratios to g.
_RATES = (("kappa", "kappa_over_g"), ("gamma", "gamma_over_g"), ("gamma_phi", "gammaphi_over_g"))


def _plan(cfg: RunConfig, axes=None, n_frames: int = 2):
    """simulate's one RunSpec (axes None), or sweep's grid over axes; with
    the sweep's finish step (None for simulate).

    The absolute rates become ratios at each spec's own coupling
    g (1 + delta_g); a rate that is a sweep axis takes the axis values.
    """
    base = RunSpec(
        flavor=cfg.flavor,
        g=cfg.g,
        A=cfg.A,
        delta_t=cfg.delta_t,
        delta_omega=cfg.delta_omega,
        delta_g=cfg.delta_g,
        omega0=cfg.omega0 if cfg.flavor == "stirap" else None,
        n_steps=cfg.n_steps,
        mode=cfg.mode,
        n_frames=n_frames,
    )
    specs, finish = ([base], None) if axes is None else experiments._plan_sweep(base, axes, "sweep")
    swept = {experiments._axis_field(name) for name, _ in axes or ()}
    specs = [
        replace(s, **{r: getattr(cfg, rate) / s.coupling.g for rate, r in _RATES if r not in swept})
        for s in specs
    ]
    return specs, finish


def _cmd_simulate(cfg: RunConfig, frames: int) -> int:
    specs, _ = _plan(cfg, n_frames=frames)
    outdir = _ensure_outdir(cfg)
    [(record, traj)] = experiments.run_points(specs)
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
    plan = _plan(cfg, tuple(_parse_axis(a) for a in axis_args))
    outdir = _ensure_outdir(cfg)
    records = experiments._run_plan(plan, outdir)
    _strip_meta(cfg)
    print(f"{len(records)} points, wrote {os.path.join(outdir, 'sweep.csv')}")
    return 0


def _report(check, output) -> list:
    """Judge a target's output, print its verdicts and note; pass/fail per verdict."""
    verdicts = check.judge(output)
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'} {v.label}: {v.detail}")
    note = check.note_for(verdicts)
    if note:
        print(f"note: {note}")
    return [v.passed for v in verdicts]


def _reproducer(target: str):
    """`reproduce TARGET`'s write-and-judge step: the finish step of the
    target's plan applied to the run_points results of its specs."""

    def reproduce(finish, results, outdir: str) -> list:
        return _report(experiments.CHECKS[target], finish(results, outdir))

    return reproduce


_REPRODUCERS = {name: _reproducer(name) for name in experiments.CHECKS if name != "verify"}


def _reproduce_fig3(cfg: RunConfig, outdir: str) -> list:
    """fig3 judged on the records of experiments.run_coupling_sweep, looked up
    at call time. The benchmark's closed_sweep workload judges its own sweep
    through this name by replacing that driver."""
    records = experiments.run_coupling_sweep(outdir=outdir, n_steps=cfg.n_steps)
    return _report(experiments.CHECKS["fig3"], records)


# Every setting some command ignores, with its flag.
_SETTING_FLAGS = {
    "flavor": "--flavor",
    "g": "--g",
    "A": "--A",
    "kappa": "--kappa",
    "gamma": "--gamma",
    "gamma_phi": "--gammaphi",
    "omega0": "--omega0",
    "delta_t": "--delta-t",
    "delta_omega": "--delta-omega",
    "delta_g": "--delta-g",
    "n_steps": "--steps",
    "mode": "--mode",
    "outdir": "-o/--out",
    "write_meta": "--no-meta",
}

# The settings each command uses, and why it takes no others; simulate and
# sweep use them all. Only the stirap flavor uses omega0.
# _FILES are the settings of the files a command writes.
_FILES = {"outdir", "write_meta"}
_USED_SETTINGS = {
    "reproduce": ({"n_steps", "mode"} | _FILES, "every target runs at its published settings"),
    "verify": ({"g", "A", "n_steps"}, "verify uses only --g, --A and --steps, and writes no files"),
    "pulses": (
        {"flavor", "A", "omega0"} | _FILES,
        "pulses uses only --flavor, --A, --omega0 and --samples",
    ),
}


def _reject_ignored(args: argparse.Namespace, cfg: RunConfig) -> None:
    """Refuse a flag, or a config value other than the default, that the command ignores.

    SQUIDW_OUT is a default for every command, not a setting of one.
    """
    ignored = {}
    if cfg.command in _USED_SETTINGS:
        used, why = _USED_SETTINGS[cfg.command]
        ignored = {name: why for name in _SETTING_FLAGS if name not in used}
    if cfg.flavor != "stirap":
        ignored.setdefault(
            "omega0", f"--omega0 sets the stirap channel peak; flavor {cfg.flavor!r} has none"
        )
    defaults = _defaults()
    for name, why in ignored.items():
        flag = _SETTING_FLAGS[name]
        given = args.no_meta if name == "write_meta" else getattr(args, name, None) is not None
        if given:
            raise ValueError(f"{cfg.command} does not take {flag}: {why}")
        if getattr(cfg, name) != getattr(defaults, name):
            raise ValueError(
                f"{cfg.command} does not use config key {name} (= {getattr(cfg, name)!r}): {why}"
            )


def _cmd_reproduce(cfg: RunConfig, target: str) -> int:
    """Plan every target, integrate all their points in one run_points call,
    then write, judge and print each target in order."""
    targets = list(_REPRODUCERS) if target == "all" else [target]
    plans = [experiments.CHECKS[name].plan(cfg.n_steps, cfg.mode) for name in targets]
    outdir = _ensure_outdir(cfg)
    results = experiments.run_points([spec for specs, _ in plans for spec in specs])
    verdicts = []
    start = 0
    for name, (specs, finish) in zip(targets, plans):
        verdicts.extend(_REPRODUCERS[name](finish, results[start : start + len(specs)], outdir))
        start += len(specs)
    _strip_meta(cfg)
    passed = sum(1 for v in verdicts if v)
    print(f"{passed} of {len(verdicts)} reference checks pass")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    verdicts = experiments.CHECKS["verify"](g=cfg.g, A=cfg.A, n_steps=cfg.n_steps)
    for v in verdicts:
        print(f"{'ok  ' if v.passed else 'FAIL'} {v.label}: {v.detail}")
    return 0 if all(v.passed for v in verdicts) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = _resolve(args)
        _reject_ignored(args, cfg)
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
