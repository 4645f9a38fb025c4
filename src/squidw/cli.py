"""Command-line entry point.

Commands:

* ``pulses``     dump any flavor's four waveforms to per-qubit CSV files
* ``simulate``   one trajectory, final fidelity printed
* ``sweep``      generic 1- or 2-axis parameter sweep
* ``reproduce``  regenerate a named study and print pass/fail verdicts
                 against the bundled reference values
* ``verify``     dressed-frame cancellation and integrator oracle checks

Each command takes only the flags it reads; argparse refuses any other,
under the command's own usage. Exit codes: 0 success, 1 validation failure
or a failed check that is not a known discrepancy, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import experiments
from .dynamics import MAX_FRAMES, ConvergenceError, _step_count, fidelity
from .experiments import RunSpec

ENV_OUTDIR = "SQUIDW_OUT"


@dataclass
class RunConfig:
    """A command's settings: the defaults, RunSpec's where it has one, with each flag given."""

    flavor: str = RunSpec.flavor
    g: float = RunSpec.g
    A: float = RunSpec.A
    kappa: float = 0.0
    gamma: float = 0.0
    gamma_phi: float = 0.0
    delta_t: float = RunSpec.delta_t
    delta_omega: float = RunSpec.delta_omega
    delta_g: float = RunSpec.delta_g
    omega0: float | None = 50.0  # _resolve sets None unless the flavor is stirap
    n_steps: int = RunSpec.n_steps
    outdir: str = "out"
    write_meta: bool = True
    mode: str = RunSpec.mode


# Every setting's flag: (option strings, add_argument keywords). A flag's dest
# is its RunConfig field, and a flag not given stays None.
_FLAGS = {
    "flavor": (("--flavor",), {"choices": experiments._FLAVORS}),
    "g": (("--g",), {"type": float, "help": "cavity coupling, units 1/T"}),
    "A": (("--A",), {"type": float, "help": "dressing amplitude knob"}),
    "kappa": (("--kappa",), {"type": float, "help": "cavity decay rate, units 1/T"}),
    "gamma": (("--gamma",), {"type": float, "help": "qubit decay rate, units 1/T"}),
    "gamma_phi": (("--gammaphi",), {"type": float, "help": "dephasing rate, units 1/T"}),
    "omega0": (("--omega0",), {"type": float, "help": "stirap channel peak, units 1/T"}),
    "delta_t": (("--delta-t",), {"type": float, "help": "fractional duration error"}),
    "delta_omega": (("--delta-omega",), {"type": float, "help": "fractional amplitude error"}),
    "delta_g": (("--delta-g",), {"type": float, "help": "fractional coupling error"}),
    "n_steps": (("--steps",), {"type": int, "help": f"RK4 steps (default {RunSpec.n_steps})"}),
    "mode": (
        ("--mode",),
        {"choices": experiments._MODES, "help": "duration-error interpretation"},
    ),
    "outdir": (("-o", "--out"), {"help": f"output directory (default ${ENV_OUTDIR}, else out)"}),
    "write_meta": (
        ("--no-meta",),
        {"action": "store_false", "default": None, "help": "skip .meta.json sidecars"},
    ),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The squidw parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="squidw",
        description="W-state preparation toolkit: pulse design, dynamics, reproducible studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, *settings: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for setting in settings:
            options, kwargs = _FLAGS[setting]
            p.add_argument(*options, dest=setting, **kwargs)
        return p

    files = ("outdir", "write_meta")
    p_pulses = add("pulses", "export waveforms to per-qubit CSVs", "flavor", "A", "omega0", *files)
    p_pulses.add_argument("--samples", type=int, default=501, help="grid points (default 501)")

    p_sim = add("simulate", "run one trajectory and print F(T)", *_FLAGS)
    p_sim.add_argument(
        "--frames",
        type=int,
        help=f"stored frames, 2 to min({MAX_FRAMES}, steps + 1) (default 201, or steps + 1 if fewer)",
    )

    p_sweep = add("sweep", "sweep up to two named axes", *_FLAGS)
    axes = experiments._AXIS_TO_KEY
    p_sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help=f"sweep axis (repeatable, max 2); names: {', '.join(axes)}, or the RunSpec "
        f"field an alias names ({', '.join(f for a, f in axes.items() if a != f)})",
    )

    p_rep = add("reproduce", "regenerate a named study with verdicts", "n_steps", "mode", *files)
    p_rep.add_argument("target", choices=(*_REPRODUCERS, "all"))
    p_rep.add_argument(
        "--jobs", type=int, help="accepted and ignored: runs are batched in one process"
    )

    add("verify", "frame-cancellation and oracle checks", "g", "A", "n_steps")
    return parser, sub.choices


def _resolve(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """The defaults, with SQUIDW_OUT as the output directory when it is set,
    and each flag given; with the settings given, each mapped to its flag.
    Refuses --omega0 unless the flavor is stirap, and --A unless it is
    dressed: no other flavor reads them. verify, which has no --flavor,
    reads A. Only the stirap flavor has a channel peak, so any other
    leaves omega0 None."""
    given = {name: _FLAGS[name][0][-1] for name in _FLAGS if getattr(args, name, None) is not None}
    env = {"outdir": os.environ[ENV_OUTDIR]} if os.environ.get(ENV_OUTDIR) else {}
    cfg = RunConfig(**env | {name: getattr(args, name) for name in given})
    for name, flavor, what in (("omega0", "stirap", "the stirap channel peak"),
                               ("A", "dressed", "the dressing amplitude")):
        if name in given and hasattr(args, "flavor") and cfg.flavor != flavor:
            raise ValueError(f"{args.command} does not take {given[name]}: {given[name]} sets "
                             f"{what}; flavor {cfg.flavor!r} has none")
    if cfg.flavor != "stirap":
        cfg.omega0 = None
    return cfg, given


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


def _write_plans(cfg: RunConfig, plans) -> list:
    """Run plans, each validated when it was built, into the output
    directory; one output per plan. Under --no-meta, remove the sidecar each
    plan wrote, and no other file."""
    outputs = experiments._run_plans(plans, _ensure_outdir(cfg))
    if not cfg.write_meta:
        for plan in plans:
            os.remove(os.path.join(cfg.outdir, f"{plan.name}.meta.json"))
    return outputs


# ---------------------------------------------------------------------------
# commands


def _cmd_pulses(cfg: RunConfig, samples: int) -> int:
    """A plan with no specs: its finish samples the schedule into four
    per-qubit CSVs and one pulses_<flavor>.meta.json."""
    if samples < 2:
        raise ValueError("--samples must be at least 2")
    schedule = RunSpec(flavor=cfg.flavor, A=cfg.A, omega0=cfg.omega0).schedule()
    name = f"pulses_{cfg.flavor}"

    def finish(results, outdir) -> None:
        ts = np.linspace(0.0, schedule.duration, samples)
        for k, amps in enumerate(schedule.qubit_amplitudes(ts), 1):
            header = ("t", f"{cfg.flavor}_qubit{k}")
            experiments._write(outdir, f"{name}_q{k}", header, zip(ts, amps))
        meta = {"flavor": cfg.flavor, "samples": samples, "omega0": cfg.omega0, "A": cfg.A}
        experiments.write_meta(os.path.join(outdir, f"{name}.meta.json"), "pulses", meta)

    _write_plans(cfg, [experiments.Plan(name, [], finish)])
    for k in range(1, 5):
        print(f"wrote {os.path.join(cfg.outdir, f'{name}_q{k}.csv')}")
    return 0


# simulate and sweep take absolute rates; a RunSpec holds them as ratios to g.
_RATES = (("kappa", "kappa_over_g"), ("gamma", "gamma_over_g"), ("gamma_phi", "gammaphi_over_g"))
# The settings simulate and sweep pass to RunSpec as they are. Their meta
# records these and the rates, with the frame count (simulate) or the axes as
# given (sweep).
_SETTINGS = ("flavor", "g", "A", "delta_t", "delta_omega", "delta_g", "omega0", "n_steps", "mode")


def _plan(cfg: RunConfig, axes=None, n_frames: int = 2, given=None) -> experiments.Plan:
    """simulate's plan, one trajectory (axes None), or sweep's, the records
    of the grid over axes.

    The absolute rates become ratios at each spec's own coupling
    g (1 + delta_g). A setting given as a flag (given maps it to its flag)
    whose RunSpec field a sweep axis sets is refused: the axis values would
    replace it.
    """
    base = RunSpec(n_frames=n_frames, **{name: getattr(cfg, name) for name in _SETTINGS})
    swept = {experiments._axis_field(name) for name, _ in axes or ()}
    for name, source in (given or {}).items():
        field = dict(_RATES).get(name, name)
        if field in swept:
            raise ValueError(f"sweep does not take {source}: a sweep axis sets {field}")
    specs = [
        replace(s, **{r: getattr(cfg, rate) / s.coupling for rate, r in _RATES if r not in swept})
        for s in ([base] if axes is None else experiments.sweep_grid(base, axes))
    ]
    meta = {name: getattr(cfg, name) for name in (*_SETTINGS, *dict(_RATES))}
    if axes is None:
        return experiments._plan_trace("simulate", specs[0], meta | {"n_frames": n_frames})
    return experiments._plan_records("sweep", specs, meta | {"axes": experiments._axes_meta(axes)})


def _cmd_simulate(cfg: RunConfig, frames: int | None) -> int:
    most = min(MAX_FRAMES, _step_count(cfg.n_steps) + 1)
    if frames is None:
        frames = min(201, most)
    elif not 2 <= frames <= most:
        raise ValueError(f"--frames must be 2 to {most} at {cfg.n_steps} steps, got {frames}")
    [traj] = _write_plans(cfg, [_plan(cfg, n_frames=frames)])
    print(f"F(T) = {fidelity(traj.final_state):.6f}")
    print(f"drift = {traj.drift:.3e}, wrote {os.path.join(cfg.outdir, 'simulate.csv')}")
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


def _cmd_sweep(cfg: RunConfig, axis_args: list, given: dict) -> int:
    axes = tuple(_parse_axis(a) for a in axis_args)
    [records] = _write_plans(cfg, [_plan(cfg, axes, given=given)])
    print(f"{len(records)} points, wrote {os.path.join(cfg.outdir, 'sweep.csv')}")
    return 0


def _report(check, output) -> list:
    """Judge a target's output, print its verdicts and note; return the verdicts."""
    verdicts = check.judge(output)
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'} {v.label}: {v.detail}")
    note = check.note_for(verdicts)
    if note:
        print(f"note: {note}")
    return verdicts


def _reproduce(target: str, finish, results, outdir: str) -> list:
    """`reproduce TARGET`'s write-and-judge step: the finish step of the
    target's plan applied to the run_points results of its specs."""
    return _report(experiments.CHECKS[target], finish(results, outdir))


_REPRODUCERS = {name: partial(_reproduce, name) for name in experiments.CHECKS if name != "verify"}


def _reproduce_fig3(cfg: RunConfig, outdir: str) -> list:
    """fig3 judged on the records of experiments.run_coupling_sweep, looked up
    at call time. The benchmark's closed_sweep workload judges its own sweep
    through this name by replacing that driver. Pass/fail per verdict."""
    records = experiments.run_coupling_sweep(outdir=outdir, n_steps=cfg.n_steps)
    return [v.passed for v in _report(experiments.CHECKS["fig3"], records)]


def _cmd_reproduce(cfg: RunConfig, target: str) -> int:
    """Plan every target, integrate all their points in one run_points call,
    then write, judge and print each target in order. Exit 1 when a check
    fails that is not flagged as a known discrepancy."""
    targets = list(_REPRODUCERS) if target == "all" else [target]
    plans = [experiments.CHECKS[name].plan(cfg.n_steps, cfg.mode) for name in targets]
    judged = [p._replace(finish=partial(_REPRODUCERS[n], p.finish)) for n, p in zip(targets, plans)]
    verdicts = [v for judged_target in _write_plans(cfg, judged) for v in judged_target]
    passed = sum(1 for v in verdicts if v.passed)
    print(f"{passed} of {len(verdicts)} reference checks pass")
    return 0 if all(v.passed or v.known_discrepancy for v in verdicts) else 1


def _cmd_verify(cfg: RunConfig) -> int:
    verdicts = experiments.CHECKS["verify"](n_steps=cfg.n_steps, g=cfg.g, A=cfg.A)
    for v in verdicts:
        print(f"{'ok  ' if v.passed else 'FAIL'} {v.label}: {v.detail}")
    return 0 if all(v.passed for v in verdicts) else 1


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg, given = _resolve(args)
        if args.command == "pulses":
            return _cmd_pulses(cfg, args.samples)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.frames)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.axis, given)
        if args.command == "reproduce":
            return _cmd_reproduce(cfg, args.target)
        return _cmd_verify(cfg)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
