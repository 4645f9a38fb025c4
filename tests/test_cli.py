"""Command-line behavior: exit codes, files, configuration precedence."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from squidw import experiments
from squidw.cli import ENV_OUTDIR, main, parse_config_file

# Every config key at its default, as a config file spells it.
DEFAULTS_CFG = """\
flavor = gaussian
g = 30.0
A = 0.5
kappa = 0.0
gamma = 0.0
gamma_phi = 0.0
omega0 = 50.0
delta_t = 0.0
delta_omega = 0.0
delta_g = 0.0
n_steps = 2000
mode = rescale
jobs = 1
outdir = out
write_meta = true
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    code, _, _ = run(["--help"], capsys)
    assert code == 0


def test_missing_command_exits_one(capsys):
    code, _, _ = run([], capsys)
    assert code == 1


def test_unknown_flavor_exits_one(capsys):
    code, _, _ = run(["simulate", "--flavor", "square"], capsys)
    assert code == 1


def test_pulses_writes_four_files(tmp_path, capsys):
    code, out, _ = run(["pulses", "--flavor", "gaussian", "-o", str(tmp_path)], capsys)
    assert code == 0
    paths = [tmp_path / f"pulses_gaussian_q{k}.csv" for k in (1, 2, 3, 4)]
    assert all(p.exists() for p in paths)
    with open(paths[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "gaussian_qubit1"]
    ts = np.array([float(r[0]) for r in rows[1:]])
    q1 = np.array([float(r[1]) for r in rows[1:]])
    with open(paths[3], newline="") as fh:
        q4 = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
    # channel a peaks early on qubits 1-3, channel b late on qubit 4
    assert ts[np.argmax(q1)] < 0.5 < ts[np.argmax(q4)]
    assert (tmp_path / "pulses_gaussian.meta.json").exists()


def test_no_meta_flag_suppresses_sidecars(tmp_path, capsys):
    code, _, _ = run(
        ["pulses", "--flavor", "dressed", "-o", str(tmp_path), "--no-meta"], capsys
    )
    assert code == 0
    assert not list(tmp_path.glob("*.meta.json"))
    assert list(tmp_path.glob("*.csv"))


def test_simulate_prints_fidelity_and_writes_trajectory(tmp_path, capsys):
    code, out, _ = run(
        ["simulate", "--flavor", "gaussian", "--g", "30", "-o", str(tmp_path)], capsys
    )
    assert code == 0
    assert "F(T) = 0.9999" in out
    with open(tmp_path / "simulate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "fidelity"] + [f"P{i}" for i in range(1, 10)] + ["PG"]
    assert float(rows[-1][1]) > 0.99


def test_simulate_with_noise_runs_master_equation(tmp_path, capsys):
    code, out, _ = run(
        [
            "simulate",
            "--flavor",
            "gaussian",
            "--gammaphi",
            "0.03",
            "--steps",
            "1000",
            "-o",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    f = float(out.split("F(T) = ")[1].split()[0])
    assert 0.9 < f < 0.999


def test_underresolved_stiff_run_exits_two(tmp_path, capsys):
    code, _, err = run(
        [
            "simulate",
            "--flavor",
            "stirap",
            "--omega0",
            "50",
            "--g",
            "150",
            "--steps",
            "100",
            "-o",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "convergence" in err.lower()


def test_sweep_axis_parsing(tmp_path, capsys):
    code, out, _ = run(
        ["sweep", "--axis", "g=10,20", "--steps", "500", "-o", str(tmp_path)], capsys
    )
    assert code == 0
    assert "2 points" in out
    code, _, err = run(["sweep", "--axis", "g", "-o", str(tmp_path)], capsys)
    assert code == 1
    code, _, err = run(["sweep", "--axis", "g=a,b", "-o", str(tmp_path)], capsys)
    assert code == 1
    code, _, err = run(["sweep", "--axis", "voltage=1,2", "-o", str(tmp_path)], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--kappa", "0.3"],
        ["--kappa", "0.3", "--gamma", "0.1", "--gammaphi", "0.01", "--delta-g", "0.1"],
    ],
)
def test_sweep_records_equal_simulate_records(tmp_path, capsys, monkeypatch, flags):
    """Each sweep point runs what simulate runs with the same flags: absolute
    rates become ratios at the point's own coupling g (1 + delta_g)."""
    records = []
    run_points = experiments.run_points

    def recorded(specs):
        results = run_points(specs)
        records.extend(record for record, _ in results)
        return results

    monkeypatch.setattr(experiments, "run_points", recorded)
    common = [*flags, "--steps", "400", "-o", str(tmp_path)]
    assert run(["sweep", "--axis", "g=10,30", *common], capsys)[0] == 0
    swept = list(records)
    assert [r.g for r in swept] == [10.0, 30.0]
    for point in swept:
        records.clear()
        assert run(["simulate", "--g", f"{point.g:g}", "--frames", "2", *common], capsys)[0] == 0
        [alone] = records
        assert point == replace(alone, label=point.label)


def test_reproduce_prints_verdicts(tmp_path, capsys):
    code, out, _ = run(
        ["reproduce", "realistic", "--steps", "1000", "-o", str(tmp_path)], capsys
    )
    assert code == 0
    assert "PASS realistic" in out
    assert (tmp_path / "realistic_compare.csv").exists()


def test_reproduce_rejects_settings_it_ignores(tmp_path, capsys):
    # every target runs at its published inputs; a physics flag would be ignored
    for flag in (
        ["--g", "30"],
        ["--A", "0.4"],
        ["--flavor", "stirap"],
        ["--kappa", "5"],
        ["--gamma", "1"],
        ["--gammaphi", "1"],
        ["--omega0", "40"],
        ["--delta-t", "0.1"],
        ["--delta-omega", "0.1"],
        ["--delta-g", "0.1"],
    ):
        code, out, err = run(["reproduce", "realistic", *flag, "-o", str(tmp_path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and flag[0] in err
    path = tmp_path / "run.cfg"
    path.write_text("kappa = 5\n")
    code, out, err = run(["reproduce", "realistic", "--config", str(path), "-o", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "kappa" in err
    # a full config file at the defaults is fine, as are the run-control flags
    path.write_text(DEFAULTS_CFG)
    code, out, _ = run(
        ["reproduce", "realistic", "--config", str(path), "--steps", "1000", "--mode", "truncate",
         "--jobs", "2", "--no-meta", "-o", str(tmp_path / "ok")],
        capsys,
    )
    assert code == 0 and "PASS realistic" in out
    assert not list((tmp_path / "ok").glob("*.meta.json"))


def test_verify_and_pulses_reject_settings_they_ignore(tmp_path, capsys):
    # verify uses only g, A and the step count, and writes no files; pulses
    # uses only flavor, A and omega0. Only the stirap flavor has an omega0,
    # so pulses, simulate and sweep refuse it with any other.
    out_flag = ["-o", str(tmp_path)]
    for argv, flag in (
        (["verify", "--kappa", "50"], "--kappa"),
        (["verify", "--flavor", "stirap"], "--flavor"),
        (["verify", "--delta-g", "0.5"], "--delta-g"),
        (["verify", "--mode", "truncate"], "--mode"),
        (["verify", *out_flag], "-o"),
        (["verify", "--no-meta"], "--no-meta"),
        (["pulses", "--g", "5", *out_flag], "--g"),
        (["pulses", "--kappa", "3", *out_flag], "--kappa"),
        (["pulses", "--steps", "100", *out_flag], "--steps"),
        (["pulses", "--delta-omega", "0.5", *out_flag], "--delta-omega"),
        (["pulses", "--omega0", "40", *out_flag], "--omega0"),
        (["pulses", "--flavor", "dressed", "--omega0", "40", *out_flag], "--omega0"),
        (["simulate", "--omega0", "40", *out_flag], "--omega0"),
        (["sweep", "--omega0", "40", "--axis", "g=10,20", *out_flag], "--omega0"),
        (["sweep", "--g", "10", "--axis", "omega0_stirap=10,20", "--steps", "400", *out_flag],
         "omega0"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and flag in err
    path = tmp_path / "run.cfg"
    for command, text, key in (
        ("pulses", "gamma = 1\n", "gamma"),
        ("verify", f"outdir = {tmp_path / 'v'}\n", "outdir"),
        ("verify", "write_meta = false\n", "write_meta"),
        ("pulses", "omega0 = 40\n", "--omega0"),
        ("simulate", "omega0 = 40\n", "--omega0"),
        ("sweep", "flavor = dressed\nomega0 = 40\n", "--omega0"),
    ):
        path.write_text(text)
        code, out, err = run([command, "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and key in err
    assert not (tmp_path / "v").exists()
    assert not list(tmp_path.glob("pulses_*")) and not list(tmp_path.glob("*.csv"))
    # a config file at the defaults names omega0 = 50 for the gaussian flavor
    path.write_text(DEFAULTS_CFG)
    code, out, _ = run(["pulses", "--config", str(path), "-o", str(tmp_path / "ok")], capsys)
    assert code == 0 and (tmp_path / "ok" / "pulses_gaussian_q1.csv").exists()
    assert json.loads((tmp_path / "ok" / "pulses_gaussian.meta.json").read_text())["omega0"] is None
    code, out, _ = run(
        ["pulses", "--flavor", "stirap", "--A", "0.4", "--omega0", "40", "--samples", "11",
         "-o", str(tmp_path)],
        capsys,
    )
    assert code == 0 and (tmp_path / "pulses_stirap_q4.csv").exists()
    assert json.loads((tmp_path / "pulses_stirap.meta.json").read_text())["omega0"] == 40.0


def _propagator_calls(monkeypatch) -> list:
    """(propagator name, batch size) of every propagator call the drivers make from now on."""
    calls = []
    for name in ("propagate_schrodinger", "propagate_lindblad"):
        original = getattr(experiments, name)

        def counted(h_fn, *args, _name=name, _original=original, **kwargs):
            traj = _original(h_fn, *args, **kwargs)
            calls.append((_name, len(traj.final_state)))
            return traj

        monkeypatch.setattr(experiments, name, counted)
    return calls


def test_reproduce_all_runs_two_propagator_calls(tmp_path, capsys, monkeypatch):
    """`reproduce all` plans every target first: its 110 points are 98
    distinct runs (specs that differ only in label run once), which run as
    one closed and one open batch. Each batch samples every distinct
    schedule once per block of RK4 nodes. CI checks that each target alone
    writes the same bytes and verdicts."""
    from squidw.pulse_design import PulseSchedule

    calls = _propagator_calls(monkeypatch)
    batches = []
    run_batch = experiments._run_batch

    def recorded(specs):
        batches.append(list(specs))
        return run_batch(specs)

    monkeypatch.setattr(experiments, "_run_batch", recorded)
    samples = []
    envelopes = PulseSchedule.envelopes

    def sampled(schedule, ts):
        samples.append(len(ts))
        return envelopes(schedule, ts)

    monkeypatch.setattr(PulseSchedule, "envelopes", sampled)
    n_steps = 1000
    code, out, _ = run(["reproduce", "all", "--steps", str(n_steps), "-o", str(tmp_path)], capsys)
    assert code == 0 and out.endswith("reference checks pass\n")
    assert sorted(calls) == [("propagate_lindblad", 38), ("propagate_schrodinger", 60)]
    assert len(list(tmp_path.iterdir())) == 22
    # a schedule is set by flavor, A, omega0, mode, delta_t and delta_omega
    distinct = [
        len({(s.flavor, s.A, s.omega0, s.mode, s.delta_t, s.delta_omega) for s in specs})
        for specs in batches
    ]
    assert sorted(distinct) == [2, 16]
    blocks = math.ceil((2 * n_steps + 1) / experiments._NODE_BLOCK)
    assert len(samples) == sum(distinct) * blocks
    assert sum(samples) == sum(distinct) * (2 * n_steps + 1)


def test_reproduce_fig8_quadrant_order_needs_truncate(tmp_path, capsys):
    # the published (dT, dOmega) quadrant order needs dT to change the run;
    # rescale re-parameterizes the waveforms and leaves dT nearly inert
    for mode, verdict in (("truncate", "PASS"), ("rescale", "FAIL")):
        code, out, _ = run(
            ["reproduce", "fig8", "--mode", mode, "--steps", "1000", "-o", str(tmp_path / mode)],
            capsys,
        )
        assert code == 0
        assert f"{verdict} fig8 sign correlation" in out
        assert "PASS fig8 dg insensitivity" in out


def test_verify_passes(tmp_path, capsys, monkeypatch):
    # SQUIDW_OUT is a default for every command, so verify accepts it; it
    # writes nothing there
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "env"))
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "cancellation" in out
    assert not (tmp_path / "env").exists()


def test_verify_runs_three_propagator_calls(capsys, monkeypatch):
    """The effective model joins the zero-noise Schrodinger point in one
    closed batch of two, the zero-noise Lindblad point runs alone, and the
    integrator oracle carries 10 basis states through 10 segments at once."""
    calls = _propagator_calls(monkeypatch)
    code, out, _ = run(["verify"], capsys)
    assert code == 0 and "FAIL" not in out
    assert calls == [
        ("propagate_schrodinger", 2),
        ("propagate_lindblad", 1),
        ("propagate_schrodinger", 100),
    ]


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip(tmp_path, capsys):
    """Text, float, int and bool config values run as their flags do; a
    value of the wrong type is refused."""
    path = tmp_path / "run.cfg"
    path.write_text(
        "flavor = dressed\nA = 0.4\ng = 42.5\ngamma_phi = 0.01\nn_steps = 400\n"
        "mode = truncate\nwrite_meta = false\njobs = 3\n"
    )
    axis = ["--axis", "dT_over_T=-0.1"]
    code, _, _ = run(["sweep", "--config", str(path), *axis, "-o", str(tmp_path / "file")], capsys)
    assert code == 0
    flags = ["--flavor", "dressed", "--A", "0.4", "--g", "42.5", "--gammaphi", "0.01"]
    flags += ["--steps", "400", "--mode", "truncate", "--no-meta", "--jobs", "3"]
    code, _, _ = run(["sweep", *flags, *axis, "-o", str(tmp_path / "flags")], capsys)
    assert code == 0
    written = (tmp_path / "file" / "sweep.csv").read_bytes()
    assert written == (tmp_path / "flags" / "sweep.csv").read_bytes()
    assert not list((tmp_path / "file").glob("*.meta.json"))
    with open(tmp_path / "file" / "sweep.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["flavor"], row["g"], row["n_steps"]) == ("dressed", "42.5", "400")
    assert float(row["gammaphi_over_g"]) == 0.01 / 42.5
    for text, key in (("write_meta = yes\n", "write_meta"), ("n_steps = 4.5\n", "4.5")):
        path.write_text(text)
        code, out, err = run(["simulate", "--config", str(path), "-o", str(tmp_path)], capsys)
        assert code == 1 and out == "" and key in err


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\ng = 12.5\nflavor = dressed  # trailing comment\n\n")
    mapping = parse_config_file(str(path))
    assert mapping == {"g": "12.5", "flavor": "dressed"}
    path.write_text("g 12.5\n")
    with pytest.raises(ValueError):
        parse_config_file(str(path))


def test_unknown_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("voltage = 3\n")
    code, _, err = run(["simulate", "--config", str(path), "-o", str(tmp_path)], capsys)
    assert code == 1
    assert "voltage" in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--config", str(tmp_path / "nope.cfg"), "-o", str(tmp_path)], capsys
    )
    assert code == 1


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("g = 10\nn_steps = 500\n")
    code, out, _ = run(
        [
            "simulate",
            "--config",
            str(path),
            "--g",
            "30",
            "-o",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    # g=30 result, not the g=10 one from the file
    assert "F(T) = 0.9999" in out


def test_config_file_applies_when_flag_absent(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("g = 10\nn_steps = 500\n")
    code, out, _ = run(["simulate", "--config", str(path), "-o", str(tmp_path)], capsys)
    assert code == 0
    f = float(out.split("F(T) = ")[1].split()[0])
    # the g=10 protocol lands near 0.99995, clearly not the g=30 number
    assert f == pytest.approx(0.99995, abs=5e-4)


def test_env_var_sets_default_outdir(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(ENV_OUTDIR, str(env_dir))
    code, _, _ = run(["pulses", "--flavor", "dressed"], capsys)
    assert code == 0
    assert (env_dir / "pulses_dressed_q1.csv").exists()
    # an explicit flag still wins over the environment
    flag_dir = tmp_path / "from_flag"
    code, _, _ = run(["pulses", "--flavor", "dressed", "-o", str(flag_dir)], capsys)
    assert code == 0
    assert (flag_dir / "pulses_dressed_q1.csv").exists()


def test_unwritable_outdir_exits_one(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code, _, err = run(["pulses", "-o", str(target)], capsys)
    assert code == 1
    assert "not writable" in err or "error" in err
    # commands that validate their runs first still check the directory
    for argv in (["simulate"], ["sweep", "--axis", "g=5,10"], ["reproduce", "fig3"]):
        code, _, err = run([*argv, "-o", str(target)], capsys)
        assert code == 1 and "not writable" in err, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "bogus=1,2"],
        ["simulate", "--delta-t", "-1.5"],
        ["simulate", "--steps", "50"],
        ["reproduce", "fig3", "--steps", "50"],
        ["simulate", "--kappa", "-1"],
        ["sweep", "--kappa", "-1", "--axis", "g=5,10"],
    ],
)
def test_rejected_run_creates_no_output_directory(tmp_path, capsys, argv):
    outdir = tmp_path / "never"
    code, _, err = run([*argv, "-o", str(outdir)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not outdir.exists()

