"""Command-line behavior: exit codes, files, the flags each command takes."""

import csv
import json
import re

import numpy as np
import pytest

from squidw import experiments
from squidw.cli import ENV_OUTDIR, main

def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_refused(result, flag, command):
    """Exit 1 with nothing on stdout, and an error naming the flag on the
    last stderr line: the command's own "error: ..." or argparse's, which
    follows the command's own usage ("usage: squidw <command> ...") with
    "squidw <command>: error: ...", such as its unrecognized arguments."""
    code, out, err = result
    assert code == 1 and out == "", (code, out)
    last = err.splitlines()[-1]
    assert "error: " in last and flag in last, err
    if not err.startswith("error: "):
        assert err.startswith(f"usage: squidw {command} "), err
        assert last.startswith(f"squidw {command}: error: "), err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--steps", "400"],
        ["sweep", "--axis", "g=10,20", "--steps", "400"],
        ["reproduce", "realistic", "--steps", "1000"],
        ["pulses", "--flavor", "dressed"],
    ],
)
def test_no_meta_flag_suppresses_sidecars_of_every_command(tmp_path, capsys, argv):
    """The command writes its CSVs without sidecars, and leaves another
    run's sidecar in the same directory alone."""
    other = tmp_path / "other.meta.json"
    other.write_text("{}\n")
    code, _, _ = run([*argv, "--no-meta", "-o", str(tmp_path)], capsys)
    assert code == 0
    assert [p.name for p in tmp_path.glob("*.meta.json")] == ["other.meta.json"]
    assert other.read_text() == "{}\n"
    assert list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--axis", "g=10,20"]])
def test_simulate_and_sweep_meta_record_their_settings(tmp_path, capsys, argv):
    """Two runs that differ only in --A write different meta; each meta
    records every setting of the run. Only the dressed flavor reads A."""
    metas = []
    for a in ("0.5", "0.3"):
        outdir = tmp_path / a
        argv_a = [*argv, "--flavor", "dressed", "--A", a, "--steps", "400", "-o", str(outdir)]
        assert run(argv_a, capsys)[0] == 0
        [path] = outdir.glob("*.meta.json")
        metas.append(json.loads(path.read_text()))
    assert metas[0] != metas[1]
    assert (metas[0]["A"], metas[1]["A"]) == (0.5, 0.3)
    settings = {"flavor", "g", "A", "kappa", "gamma", "gamma_phi", "delta_t", "delta_omega"}
    settings |= {"delta_g", "omega0", "mode", "n_steps"}
    assert settings | {"n_frames" if argv == ["simulate"] else "axes"} <= metas[0].keys()


def test_reproduce_all_file_set(tmp_path, capsys):
    """The names, headers and meta envelopes of every file `reproduce all`
    writes; the float bytes are left to the determinism checks."""
    code, _, _ = run(["reproduce", "all", "--steps", "1000", "-o", str(tmp_path)], capsys)
    assert code == 0
    records = {"coupling_sweep", "decoherence_grid", "dephasing_comparison", "realistic",
               "stirap_comparison_final", "table1", "table2", "variation_scan"}
    compares = {"realistic_compare", "table1_compare", "table2_compare"}
    metas = records - {"stirap_comparison_final"} | {"population_trace", "stirap_comparison"}
    expected = {f"{n}.csv" for n in records | compares | metas} | {f"{n}.meta.json" for n in metas}
    assert {p.name for p in tmp_path.iterdir()} == expected

    def header(name):
        with open(tmp_path / f"{name}.csv", newline="", encoding="utf-8") as fh:
            return tuple(next(csv.reader(fh)))

    assert all(header(n) == experiments.ResultRecord._fields for n in records)
    assert all(header(n) == experiments.COMPARE_HEADER for n in compares)
    for name in metas:
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert {"schema_version", "code_version", "driver"} <= meta.keys(), name


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
        assert point == alone._replace(label=point.label)


@pytest.mark.parametrize(
    "argv, source",
    [
        (["--g", "5", "--axis", "g=10,20"], "--g"),
        (["--delta-t", "0.05", "--axis", "dT_over_T=0,0.1"], "--delta-t"),
        (["--delta-g", "0.1", "--axis", "delta_g=0,0.1"], "--delta-g"),
        (["--kappa", "0.3", "--axis", "kappa_over_g=0,0.01"], "--kappa"),
        (["--gammaphi", "0.1", "--axis", "g=10,20", "--axis", "gammaphi_over_g=0,0.01"],
         "--gammaphi"),
        (["--flavor", "stirap", "--omega0", "40", "--axis", "omega0_stirap=10,20"], "--omega0"),
    ],
)
def test_sweep_refuses_a_setting_an_axis_sets(tmp_path, capsys, argv, source):
    """The axis values would replace the setting, so sweep refuses it before
    it creates the output directory."""
    outdir = tmp_path / "never"
    code, out, err = run(["sweep", *argv, "--steps", "400", "-o", str(outdir)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and source in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "argv", [["--frames", "1000"], ["--frames", "-3"], ["--frames", "1"], ["--frames", "202"]]
)
def test_simulate_refuses_frames_it_cannot_store(tmp_path, capsys, argv):
    outdir = tmp_path / "never"
    code, out, err = run(["simulate", *argv, "--steps", "200", "-o", str(outdir)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--frames" in err
    assert not outdir.exists()


def test_simulate_judges_its_step_count_before_its_frames(tmp_path, capsys):
    """A refused step count is reported, not a --frames bound built from it."""
    outdir = tmp_path / "never"
    result = run(["simulate", "--steps", "50", "--frames", "70", "-o", str(outdir)], capsys)
    assert_refused(result, "n_steps must be at least 100, got 50", "simulate")
    assert not outdir.exists()


@pytest.mark.parametrize("argv, rows", [(["--frames", "201"], 201), (["--steps", "100"], 101)])
def test_simulate_stores_every_frame_it_takes(tmp_path, capsys, argv, rows):
    """At most steps + 1 frames; without --frames, 201 or every step if fewer."""
    code, _, _ = run(["simulate", "--g", "5", "--steps", "200", *argv, "-o", str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "simulate.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + rows


def test_reproduce_prints_verdicts(tmp_path, capsys):
    code, out, _ = run(
        ["reproduce", "realistic", "--steps", "1000", "-o", str(tmp_path)], capsys
    )
    assert code == 0
    assert "PASS realistic" in out
    assert (tmp_path / "realistic_compare.csv").exists()


@pytest.mark.parametrize("known_discrepancy, code", [(False, 1), (True, 0)])
def test_reproduce_exits_one_on_a_failed_check_that_is_not_flagged(
    tmp_path, capsys, monkeypatch, known_discrepancy, code
):
    """Like verify, reproduce exits 1 when a check fails, unless the check is
    flagged as a known discrepancy."""
    verdict = experiments.Verdict("realistic", False, "judged to fail", known_discrepancy)
    check = experiments.CHECKS["realistic"]._replace(judge=lambda output: [verdict])
    monkeypatch.setitem(experiments.CHECKS, "realistic", check)
    result = run(["reproduce", "realistic", "--steps", "1000", "-o", str(tmp_path)], capsys)
    assert result == (code, "FAIL realistic: judged to fail\n0 of 1 reference checks pass\n", "")


def test_reproduce_rejects_settings_it_ignores(tmp_path, capsys):
    # every target runs at its published inputs; reproduce has no physics flag
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
        result = run(["reproduce", "realistic", *flag, "-o", str(tmp_path / "never")], capsys)
        assert_refused(result, flag[0], "reproduce")
    assert not (tmp_path / "never").exists()
    # the run-control flags are fine
    code, out, _ = run(
        ["reproduce", "realistic", "--steps", "1000", "--mode", "truncate", "--jobs", "2",
         "--no-meta", "-o", str(tmp_path / "ok")],
        capsys,
    )
    assert code == 0 and "PASS realistic" in out
    assert not list((tmp_path / "ok").glob("*.meta.json"))


def test_verify_and_pulses_reject_settings_they_ignore(tmp_path, capsys):
    # verify takes only g, A and the step count, and writes no files; pulses
    # takes only flavor, A, omega0 and its files. Only the stirap flavor has
    # an omega0, so pulses, simulate and sweep refuse it with any other.
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
        assert_refused(run(argv, capsys), flag, argv[0])
    assert not list(tmp_path.glob("pulses_*")) and not list(tmp_path.glob("*.csv"))
    # the gaussian flavor has no channel peak, so its meta records none
    code, out, _ = run(["pulses", "-o", str(tmp_path / "ok")], capsys)
    assert code == 0 and (tmp_path / "ok" / "pulses_gaussian_q1.csv").exists()
    assert json.loads((tmp_path / "ok" / "pulses_gaussian.meta.json").read_text())["omega0"] is None
    code, out, _ = run(
        ["pulses", "--flavor", "stirap", "--omega0", "40", "--samples", "11", "-o", str(tmp_path)],
        capsys,
    )
    assert code == 0 and (tmp_path / "pulses_stirap_q4.csv").exists()
    assert json.loads((tmp_path / "pulses_stirap.meta.json").read_text())["omega0"] == 40.0


def _propagator_calls(monkeypatch) -> list:
    """(propagator name, points, Hamiltonians per node) of every propagator
    call the drivers make from now on."""
    calls = []
    for name in ("propagate_schrodinger", "propagate_lindblad"):
        original = getattr(experiments, name)

        def counted(h_fn, *args, _name=name, _original=original, **kwargs):
            stacks = []

            def recorded(k):
                H = h_fn(k)
                stacks.append(len(H))
                return H

            traj = _original(recorded, *args, **kwargs)
            (hamiltonians,) = set(stacks)
            calls.append((_name, len(traj.final_state), hamiltonians))
            return traj

        monkeypatch.setattr(experiments, name, counted)
    return calls


def test_reproduce_all_runs_two_propagator_calls(tmp_path, capsys, monkeypatch):
    """`reproduce all` plans every target first: its 110 points are 98
    distinct runs (specs that differ only in label run once), which run as
    one closed and one open batch. Each batch samples every distinct
    schedule once, on all 2n + 1 RK4 nodes. CI checks that each target alone
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
    assert sorted(calls) == [("propagate_lindblad", 38, 38), ("propagate_schrodinger", 60, 60)]
    assert len(list(tmp_path.iterdir())) == 22
    # a schedule is set by flavor, A, omega0, mode, delta_t and delta_omega
    distinct = [
        len({(s.flavor, s.A, s.omega0, s.mode, s.delta_t, s.delta_omega) for s in specs})
        for specs in batches
    ]
    assert sorted(distinct) == [2, 16]
    assert samples == [2 * n_steps + 1] * sum(distinct)
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
    # SQUIDW_OUT is the default of -o, which verify does not take; a set
    # SQUIDW_OUT is no error, and verify writes nothing there
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "env"))
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "cancellation" in out
    assert not (tmp_path / "env").exists()


def test_verify_prints_the_verdicts_of_its_check(capsys):
    # `squidw verify` is CHECKS["verify"] at its defaults: the same labels and
    # details, one line each, in order
    code, out, _ = run(["verify"], capsys)
    verdicts = experiments.CHECKS["verify"]()
    assert code == 0
    lines = [f"{'ok  ' if v.passed else 'FAIL'} {v.label}: {v.detail}" for v in verdicts]
    assert out.splitlines() == lines
    assert len(verdicts) == 10 and all(v.passed for v in verdicts)


@pytest.mark.parametrize(
    "steps",
    [[], ["--steps", "100"], ["--steps", "4000"], ["--A", "0.003", "--steps", "4000"]],
    ids=["defaults", "steps100", "steps4000", "a0.003-steps4000"],
)
def test_verify_runs_two_propagator_calls(capsys, monkeypatch, steps):
    """Every verify run is on max(1000, steps) steps, the effective model
    included, so the effective model, the zero-noise Schrodinger point and
    the full dressed model at g = 300/T are one closed batch of three and the
    zero-noise Lindblad point runs alone, whatever --steps asks. The
    integrator is judged on the effective run's own frames, so no other run
    is made. Every check passes: at A = 0.003 too, whose corrected drives,
    growing as theta_dot / tan mu, need more than 2000 steps to meet the
    integrator bound."""
    calls = _propagator_calls(monkeypatch)
    code, out, _ = run(["verify", *steps], capsys)
    assert code == 0 and "FAIL" not in out
    assert calls == [("propagate_schrodinger", 3, 3), ("propagate_lindblad", 1, 1)]


@pytest.mark.parametrize("steps", ["-5", "0", "50", "99"])
def test_verify_refuses_a_step_count_every_command_refuses(capsys, steps):
    """verify runs max(1000, steps) steps, but a count below the grid's 100
    is refused before that, as simulate, sweep and reproduce refuse it."""
    assert_refused(run(["verify", "--steps", steps], capsys), "n_steps", "verify")


@pytest.mark.parametrize("command", ["pulses", "simulate", "sweep", "reproduce", "verify"])
def test_each_command_refuses_every_flag_it_does_not_take(tmp_path, capsys, command):
    """argparse refuses each flag of another command, whole and not as an
    abbreviation of one of this command's own flags."""
    files = {"-o", "--out", "--no-meta"}
    takes = {
        "pulses": {"--flavor", "--A", "--omega0", "--samples"} | files,
        "verify": {"--g", "--A", "--steps"},
        "reproduce": {"--steps", "--mode", "--jobs"} | files,
    }
    physics = {"--flavor", "--g", "--A", "--kappa", "--gamma", "--gammaphi", "--omega0",
               "--delta-t", "--delta-omega", "--delta-g", "--steps", "--mode"}
    takes["simulate"] = physics | files | {"--frames"}
    takes["sweep"] = physics | files | {"--axis"}
    every = set().union(*takes.values()) | {"--config"}
    head = ["reproduce", "realistic"] if command == "reproduce" else [command]
    outdir = tmp_path / "never"
    for flag in sorted(every - takes[command]):
        result = run([*head, flag, "1", "-o", str(outdir)], capsys)
        assert_refused(result, f"unrecognized arguments: {flag} ", command)
    assert not outdir.exists()


def test_sweep_records_the_settings_its_flags_give(tmp_path, capsys):
    """Text, float, int and bool flags reach the run; a value of the wrong
    type is refused."""
    flags = ["--flavor", "dressed", "--A", "0.4", "--g", "42.5", "--gammaphi", "0.01"]
    flags += ["--steps", "400", "--mode", "truncate", "--no-meta"]
    code, _, _ = run(["sweep", *flags, "--axis", "dT_over_T=-0.1", "-o", str(tmp_path)], capsys)
    assert code == 0
    assert not list(tmp_path.glob("*.meta.json"))
    with open(tmp_path / "sweep.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["flavor"], row["g"], row["n_steps"]) == ("dressed", "42.5", "400")
    assert float(row["gammaphi_over_g"]) == 0.01 / 42.5
    for argv, flag in ((["--steps", "4.5"], "--steps"), (["--g", "x"], "--g"),
                       (["--mode", "stretch"], "--mode")):
        result = run(["simulate", *argv, "-o", str(tmp_path / "never")], capsys)
        assert_refused(result, flag, "simulate")
    assert not (tmp_path / "never").exists()


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
        ["simulate", "--delta-omega", "nan"],
        ["sweep", "--axis", "dOmega_over_Omega=0,nan"],
        ["pulses", "--flavor", "stirap", "--A", "0.3"],
        ["simulate", "--delta-omega", "-1"],
        ["sweep", "--axis", "dOmega_over_Omega=0,-1"],
        ["simulate", "--delta-t", "nan"],
        ["simulate", "--delta-t", "inf"],
        ["simulate", "--mode", "truncate", "--delta-t", "nan"],
        ["simulate", "--mode", "truncate", "--delta-t", "inf"],
        ["sweep", "--mode", "truncate", "--axis", "dT_over_T=0,nan"],
        ["simulate", "--flavor", "dressed", "--A", "2.0"],
        ["simulate", "--flavor", "stirap", "--omega0", "-1"],
        ["simulate", "--flavor", "stirap", "--omega0", "nan"],
        ["sweep", "--flavor", "stirap", "--axis", "omega0_stirap=10,-5"],
        ["pulses", "--flavor", "stirap", "--omega0", "0"],
        ["pulses", "--flavor", "dressed", "--A", "2.0"],
        ["simulate", "--delta-g", "-1"],
    ],
)
def test_rejected_run_creates_no_output_directory(tmp_path, capsys, argv):
    outdir = tmp_path / "never"
    code, _, err = run([*argv, "-o", str(outdir)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not outdir.exists()
    if any(a == "--delta-t" or a.startswith("dT_over_T") for a in argv):
        assert "delta_t" in err  # the setting, not the schedule's duration T


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["simulate", "--flavor", "stirap"],
        ["sweep", "--axis", "g=10,20"],
        ["pulses"],
        ["pulses", "--flavor", "stirap"],
    ],
)
def test_a_is_refused_unless_the_flavor_is_dressed(tmp_path, capsys, argv):
    """Only the dressed flavor reads the dressing amplitude: the gaussian fit
    and STIRAP write the same bytes for any A. So --A is refused."""
    code, out, err = run([*argv, "--A", "0.3", "-o", str(tmp_path)], capsys)
    assert code == 1 and out == "" and err.startswith("error:") and "--A" in err
    assert not list(tmp_path.glob("*.csv"))


def test_a_is_taken_by_the_dressed_flavor_and_by_verify(tmp_path, capsys):
    for argv in (
        ["simulate", "--steps", "200"],
        ["sweep", "--steps", "200", "--axis", "g=10,20"],
        ["pulses", "--samples", "11"],
    ):
        assert run([*argv, "--flavor", "dressed", "--A", "0.3", "-o", str(tmp_path)], capsys)[0] == 0
    # verify runs its own dressed frames, whatever the flavor setting
    code, out, err = run(["verify", "--A", "0.3", "--steps", "1000"], capsys)
    assert code == 0 and err == "" and "dressed-frame cancellation" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--g", "1e5"],
        ["sweep", "--axis", "g=1e4,1e5"],
        ["simulate", "--g", "1e5", "--kappa", "1"],
    ],
)
def test_a_diverged_run_is_a_convergence_failure(tmp_path, capsys, argv):
    """A step far too coarse for the coupling overflows to inf and nan. That
    is a convergence failure (exit 2), not a nan fidelity let through by
    gates that compare nan, nor a crash in eigvalsh. Both propagators run to
    their last step and then name the first stored frame that is not finite:
    simulate stores every one of its 100 steps, so it names an early one; a
    sweep stores only the last. The float overflow on the way is no warning:
    the one stderr line is the convergence failure."""
    code, out, err = run([*argv, "--steps", "100", "-o", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("convergence failure:") and err.count("\n") == 1, err
    steps = int(re.search(r"state is not finite after (\d+) steps", err).group(1))
    assert steps < 100 if argv[0] == "simulate" else steps == 100
    assert not list(tmp_path.glob("*.csv"))
