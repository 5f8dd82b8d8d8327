import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonholo import cli, geometry, verification

DATA = Path(__file__).parent / "data"


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "nonholo", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout[:400])
    return proc


def test_catalog_list_and_show_golden():
    out = run_cli("catalog", "list").stdout
    for name in (
        "holonomic_control",
        "nonholonomic_particle",
        "chaplygin_sleigh",
        "vertical_rolling_disk",
    ):
        assert name in out
        shown = run_cli("catalog", "show", name).stdout
        assert shown == (DATA / f"{name}.system").read_text()
    run_cli("catalog", "show", "bogus", expect=2)


def test_simulate_straight_line():
    proc = run_cli(
        "simulate", "--system", "catalog:holonomic_control",
        "--q0", "0,0", "--p0", "1,0", "--t1", "1.0", "--dt", "0.001",
        "--format", "csv",
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H,c1,lambda1"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - 1.0) < 1e-10 and abs(last[2]) < 1e-10


def test_simulate_off_m_start_warns_and_projects():
    proc = run_cli(
        "simulate", "--system", "catalog:nonholonomic_particle",
        "--q0", "0,0.5,0", "--p0", "1,0,1", "--t1", "0.01", "--format", "csv",
    )
    assert "projecting onto M" in proc.stderr
    first = [float(v) for v in proc.stdout.strip().splitlines()[1].split(",")]
    c1 = first[8]
    assert abs(c1) < 1e-12


def test_simulate_v0_route_lands_on_m():
    proc = run_cli(
        "simulate", "--system", "catalog:nonholonomic_particle",
        "--q0", "0,0.5,0", "--v0", "1,0,0.5", "--t1", "0.01", "--format", "csv",
    )
    assert "projecting" not in proc.stderr
    run_cli(
        "simulate", "--system", "catalog:nonholonomic_particle",
        "--q0", "0,0.5,0", expect=2,
    )


def test_simulate_residual_column_bounded():
    proc = run_cli(
        "simulate", "--system", "catalog:nonholonomic_particle",
        "--q0", "0,0.2,0", "--p0", "1,1,1", "--t1", "2.0", "--format", "json",
    )
    rows = json.loads(proc.stdout)
    assert max(abs(r["c1"]) for r in rows) <= 1e-8
    hs = [r["H"] for r in rows]
    assert max(abs(h - hs[0]) for h in hs) <= 1e-8


SINGULAR_METRIC = (
    "[system]\nname = singular_metric\ndim = 2\ncoords = x, y\n"
    "[metric]\nrow1 = 1 - x, 0\nrow2 = 0, 1\n[potential]\nV = 0\n"
    "[constraint]\nform = 0, 1\n"
)


@pytest.mark.parametrize("extra", [(), ("--no-project",)], ids=["project", "no-project"])
def test_simulate_stops_at_singular_metric(tmp_path, extra):
    # x reaches 1, where the metric 1 - x stops being positive definite
    path = tmp_path / "singular.system"
    path.write_text(SINGULAR_METRIC)
    proc = run_cli(
        "simulate", "--system", str(path), "--q0", "0,0", "--p0", "1,0",
        "--t1", "3", "--dt", "0.01", "--format", "csv", *extra, expect=3,
    )
    assert "not positive definite" in proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H,c1,lambda1"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert 1 <= len(rows) < 301
    assert np.all(rows[:, 1] < 1.0)
    assert np.max(np.abs(rows[:, 5] - 0.5)) < 1e-2


@pytest.mark.parametrize("extra", [(), ("--no-project",)], ids=["project", "no-project"])
def test_simulate_stage_points_do_not_jump_the_singular_metric(tmp_path, extra):
    # at dt = 0.005 an RK4 stage point passes x = 1 between two accepted
    # states below it; the stage's metric stops the run, as a state's would
    path = tmp_path / "singular.system"
    path.write_text(SINGULAR_METRIC)
    proc = run_cli(
        "simulate", "--system", str(path), "--q0", "0,0", "--p0", "1,0",
        "--t1", "3", "--dt", "0.005", "--format", "csv", *extra, expect=3,
    )
    assert "not positive definite" in proc.stderr
    lines = proc.stdout.strip().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert 1 <= len(rows) < 601
    assert np.all(rows[:, 1] < 1.0)


STAGE_GRAM = (
    "[system]\nname = stage_gram\ndim = 3\ncoords = x, y, z\n"
    "[metric]\nrow1 = 1, 0, 0\nrow2 = 0, 1, 0\nrow3 = 0, 0, 1\n[potential]\nV = 0\n"
    "[constraint]\nform = y, 0, 1\n[constraint]\nform = 1, 0, y\n"
)


def test_simulate_stops_at_dependent_rows_at_a_stage_point(tmp_path):
    # the first step's second stage point lands on y = 1, where the two rows
    # are dependent: the rows' own error stops the run after the t = 0 row
    path = tmp_path / "stage_gram.system"
    path.write_text(STAGE_GRAM)
    proc = run_cli(
        "simulate", "--system", str(path), "--q0", "0,0.95,0", "--v0", "0,1,0",
        "--t1", "0.2", "--dt", "0.1", "--format", "csv", expect=3,
    )
    assert proc.stderr.splitlines() == [
        "error: integration stopped: constraint rows are dependent at q=[0.0, 1.0, 0.0] "
        "(singular values [2.00000000e+00 1.43493693e-17])"
    ]
    assert proc.stdout.splitlines() == [
        "t,q1,q2,q3,p1,p2,p3,H,c1,c2,lambda1,lambda2",
        "0.0,0.0,0.95,0.0,0.0,1.0,0.0,0.5,0.0,0.0,0.0,0.0",
    ]


def test_simulate_overflow_is_step_failure():
    proc = run_cli(
        "simulate", "--system", "catalog:nonholonomic_particle",
        "--q0", "0,1,0", "--p0", "1e300,0,1e300", expect=3,
    )
    assert "non-finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""


def test_brackets_command_values_and_errors():
    proc = run_cli(
        "brackets", "--system", "catalog:holonomic_control",
        "--f", "x", "--g", "p_x", "--point", "0.2,0.1,1.0,0",
    )
    obj = json.loads(proc.stdout)
    for key in ("value_nh", "value_nh2", "value_eden", "value_dstar"):
        assert obj[key] == pytest.approx(1.0, abs=1e-12)
    proc = run_cli(
        "brackets", "--system", "catalog:nonholonomic_particle",
        "--f", "x", "--g", "z", "--point", "0,1,0,1,1,1",
    )
    assert json.loads(proc.stdout)["max_pairwise_gap"] <= 1e-9
    run_cli(
        "brackets", "--system", "catalog:nonholonomic_particle",
        "--f", "1 +", "--g", "x", "--point", "0,1,0,1,1,1", expect=2,
    )
    run_cli(
        "brackets", "--system", "catalog:nonholonomic_particle",
        "--f", "x", "--g", "z", "--point", "0,1,0,0,0,1", expect=2,
    )


def test_jacobiator_command_kinds():
    base = [
        "jacobiator", "--system", "catalog:nonholonomic_particle",
        "--point", "0,1,0,1,1,1",
    ]
    proc = run_cli(*base, "--kind", "canonical", "--f", "x", "--g", "p_x", "--h", "y*p_y")
    assert abs(json.loads(proc.stdout)["value"]) < 1e-8
    proc = run_cli(*base, "--kind", "eden", "--f", "z", "--g", "p_x", "--h", "p_y")
    assert abs(json.loads(proc.stdout)["value"]) > 1e-3
    proc = run_cli(*base, "--kind", "dstar", "--f", "pi_1", "--g", "pi_2", "--h", "x")
    assert "value" in json.loads(proc.stdout)
    run_cli(*base, "--kind", "eden", "--f", "z", "--g", "p_x", "--h", "p_y",
            "--point", "0,1,0,0,0,1", expect=2)


OVERFLOW = [
    "--system", "catalog:nonholonomic_particle", "--point", "2,0,0,1,0,0",
    "--f", "1e308*x^3",
]


def assert_one_error_line(proc, text):
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error:") and text in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_brackets_command_rejects_a_non_finite_value():
    proc = run_cli("brackets", *OVERFLOW, "--g", "p_x", expect=2)
    assert_one_error_line(proc, "value_nh is not finite (nan)")


def test_jacobiator_command_rejects_a_non_finite_value():
    proc = run_cli("jacobiator", "--kind", "eden", *OVERFLOW, "--g", "p_x", "--h", "p_y", expect=2)
    assert_one_error_line(proc, "value is not finite (nan)")


NAN_RESIDUAL = [
    "--system", "catalog:chaplygin_sleigh",
    "--point", "0.1,0.1,0.5235987755982988,1.7e308,1.7e308,1.7e308",
]


@pytest.mark.parametrize("argv", [
    ["brackets", *NAN_RESIDUAL, "--f", "x", "--g", "p_x"],
    ["jacobiator", *NAN_RESIDUAL, "--f", "x", "--g", "p_x", "--h", "y"],
], ids=["brackets", "jacobiator"])
def test_point_commands_reject_a_nan_residual(argv):
    proc = run_cli(*argv, expect=2)
    assert_one_error_line(proc, "residual nan")
    assert "Traceback" not in proc.stderr


def test_simulate_rejects_a_non_finite_start_residual():
    # the start state of the NaN-residual point: G^-1 p overflows
    proc = run_cli(
        "simulate", "--system", "catalog:chaplygin_sleigh", "--q0", "0.1,0.1,0.5235987755982988",
        "--p0", "1.7e308,1.7e308,1.7e308", expect=2,
    )
    assert_one_error_line(proc, "residual nan")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("span, message", [
    (["--t1", "1e300", "--dt", "1e-300"], "step count (t1 - t0)/dt = inf is not finite"),
    (["--t1", "1e12", "--dt", "1e-3"],
     "cannot hold a trajectory of 1000000000000000 steps in memory"),
], ids=["non-finite", "unallocatable"])
def test_simulate_refuses_a_step_count_it_cannot_hold(capsys, span, message):
    # both trajectories exceed the address space, so the allocation is
    # refused at once, before the first step
    argv = ["simulate", "--system", "catalog:holonomic_control", "--q0", "0,0", "--p0", "1,0"]
    assert cli.main([*argv, *span]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_simulate_refuses_a_step_count_below_one():
    # t1 = 0.04 is nearer no step of dt = 0.1 than one: exit 2, no payload
    proc = run_cli(
        "simulate", "--system", "catalog:nonholonomic_particle", "--q0", "0,0,0",
        "--v0", "1,0,0", "--t1", "0.04", "--dt", "0.1", expect=2,
    )
    assert_one_error_line(proc, "rounds to 0 steps")


@pytest.mark.parametrize("command, extra", [
    ("simulate", ["--q0", "0,0,0", "--p0", "1,0,0"]),
    ("brackets", ["--f", "x", "--g", "p_x", "--point", "0,0,0,1,0,0"]),
    ("jacobiator", ["--f", "x", "--g", "p_x", "--h", "y", "--point", "0,0,0,1,0,0"]),
])
def test_only_verify_takes_a_seed(command, extra):
    ap = cli.build_parser()
    shared = ["--system", "catalog:nonholonomic_particle"]
    ap.parse_args([command, *shared, *extra])
    with pytest.raises(SystemExit):
        ap.parse_args([command, *shared, *extra, "--seed", "1"])
    assert ap.parse_args(["verify", *shared, "--seed", "7"]).seed == 7


POINT = ["--system", "catalog:nonholonomic_particle", "--point", "0,1,0,1,1,1"]


@pytest.mark.parametrize("argv, frames", [
    (["brackets", *POINT, "--f", "x", "--g", "z"], 1),
    (["jacobiator", "--kind", "canonical", *POINT, "--f", "x", "--g", "p_x", "--h", "y*p_y"], 0),
    (["jacobiator", "--kind", "eden", *POINT, "--f", "z", "--g", "p_x", "--h", "p_y"], 0),
    (["jacobiator", "--kind", "nh", *POINT, "--f", "z", "--g", "p_x", "--h", "p_y"], 0),
    (["jacobiator", "--kind", "dstar", *POINT, "--f", "pi_1", "--g", "pi_2", "--h", "x"], 1),
], ids=["brackets", "canonical", "eden", "nh", "dstar"])
def test_point_commands_validate_their_point_once(count_calls, capsys, argv, frames):
    counts = count_calls(geometry, ("_metric_checks", "_row_checks", "frame_at"))
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert counts == {"_metric_checks": 1, "_row_checks": 1, "frame_at": frames}


def test_verify_exit_codes_and_failure_path():
    proc = run_cli(
        "verify", "--system", "catalog:holonomic_control",
        "--count", "100", "--seed", "1",
    )
    rep = json.loads(proc.stdout)
    assert rep["pass"] is True and rep["integrable_distribution"] is True
    gap = next(s for s in rep["suites"] if s["name"] == "bracket_coincidence")
    assert gap["value"] <= 1e-9
    run_cli(
        "verify", "--system", "catalog:nonholonomic_particle",
        "--count", "4", "--seed", "1", "--tol-compare", "1e-18", expect=1,
    )


def test_verify_reports_witness_for_nonintegrable():
    proc = run_cli(
        "verify", "--system", "catalog:nonholonomic_particle",
        "--count", "6", "--seed", "1",
    )
    rep = json.loads(proc.stdout)
    assert rep["integrable_distribution"] is False
    defect = next(s for s in rep["suites"] if s["name"] == "jacobiator_defect")
    assert defect["statistic"] == "max_witness" and defect["value"] > 1e-3


def test_verify_reports_a_nan_after_the_first_point(tmp_path):
    # V = 1e308*x^3 overflows into NaN at points 8, 11, 12, 21, 23 and 24 of
    # this sample; the NaN must become the suite's value and fail it
    src = (DATA / "nonholonomic_particle.system").read_text()
    assert "V = 0" in src
    path = tmp_path / "overflow.system"
    path.write_text(src.replace("V = 0", "V = 1e308*x^3"))
    proc = run_cli(
        "verify", "--system", str(path), "--count", "30", "--seed", "1", expect=1,
    )
    rep = json.loads(proc.stdout)
    suite = next(
        s for s in rep["suites"] if s["name"] == "extension_field_base_in_distribution"
    )
    assert np.isnan(suite["value"])
    assert suite["worst_point_index"] == 8 and suite["pass"] is False
    assert rep["pass"] is False
    assert "RuntimeWarning" not in proc.stderr


def test_verify_determinism_across_runs_and_workers(tmp_path):
    outs = []
    for i, workers in enumerate((1, 1, 8)):
        path = tmp_path / f"v{i}.json"
        run_cli(
            "verify", "--system", "catalog:holonomic_control",
            "--count", "5", "--seed", "1", "--workers", str(workers),
            "--output", str(path),
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


PINNED_SYSTEMS = (
    "holonomic_control",
    "nonholonomic_particle",
    "chaplygin_sleigh",
    "vertical_rolling_disk",
)


def test_verify_workers_reproduce_the_pinned_bytes(tmp_path):
    # the chunks of two processes merge into the one-process report
    path = tmp_path / "disk.json"
    run_cli(
        "verify", "--system", "catalog:vertical_rolling_disk", "--count", "100",
        "--seed", "1", "--workers", "2", "--output", str(path),
    )
    pinned = DATA / "verify" / "vertical_rolling_disk_seed1.json"
    assert path.read_text() == pinned.read_text()


@pytest.mark.parametrize("case", ["off_manifold", "domain"])
def test_a_worker_error_reports_as_in_one_process(monkeypatch, capsys, tmp_path, case):
    # a worker's error is pickled back to the parent process; it arrives with
    # its own type and text, so two processes exit as one does
    if case == "domain":
        path = tmp_path / "log.system"
        src = (DATA / "nonholonomic_particle.system").read_text()
        path.write_text(src.replace("V = 0", "V = log(x+0.5)"))
        argv = ["verify", "--system", str(path), "--count", "60"]
    else:
        argv = ["verify", "--system", "catalog:chaplygin_sleigh", "--count", "20",
                "--seed", "1", "--tol", "1e-300"]
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    outcomes = []
    for workers in ("1", "2"):
        code = cli.main([*argv, "--workers", workers])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0][:2] == (cli.EXIT_VALIDATION, "")
    assert outcomes[0][2].startswith("error: ") and outcomes[0][2].count("\n") == 1
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("name", PINNED_SYSTEMS)
def test_verify_reports_match_the_pinned_bytes(capsys, name, seed):
    """``verify --count 100`` reproduces its pinned JSON report byte for byte.

    The files under tests/data/verify were written by the CLI before the
    suites were stacked per chunk; a change that moves any report bit shows
    here. The bytes are pinned on numpy 2.4.6 and one host's BLAS: another
    BLAS may round a stacked product differently.
    """
    argv = ["verify", "--system", f"catalog:{name}", "--count", "100", "--seed", str(seed)]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / "verify" / f"{name}_seed{seed}.json").read_text()


SIMULATE_CASES = json.loads((DATA / "simulate" / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_payloads_match_the_pinned_bytes(monkeypatch, tmp_path, name):
    """``simulate`` reproduces its pinned payload byte for byte.

    tests/data/simulate/cases.json maps each payload file to the argv that
    wrote it: 300 RK4 steps at dt 0.002 from seeded admissible starts on the
    three non-integrable catalog systems (CSV), plus one run with
    ``--no-project`` and one JSON run. The last case runs a system file
    (resolved in tests/data) from a fixed admissible start: the disk with a
    non-constant metric and a potential, so its stages factor and invert the
    metric, its field carries the potential's gradient and its multipliers
    solve a 2 x 2 Gram system. A change that moves any recorded bit of the
    trajectory shows here.
    """
    monkeypatch.chdir(DATA)
    path = tmp_path / name
    assert cli.main([*SIMULATE_CASES[name], "--output", str(path)]) == 0
    assert path.read_bytes() == (DATA / "simulate" / name).read_bytes()


JACOBIATOR_CASES = json.loads((DATA / "jacobiator" / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(JACOBIATOR_CASES))
def test_jacobiator_payloads_match_the_pinned_bytes(capsys, name):
    """``jacobiator`` reproduces its pinned JSON payload byte for byte.

    tests/data/jacobiator/cases.json maps each payload file to the argv that
    wrote it: one seeded point on M per catalog system, verify's three
    triples (as expressions; dual-bundle ones for ``dstar``) and all four
    kinds. The values include the exact zeros of every canonical command and
    of the holonomic system, and the eden witnesses of the others, so a
    change that moves any bit of the nested Jacobiator, or the sign of a
    zero, shows here.
    """
    assert cli.main(JACOBIATOR_CASES[name]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / "jacobiator" / name).read_text()


def test_verify_survives_a_singular_gram_solve(tmp_path, capsys):
    # a second constraint row that fades into the first: some candidates pass
    # the Gram matrix's Cholesky check and then meet a zero pivot in the solve
    path = tmp_path / "fading.system"
    path.write_text(
        (DATA / "nonholonomic_particle.system").read_text()
        + "\n[constraint]\nform = y, 0, exp(-30*x) - 1\n"
    )
    argv = ["verify", "--system", str(path), "--count", "100", "--seed", "3"]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_OK, cli.EXIT_SUITE_FAILURE, cli.EXIT_VALIDATION)
    assert rc != cli.EXIT_VALIDATION or err.startswith("error: ")


def test_csv_output_format(tmp_path):
    path = tmp_path / "report.csv"
    run_cli(
        "verify", "--system", "catalog:holonomic_control",
        "--count", "3", "--seed", "2", "--format", "csv", "--output", str(path),
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "suite,statistic,value,tolerance,worst_point_index,passed"
    assert lines[-1].startswith("overall")


def test_run_config_validation_exit_codes(capsys):
    base = [
        "simulate", "--system", "catalog:holonomic_control",
        "--q0", "0,0", "--p0", "1,0",
    ]
    run_cli(*base, "--dt", "-0.001", expect=2)
    run_cli(*base, "--t0", "2", "--t1", "1", expect=2)
    run_cli(*base, "--tol", "-1", expect=2)
    run_cli("verify", "--system", "catalog:holonomic_control", "--count", "0", expect=2)
    run_cli(*base[:3], "--q0", "0,0,0", "--p0", "1,0", expect=2)  # arity
    run_cli(*base, "--v0", "1,0", expect=2)  # both p0 and v0
    # real options: finite, and tolerances and --dt positive; one error line
    point = ["--f", "x", "--g", "p_x", "--point", "0,0,1,0"]
    for argv in (
        [*base, "--t1", "nan"],
        [*base, "--dt", "nan"],
        [*base, "--t1", "inf"],
        [*base, "--t0=-inf"],
        [*base, "--tol", "nan"],
        [*base, "--dt", "0"],
        ["verify", "--system", "catalog:holonomic_control", "--tol-compare", "nan"],
        ["verify", "--system", "catalog:holonomic_control", "--tol-compare", "0"],
        ["brackets", "--system", "catalog:holonomic_control", "--tol", "0", *point],
        ["jacobiator", "--system", "catalog:holonomic_control", "--tol", "inf",
         *point, "--h", "y"],
    ):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: --"), err


def test_file_system_input(tmp_path):
    src = (DATA / "nonholonomic_particle.system").read_text()
    f = tmp_path / "particle.system"
    f.write_text(src)
    proc = run_cli(
        "brackets", "--system", str(f),
        "--f", "x", "--g", "p_x", "--point", "0,1,0,1,1,1",
    )
    assert json.loads(proc.stdout)["max_pairwise_gap"] <= 1e-9
    run_cli("brackets", "--system", str(tmp_path / "missing.system"),
            "--f", "x", "--g", "y", "--point", "0,0,0,0,0,0", expect=2)


# simulate, verify and jacobiator, with argparse usage errors between them
PARSER_SEQUENCE = [
    ["simulate", "--system", "catalog:nonholonomic_particle", "--q0", "0,0.5,0",
     "--p0", "1,0,0.5", "--t1", "0.01", "--format", "csv"],
    ["verify", "--system", "catalog:chaplygin_sleigh", "--count", "3", "--seed", "2"],
    ["jacobiator", "--system", "catalog:nonholonomic_particle", "--bogus"],
    ["jacobiator", *POINT, "--kind", "eden", "--f", "z", "--g", "p_x", "--h", "p_y"],
    ["simulate", "--system", "catalog:nonholonomic_particle"],
    ["verify", "--system", "catalog:holonomic_control", "--count", "2", "--format", "csv"],
]


def _outcomes(capsys, argvs):
    out = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        out.append((code, *capsys.readouterr()))
    return out


def test_the_parser_is_built_once_and_parses_as_a_fresh_one(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    kept = _outcomes(capsys, PARSER_SEQUENCE)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _outcomes(capsys, PARSER_SEQUENCE)
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 2, 0, 2, 0]
    assert "usage: nonholo jacobiator" in kept[2][2] and "--q0" in kept[4][2]
