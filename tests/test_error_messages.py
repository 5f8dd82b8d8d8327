"""The exact type and text of every reachable validation and frame error.

Each error is raised at one bad point three ways: alone, through the
single-point entry point; as point 4 of a 9-point stack, through the stacked
entry point; and from the command line, as an ``error:`` line and exit code 2.
The texts are pinned literally, so a change to any check, to its order or to
how a stack reports its first failing point shows here.
"""

import pickle

import numpy as np
import pytest

from nonholo import catalog, cli, dsl, dynamics, errors, geometry, numdiff
from nonholo.errors import (
    FrameDegenerateError,
    FrameInvalidError,
    NotOnMError,
    NotSPDError,
    RankDeficientError,
)
from nonholo.system import PhasePoint

CONTROL = catalog.HOLONOMIC_CONTROL
PARTICLE = catalog.NONHOLONOMIC_PARTICLE
# a bump that overflows to inf within about 1e-3 of x = 0.5 and is 0 elsewhere
BUMP = "1e308*(10*exp(-1000000*(x - 0.5)^2))"
ILL = "(x - 0.5)^2 + 1e-12"  # the metric below is ill-conditioned where this is 1e-12

SOURCES = {
    "bump_metric": CONTROL.replace("row1 = 1, 0", f"row1 = 1 + {BUMP}, 0"),
    "sign_metric": CONTROL.replace("row1 = 1, 0", "row1 = x, 0"),
    "ill_metric": PARTICLE.replace(
        "row1 = 1, 0, 0\nrow2 = 0, 1, 0\nrow3 = 0, 0, 1",
        f"row1 = 1, 1, 1\nrow2 = 1, 1 + {ILL}, 1\nrow3 = 1, 1, 1 + 2*({ILL})",
    ),
    "bump_rows": CONTROL.replace("form = 0, 1", f"form = 0, 1 + {BUMP}"),
    "vanishing_rows": CONTROL.replace("form = 0, 1", "form = 0, y - 0.75"),
    "fading_rows": PARTICLE.replace(
        "form = y, 0, -1", "form = 1, 0, 0\n\n[constraint]\nform = 1, 0, exp(-30*x)"
    ),
    "sleigh": catalog.get_entry("chaplygin_sleigh").definition,
    "singular_gram": PARTICLE + "\n[constraint]\nform = y, 0, exp(-30*x) - 1\n",
    "stage_gram": PARTICLE.replace(
        "form = y, 0, -1", "form = y, 0, 1\n\n[constraint]\nform = 1, 0, y"
    ),
    "user_frame": PARTICLE + "\n[frame]\ncol1 = 1, 0, y + exp(-1000*(x - 0.5)^2)\ncol2 = 0, 1, 0\n",
    "particle": PARTICLE,
    "infinite_sin_metric": PARTICLE.replace("row1 = 1, 0, 0", "row1 = 2 + sin(1e300*1e300*x), 0, 0"),
    "disk": catalog.get_entry("vertical_rolling_disk").definition,
}
LEFT = ((-1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0))  # x < 0, away from every bad point

# name: (system, sample region, bad q, bad p, error type, message)
VALIDATION = {
    "metric-non-finite": (
        "bump_metric", LEFT[:2], [0.5, 0.25], [1.0, 0.0], NotSPDError,
        "metric has non-finite entries at q=[0.5, 0.25]",
    ),
    "metric-not-spd": (
        "sign_metric", ((0.1, 1.0), (-1.0, 1.0)), [-0.5, 0.25], [1.0, 0.0], NotSPDError,
        "metric is not positive definite at q=[-0.5, 0.25]",
    ),
    "metric-ill-conditioned": (
        "ill_metric", LEFT, [0.5, 0.25, 0.0], [1.0, 0.0, 0.25], NotSPDError,
        "metric is too ill-conditioned at q=[0.5, 0.25, 0.0]",
    ),
    "rows-non-finite": (
        "bump_rows", LEFT[:2], [0.5, 0.25], [1.0, 0.0], RankDeficientError,
        "constraint rows non-finite at q=[0.5, 0.25]",
    ),
    "rows-dependent": (
        "fading_rows", ((0.0, 0.5), (-1.0, 1.0), (-1.0, 1.0)), [0.95, 0.25, -0.5],
        [0.0, 1.0, 0.0], RankDeficientError,
        "constraint rows are dependent at q=[0.95, 0.25, -0.5] "
        "(singular values [1.41421356e+00 2.96546135e-13])",
    ),
    "rows-vanishing": (
        "vanishing_rows", ((-1.0, 1.0), (-1.0, 0.0)), [0.25, 0.75], [1.0, 0.0],
        RankDeficientError,
        "constraint rows are dependent at q=[0.25, 0.75] (singular values [0.])",
    ),
    "gram-not-spd": (
        "fading_rows", ((0.0, 0.5), (-1.0, 1.0), (-1.0, 1.0)), [0.7, 0.25, -0.5],
        [0.0, 1.0, 0.0], RankDeficientError,
        "constraint Gram matrix is not positive definite at q=[0.7, 0.25, -0.5]",
    ),
    "off-m": (
        "sleigh", None, [0.1, 0.2, 0.3], [0.5, 0.25, 1.0], NotOnMError,
        "point is off the constraint manifold: residual 8.634e-01 > 1.000e-08",
    ),
    "off-m-nan": (
        "sleigh", None, [0.1, 0.1, 0.5235987755982988], [1.7e308, 1.7e308, 1.7e308],
        NotOnMError, "point is off the constraint manifold: residual nan > 1.000e-08",
    ),
}


def _system(name):
    return dsl.parse_system(SOURCES[name])


def _stack(sysd, region, q, p):
    """Nine sampled points on M with (q, p) in place of the fifth."""
    sample = catalog.sample_m_points(sysd, 9, 3, region=region)
    sample[4] = PhasePoint(q=q, p=p)
    return sample


def _raised(fn, *args):
    with pytest.raises(Exception) as info, np.errstate(all="ignore"):
        fn(*args)
    return type(info.value), str(info.value)


def _cli_error(capsys, argv):
    """The exit code and the last stderr line of one in-process CLI run."""
    capsys.readouterr()
    rc = cli.main(argv)
    return rc, capsys.readouterr().err.strip().splitlines()[-1]


def _system_arg(tmp_path, name):
    path = tmp_path / f"{name}.system"
    path.write_text(SOURCES[name])
    return str(path)


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


@pytest.mark.parametrize("case", VALIDATION)
def test_validation_errors_alone_in_a_stack_and_at_the_cli(tmp_path, capsys, case):
    name, region, q, p, error, message = VALIDATION[case]
    sysd = _system(name)
    want = (error, message)
    assert _raised(geometry.require_on_m, sysd, q, p) == want
    sample = _stack(sysd, region, q, p)
    assert _raised(geometry.on_m_point, sysd, sample) == want
    # the points before it validate
    geometry.on_m_point(sysd, sample[:4])
    argv = ["brackets", "--system", _system_arg(tmp_path, name), "--f", sysd.coords[0],
            "--g", sysd.momenta[0], f"--point={_csv([*q, *p])}"]
    assert _cli_error(capsys, argv) == (cli.EXIT_VALIDATION, f"error: {message}")


class _Scripted:
    """The sampler's random stream, with the fifth candidate's draws replaced."""

    def __init__(self, real, bad):
        self.real, self.bad, self.calls = real, bad, 0

    def uniform(self, lo, hi):
        value = self.real.uniform(lo, hi)
        i, self.calls = self.calls, self.calls + 1
        return self.bad[i % len(self.bad)] if i // len(self.bad) == 4 else value


def _scripted_sampler(monkeypatch, q, p):
    real = catalog.SplitMix64
    monkeypatch.setattr(catalog, "SplitMix64", lambda seed: _Scripted(real(seed), [*q, *p]))


SINGULAR_GRAM = ([0.5785034702341596, 0.21720312487545024, -0.8406728309160272],
                 [-0.3818144525703697, 0.3337808175111099, -0.3091458786446881])


def test_a_singular_gram_solve_alone_in_the_sampler_and_at_the_cli(
    monkeypatch, tmp_path, capsys
):
    sysd = _system("singular_gram")
    q, p = SINGULAR_GRAM
    want = (RankDeficientError, "constraint Gram matrix is singular")
    assert _raised(geometry.eden_project, sysd, q, p) == want
    argv = ["simulate", "--system", _system_arg(tmp_path, "singular_gram"),
            f"--q0={_csv(q)}", f"--p0={_csv(p)}"]
    assert _cli_error(capsys, argv) == (cli.EXIT_VALIDATION, f"error: {want[1]}")
    # the sampler skips the candidate, as it skips every rank-deficient one
    _scripted_sampler(monkeypatch, q, p)
    sample = catalog.sample_m_points(sysd, 9, 3)
    assert len(sample) == 9
    assert not any(x.q.tolist() == q for x in sample)


def test_a_projection_error_in_the_sampler_raises_as_it_would_alone(monkeypatch, tmp_path, capsys):
    sysd = _system("sign_metric")
    q, p = [-0.5, 0.25], [1.0, 1.0]
    want = (NotSPDError, "metric is not positive definite at q=[-0.5, 0.25]")
    assert _raised(geometry.eden_project, sysd, q, p) == want
    argv = ["simulate", "--system", _system_arg(tmp_path, "sign_metric"),
            f"--q0={_csv(q)}", f"--p0={_csv(p)}"]
    assert _cli_error(capsys, argv) == (cli.EXIT_VALIDATION, f"error: {want[1]}")
    _scripted_sampler(monkeypatch, q, p)
    assert _raised(catalog.sample_m_points, sysd, 9, 3, ((0.1, 1.0), (-1.0, 1.0))) == want


def _spoiled_frames(monkeypatch, bad_x, spoil):
    """frame_apply with spoil(cols, at) applied, at = 1.0 where x == bad_x (a
    float, or one per point of an array core) and 0.0 elsewhere."""
    frame_apply = geometry.frame_apply

    def spoiled(sys, q_s, free_cols):
        at = (numdiff.float_core(q_s[0]) == bad_x) * 1.0
        return spoil(frame_apply(sys, q_s, free_cols), at)

    monkeypatch.setattr(geometry, "frame_apply", spoiled)


def _collapsed(monkeypatch, bad_x):
    # the norm of the first column is scaled to 0 at the bad point
    frame_apply, sqrt, scale = geometry.frame_apply, numdiff.sqrt, [1.0]

    def marked(sys, q_s, free_cols):
        scale[0] = (numdiff.float_core(q_s[0]) != bad_x) * 1.0
        return frame_apply(sys, q_s, free_cols)

    monkeypatch.setattr(geometry, "frame_apply", marked)
    monkeypatch.setattr(numdiff, "sqrt", lambda v: sqrt(v) * scale[0])


def _dependent(monkeypatch, bad_x):
    _spoiled_frames(monkeypatch, bad_x, lambda cols, at: [
        cols[0], [b * (1.0 - at) + a * at for a, b in zip(cols[0], cols[1])]
    ])


def _leaving(monkeypatch, bad_x):
    _spoiled_frames(monkeypatch, bad_x, lambda cols, at: [
        [cols[0][0] + at, *cols[0][1:]], *cols[1:]
    ])


# name: (system, sample region, bad q, momentum to project, monkeypatch, error type, message)
FRAMES = {
    "default-collapsed": (
        "disk", None, [0.5, 0.25, 0.5, -0.25], [1.0, 0.5, 0.25, 1.0], _collapsed,
        FrameDegenerateError, "default frame column collapsed at q=[0.5, 0.25, 0.5, -0.25]",
    ),
    "default-dependent": (
        "particle", None, [0.5, 0.25, 0.0], [1.0, 0.5, 0.25], _dependent,
        FrameDegenerateError, "default frame columns are dependent at q=[0.5, 0.25, 0.0]",
    ),
    "default-leaving": (
        "particle", None, [0.5, 0.25, 0.0], [1.0, 0.5, 0.25], _leaving,
        FrameDegenerateError, "default frame leaves the distribution at q=[0.5, 0.25, 0.0]",
    ),
    "user-leaving": (
        "user_frame", ((-1.0, 0.0), (-0.5, 0.5), (-1.0, 1.0)), [0.5, 0.25, 0.0],
        [1.0, 0.5, 0.25], None,
        FrameInvalidError, "user frame leaves the distribution at q=[0.5, 0.25, 0.0]",
    ),
}


@pytest.mark.parametrize("case", FRAMES)
def test_frame_errors_alone_in_a_stack_and_at_the_cli(monkeypatch, tmp_path, capsys, case):
    name, region, q, p_raw, spoil, error, message = FRAMES[case]
    sysd = _system(name)
    p = geometry.eden_project(sysd, q, p_raw)
    sample = _stack(sysd, region, q, p)
    points = geometry.on_m_point(sysd, sample)
    if spoil is not None:
        spoil(monkeypatch, q[0])
    want = (error, message)
    assert _raised(geometry.frame_at, sysd, q) == want
    assert _raised(geometry.frame_batch, points) == want
    for x in points[:4]:  # the points before it have frames
        x.frame
    argv = ["jacobiator", "--kind", "dstar", "--system", _system_arg(tmp_path, name),
            "--f", "pi_1", "--g", "pi_2", "--h", sysd.coords[0], f"--point={_csv([*q, *p])}"]
    assert _cli_error(capsys, argv) == (cli.EXIT_VALIDATION, f"error: {message}")


def test_a_default_frame_over_vanishing_rows():
    sysd = _system("vanishing_rows")
    want = (RankDeficientError, "constraint rows vanish identically here")
    assert _raised(geometry.frame_at, sysd, [0.25, 0.75]) == want


def _trig_argv(tmp_path, case):
    if case == "brackets":
        return ["brackets", "--system", "catalog:nonholonomic_particle",
                "--f", "sin(1e300*1e300*x)", "--g", "p_x", "--point", "1,0,0,0,0,0"]
    if case == "jacobiator":
        x = catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 1, 3)[0]
        return ["jacobiator", "--system", "catalog:chaplygin_sleigh", "--kind", "dstar",
                "--f", "tan(1e300*1e300*x)", "--g", "pi_1", "--h", "y",
                f"--point={_csv([*x.q, *x.p])}"]
    system = _system_arg(tmp_path, "infinite_sin_metric")
    if case == "verify":
        return ["verify", "--system", system, "--count", "10"]
    return ["simulate", "--system", system, "--q0", "0.5,0,0", "--p0", "0,0,0"]


@pytest.mark.parametrize("case", ["brackets", "jacobiator", "verify", "simulate"])
def test_an_infinite_trig_argument_is_a_domain_error_at_the_cli(tmp_path, capsys, case):
    # sin(inf) and tan(inf): one error line and exit 2, not a traceback
    name = "tan" if case == "jacobiator" else "sin"
    argv = _trig_argv(tmp_path, case)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: domain error in '{name}': argument must be finite\n")


def test_a_step_count_below_one_is_refused_before_the_first_step(capsys):
    # (t1 - t0)/dt = 0.4 rounds to no step: a clamp to one step would record
    # a last row at t = 0.1, past t1
    message = "step count (t1 - t0)/dt = 0.39999999999999997 rounds to 0 steps"
    sysd = _system("particle")
    x0 = PhasePoint(q=[0.0, 0.0, 0.0], p=[1.0, 0.0, 0.0])
    assert _raised(dynamics.integrate, sysd, x0, 0.0, 0.04, 0.1) == (errors.NonholoError, message)
    argv = ["simulate", "--system", "catalog:nonholonomic_particle", "--q0", "0,0,0",
            "--v0", "1,0,0", "--t1", "0.04", "--dt", "0.1"]
    assert _cli_error(capsys, argv) == (cli.EXIT_VALIDATION, f"error: {message}")


def test_dependent_rows_at_an_rk4_stage_stop_the_run(tmp_path, capsys):
    # the rows (y, 0, 1) and (1, 0, y) are dependent at y = 1, which the
    # first step's second stage point reaches exactly from y = 0.95
    message = (
        "integration stopped: constraint rows are dependent at q=[0.0, 1.0, 0.0] "
        "(singular values [2.00000000e+00 1.43493693e-17])"
    )
    sysd = _system("stage_gram")
    x0 = PhasePoint(q=[0.0, 0.95, 0.0], p=[0.0, 1.0, 0.0])
    assert _raised(dynamics.integrate, sysd, x0, 0.0, 0.2, 0.1) == (errors.StepFailureError, message)
    argv = ["simulate", "--system", _system_arg(tmp_path, "stage_gram"), "--q0", "0,0.95,0",
            "--v0", "0,1,0", "--t1", "0.2", "--dt", "0.1"]
    assert _cli_error(capsys, argv) == (cli.EXIT_STEP_FAILURE, f"error: {message}")


# the arguments of the error classes whose __init__ takes more than a message
ERROR_ARGS = {
    errors.DomainError: ("log", "argument must be positive"),
    errors.ExpressionSyntaxError: (7, ["number", "'('"], "*"),
    errors.UnknownFunctionError: ("sinh", 3),
    errors.UnknownIdentifierError: ("w",),
    errors.NotOnMError: (5.551e-17, 1e-300),
    errors.StepFailureError: ("stopped", dynamics.Trajectory(np.arange(6.0).reshape(2, 3), 1)),
}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.NonholoError)
], ids=lambda c: c.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    # a worker process's error reaches the parent pickled
    exc = cls(*ERROR_ARGS.get(cls, (f"{cls.__name__} text",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert repr(vars(back)) == repr(vars(exc))
