"""Workload definitions for the nonholo benchmark: inputs, argv and checks.

Every workload is a list of CLI commands (one "round") built from the
benchmark seed. The runner repeats whole rounds, so the mix of systems and
bracket kinds is the same in every run. Inputs are derived from the seed with
the benchmark's own random stream; the systems used to build them are parsed
privately here, so the program's own caches are first filled by the commands
themselves.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

from nonholo import catalog, dsl, geometry, verification

SYSTEMS = (
    "holonomic_control",
    "nonholonomic_particle",
    "chaplygin_sleigh",
    "vertical_rolling_disk",
)
INTEGRABLE = {"holonomic_control"}

# certify: points per `verify` command
VERIFY_COUNT = 100

# integrate: trajectory length per `simulate` command
INTEGRATE_SYSTEMS = ("nonholonomic_particle", "chaplygin_sleigh", "vertical_rolling_disk")
INTEGRATE_STEPS = 2000
INTEGRATE_DT = 0.002
ENERGY_TOL = 1e-10
RESIDUAL_TOL = 1e-8

# jacobi: seeded points per system, each run against every triple and kind
JACOBI_POINTS = 2
JACOBI_KINDS = ("canonical", "eden", "nh", "dstar")
JACOBI_ZERO_TOL = 1e-8

# Phase-space triples. The first and third of each system are the triples
# `verify` itself uses, (q_n, p_1, p_2) and (p_1, p_2, q_1*p_1). The second is
# verify's (q_1, p_1, H) where H can be written as an expression (diagonal
# metric, V = 0); the sleigh's metric is not diagonal, so it gets
# (q_1, p_1, p_n) instead.
PHASE_TRIPLES = {
    "holonomic_control": (
        ("y", "p_x", "p_y"),
        ("x", "p_x", "0.5*(p_x^2 + p_y^2)"),
        ("p_x", "p_y", "x*p_x"),
    ),
    "nonholonomic_particle": (
        ("z", "p_x", "p_y"),
        ("x", "p_x", "0.5*(p_x^2 + p_y^2 + p_z^2)"),
        ("p_x", "p_y", "x*p_x"),
    ),
    "chaplygin_sleigh": (
        ("th", "p_x", "p_y"),
        ("x", "p_x", "p_th"),
        ("p_x", "p_y", "x*p_x"),
    ),
    "vertical_rolling_disk": (
        ("ph", "p_x", "p_y"),
        ("x", "p_x", "0.5*(p_x^2/m + p_y^2/m + p_th^2/I + p_ph^2/J)"),
        ("p_x", "p_y", "x*p_x"),
    ),
}

# Dual-bundle triples, in the coordinates and the fiber names pi_1..pi_k.
DSTAR_TRIPLES = {
    "holonomic_control": (("x", "pi_1", "y"), ("y", "pi_1", "x*pi_1"), ("pi_1", "x*pi_1", "y*pi_1")),
    "nonholonomic_particle": (("pi_1", "pi_2", "x"), ("z", "pi_1", "pi_2"), ("pi_1", "pi_2", "x*pi_1")),
    "chaplygin_sleigh": (("pi_1", "pi_2", "x"), ("th", "pi_1", "pi_2"), ("pi_1", "pi_2", "x*pi_1")),
    "vertical_rolling_disk": (("pi_1", "pi_2", "x"), ("ph", "pi_1", "pi_2"), ("pi_1", "pi_2", "x*pi_1")),
}


class Command:
    """One CLI invocation, the work it represents and how to check it."""

    def __init__(self, argv, system, work, check, output=None, **info):
        self.argv = argv
        self.system = system
        self.work = work  # units of the workload's throughput metric
        self.check = check  # check(command, exit_code, stdout) -> error or None
        self.output = output  # payload file, when the command writes one
        self.info = info


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _seed_for(seed: int, label: str) -> int:
    return random.Random(f"{seed}:{label}").randrange(1, 2**31)


def _private_system(name: str):
    return dsl.parse_system(catalog.get_entry(name).definition)


# --- certify -----------------------------------------------------------------


def certify_round(seed: int, tmpdir: str):
    verify_seed = _seed_for(seed, "verify")
    reference: dict[str, bytes] = {}

    def check(cmd, code, stdout):
        if code != 0:
            return f"exit code {code}"
        with open(cmd.output, "rb") as fh:
            payload = fh.read()
        report = json.loads(payload)
        failed = [s["name"] for s in report["suites"] if not s["pass"]]
        if failed or report["pass"] is not True:
            return f"suites failed: {failed}"
        if report["count"] != VERIFY_COUNT or report["seed"] != verify_seed:
            return "report does not echo the command line"
        first = reference.setdefault(cmd.system, payload)
        if payload != first:
            return "report differs from the first repetition"
        return None

    cmds = []
    for name in SYSTEMS:
        out = os.path.join(tmpdir, f"verify-{name}.json")
        argv = [
            "verify", f"--system=catalog:{name}", "--count", str(VERIFY_COUNT),
            "--seed", str(verify_seed), "--workers", "1", "--output", out,
        ]
        cmds.append(Command(argv, name, VERIFY_COUNT, check, output=out, count=VERIFY_COUNT))
    return cmds


# --- integrate ---------------------------------------------------------------


def _admissible_start(name: str, rng: random.Random):
    """A configuration in the sample region and a velocity in the distribution."""
    sysd = _private_system(name)
    region = catalog.get_entry(name).sample_region
    q0 = [rng.uniform(lo, hi) for lo, hi in region]
    E = geometry.frame_at(sysd, q0).E
    v0 = E @ [rng.uniform(-1.0, 1.0) for _ in range(sysd.k)]
    return q0, v0.tolist()


def _check_trajectory(cmd, code, stdout):
    if code != 0:
        return f"exit code {code}"
    with open(cmd.output, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        h_col = header.index("H")
        c_cols = [i for i, h in enumerate(header) if h.startswith("c")]
        n_rows, h0, dh, cmax = 0, None, 0.0, 0.0
        for row in rows:
            vals = [float(v) for v in row]
            if not all(math.isfinite(v) for v in vals):
                return f"non-finite value in row {n_rows}"
            h0 = vals[h_col] if h0 is None else h0
            dh = max(dh, abs(vals[h_col] - h0))
            cmax = max(cmax, max(abs(vals[i]) for i in c_cols))
            n_rows += 1
    if n_rows != INTEGRATE_STEPS + 1:
        return f"{n_rows} rows for {INTEGRATE_STEPS} steps"
    if dh > ENERGY_TOL:
        return f"energy drift {dh:.3e}"
    if cmax > RESIDUAL_TOL:
        return f"constraint residual {cmax:.3e}"
    return None


def integrate_round(seed: int, tmpdir: str):
    rng = random.Random(_seed_for(seed, "integrate"))
    t1 = INTEGRATE_STEPS * INTEGRATE_DT
    cmds = []
    for name in INTEGRATE_SYSTEMS:
        q0, v0 = _admissible_start(name, rng)
        out = os.path.join(tmpdir, f"simulate-{name}.csv")
        argv = [
            "simulate", f"--system=catalog:{name}", f"--q0={_csv(q0)}", f"--v0={_csv(v0)}",
            "--t1", repr(t1), "--dt", repr(INTEGRATE_DT), "--format", "csv", "--output", out,
        ]
        cmds.append(Command(argv, name, INTEGRATE_STEPS, _check_trajectory, output=out,
                            steps=INTEGRATE_STEPS))
    return cmds


# --- jacobi ------------------------------------------------------------------


def jacobi_round(seed: int, tmpdir: str):
    """Seeded points x fixed triples x all kinds x all systems.

    Per-command checks: exit 0, a finite value, |J| <= 1e-8 for `canonical`
    and for every kind on the integrable system, and nh equal to eden at the
    same point and triple (both brackets agree on M, and the Jacobiator only
    sees the inner bracket on M). Per round, each non-integrable system must
    show an eden witness above verification.WITNESS_FLOOR.
    """
    values: dict[tuple, float] = {}
    witness: dict[str, float] = {}

    def check(cmd, code, stdout):
        if code != 0:
            return f"exit code {code}"
        obj = json.loads(stdout)
        value = obj["value"]
        if obj["kind"] != cmd.info["kind"] or not math.isfinite(value):
            return f"bad payload {obj}"
        key = (cmd.system, cmd.info["point"], cmd.info["triple"])
        kind = cmd.info["kind"]
        if kind == "canonical" or cmd.system in INTEGRABLE:
            if abs(value) > JACOBI_ZERO_TOL:
                return f"|J| = {abs(value):.3e} should vanish"
        if kind == "eden":
            values[key] = value
            witness[cmd.system] = max(witness.get(cmd.system, 0.0), abs(value))
        if kind == "nh" and abs(value - values[key]) > JACOBI_ZERO_TOL * max(1.0, abs(value)):
            return f"nh {value!r} differs from eden {values[key]!r}"
        if cmd.info["last_eden"] and cmd.system not in INTEGRABLE:
            if witness.pop(cmd.system, 0.0) <= verification.WITNESS_FLOOR:
                return "no eden witness above the floor on this system"
        return None

    cmds = []
    for name in SYSTEMS:
        entry = catalog.get_entry(name)
        points = catalog.sample_m_points(
            _private_system(name), JACOBI_POINTS, _seed_for(seed, f"jacobi:{name}"),
            region=entry.sample_region, momentum_scale=entry.momentum_scale,
        )
        grid = []
        for pi, x in enumerate(points):
            for ti in range(len(PHASE_TRIPLES[name])):
                for kind in JACOBI_KINDS:
                    triples = DSTAR_TRIPLES if kind == "dstar" else PHASE_TRIPLES
                    f, g, h = triples[name][ti]
                    argv = [
                        "jacobiator", f"--system=catalog:{name}", "--kind", kind,
                        f"--f={f}", f"--g={g}", f"--h={h}",
                        f"--point={_csv([*x.q, *x.p])}",
                    ]
                    grid.append(Command(argv, name, 1, check, kind=kind, point=pi,
                                        triple=ti, last_eden=False))
        last = max(i for i, c in enumerate(grid) if c.info["kind"] == "eden")
        grid[last].info["last_eden"] = True
        cmds.extend(grid)
    return cmds


WORKLOADS = {
    "certify": (certify_round, "points"),
    "integrate": (integrate_round, "steps"),
    "jacobi": (jacobi_round, "triples"),
}


def setup_objects(workload: str):
    """Parse and compile what the workload's commands parse and compile.

    Used by the set-up probe: the systems with their entry closures, plus the
    observable set (`certify`) or the triple expressions (`jacobi`).
    """
    from nonholo.system import DStarObservable, Observable

    names = INTEGRATE_SYSTEMS if workload == "integrate" else SYSTEMS
    out = []
    for name in names:
        sysd = _private_system(name)
        q = [0.5 * (lo + hi) for lo, hi in catalog.get_entry(name).sample_region]
        out += [sysd.metric_values(q), sysd.mu_values(q), sysd.potential_value(q)]
        if workload == "certify":
            out.append(catalog.observable_test_set(sysd))
        elif workload == "jacobi":
            for tr in PHASE_TRIPLES[name]:
                out += [Observable.from_expression(sysd, t) for t in tr]
            for tr in DSTAR_TRIPLES[name]:
                out += [DStarObservable.from_expression(sysd, t) for t in tr]
    return out
