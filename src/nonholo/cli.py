"""Command-line surface: simulate, brackets, verify, jacobiator, catalog.

Data goes to stdout (or --output); diagnostics go to stderr. Exit codes:
0 success, 1 verification-suite failure, 2 validation error, 3 integration
step failure, 4 I/O error. Identical command lines produce byte-identical
payloads; floats are rendered by shortest round-trip (repr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import brackets, catalog, dsl, dynamics, geometry, verification
from .errors import NonholoError, NotOnMError, StepFailureError
from .system import DStarObservable, Observable, PhasePoint, legendre

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_STEP_FAILURE = 3
EXIT_IO = 4


def _load_system(locator: str):
    """Resolve 'catalog:<id>' or a file path to (system, entry-or-None)."""
    if locator.startswith("catalog:"):
        name = locator.split(":", 1)[1]
        try:
            entry = catalog.get_entry(name)
        except KeyError:
            raise NonholoError(f"unknown catalog system '{name}'") from None
        return entry.system(), entry
    try:
        with open(locator, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise NonholoError(f"cannot read system file {locator!r}: {exc}") from None
    return dsl.parse_system(text), None


def _parse_reals(text: str, expect: int, what: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise NonholoError(f"{what} must be a comma-separated list of reals") from None
    if len(vals) != expect:
        raise NonholoError(f"{what} must have {expect} entries, got {len(vals)}")
    return np.array(vals)


def _emit(text: str, output: str | None) -> int:
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _trajectory_payload(traj, sysd, fmt: str) -> str:
    n, m = sysd.n, sysd.n_constraints
    header = (
        ["t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + ["H"]
        + [f"c{i + 1}" for i in range(m)]
        + [f"lambda{i + 1}" for i in range(m)]
    )
    rows = traj.rows.tolist()  # (t, q, p, H, c, lam), in the header's order
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(map(repr, row)) for row in rows]  # tolist() made them floats
        return "\n".join(lines) + "\n"
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _report_payload(obj: dict, fmt: str) -> str:
    if fmt == "csv":
        keys = list(obj.keys())
        line = ",".join(
            _fmt_float(obj[k]) if isinstance(obj[k], float) else str(obj[k]) for k in keys
        )
        return ",".join(keys) + "\n" + line + "\n"
    return json.dumps(obj, indent=2) + "\n"


def _verify_payload(report: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = ["suite,statistic,value,tolerance,worst_point_index,passed"]
        for s in report["suites"]:
            tol = "" if s["tolerance"] is None else _fmt_float(s["tolerance"])
            lines.append(
                f"{s['name']},{s['statistic']},{_fmt_float(s['value'])},{tol},"
                f"{s['worst_point_index']},{s['pass']}"
            )
        lines.append(f"overall,,,,,{report['pass']}")
        return "\n".join(lines) + "\n"
    return json.dumps(report, indent=2) + "\n"


def _check_real_options(args) -> None:
    """Every real option of the command is finite; tolerances and dt positive."""
    for name in ("tol", "tol_compare", "dt", "t0", "t1"):
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not math.isfinite(value):
            raise NonholoError(f"{flag} must be finite, got {value!r}")
        if name not in ("t0", "t1") and value <= 0:
            raise NonholoError(f"{flag} must be positive, got {value!r}")


def cmd_simulate(args) -> int:
    if args.t1 <= args.t0:
        raise NonholoError("t1 must exceed t0")
    sysd, _ = _load_system(args.system)
    q0 = _parse_reals(args.q0, sysd.n, "--q0")
    if (args.p0 is None) == (args.v0 is None):
        raise NonholoError("provide exactly one of --p0 or --v0")
    if args.v0 is not None:
        v0 = _parse_reals(args.v0, sysd.n, "--v0")
        x0 = legendre(sysd, q0, v0)
    else:
        p0 = _parse_reals(args.p0, sysd.n, "--p0")
        x0 = PhasePoint(q=q0, p=p0)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = geometry.residual_norm(sysd, x0.q, x0.p)
    if not np.isfinite(resid):  # NaN compares false: no projection can help
        raise NotOnMError(resid, args.tol)
    if resid > args.tol:
        print(
            f"warning: initial momentum violates the constraints "
            f"(residual {resid:.3e} > {args.tol:.3e}); projecting onto M",
            file=sys.stderr,
        )
        x0 = PhasePoint(q=x0.q, p=geometry.eden_project(sysd, x0.q, x0.p))
    try:
        traj = dynamics.integrate(
            sysd, x0, args.t0, args.t1, args.dt,
            project_each_step=not args.no_project, on_m_tol=args.tol,
        )
    except StepFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trajectory is not None and len(exc.trajectory):
            _emit(_trajectory_payload(exc.trajectory, sysd, args.format), args.output)
        return EXIT_STEP_FAILURE
    return _emit(_trajectory_payload(traj, sysd, args.format), args.output)


def _require_finite(obj: dict) -> dict:
    """The payload obj, or a validation error naming its first non-finite value."""
    for key, value in obj.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise NonholoError(f"{obj['command']} {key} is not finite ({value!r})")
    return obj


def cmd_brackets(args) -> int:
    sysd, _ = _load_system(args.system)
    x_vals = _parse_reals(args.point, 2 * sysd.n, "--point")
    x = PhasePoint(q=x_vals[: sysd.n], p=x_vals[sysd.n :])
    with np.errstate(over="ignore", invalid="ignore"):
        x = geometry.require_on_m(sysd, x.q, x.p, args.tol)
        f = Observable.from_expression(sysd, args.f)
        g = Observable.from_expression(sysd, args.g)
        rep = brackets.compare_brackets(sysd, f, g, x, on_m_tol=args.tol)
    obj = {
        "command": "brackets",
        "system": args.system,
        "f": rep.f,
        "g": rep.g,
        "point": ",".join(_fmt_float(v) for v in x_vals),
        "value_nh": rep.value_nh,
        "value_nh2": rep.value_nh2,
        "value_eden": rep.value_eden,
        "value_dstar": rep.value_dstar,
        "max_pairwise_gap": rep.max_pairwise_gap,
    }
    return _emit(_report_payload(_require_finite(obj), args.format), args.output)


def cmd_verify(args) -> int:
    sysd, entry = _load_system(args.system)
    cfg = verification.VerifyConfig(
        system_source=entry.definition if entry else sysd.source,
        system_label=args.system,
        seed=args.seed,
        count=args.count,
        on_m_tol=args.tol,
        compare_tol=args.tol_compare,
        workers=args.workers,
        region=entry.sample_region if entry else None,
        momentum_scale=entry.momentum_scale if entry else 1.0,
    )
    if cfg.count < 1 or cfg.workers < 1:
        raise NonholoError("count and workers must be at least 1")
    report = verification.run_verify(cfg)
    rc = _emit(_verify_payload(report, args.format), args.output)
    if rc != EXIT_OK:
        return rc
    return EXIT_OK if report["pass"] else EXIT_SUITE_FAILURE


def cmd_jacobiator(args) -> int:
    sysd, _ = _load_system(args.system)
    x_vals = _parse_reals(args.point, 2 * sysd.n, "--point")
    x = PhasePoint(q=x_vals[: sysd.n], p=x_vals[sysd.n :])
    with np.errstate(over="ignore", invalid="ignore"):
        x = geometry.require_on_m(sysd, x.q, x.p, args.tol)
        obs = DStarObservable if args.kind == "dstar" else Observable
        f, g, h = (obs.from_expression(sysd, t) for t in (args.f, args.g, args.h))
        value = brackets.jacobiator(sysd, args.kind, f, g, h, x, on_m_tol=args.tol)
    obj = {
        "command": "jacobiator",
        "system": args.system,
        "kind": args.kind,
        "f": args.f,
        "g": args.g,
        "h": args.h,
        "point": ",".join(_fmt_float(v) for v in x_vals),
        "value": value,
    }
    return _emit(_report_payload(_require_finite(obj), args.format), args.output)


def cmd_catalog(args) -> int:
    if args.action == "list":
        lines = [f"{e.id}: {e.notes}" for e in catalog.catalog_systems()]
        return _emit("\n".join(lines) + "\n", args.output)
    try:
        entry = catalog.get_entry(args.id)
    except KeyError:
        raise NonholoError(f"unknown catalog system '{args.id}'") from None
    return _emit(entry.definition, args.output)


def _add_shared(p):
    p.add_argument("--system", required=True, help="system file path or catalog:<id>")
    p.add_argument("--tol", type=float, default=geometry.ON_M_TOL,
                   help="on-manifold tolerance (default 1e-8)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--output", default=None, help="write payload to a file")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonholo",
        description="Constrained Hamiltonian dynamics, projectors and brackets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the constrained dynamics")
    _add_shared(p)
    p.add_argument("--q0", required=True, help="initial configuration, comma-separated")
    p.add_argument("--p0", default=None, help="initial momentum covector")
    p.add_argument("--v0", default=None, help="initial velocity (mapped through the fiber derivative)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3, help="RK4 step: the last row is at "
                   "t0 + round((t1 - t0)/dt)*dt, within dt/2 of t1")
    p.add_argument("--no-project", action="store_true",
                   help="disable the per-step momentum projection")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("brackets", help="evaluate the four bracket routes at a point")
    _add_shared(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--point", required=True, help="q then p, comma-separated (2n reals)")
    p.set_defaults(fn=cmd_brackets)

    p = sub.add_parser("verify", help="run the full verification sweeps")
    _add_shared(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=100, help="sample points on M")
    p.add_argument("--tol-compare", type=float, default=1e-9,
                   help="bracket-coincidence tolerance (default 1e-9)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("jacobiator", help="measure the Jacobi defect at a point")
    _add_shared(p)
    p.add_argument("--kind", choices=brackets.BRACKET_KINDS, default="eden")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_jacobiator)

    p = sub.add_parser("catalog", help="list or print the built-in systems")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.id:
        print("error: catalog show requires a system id", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        _check_real_options(args)
        return args.fn(args)
    except StepFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE
    except NonholoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
