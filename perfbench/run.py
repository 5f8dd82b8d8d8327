#!/usr/bin/env python3
"""nonholo benchmark: run one workload through the CLI and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Workloads (inputs generated from --seed, see workloads.py):
  certify    `verify` on the four catalog systems
  integrate  `simulate` of long trajectories on three systems
  jacobi     many short `jacobiator` commands, every kind on every system

Each workload calls `nonholo.cli.main` with the argv a user would type, in
this one long-lived process. It repeats whole rounds of commands while
another round fits in --seconds, and checks every payload.

Host-normalized time. The shared host's speed drifts by up to 2x over
seconds to minutes, and CPU time drifts with it. So every timed command is
bracketed by a fixed reference kernel (hostref.py), and its time is rescaled
to a host that runs that kernel in REF_S seconds: t * REF_S / r, with r the
mean of the kernel times just before and after. The raw figures are in the
detail line.

--trace 0 prints the end-to-end metrics, all host-normalized:
  setup_s         median over SETUP_REPS fresh interpreters, each timed from
                  spawn to exit, that import the CLI and parse and compile the
                  workload's systems and observables
  work_per_s      work per round over the summed per-command median times;
                  work is sampled points (certify), RK4 steps (integrate) or
                  jacobiator commands (jacobi)
  command_ms.p90  90th percentile, over the commands of a round, of each
                  command's median time
  peak_rss_mb     peak resident set of this process (not normalized)

--trace 1 runs one fixed round twice, untraced in a child process and traced
here, with spans recorded around the package's functions (tracing.py). It
prints calls and self time per traced function and per layer, three counter
ratios and the tracing overhead, and writes the spans to .bench_out/.

The last stdout line is the JSON result; the line before it gives details.
A run from a directory without src/nonholo exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import hostref

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5
REF_S = 7.5e-4  # kernel time of the normalized host: about its median on 2 shared vCPUs
CHILD_TIMEOUT_S = 150


def _run_command(cli, cmd):
    """Time one CLI command; return (seconds, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception as exc:  # a command must never take the run down
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            error = cmd.check(cmd, code, out.getvalue())
        except Exception as exc:
            error = f"payload check raised {type(exc).__name__}: {exc}"
    if error is not None:
        stderr = err.getvalue().strip().splitlines()
        error = f"{' '.join(cmd.argv)}: {error}" + (f" [{stderr[-1]}]" if stderr else "")
    return elapsed, error


def _run_rounds(cli, cmds, seconds, tracer=None):
    """Repeat whole rounds while another round fits in `seconds` (at least one).

    Returns, per command, the raw and the host-normalized seconds of each
    round, and the failures as (command index, message).
    """
    raw = [[] for _ in cmds]
    norm = [[] for _ in cmds]
    failures = []
    t_start = time.perf_counter()
    ref = hostref.timed()
    while True:
        t_round = time.perf_counter()
        for i, cmd in enumerate(cmds):
            if tracer is not None:
                tracer.current_command = i
            elapsed, error = _run_command(cli, cmd)
            ref_before, ref = ref, hostref.timed()
            raw[i].append(elapsed)
            norm[i].append(elapsed * REF_S / (0.5 * (ref_before + ref)))
            if error is not None:
                failures.append((i, error))
        now = time.perf_counter()
        if now + (now - t_round) - t_start > seconds:
            return raw, norm, failures


def _measure_setup(workload):
    """Raw and host-normalized spawn-to-exit seconds of the set-up probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    raw, norm = [], []
    ref = hostref.timed()
    for _ in range(SETUP_REPS):
        # a blocking wait: Popen.wait(timeout) polls, which rounds the time up
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, workload], cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = time.perf_counter() - t0
        watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        ref_before, ref = ref, hostref.timed()
        raw.append(elapsed)
        norm.append(elapsed * REF_S / (0.5 * (ref_before + ref)))
    return raw, norm


def _p90(values):
    # inclusive: with a handful of commands per round, p90 stays within the data
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, workloads, cli, tmpdir):
    round_fn, unit = workloads.WORKLOADS[args.workload]
    setup_raw, setup_norm = _measure_setup(args.workload)
    cmds = round_fn(args.seed, tmpdir)
    raw, norm, failures = _run_rounds(cli, cmds, args.seconds)
    ok = [i for i in range(len(cmds)) if i not in {i for i, _ in failures}]
    work = sum(cmds[i].work for i in ok)
    med_norm = [statistics.median(t) for t in norm]
    med_raw = [statistics.median(t) for t in raw]
    by_system = {}
    for cmd, t in zip(cmds, med_norm):
        by_system.setdefault(cmd.system, []).append(t * 1e3)
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(raw[0]),
        "commands": sum(map(len, raw)), "p90_samples": len(cmds),
        "work_per_round": work, "work_unit": unit,
        "command_s": sum(map(sum, raw)), "command_s_norm": sum(map(sum, norm)),
        "raw_work_per_s": work / sum(med_raw[i] for i in ok) if ok else 0.0,
        "raw_command_ms.p90": _p90(med_raw) * 1e3,
        "raw_setup_s": statistics.median(setup_raw),
        "command_ms_by_system": {k: statistics.mean(v) for k, v in by_system.items()},
        "failures": [msg for _, msg in failures[:5]],
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setup_norm), "s"),
        "work_per_s": _metric(work / sum(med_norm[i] for i in ok) if ok else 0.0, "1/s"),
        "command_ms.p90": _metric(_p90(med_norm) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    return detail, sum(map(len, raw)), len(failures), metrics


def _untraced_child(args):
    """One untraced round in a fresh interpreter, for the tracing overhead."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_traced(args, workloads, cli, tmpdir):
    import tracing

    round_fn, _ = workloads.WORKLOADS[args.workload]
    child_detail, child_result = _untraced_child(args)
    cmds = round_fn(args.seed, tmpdir)  # inputs first: their generation stays untraced
    tracer = tracing.Tracer()
    tracing.install(tracer)
    raw, norm, failures = _run_rounds(cli, cmds, 0.0, tracer)
    traced_s, untraced_s = sum(map(sum, norm)), child_detail["command_s_norm"]

    metrics = {}
    for span, (calls, self_s) in tracer.per_span().items():
        metrics[f"{span}.calls"] = _metric(calls, "count")
        metrics[f"{span}.self_s"] = _metric(self_s, "s")
    for layer, fns in tracing.LAYERS.items():
        total = sum(metrics[f"{layer}.{fn}.self_s"]["value"] for fn in fns)
        metrics[f"{layer}.self_s"] = _metric(total, "s")

    # evaluations per RK4 step, not counting the initial record of each trajectory
    steps = sum(c.info.get("steps", 0) for c in cmds)
    evals = metrics["dynamics.FieldEvaluator.evaluate.calls"]["value"]
    trajectories = metrics["dynamics.integrate.calls"]["value"]
    attempts = tracer.sample_attempts()
    count = sum(c.info.get("count", 0) for c in cmds)
    metrics["dynamics.evaluate_per_step"] = _metric(
        (evals - trajectories) / steps if steps else 0.0, "ratio")
    metrics["catalog.sample_accept_ratio"] = _metric(
        tracer.sampled_points / attempts if attempts else 0.0, "ratio")
    metrics["verification.jacobi_point_ratio"] = _metric(
        len(tracer.verify_points) / count if count else 0.0, "ratio")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = _metric(traced_s / untraced_s - 1.0, "ratio")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.npz")
    tracer.write(spans_path, [c.argv for c in cmds])
    span_cost = tracing.span_cost_ns()
    detail = {
        "workload": args.workload, "seed": args.seed, "commands": len(cmds),
        "traced_s_norm": traced_s, "untraced_s_norm": untraced_s,
        "spans": len(tracer.name), "span_cost_ns": span_cost,
        "spans_file": os.path.relpath(spans_path, ROOT), "missing": tracer.missing,
        "failures": child_detail["failures"] + [msg for _, msg in failures[:5]],
        "net_us_per_call_by_system": tracer.net_us_per_call(
            tracing.RECONCILED, [c.system for c in cmds], span_cost,
            [n[0] / r[0] for n, r in zip(norm, raw)]),
    }
    attempted = len(cmds) + child_result["attempted"]
    failed = len(failures) + child_result["failed"]
    return detail, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nonholo CLI benchmark")
    ap.add_argument("--workload", required=True, choices=("certify", "integrate", "jacobi"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nonholo", "__init__.py")):
        print(f"error: no src/nonholo under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from nonholo import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported nonholo from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        run = run_traced if args.trace else run_untraced
        detail, attempted, failed, metrics = run(args, workloads, cli, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for failure in detail["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
