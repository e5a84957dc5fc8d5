"""segrenum benchmark: end-to-end timings, or per-layer numbers when traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; segrenum is imported from ./src.
Workloads, their inputs and expected answers are in perfbench/workloads.json.

Every pass runs in a fresh worker process (perfbench/worker.py), one
after another, until the next pass would end past --seconds (at least
one pass runs).  With --trace 0 the passes are untraced and the result
carries the end-to-end metrics.  With --trace 1 each untraced pass is
followed by a traced one with the same inputs; the result carries the
per-layer metrics, and the run fails unless both passes returned the
same answers and engine counters.  Any wrong answer makes `correct`
false and counts in `failed`.  The last stdout line is the result JSON.

Every time a run reports (pass, latency, set-up) is rescaled to one
reference CPU speed.  On a shared host the same pass takes up to 1.5x
longer while other tenants load the CPU, in phases of seconds to
minutes, so raw wall times of runs a few minutes apart differ by more
than a regression bound.  Each worker therefore times a fixed piece of
pure-Python work that uses no segrenum code (worker.unit_s) before,
during and after its pass (worker.SpeedProbe), and every timing of that
worker is multiplied by REFERENCE_UNIT_S over the mean of those samples.
The raw wall times are printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_PROBES = 7         # extra set-up-only launches per run
MIN_SETUP_SAMPLES = 25   # set-up-only launches top a run up to this many
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75)
# One hash seed for every worker, so that set and dict layouts, and with
# them the timings, do not change from one pass to the next.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

# worker.unit_s() on a 2-core x86-64 VM at its faster speed; it only
# sets the scale of the reported seconds.
REFERENCE_UNIT_S = 0.0018

ENGINE_METRICS = {
    "groebner.raw_runs": ("buchberger_runs", sum),
    "groebner.spairs_reduced": ("spairs_reduced", sum),
    "groebner.max_basis_size": ("max_basis_size", max),
    "groebner.max_lt_degree": ("max_lt_degree", max),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class WorkerFailed(Exception):
    pass


def spawn(root, workload, seed, pass_index, trace, deadline, setup_only=False):
    """Run one worker; returns (payload, monotonic spawn time)."""
    argv = [sys.executable, str(WORKER), str(root), workload, str(seed),
            str(pass_index), "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                              env=WORKER_ENV)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


def speed(payload):
    """Factor that rescales one worker's timings to the reference speed."""
    return REFERENCE_UNIT_S / statistics.fmean(payload["speed_samples_s"])


def setup_sample(payload, spawned):
    """Set-up seconds of one worker, rescaled by the speed sample taken
    right after its set-up."""
    return (payload["first_start"] - spawned) * REFERENCE_UNIT_S / payload["speed_samples_s"][0]


def tail_percentile(by_command):
    """(label, value) at the highest ladder percentile of all latencies in
    `by_command` (command name -> latencies) that leaves at least ten
    samples above it.  With too few samples for any of them, the slowest
    command's median latency: a maximum of a few samples would measure
    the machine's noise, not the program, and the median of all samples
    of two commands falls in the gap between them."""
    ordered = sorted(t for times in by_command.values() for t in times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n)
        if n - rank >= 10:
            return f"p{p * 100:g}", ordered[rank - 1]
    return "the slowest command's median", max(map(statistics.median, by_command.values()))


def engine_totals(commands):
    return {
        name: agg(c["engine"][field] for c in commands)
        for name, (field, agg) in ENGINE_METRICS.items()
    }


def check_pass(payload, problems, twin=None):
    """Number of failed commands in one pass, noting why.  A traced pass
    also fails a command whose answer or engine counters differ from
    its untraced `twin`, and fails every command when the trace holds
    a different number of raw-Buchberger spans than the engine counted."""
    commands = payload["commands"]
    if twin is not None:
        runs = sum(c["engine"]["buchberger_runs"] for c in commands)
        spans = payload["layers"]["groebner.raw_spans"]
        if spans != runs:
            problems.append(f"{spans} raw-Buchberger spans but {runs} counted runs")
            return len(commands)
        by_name = {c["name"]: c for c in twin["commands"]}
    failed = 0
    for c in commands:
        if not c["ok"]:
            problems.append(f"{c['name']}: {c['detail']}")
        elif twin is not None and (c["digest"], c["engine"]) != (
                by_name[c["name"]]["digest"], by_name[c["name"]]["engine"]):
            problems.append(f"{c['name']}: traced run differs from untraced run")
        else:
            continue
        failed += 1
    return failed


PREDICATES = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "segrenum" / "__init__.py").is_file():
        log(f"error: no segrenum sources under {root / 'src'}; run from a checkout root")
        return 2
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        log(f"error: unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}")
        return 2
    log(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}")

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    trace = bool(args.trace)
    problems = []
    attempted = failed = 0
    plain_passes, traced_passes, setup_samples = [], [], []
    try:
        if not trace:
            # the first launch in a checkout compiles bytecode; keep it out of setup_s
            spawn(root, args.workload, args.seed, 0, False, deadline, setup_only=True)
            for i in range(SETUP_PROBES):
                payload, spawned = spawn(root, args.workload, args.seed, i, False, deadline,
                                         setup_only=True)
                setup_samples.append(setup_sample(payload, spawned))
        measure_start = time.monotonic()
        pass_index = 0
        while True:
            begun = time.monotonic()
            plain, spawned = spawn(root, args.workload, args.seed, pass_index, False, deadline)
            setup_samples.append(setup_sample(plain, spawned))
            plain_passes.append(plain)
            attempted += len(plain["commands"])
            failed += check_pass(plain, problems)
            if trace:
                traced, _ = spawn(root, args.workload, args.seed, pass_index, True, deadline)
                traced_passes.append(traced)
                attempted += len(traced["commands"])
                failed += check_pass(traced, problems, twin=plain)
            pass_index += 1
            cycle = time.monotonic() - begun
            if time.monotonic() - measure_start + cycle > args.seconds:
                break
        # the battery workloads have only a few passes in a run, so a few
        # set-up samples; more launches keep their median steady
        while not trace and len(setup_samples) < MIN_SETUP_SAMPLES:
            payload, spawned = spawn(root, args.workload, args.seed, len(setup_samples),
                                     False, deadline, setup_only=True)
            setup_samples.append(setup_sample(payload, spawned))
    except WorkerFailed as exc:
        problems.append(str(exc))
        attempted += 1
        failed += 1

    for p in problems:
        log(f"FAILED: {p}")
    if not plain_passes or (trace and not traced_passes):
        log("error: no complete pass")
        return 1

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    plain_s = statistics.median(p["pass_s"] * speed(p) for p in plain_passes)
    log("wall pass_s of each pass: " + " ".join(f"{p['pass_s']:.4f}" for p in plain_passes))
    log("speed factor of each pass: " + " ".join(f"{speed(p):.4f}" for p in plain_passes))
    if not trace:
        by_command = {}
        for p in plain_passes:
            for c in p["commands"]:
                by_command.setdefault(c["name"], []).append(c["latency_s"] * speed(p))
        latencies = sum(map(len, by_command.values()))
        tail_label, tail_value = tail_percentile(by_command)
        log(f"{len(plain_passes)} passes, failed_frac {failed}/{attempted}, "
            f"latency_p50_s is the median over {len(by_command)} commands of each "
            f"one's median, latency_tail_s is {tail_label} of {latencies} commands, "
            f"setup_s is the median of {len(setup_samples)} launches")
        values = {
            "pass_s": plain_s,
            # The corpus's 18 commands fall into two halves ~1.4x apart in
            # latency; the median of all samples sits in that gap and jumps
            # with single samples, the median of per-command medians does not.
            "latency_p50_s": statistics.median(
                statistics.median(times) for times in by_command.values()),
            "latency_tail_s": tail_value,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain_passes),
        }
        declared = bench["end_to_end"]
    else:
        log(f"{len(traced_passes)} traced passes, each after an untraced one, "
            f"failed_frac {failed}/{attempted}")
        layers = [dict(p["layers"], **engine_totals(p["commands"])) for p in traced_passes]
        # median_low keeps counts whole: it picks one pass's value
        values = {name: statistics.median_low(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.pass_s"] = statistics.median(p["pass_s"] * speed(p) for p in traced_passes)
        values["trace.overhead_s"] = values["trace.pass_s"] - plain_s
        declared = bench["per_layer"]
        for pred in workload.get("predictions", ()):
            measured = values[pred["metric"]]
            holds = PREDICATES[pred["op"]](measured, pred["value"])
            verdict = "holds" if holds else "DOES NOT HOLD"
            print(f"prediction {args.workload}: {pred['metric']} {pred['op']} {pred['value']} "
                  f"({pred['text']}): measured {measured:.6g} -> {verdict}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
