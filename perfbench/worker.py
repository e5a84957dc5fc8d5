"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py ROOT WORKLOAD SEED PASS_INDEX TRACE [--setup-only]

Imports segrenum from ROOT/src, builds the workload's inputs, runs its
commands one after another (a closed loop) and checks each answer.  It
prints one JSON object: the monotonic time the first command started
(the parent subtracts its spawn time to get set-up time), the CPU-speed
samples taken before, during and after the pass (see SpeedProbe),
per-command latency and verdict, the engine counters, peak RSS and, when
TRACE is 1, the per-layer numbers of the pass.  With --setup-only it
stops right before the first command, after one speed sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


# Two fixed polynomials in three variables with rational coefficients.
# unit_s multiplies them, with the same operations segrenum's engine
# spends its time in (dict lookups on exponent tuples, Fraction
# arithmetic), and runs a plain integer loop.  When the host slows down,
# the product slows down more than the engine and the loop less; timed
# together they track it best (corpus passes rescaled by the loop alone
# spread 0.06 over 40-s windows, by the product alone 0.03, by both 0.02,
# unscaled 0.18).
_UNIT_P = dict(list({(i, j, k): Fraction(v, v + 2) for i in range(4) for j in range(4)
                     for k in range(3) for v in [(3 * i + 5 * j + 7 * k) % 11 + 1]}.items())[:20])
_UNIT_Q = dict(list({(i, j, k): Fraction(v + 1, v + 3) for i in range(3) for j in range(3)
                     for k in range(3) for v in [(2 * i + j + 3 * k) % 13 + 1]}.items())[:15])


def unit_s():
    """Seconds to multiply _UNIT_P by _UNIT_Q and run a fixed integer loop;
    no segrenum code runs."""
    t0 = time.perf_counter()
    product = {}
    for a, c in _UNIT_P.items():
        for b, d in _UNIT_Q.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            product[key] = product.get(key, 0) + c * d
    acc = 0
    for i in range(12_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast this process's CPU runs: `unit_s` before the
    pass (median of five), every SAMPLE_INTERVAL_S during it from a
    SIGALRM handler, and after it, so that a pass of many seconds is
    measured against the speed of its whole length.  `spent` is the time
    the handler took, which the pass's timings leave out; in a traced
    pass it also falls inside whichever span is open (about 1% of the
    pass)."""

    SAMPLE_INTERVAL_S = 0.25

    def __init__(self):
        self.samples = [statistics.median(unit_s() for _ in range(5))]
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(unit_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(statistics.median(unit_s() for _ in range(5)))


def corpus_order(seed, pass_index, count):
    """Seeded permutation of the corpus commands for one pass."""
    order = list(range(count))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


# A workload is a list of (name, run) pairs; run() calls the program once
# and returns (ok, detail, output text).

def _corpus_commands(root, seed, pass_index):
    import segrenum.cli as cli

    corpus = root / "src" / "segrenum" / "corpus"
    golden = corpus / "golden"
    manifest = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
    commands = []
    for idx in corpus_order(seed, pass_index, len(manifest)):
        entry = manifest[idx]
        argv = list(entry["argv"])
        argv[1] = str(corpus / argv[1])
        expected = (golden / entry["golden"]).read_text(encoding="utf-8")

        def run(argv=argv, expected=expected, code=entry["exit"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                got = cli.main(argv)
            out = buf.getvalue()
            if got != code:
                return False, f"exit {got}, expected {code}", out
            if out != expected:
                return False, "report differs from its golden", out
            return True, "", out

        commands.append((entry["golden"], run))
    return commands


def _battery_commands(spec, seed):
    import segrenum
    from segrenum.groebner import ENGINE_STATS, clear_caches
    from segrenum.parser import parse_input

    cfg = segrenum.GenericityConfig(seed=seed)
    commands = []
    for item in spec["commands"]:
        doc = parse_input(item["document"])
        expected = item["expected"]
        if item["kind"] == "whitney":
            f0 = segrenum.FunctionGerm(doc.ideals["f0"][0])
            f1 = segrenum.FunctionGerm(doc.ideals["f1"][0])

            def call(f0=f0, f1=f1):
                return segrenum.equising.whitney_battery(f0, f1, cfg)
        else:
            I1 = segrenum.Ideal(doc.ring, doc.ideals["I1"])
            I2 = segrenum.Ideal(doc.ring, doc.ideals["I2"])
            germ = segrenum.make_germ(doc.ring)

            def call(germ=germ, I1=I1, I2=I2):
                return segrenum.criteria.closure_battery(germ, I1, I2, cfg)

        def run(call=call, expected=expected):
            clear_caches()
            ENGINE_STATS.reset()
            report = call()
            got = {
                "holds": report.holds,
                "left_e": list(report.left_profile.e),
                "right_e": list(report.right_profile.e),
                "mixed": {",".join(map(str, k)): v
                          for k, v in sorted(report.mixed.entries.items())},
            }
            text = json.dumps(got, sort_keys=True)
            for key, want in expected.items():
                if got[key] != want:
                    return False, f"{key}: got {got[key]}, expected {want}", text
            return True, "", text

        commands.append((item["name"], run))
    return commands


def main(argv):
    root = Path(argv[0]).resolve()
    workload, seed, pass_index, trace = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
    setup_only = "--setup-only" in argv[5:]
    sys.path.insert(0, str(root / "src"))
    import segrenum  # noqa: F401  (import time is part of set-up)
    from segrenum.groebner import ENGINE_STATS

    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    spec = spec["workloads"][workload]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if workload == "corpus":
        commands = _corpus_commands(root, seed, pass_index)
    else:
        commands = _battery_commands(spec, seed)

    first_start = time.monotonic()
    probe = SpeedProbe()
    if setup_only:
        print(json.dumps({"first_start": first_start, "speed_samples_s": probe.samples}))
        return 0
    if tracer:
        tracer.reset()
    results = []
    with probe:
        pass_start = time.perf_counter()
        for name, run in commands:
            span = tracer.open(tracing.COMMAND) if tracer else None
            t0, spent0 = time.perf_counter(), probe.spent
            try:
                ok, detail, out = run()
            except Exception as exc:  # a crash is a failed command, not a lost pass
                ok, detail, out = False, f"{type(exc).__name__}: {exc}", ""
            latency = time.perf_counter() - t0 - (probe.spent - spent0)
            if tracer:
                tracer.close(span)
            results.append({
                "name": name,
                "latency_s": latency,
                "ok": ok,
                "detail": detail,
                "digest": hashlib.sha256(out.encode()).hexdigest(),
                "engine": ENGINE_STATS.snapshot(),
            })
        pass_s = time.perf_counter() - pass_start - probe.spent
    payload = {
        "first_start": first_start,
        "speed_samples_s": probe.samples,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
    }
    if tracer:
        payload["layers"] = tracing.layer_metrics(tracer.spans, pass_s)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
