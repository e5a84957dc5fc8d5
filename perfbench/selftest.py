"""Checks of the benchmark itself (not collected by the project's suite):

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a source checkout.  The battery workloads take
about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "degree", "bits", "ratio"}
COUNT_METRICS = [m["name"] for m in BENCH["per_layer"] if m["unit"] in COUNT_UNITS]


def _pass(workload, trace, seed=5, pass_index=0):
    payload, _ = run.spawn(ROOT, workload, seed, pass_index, trace,
                           deadline=time.monotonic() + 170)
    return payload


def test_named_counts_are_count_typed():
    for name in ("groebner.raw_runs", "groebner.spairs_reduced",
                 "groebner.saturate.eliminations", "multiplicity.truncated_runs",
                 "segre.tuple_draws", "groebner.gb_cache_hit_ratio",
                 "groebner.max_coeff_bits"):
        assert name in COUNT_METRICS


def test_install_replaces_every_binding():
    import segrenum  # noqa: F401

    functions, methods = tracing._targets()
    assert tracing.install(tracing.Tracer()) > len(functions)
    for mod_name, mod in sys.modules.items():
        if mod_name == "segrenum" or mod_name.startswith("segrenum."):
            for attr, obj in vars(mod).items():
                assert id(obj) not in functions, f"{mod_name}.{attr} left unwrapped"


@pytest.mark.parametrize("workload", ["corpus", "equigenerated", "whitney_corank"])
def test_traced_pass_matches_untraced_and_counts_repeat(workload):
    plain = _pass(workload, trace=False)
    first = _pass(workload, trace=True)
    second = _pass(workload, trace=True)
    for p in (plain, first, second):
        assert all(c["ok"] for c in p["commands"]), p["commands"]
    problems = []
    assert run.check_pass(first, problems, twin=plain) == 0, problems
    assert run.check_pass(second, problems, twin=plain) == 0, problems
    a = dict(first["layers"], **run.engine_totals(first["commands"]))
    b = dict(second["layers"], **run.engine_totals(second["commands"]))
    assert a["groebner.raw_spans"] == a["groebner.raw_runs"]
    for name in COUNT_METRICS:
        assert a[name] == b[name], name


def test_speed_probe_samples_during_the_pass():
    import worker

    with worker.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:
            pass
    elapsed = time.perf_counter() - start
    # one sample before, one after, and one every SAMPLE_INTERVAL_S between
    assert len(probe.samples) >= 2 + 3
    assert 0 < probe.spent < 0.05 * elapsed
    assert run.speed({"speed_samples_s": [run.REFERENCE_UNIT_S * 2] * 3}) == pytest.approx(0.5)


def test_tail_percentile_keeps_ten_samples_above():
    slowest = "the slowest command's median"
    assert run.tail_percentile({"a": [7.0]}) == (slowest, 7.0)
    assert run.tail_percentile({"a": [1.0, 2.0], "b": [3.0, 5.0]}) == (slowest, 4.0)
    label, value = run.tail_percentile({"a": [float(i) for i in range(1, 201)]})
    assert (label, value) == ("p95", 190.0)
    label, value = run.tail_percentile({"a": [float(i) for i in range(1, 21)],
                                        "b": [float(i) for i in range(21, 41)]})
    assert (label, value) == ("p75", 30.0)


def test_layer_metrics_self_time_and_hits():
    S = tracing
    spans = [
        [S.COMMAND, 0.0, 10.0, -1, None, 5],
        ["groebner.buchberger", 1.0, 4.0, 0, {"coeff_bits": 9}, 3],
        [S.RAW, 1.5, 3.5, 1, {"truncated": False, "site": "groebner"}, 3],
        ["groebner.buchberger", 5.0, 6.0, 0, None, 4],
        ["multiplicity.multiplicity_at_origin", 6.0, 9.0, 0, {"samples": 4}, 5],
    ]
    m = S.layer_metrics(spans, 10.0)
    assert m["groebner.buchberger.calls"] == 2
    assert m["groebner.gb_cache_hit_ratio"] == 0.5
    assert m["groebner.buchberger.self_s"] == pytest.approx(2.0)
    assert m["groebner.raw_s"] == pytest.approx(2.0)
    assert m["groebner.max_coeff_bits"] == 9
    assert m["multiplicity.samples"] == 4
    assert m["multiplicity.share"] == pytest.approx(0.3)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
