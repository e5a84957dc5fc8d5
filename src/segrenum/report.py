"""Deterministic JSON reports.

Every numeric value is rendered as an exact decimal or fraction string,
never a JSON float; key order is fixed, so two runs with equal inputs
and seeds produce byte-identical output.  Wall-clock timing is only
attached when explicitly requested and is not part of the stable
surface.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA_VERSION = "2"


def jnum(x):
    """Exact string form of an integer or rational."""
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers in reports")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not an exact number: {x!r}")


def jseq(xs):
    return [jnum(x) for x in xs]


def profile_payload(profile):
    return {"e": jseq(profile.e), "m": jseq(profile.m)}


def verdicts_payload(verdicts):
    return [
        {
            "criterion": v.criterion_id,
            "holds": v.holds,
            "witness": v.witness,
        }
        for v in verdicts
    ]


def mixed_payload(table):
    out = {}
    for (k, i, j) in sorted(table.entries):
        out[f"e_{k}^({i},{j})"] = jnum(table.entries[(k, i, j)])
    return out


def make_report(command, inputs, options, seeds, results, verdicts=None,
                engine=None, timing_ms=None):
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "options": {k: jnum(v) for k, v in options.items()},
        "seeds_used": [jnum(s) for s in seeds],
        "results": results,
        "verdicts": verdicts_payload(verdicts or ()),
        "engine": {k: jnum(v) for k, v in (engine or {}).items()},
    }
    if timing_ms is not None:
        report["timing_ms"] = f"{timing_ms:.1f}"
    return report


def dump_report(report) -> str:
    return json.dumps(report, indent=2) + "\n"
