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

from .rings import _decimal

SCHEMA_VERSION = "2"


def _exact(value):
    """The JSON form of a report value: an int or a Fraction becomes its
    exact string, a tuple or list a list, a dict keeps its key order, and
    a bool, a str or None stays as it is.  Anything else, a float
    included, is refused."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return _decimal(value)
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    raise TypeError(f"not an exact report value: {value!r}")


def make_report(command, inputs, options, seeds, results, verdicts=(),
                engine=None, timing_ms=None):
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "options": options,
        "seeds_used": seeds,
        "results": results,
        "verdicts": [
            {"criterion": v.criterion_id, "holds": v.holds, "witness": v.witness}
            for v in verdicts
        ],
        "engine": engine or {},
    }
    if timing_ms is not None:
        report["timing_ms"] = f"{timing_ms:.1f}"
    return _exact(report)


def dump_report(report) -> str:
    return json.dumps(report, indent=2) + "\n"
