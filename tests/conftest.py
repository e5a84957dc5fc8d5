import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import segrenum
from segrenum import GenericityConfig, PolynomialRing, cli, ideal, make_germ, segre
from segrenum.equising import FunctionGerm

CORPUS = Path(segrenum.__file__).parent / "corpus"
GOLDEN = CORPUS / "golden"


def replay_corpus(*flags, inputs=None):
    """Every command of the golden manifest run in-process through
    `cli.main`, with `flags` appended: a list of (manifest entry, exit
    code, report text).  `inputs`, a collection of corpus file names,
    keeps only the commands that read one of them."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    runs = []
    for entry in manifest:
        if inputs is not None and entry["argv"][1] not in inputs:
            continue
        argv = list(entry["argv"])
        argv[1] = str(CORPUS / argv[1])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + list(flags))
        runs.append((entry, code, buf.getvalue()))
    return runs


def saturate_spy(monkeypatch):
    """Record the ideal of each `saturate` call the stage loop makes."""
    calls = []
    real = segre.saturate

    def spy(I, J):
        calls.append(I)
        return real(I, J)

    monkeypatch.setattr(segre, "saturate", spy)
    return calls


def certified_spy(monkeypatch):
    """Record the round function of each `_certified` call."""
    calls = []
    real = segre._certified

    def spy(cfg, run_once, *args):
        calls.append(run_once)
        return real(cfg, run_once, *args)

    monkeypatch.setattr(segre, "_certified", spy)
    return calls


def semi_quasi_homogeneous(R, seed):
    """x^a + y^b + z^c with a, b, c drawn from 2..4, plus three seeded
    terms of weighted degree above 1 (weights 1/a, 1/b, 1/c) and total
    degree at most 5; returns the germ and (a, b, c)."""
    rng = random.Random(seed)
    a, b, c = (rng.randint(2, 4) for _ in range(3))
    x, y, z = R.variables()
    above = [(i, j, k) for i in range(6) for j in range(6) for k in range(6 - i - j)
             if i * b * c + j * a * c + k * a * b > a * b * c]
    f = x ** a + y ** b + z ** c
    for i, j, k in rng.sample(above, 3):
        f = f + rng.choice([-3, -2, -1, 1, 2, 3]) * x ** i * y ** j * z ** k
    return FunctionGerm(f), (a, b, c)


@pytest.fixture(scope="session")
def R2():
    return PolynomialRing(["x", "y"])


@pytest.fixture(scope="session")
def R3():
    return PolynomialRing(["x", "y", "z"])


@pytest.fixture(scope="session")
def germ2(R2):
    return make_germ(R2)


@pytest.fixture(scope="session")
def germ3(R3):
    return make_germ(R3)


@pytest.fixture(scope="session")
def cfg():
    return GenericityConfig()


@pytest.fixture(scope="session")
def divisor_pair(R3):
    """A plane divisor and the same plane fattened along the axes."""
    x, y, z = R3.variables()
    return ideal(R3, z), ideal(R3, x * z, y * z, z * z)


@pytest.fixture(scope="session")
def corpus_ideals(R2, R3, germ2, germ3):
    """Small ideals reused across property suites: (germ, ideal) pairs."""
    x, y = R2.variables()
    x3, y3, z3 = R3.variables()
    return [
        (germ3, ideal(R3, z3)),
        (germ3, ideal(R3, x3 * z3, y3 * z3, z3 ** 2)),
        (germ2, ideal(R2, x, y)),
        (germ2, ideal(R2, x ** 2, y ** 3)),
        (germ2, ideal(R2, x ** 2, y ** 2)),
        (germ2, ideal(R2, x ** 2, x * y, y ** 2)),
        (germ2, ideal(R2, x ** 2 - y ** 3)),
    ]
