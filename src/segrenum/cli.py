"""Batch command-line interface.

One command per invocation; reports are deterministic JSON on stdout.
Exit codes: 0 success, 1 error, 2 a criterion evaluated to false.
Seeds default to a fixed constant so CI runs reproduce bit-for-bit;
`--seed` (or the document's [options] block) overrides.  The only
environment input is SEGRENUM_LOG for stderr verbosity.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .criteria import (
    closure_battery,
    minkowski_check,
    power_equivalence_probe,
    product_formula_check,
    rees_test,
    teissier_criterion,
)
from .equising import FunctionGerm, whitney_battery
from .errors import PreconditionError, SegrenumError
from .groebner import ENGINE_STATS, Ideal, clear_caches
from .parser import parse_input
from .report import dump_report, make_report
from .rings import format_polynomial
from .segre import (
    GenericityConfig,
    chain_condition,
    make_germ,
    mixed_segre,
    polar_chain,
)
from .surface import SurfaceResolutionData, e2_from_orders, lemma32_verify, total_transform

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSE = 2

# Each [options] key and flag, with the GenericityConfig field it sets,
# in the order the report echoes them.
_OPTION_FIELDS = {"seed": "seed", "bound": "coefficient_bound", "rounds": "verification_rounds"}


def _log(message):
    if os.environ.get("SEGRENUM_LOG", "").lower() in {"debug", "info"}:
        print(message, file=sys.stderr)


def _load_document(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    return parse_input(text)


def _config(doc, args):
    """The defaults, overridden by the document's [options], overridden
    by the flags; the config validates the result."""
    flags = {key: getattr(args, key) for key in _OPTION_FIELDS if getattr(args, key) is not None}
    layered = {_OPTION_FIELDS[key]: value for key, value in {**doc.options, **flags}.items()}
    return replace(GenericityConfig(), **layered)


def _germ(doc):
    if doc.ring is None:
        raise PreconditionError("document has no ring declaration")
    ambient = Ideal(doc.ring, doc.ambient)
    return make_germ(doc.ring, ambient)


def _named_ideal(doc, name):
    if name not in doc.ideals:
        raise PreconditionError(f"no ideal named {name!r} in the document")
    return Ideal(doc.ring, doc.ideals[name])


def _pair(doc, args):
    """The germ and the two named ideals of a two-ideal command."""
    return _germ(doc), _named_ideal(doc, args.ideal1), _named_ideal(doc, args.ideal2)


def _texts(polys):
    return [format_polynomial(p) for p in polys]


def _inputs_echo(doc, args):
    echo = {"file": Path(args.file).name}
    if doc.ring is not None:
        echo["ring"] = list(doc.ring.variable_names)
        if doc.ambient:
            echo["ambient"] = _texts(doc.ambient)
        names = [getattr(args, key, None) for key in ("ideal", "ideal1", "ideal2")]
        if getattr(args, "germ1", None):  # the two-file whitney form names no ideal
            names += [args.germ0, args.germ1]
        echo["ideals"] = {name: _texts(doc.ideals[name]) for name in names if name in doc.ideals}
    return echo


# -- command handlers ---------------------------------------------------------

def _cmd_segre(doc, args, cfg):
    germ = _germ(doc)
    chain = polar_chain(germ, _named_ideal(doc, args.ideal), cfg)
    results = {
        "ideal": args.ideal,
        "n": germ.n,
        "e": chain.e,
        "m": chain.m,
        "polar_ideals": [_texts(s.polar_ideal.generators) or ["0"] for s in chain.stages],
        "certified": chain.certified,
    }
    return results, (), chain.seeds_used, EXIT_OK


def _cmd_mixed(doc, args, cfg):
    value = mixed_segre(*_pair(doc, args), args.k, args.i, args.j, cfg)
    return {"k": args.k, "i": args.i, "j": args.j, "value": value}, (), (cfg.seed,), EXIT_OK


def _battery(report):
    """The two Segre profiles and the mixed Segre numbers of a battery."""
    return {
        "left": asdict(report.left_profile),
        "right": asdict(report.right_profile),
        "mixed": {
            f"e_{k}^({i},{j})": v for (k, i, j), v in sorted(report.mixed.entries.items())
        },
    }


def _cmd_compare(doc, args, cfg):
    pair = _pair(doc, args)
    if args.powers:
        report = power_equivalence_probe(*pair, *args.powers, cfg)
    else:
        report = closure_battery(*pair, cfg)
    results = {**_battery(report), "holds": report.holds}
    if args.powers:
        results["powers"] = args.powers
    return results, report.verdicts, (cfg.seed,), EXIT_OK if report.holds else EXIT_FALSE


def _cmd_teissier(doc, args, cfg):
    report = teissier_criterion(*_pair(doc, args), cfg)
    results = {
        "labels": report.values["labels"],
        "chain": report.values["chain"],
        "holds": report.holds,
    }
    return results, report.verdicts, (cfg.seed,), EXIT_OK if report.holds else EXIT_FALSE


def _cmd_rees(doc, args, cfg):
    report = rees_test(*_pair(doc, args), cfg)
    results = {
        "left": asdict(report.left_profile),
        "right": asdict(report.right_profile),
        "equivalent": report.holds,
    }
    return results, report.verdicts, (cfg.seed,), EXIT_OK if report.holds else EXIT_FALSE


def _cmd_product_check(doc, args, cfg):
    germ, I1, I2 = _pair(doc, args)
    k = germ.n if args.k is None else args.k
    res = product_formula_check(germ, I1, I2, k, cfg)
    code = EXIT_OK if res.verdict != "neither" else EXIT_FALSE
    return asdict(res), (), (cfg.seed,), code


def _cmd_minkowski(doc, args, cfg):
    germ, I1, I2 = _pair(doc, args)
    k = germ.n if args.k is None else args.k
    res = minkowski_check(germ, I1, I2, k, cfg)
    return asdict(res), (), (cfg.seed,), EXIT_OK if res.holds else EXIT_FALSE


def _cmd_chain(doc, args, cfg):
    germ = _germ(doc)
    holds = chain_condition(germ, _named_ideal(doc, args.ideal), cfg)
    return {"chain_condition": holds}, (), (cfg.seed,), EXIT_OK if holds else EXIT_FALSE


def _cmd_surface(doc, args, cfg):
    if doc.surface is None:
        raise PreconditionError("document has no [surface] block")
    block = doc.surface
    # the construction refuses a matrix that is not negative definite
    orders = e2_from_orders(SurfaceResolutionData(block.matrix, block.u, block.v, block.w))
    gram = tuple(tuple(-x for x in row) for row in block.matrix)
    results = {
        "negative_definite": True,
        **asdict(orders),
        "mixed_inequality_holds": orders.inequality_holds,
        "lemma32": asdict(lemma32_verify(gram, block.u, block.v, block.w)),
    }
    if block.c is not None:
        results["total_transform"] = total_transform(block.matrix, block.c)
    return results, (), (), EXIT_OK


def _cmd_whitney(doc, args, cfg):
    if args.germ1 is None:
        # two-file form: whitney f0.poly f1.poly
        second = _load_document(args.germ0)
        if second.ring != doc.ring:
            raise PreconditionError("the two documents declare different rings")
        gens = [next(iter(d.ideals.values()), d.ambient) for d in (doc, second)]
        if any(len(g) != 1 for g in gens):
            raise PreconditionError("each germ file needs a single-generator ideal")
        if second.options:
            raise PreconditionError(f"{args.germ0} has an [options] block; only the first "
                                    "file's options are read")
    else:
        gens = []
        for name in (args.germ0, args.germ1):
            if name not in doc.ideals:
                raise PreconditionError(f"no ideal named {name!r} in the document")
            if len(doc.ideals[name]) != 1:
                raise PreconditionError(f"germ {name!r} must have a single generator")
            gens.append(doc.ideals[name])
    report = whitney_battery(FunctionGerm(gens[0][0]), FunctionGerm(gens[1][0]), cfg)
    results = {
        "whitney_sufficient": report.holds,
        "tangent_ideal_0": _texts(report.values["tangent_ideal_0"].generators),
        "tangent_ideal_1": _texts(report.values["tangent_ideal_1"].generators),
        **_battery(report),
    }
    return results, report.verdicts, (cfg.seed,), EXIT_OK if report.holds else EXIT_FALSE


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="override the genericity seed")
    sub.add_argument("--bound", type=int, default=None, help="coefficient bound")
    sub.add_argument("--rounds", type=int, default=None, help="verification rounds")
    sub.add_argument("--timing", action="store_true", help="attach wall-clock timing")


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="segrenum",
        description="Exact Segre numbers and integral-closure criteria at the origin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segre", help="Segre numbers e_k and polar multiplicities m_k")
    p.set_defaults(handler=_cmd_segre)
    p.add_argument("file")
    p.add_argument("ideal")
    _add_common(p)

    p = sub.add_parser("mixed", help="one mixed Segre number e_k^(i,j)")
    p.set_defaults(handler=_cmd_mixed)
    p.add_argument("file")
    p.add_argument("ideal1")
    p.add_argument("ideal2")
    p.add_argument("k", type=int)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    _add_common(p)

    for name, handler, extra in (
        ("compare", _cmd_compare, "equality battery for coinciding integral closures"),
        ("teissier", _cmd_teissier, "mixed-multiplicity chain for m-primary ideals"),
        ("rees", _cmd_rees, "profile comparison for nested ideals"),
        ("product-check", _cmd_product_check, "product formula for e_k(I1*I2)"),
        ("minkowski", _cmd_minkowski, "Minkowski-type root inequality"),
    ):
        p = sub.add_parser(name, help=extra)
        p.set_defaults(handler=handler)
        p.add_argument("file")
        p.add_argument("ideal1")
        p.add_argument("ideal2")
        if name == "compare":
            p.add_argument("--powers", type=int, nargs=2, metavar=("A", "B"),
                           help="probe the battery on I1^A against I2^B")
        if name in {"product-check", "minkowski"}:
            p.add_argument("--k", type=int, default=None, help="codimension (default n)")
        _add_common(p)

    p = sub.add_parser("chain", help="Segre-cycle support chain condition")
    p.set_defaults(handler=_cmd_chain)
    p.add_argument("file")
    p.add_argument("ideal")
    _add_common(p)

    p = sub.add_parser("surface", help="intersection-form checks on a [surface] block")
    p.set_defaults(handler=_cmd_surface)
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("whitney", help="Whitney-family battery for two germs")
    p.set_defaults(handler=_cmd_whitney)
    p.add_argument("file")
    p.add_argument("germ0")
    p.add_argument("germ1", nargs="?", default=None)
    _add_common(p)

    return parser


# Built once: argparse parsers keep no state between parse_args calls.
_PARSER = build_arg_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    clear_caches()
    ENGINE_STATS.reset()
    try:
        doc = _load_document(args.file)
        cfg = _config(doc, args)
        results, verdicts, seeds, code = args.handler(doc, args, cfg)
        timing = (time.monotonic() - started) * 1000 if args.timing else None
        report = make_report(
            command=args.command,
            inputs=_inputs_echo(doc, args),
            options={key: getattr(cfg, name) for key, name in _OPTION_FIELDS.items()},
            seeds=seeds,
            results=results,
            verdicts=verdicts,
            engine=ENGINE_STATS.snapshot(),
            timing_ms=timing,
        )
        sys.stdout.write(dump_report(report))
        _log(f"{args.command}: exit {code}")
        return code
    except SegrenumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
