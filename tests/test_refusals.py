"""User-facing refusals: each input a command or library call refuses,
with the message it refuses it with."""

import contextlib
import io
import re

import pytest

from segrenum import (
    GenericityConfig,
    PolynomialRing,
    TupleTriple,
    cli,
    ideal,
    integer_kth_root,
    make_germ,
    mixed_multiplicity_primary,
    pairing,
    power_equivalence_probe,
    radical_sum_compare,
    segre_on_subspace,
    total_transform,
    truncation_check,
    whitney_battery,
)
from segrenum.equising import FunctionGerm
from segrenum.errors import InputSyntaxError, PreconditionError, RingMismatchError
from segrenum.parser import parse_input
from segrenum.surface import negdef_check

CFG = GenericityConfig()
R1 = PolynomialRing(["x"])
R2 = PolynomialRing(["x", "y"])
R3 = PolynomialRing(["x", "y", "z"])
x, y = R2.variables()
GERM2 = make_germ(R2)
PLANE = "ring x, y; ideal I = x, y; ideal J = x^2, y^3; ideal U = x + 1; ideal f0 = x^2 + y^2;\n"


@pytest.mark.parametrize("doc, second, argv, message", [
    ("[options]\nseed = 1\n", None, ["segre", "{doc}", "I"],
     "document has no ring declaration"),
    (PLANE, None, ["surface", "{doc}"], "document has no [surface] block"),
    (PLANE, "ring x, y, z; ideal f = x^2 + y^2 + z^2;", ["whitney", "{doc}", "{second}"],
     "the two documents declare different rings"),
    ("ring x, y; ideal f = x^2, y^2;", "ring x, y; ideal f = x^2 + y^2;",
     ["whitney", "{doc}", "{second}"], "each germ file needs a single-generator ideal"),
    (PLANE, None, ["whitney", "{doc}", "f0", "g"], "no ideal named 'g' in the document"),
    (PLANE, None, ["whitney", "{doc}", "f0", "J"], "germ 'J' must have a single generator"),
    ("ring x, y; ambient = x - 1; ideal I = y;", None, ["segre", "{doc}", "I"],
     "ambient ideal does not pass through the origin"),
    ("ring x, y; ambient = x, y; ideal I = x;", None, ["segre", "{doc}", "I"],
     "germ must have positive dimension"),
    (PLANE, None, ["mixed", "{doc}", "I", "J", "1", "0", "0"],
     "need i, j >= 0 and not both zero"),
    (PLANE, None, ["mixed", "{doc}", "I", "J", "2", "0", "1"],
     "the boundary convention needs j == k when i == 0"),
    (PLANE, None, ["teissier", "{doc}", "U", "J"], "first ideal does not vanish at the origin"),
    (PLANE, None, ["teissier", "{doc}", "I", "U"], "second ideal does not vanish at the origin"),
    (PLANE, None, ["product-check", "{doc}", "I", "J", "--k", "3"], "k must be between 1 and 2"),
    (PLANE, None, ["minkowski", "{doc}", "I", "J", "--k", "0"], "k must be between 1 and 2"),
], ids=["no-ring", "no-surface", "different-rings", "germ-file-generators", "no-germ-named",
        "germ-generators", "ambient-off-origin", "ambient-dimension-0", "mixed-no-elements",
        "mixed-boundary", "teissier-first", "teissier-second", "product-k", "minkowski-k"])
def test_cli_refusals_exit_1(tmp_path, capsys, doc, second, argv, message):
    paths = {"{doc}": tmp_path / "doc.ideal", "{second}": tmp_path / "second.ideal"}
    paths["{doc}"].write_text(doc)
    if second is not None:
        paths["{second}"].write_text(second)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(paths.get(arg, arg)) for arg in argv])
    assert (code, buf.getvalue()) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_input("ring x; ideal I = (x + 1;"), InputSyntaxError, "expected ')'"),
    (lambda: parse_input("ring x; ideal I = ;"), InputSyntaxError,
     "expected a polynomial, found ';'"),
    (lambda: parse_input("[surface]\n-2\nq = 1\n"), InputSyntaxError, "unknown surface row 'q'"),
    (lambda: parse_input("[surface]\nu = 1\nv = 1\nw = 1\n"), InputSyntaxError,
     "surface block has no matrix rows"),
    (lambda: parse_input("[surface]\n-2\nu = 1\n"), InputSyntaxError,
     "surface block lacks rows: ['v', 'w']"),
    (lambda: parse_input("ring x; 3;"), InputSyntaxError, "expected a declaration, found '3'"),
    (lambda: parse_input("ring x; ring y;"), InputSyntaxError, "duplicate ring declaration"),
    (lambda: segre_on_subspace(GERM2, ideal(R2, y), ideal(R2, x - 1), CFG), PreconditionError,
     "subscheme misses the origin"),
    (lambda: mixed_multiplicity_primary(GERM2, ideal(R2, x, y), ideal(R2, x, y), 3, CFG),
     PreconditionError, "i must be between 0 and 2"),
    (lambda: mixed_multiplicity_primary(GERM2, ideal(R2, x, y), ideal(R2, x, y), -1, CFG),
     PreconditionError, "i must be between 0 and 2"),
    (lambda: truncation_check(GERM2, ideal(R2, x, y), 0, CFG), PreconditionError,
     "k must be between 1 and 2"),
    (lambda: truncation_check(GERM2, ideal(R2, x, y), 3, CFG), PreconditionError,
     "k must be between 1 and 2"),
    (lambda: power_equivalence_probe(GERM2, ideal(R2, x), ideal(R2, x), 0, 1, CFG),
     PreconditionError, "powers must be positive"),
    (lambda: TupleTriple((-1,), (1,), (1,)), PreconditionError, "entries must be nonnegative"),
    (lambda: whitney_battery(FunctionGerm(R1.variable(0) ** 2), FunctionGerm(R1.variable(0) ** 3),
                             CFG), PreconditionError, "the battery needs at least two variables"),
    (lambda: whitney_battery(FunctionGerm(x ** 2), FunctionGerm(R3.variable(0) ** 2), CFG),
     RingMismatchError, "both germs must live in the same ring"),
    (lambda: negdef_check([[-2, 1]]), PreconditionError, "intersection matrix must be square"),
    (lambda: pairing([[-2]], (1, 2), (1,)), PreconditionError, "vector/matrix dimensions differ"),
    (lambda: total_transform([[-2]], (1, 2)), PreconditionError,
     "vector/matrix dimensions differ"),
    (lambda: integer_kth_root(-1, 2), ValueError, "integer_kth_root needs x >= 0, k >= 1"),
    (lambda: integer_kth_root(8, 0), ValueError, "integer_kth_root needs x >= 0, k >= 1"),
    (lambda: radical_sum_compare(-1, 1, 1, 2), ValueError,
     "radical comparison needs nonnegative integers"),
    (lambda: radical_sum_compare(1, 1, 1, 0), ValueError,
     "radical comparison needs nonnegative integers"),
], ids=["close-paren", "polynomial", "surface-row", "matrix-rows", "lacks-rows", "declaration",
        "duplicate-ring", "subscheme-origin", "primary-i-high", "primary-i-low",
        "truncation-k-low", "truncation-k-high", "powers", "tuple-entries", "battery-variables",
        "battery-rings", "square", "pairing-dimensions", "transform-dimensions", "root-x",
        "root-k", "compare-sign", "compare-k"])
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
