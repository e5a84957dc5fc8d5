import io
import json
import contextlib
import errno
import os
import re
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrenum import GenericityConfig, cli
from segrenum.errors import InputSyntaxError
from segrenum.parser import _OPTION_KEYS, parse_input
from segrenum.report import SCHEMA_VERSION, _exact
from segrenum.rings import format_polynomial

from conftest import CORPUS, GOLDEN, replay_corpus
from replay_goldens import _engine_drift


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_parse_basic_document():
    doc = parse_input("ring x,y,z; ideal I1 = z; ideal I2 = x*z, y*z, z^2;")
    assert doc.ring.variable_names == ("x", "y", "z")
    assert list(doc.ideals) == ["I1", "I2"]
    assert len(doc.ideals["I2"]) == 3


def test_parse_rational_coefficient():
    doc = parse_input("ring x; ideal I = x^2 - 1/2*x;")
    (p,) = doc.ideals["I"]
    assert {m: c for c, m in p.terms()}[(1,)] == Fraction(-1, 2)


def test_parse_requires_ring_first():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("ideal I = x;")
    assert "ring" in str(err.value)
    assert err.value.line == 1


def test_parse_error_positions():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("ring x, y;\nideal I = x + q;")
    assert err.value.line == 2
    assert "q" in str(err.value)


def test_parse_duplicate_ideal():
    with pytest.raises(InputSyntaxError):
        parse_input("ring x; ideal I = x; ideal I = x^2;")


def test_parse_parentheses_and_signs():
    doc = parse_input("ring x, y; ideal I = -(x + y)*(x - y) + 2*x^2;")
    (p,) = doc.ideals["I"]
    x, y = doc.ring.variables()
    assert p == x ** 2 + y ** 2


def test_round_trip_documents():
    """Every polynomial of each corpus document with a ring reparses from
    its canonical text to an equal polynomial."""
    for path in sorted(CORPUS.glob("*.ideal")):
        doc = parse_input(path.read_text(encoding="utf-8"))
        if doc.ring is None:
            continue
        header = f"ring {', '.join(doc.ring.variable_names)}; ideal P = "
        for polys in filter(None, (doc.ambient, *doc.ideals.values())):
            text = ", ".join(format_polynomial(p) for p in polys)
            assert parse_input(header + text + ";").ideals["P"] == polys, path.name


def test_options_block_parsing():
    doc = parse_input("ring x; ideal I = x;\n[options]\nseed = 7, rounds = 3\nbound = 12\n")
    assert doc.options == {"seed": 7, "rounds": 3, "bound": 12}
    with pytest.raises(InputSyntaxError, match="unknown option"):
        parse_input("ring x; ideal I = x;\n[options]\nnmax = 12\n")


def test_goldens_carry_the_current_schema():
    for path in sorted(GOLDEN.glob("*.json")):
        if path.name == "manifest.json":
            continue
        assert json.loads(path.read_text(encoding="utf-8"))["schema"] == SCHEMA_VERSION, path.name
    for path in sorted(GOLDEN.glob("*.json")) + sorted(CORPUS.glob("*.ideal")):
        assert "nmax" not in path.read_text(encoding="utf-8"), path.name


def test_golden_corpus():
    runs = replay_corpus()
    assert runs, "empty corpus manifest"
    for entry, code, out in runs:
        expected = (GOLDEN / entry["golden"]).read_text(encoding="utf-8")
        assert code == entry["exit"], entry
        assert out == expected, f"report drift for {entry['golden']}"


def test_replay_names_engine_only_drift():
    """The replay script lists the counters of a report that differs from
    its golden only in its `engine` block, and nothing for other drift."""
    golden = (GOLDEN / "rees_pair.json").read_bytes()
    report = json.loads(golden)
    report["engine"]["spairs_reduced"] = "7"
    assert _engine_drift(golden, json.dumps(report).encode()) == ["  spairs_reduced: 6 -> 7"]
    report["results"] = {}
    assert _engine_drift(golden, json.dumps(report).encode()) is None
    reordered = dict(reversed(json.loads(golden).items()))
    assert _engine_drift(golden, json.dumps(reordered).encode()) is None
    assert _engine_drift(golden, b"Traceback") is None


def test_reports_are_byte_deterministic():
    argv = ["compare", str(CORPUS / "codim1_pair.ideal"), "I1", "I2"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert (code1, out1) == (code2, out2)


def test_parser_is_built_once(monkeypatch):
    """`main` reuses the module's parser: two calls in one process build
    none and give byte-identical reports."""
    built = []
    monkeypatch.setattr(cli, "build_arg_parser", lambda: built.append(1))
    argv = ["segre", str(CORPUS / "codim1_pair.ideal"), "I2"]
    first = run_cli(argv)
    assert run_cli(argv) == first
    assert first[1] == (GOLDEN / "codim1_segre_I2.json").read_text(encoding="utf-8")
    assert built == []


def test_seed_changes_only_provenance():
    base = ["segre", str(CORPUS / "codim1_pair.ideal"), "I2"]
    _, out1 = run_cli(base + ["--seed", "11"])
    _, out2 = run_cli(base + ["--seed", "1234567"])
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"]["e"] == r2["results"]["e"]
    assert r1["results"]["m"] == r2["results"]["m"]
    assert r1["seeds_used"] != r2["seeds_used"]


def test_exit_code_on_error(tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring x, y; ideal I = x;")
    code, _ = run_cli(["segre", str(bad), "NOPE"])
    assert code == 1


@pytest.mark.parametrize("options, flags, message", [
    ("", ["--rounds", "0"], "at least one round is required"),
    ("", ["--bound", "0"], "coefficient bound must be positive"),
    ("[options]\nrounds = 0\n", [], "at least one round is required"),
    ("[options]\nbound = 0\n", [], "coefficient bound must be positive"),
], ids=["rounds-flag", "bound-flag", "rounds-option", "bound-option"])
def test_bad_genericity_options_exit_1(tmp_path, capsys, options, flags, message):
    doc = tmp_path / "plane.ideal"
    doc.write_text("ring x, y; ideal I = x, y;\n" + options)
    assert run_cli(["segre", str(doc), "I"] + flags) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, reason", [
    ("missing.ideal", os.strerror(errno.ENOENT)),
    (".", os.strerror(errno.EISDIR)),
    ("latin1.ideal", "not UTF-8 (invalid continuation byte)"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_document_exits_1(tmp_path, capsys, name, reason):
    (tmp_path / "latin1.ideal").write_bytes("ring \xe9; ideal I = \xe9;".encode("latin-1"))
    path = tmp_path / name
    assert run_cli(["segre", str(path), "I"]) == (1, "")
    assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"


def test_budget_failure_exits_1(tmp_path, capsys):
    """The tangent-cone basis of (x^121 - y, y^2), which the multiplicity
    at the origin reads, gets an S-pair element of leading degree 122,
    past the degree budget: the command ends with the budget's message,
    not a traceback."""
    doc = tmp_path / "steep.ideal"
    doc.write_text("ring x, y; ideal I = x^121 - y, y^2;")
    assert run_cli(["segre", str(doc), "I"]) == (1, "")
    assert capsys.readouterr().err == "error: leading degree 122 exceeds budget 120\n"


def test_exponent_past_the_limit_exits_1(tmp_path, capsys):
    """Every polynomial holds exponents up to 2^15 - 1, so the parser
    refuses x^40000 before any command runs."""
    doc = tmp_path / "huge.ideal"
    doc.write_text("ring x, y; ideal I = x^40000 - y;")
    assert run_cli(["segre", str(doc), "I"]) == (1, "")
    assert capsys.readouterr().err == "error: exponent 40000 exceeds the limit 32767\n"


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not _DIGIT_LIMIT, reason="this interpreter converts ints of any length to text")


@needs_digit_limit
def test_literal_past_the_digit_limit_exits_1(tmp_path, capsys):
    """Python refuses to convert a literal of more digits than its limit,
    so the parser reports the literal's position instead."""
    doc = tmp_path / "long.ideal"
    doc.write_text("ring x, y;\nideal I = " + "7" * 5000 + "*x, y;")
    assert run_cli(["segre", str(doc), "I"]) == (1, "")
    assert capsys.readouterr().err == (
        f"error: integer literal of 5000 digits exceeds the limit of {_DIGIT_LIMIT}"
        " at line 2, column 11\n")


def test_superscript_digit_is_an_unexpected_character(tmp_path, capsys):
    """Only decimal digits make an integer literal: a superscript two is
    refused at its column, while an Arabic-Indic three reads as 3."""
    doc = tmp_path / "superscript.ideal"
    doc.write_text("ring x, y;\nideal I = x^\u00b2 + y;", encoding="utf-8")
    assert run_cli(["segre", str(doc), "I"]) == (1, "")
    assert capsys.readouterr().err == "error: unexpected character '\u00b2' at line 2, column 13\n"
    doc.write_text("ring x, y;\nideal I = x^\u0663 + y;", encoding="utf-8")
    assert parse_input(doc.read_text(encoding="utf-8")).ideals == \
        parse_input("ring x, y;\nideal I = x^3 + y;").ideals


@needs_digit_limit
def test_number_past_the_digit_limit_at_printing_exits_1(tmp_path, capsys):
    """3^9100 has 4342 digits: the chain is computed, and echoing the
    input coefficient ends with the limit's message, not a traceback."""
    doc = tmp_path / "power.ideal"
    doc.write_text("ring x, y; ideal I = 3^9100*x, y;")
    assert run_cli(["segre", str(doc), "I"]) == (1, "")
    assert capsys.readouterr().err == (
        f"error: a number has more than {_DIGIT_LIMIT} decimal digits, the limit for printing it\n")


def test_whitney_two_file_form(tmp_path):
    """`whitney F0 F1` on two files gives the results, verdicts and engine
    counters of `whitney FILE f0 f1` on one.  Its echo names no ideal."""
    a = tmp_path / "f0.poly"
    b = tmp_path / "f1.poly"
    pair = tmp_path / "pair.ideal"
    a.write_text("ring x, y; ideal f = x^2 + y^2;")
    b.write_text("ring x, y; ideal f = x^2 + 2*y^2;")
    pair.write_text("ring x, y; ideal f0 = x^2 + y^2; ideal f1 = x^2 + 2*y^2;")
    code, out = run_cli(["whitney", str(a), str(b)])
    assert code == 0
    two_files = json.loads(out)
    assert two_files["results"]["whitney_sufficient"] is True
    code, out = run_cli(["whitney", str(pair), "f0", "f1"])
    assert code == 0
    one_file = json.loads(out)
    for key in ("results", "verdicts", "engine", "options"):
        assert two_files[key] == one_file[key], key
    assert two_files["inputs"]["ideals"] == {}


def test_whitney_refuses_options_in_the_second_file(tmp_path, capsys):
    """Only the first file's [options] are read, so a second file with its
    own is refused rather than silently ignored."""
    a = tmp_path / "f0.poly"
    b = tmp_path / "f1.poly"
    a.write_text("ring x, y; ideal f = x^2 + y^2;")
    b.write_text("ring x, y; ideal f = x^2 + 2*y^2;\n[options]\nseed = 5\n")
    assert run_cli(["whitney", str(a), str(b)]) == (1, "")
    assert capsys.readouterr().err == (
        f"error: {b} has an [options] block; only the first file's options are read\n")


_CUSP = "ring x, y; ambient = x^2 - y^3; ideal I = y; ideal J = x;\n"


def test_germ_with_an_ambient(tmp_path):
    """On the cusp x^2 = y^3 the ambient is echoed, and (y) and (x) have
    the multiplicities 2 and 3 of the curve's parametrisation (t^3, t^2)."""
    doc = tmp_path / "cusp.ideal"
    doc.write_text(_CUSP)
    code, out = run_cli(["segre", str(doc), "I"])
    report = json.loads(out)
    assert code == 0
    assert report["inputs"]["ambient"] == ["-y^3 + x^2"]
    assert (report["results"]["e"], report["results"]["m"]) == (["2"], ["2"])
    code, out = run_cli(["compare", str(doc), "I", "J"])
    results = json.loads(out)["results"]
    assert code == 2
    assert (results["left"]["e"], results["right"]["e"]) == (["2"], ["3"])


def test_compare_with_powers():
    """`--powers 1 1` probes I1^1 against I2^1: the plain compare's results
    and exit code, with the powers echoed."""
    argv = ["compare", str(CORPUS / "codim1_pair.ideal"), "I1", "I2"]
    plain_code, plain = run_cli(argv)
    code, out = run_cli(argv + ["--powers", "1", "1"])
    assert code == plain_code
    assert json.loads(out)["results"] == {**json.loads(plain)["results"], "powers": ["1", "1"]}


def test_report_values_render_exactly():
    assert _exact({"n": (3, Fraction(1, 2)), "holds": True, "witness": None}) == {
        "n": ["3", "1/2"], "holds": True, "witness": None,
    }
    with pytest.raises(TypeError, match="not an exact report value"):
        _exact({"e": [1, 0.5]})


def test_mixed_command(tmp_path):
    code, out = run_cli(["mixed", str(CORPUS / "codim1_pair.ideal"), "I1", "I2",
                         "2", "1", "1"])
    assert code == 0
    assert json.loads(out)["results"]["value"] == "0"


def test_timing_flag_adds_field():
    argv = ["surface", str(CORPUS / "surface_a1.ideal")]
    _, plain = run_cli(argv)
    _, timed = run_cli(argv + ["--timing"])
    assert "timing_ms" not in json.loads(plain)
    assert "timing_ms" in json.loads(timed)


def test_document_options_respected(tmp_path):
    doc = tmp_path / "seeded.ideal"
    doc.write_text("ring x, y; ideal I = x, y;\n[options]\nseed = 4242\n")
    _, out = run_cli(["segre", str(doc), "I"])
    report = json.loads(out)
    assert report["options"]["seed"] == "4242"


def test_cli_flag_overrides_document_option(tmp_path):
    doc = tmp_path / "seeded.ideal"
    doc.write_text("ring x, y; ideal I = x, y;\n[options]\nseed = 4242\n")
    _, out = run_cli(["segre", str(doc), "I", "--seed", "7"])
    assert json.loads(out)["options"]["seed"] == "7"


def test_options_layer_defaults_document_and_flags(tmp_path):
    """The seed comes from the default, the bound from [options] and the
    rounds from a flag; the echo lists them in the order seed, bound,
    rounds."""
    doc = tmp_path / "layered.ideal"
    doc.write_text("ring x, y; ideal I = x, y;\n[options]\nbound = 31\n")
    _, out = run_cli(["segre", str(doc), "I", "--rounds", "3"])
    options = json.loads(out)["options"]
    assert list(options.items()) == [
        ("seed", str(GenericityConfig().seed)), ("bound", "31"), ("rounds", "3")]


def test_option_names_are_config_fields():
    """The parser accepts exactly the options the CLI maps, and each sets
    a GenericityConfig field."""
    assert _OPTION_KEYS == set(cli._OPTION_FIELDS)
    assert set(cli._OPTION_FIELDS.values()) <= {f.name for f in fields(GenericityConfig)}


@pytest.mark.parametrize("argv, message", [
    (["I", "Z", "2", "2", "0"], "the zero ideal has dense co-support"),
    (["Z", "I", "2", "0", "2"], "the zero ideal has dense co-support"),
    (["I", "U", "2", "2", "0"], "the unit ideal has no Segre data"),
    (["I", "Z", "1", "1", "1"], "the zero ideal has dense co-support"),
], ids=["zero-boundary", "zero-boundary-swapped", "unit-boundary", "zero-interior"])
def test_mixed_refuses_a_partner_without_segre_data(tmp_path, capsys, argv, message):
    """A boundary number e_k^{k,0} is e_k(I1), and still the other ideal
    must have Segre data, as it must off the boundary."""
    doc = tmp_path / "plane.ideal"
    doc.write_text("ring x, y; ideal I = x, y; ideal Z = 0; ideal U = 1;")
    assert run_cli(["mixed", str(doc), *argv]) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parser_negative_cases():
    with pytest.raises(InputSyntaxError):
        parse_input("ring x; ideal I = x^-2;")
    with pytest.raises(InputSyntaxError):
        parse_input("ring x; ideal I = 1/0;")
    with pytest.raises(InputSyntaxError):
        parse_input("ring x, x; ideal I = x;")
    with pytest.raises(InputSyntaxError):
        parse_input("[nonsense]\n1 2\n")
    with pytest.raises(InputSyntaxError):
        parse_input("[surface]\n-2 1\nu = 1\nv = 1\nw = 1\n")  # non-square
    with pytest.raises(InputSyntaxError):
        parse_input("[options]\nwibble = 3\n")
    with pytest.raises(InputSyntaxError, match="duplicate ambient block"):
        parse_input(_CUSP + "ambient = x;\n")
    surface = "[surface]\n-2\nu = 1\nv = 1\nw = 1\n"
    repeats = [
        ("[options]\nseed = 1\nseed = 2\n", "duplicate option 'seed' at line 4"),
        ("[options]\nseed = 1\n[options]\nbound = 5\n", "duplicate \\[options\\] block at line 4"),
        (surface + "u = 2\n", "duplicate surface row 'u' at line 7"),
    ]
    for text, message in repeats:
        with pytest.raises(InputSyntaxError, match=message):
            parse_input(_CUSP + text)


@st.composite
def _section_blocks(draw):
    """A well-formed [surface] block and [options] block in any spelling
    the grammar allows, with the values written into them."""
    ints = st.integers(-10 ** 30, 10 ** 30)

    def pick(*choices):
        return draw(st.sampled_from(choices))

    def integer(n):
        return ("-" + pick("", " ") + str(-n)) if n < 0 else pick("", "+") + str(n)

    def numbers(values):
        return "".join(pick(" ", "  ", ",", ", ", " , ") * bool(i) + text
                       for i, text in enumerate(values))

    def line(body):
        comment = pick("", " ", "  # 0.5 1e3 [x]")
        return pick("", "  ") + body + comment + "\n" * draw(st.integers(1, 3))

    r = draw(st.integers(1, 3))
    matrix = tuple(tuple(draw(st.lists(ints, min_size=r, max_size=r))) for _ in range(r))
    keys = draw(st.permutations("uvw")) + pick([], ["c"])
    vectors = {key: draw(st.lists(st.tuples(ints, st.integers(1, 10 ** 6)), min_size=r, max_size=r))
               for key in keys}
    surface = [line(numbers([integer(a) for a in row])) for row in matrix]
    for key, vec in vectors.items():
        written = [integer(a) if b == 1 and pick(True, False)
                   else integer(a) + pick("/", " / ") + str(b) for a, b in vec]
        surface.insert(draw(st.integers(0, len(surface))),
                       line(key + pick("=", " = ", " =") + numbers(written)))
    options = draw(st.dictionaries(st.sampled_from(sorted(_OPTION_KEYS)), ints))
    items = [key + pick("=", " = ") + integer(value) for key, value in options.items()]
    cuts = [0, *sorted(draw(st.sets(st.integers(1, max(len(items) - 1, 1))))), len(items)]
    option_lines = [line(", ".join(items[a:b]) + pick("", ",")) for a, b in zip(cuts, cuts[1:])
                    if items[a:b]]
    blocks = [line(pick("[surface]", "[SURFACE]", "[ Surface ]")) + "".join(surface),
              line(pick("[options]", "[Options]")) + "".join(option_lines)]
    if pick(True, False):
        blocks.reverse()
    text = pick("", "# a comment\n", "ring x; ideal I = x;\n") + "".join(blocks)
    expected = {key: tuple(Fraction(a, b) for a, b in vec) for key, vec in vectors.items()}
    return text, matrix, expected, options


@settings(deadline=None)
@given(_section_blocks())
def test_sections_parse_to_the_values_written(block):
    text, matrix, vectors, options = block
    doc = parse_input(text)
    surface = doc.surface
    assert surface.matrix == matrix
    assert (surface.u, surface.v, surface.w, surface.c) == (
        vectors["u"], vectors["v"], vectors["w"], vectors.get("c"))
    assert doc.options == options


_VECTOR_U = "[surface]\n-2\nu = {}\nv = 1\nw = 1\n"


@pytest.mark.parametrize("text, message, line, column", [
    (_VECTOR_U.format("0.5"), "unexpected character '.'", 3, 6),
    (_VECTOR_U.format("1e3"), "expected 'INT', found 'e3'", 3, 6),
    ("[options]\nseed = 1_000\n", "expected ',', found '_000'", 2, 9),
    ("[options]\nbound = 1e3\n", "expected ',', found 'e3'", 2, 10),
    (_VECTOR_U.format("1/0"), "zero denominator", 3, 7),
    pytest.param("[options]\nseed = " + "9" * 5000 + "\n",
                 "integer literal of 5000 digits exceeds the limit", 2, 8, marks=needs_digit_limit),
    (_VECTOR_U.format("1e80000000"), "expected 'INT', found 'e80000000'", 3, 6),
    ("[options]\nseed = 1 rounds = 2\n", "expected ',', found 'rounds'", 2, 10),
    ("[surface]\n-2 1.\n", "unexpected character '.'", 2, 5),
    ("# header\n  [ surface ]\n-2 1\nu = 1\nv = 1\nw = 1\n",
     "intersection matrix must be square", 2, 3),
    (_VECTOR_U.format("1, 2"), "vector u has length 2, expected 1", 3, 1),
    ("[Surface]x\n", "unknown section [Surface]x", 1, 1),
], ids=["decimal", "exponent", "underscore", "option-exponent", "zero-denominator",
        "long-option", "huge-exponent", "missing-comma", "matrix-decimal", "block", "length",
        "header"])
def test_section_refusals_carry_line_and_column(text, message, line, column):
    with pytest.raises(InputSyntaxError, match=re.escape(message)) as err:
        parse_input(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_surface_with_an_exponent_literal_exits_1(tmp_path, capsys):
    """`1e80000000` is a number followed by a name, refused before any
    value is built."""
    doc = tmp_path / "exponent.ideal"
    doc.write_text("[surface]\n-2 1\n1 -2\nu = 1e80000000, 0\nv = 0, 1\nw = 1, 1\n")
    assert run_cli(["surface", str(doc)]) == (1, "")
    assert capsys.readouterr().err == "error: expected 'INT', found 'e80000000' at line 4, column 6\n"
