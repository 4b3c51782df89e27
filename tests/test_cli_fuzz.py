"""Fuzz of the CLI's exit codes: random argv over every subcommand, with
malformed JSON inputs and unwritable output paths among the choices.  Every
run must exit 0, 1 or 2; an exception escaping `main` fails the test.
Derandomized, so every run draws the same examples."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from egb.cli import main

import test_cli

# well-formed inputs, one per kind of JSON file the CLI reads
TEMPLATES = {
    "complex": test_cli.TestMalformedMatrices.COMPLEX,
    "module": test_cli.TestMalformedMatrices.MODULE,
    "spread": test_cli.TestMissingFields.SPREAD,
    "tuples": {"tuples": [{"action": "0"}, {"action": "8", "degree": 1}]},
    "barcode": [{"birth": "0", "death": "1", "mult": 2, "degree": 0},
                {"birth": "1/2", "death": "inf"}],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats(-5, 5)
    | st.sampled_from(["0", "1/2", "-3", "inf", "1/0", "x", "", "01"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["action", "degree", "birth", "death", "p", "field", "cyclotomic"]),
        inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def json_text(draw, kind: str) -> str:
    """The template of `kind`, one part of it dropped or replaced by random
    JSON, or text that is not JSON at all."""
    doc = copy.deepcopy(TEMPLATES[kind])
    how = draw(st.sampled_from(["keep", "replace", "drop", "garbage"]))
    if how == "garbage":
        return draw(st.sampled_from(["", "{", "[1,", "nul", "\x00", "[" * 100000]))
    path = draw(st.sampled_from(list(_paths(doc))))
    if how == "keep":
        return json.dumps(doc)
    if not path:
        return json.dumps(draw(json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


def options(draw, choices: dict) -> list[str]:
    """Some of the options in `choices`, each with one of its values."""
    argv = []
    for flag, values in choices.items():
        if draw(st.booleans()):
            argv.append(flag)
            if values:
                argv.append(draw(st.sampled_from(values)))
    return argv


RATIONALS = ["840", "1/2", "0", "-1", "x", "1/0", "auto", ""]
COEFFICIENTS = ["1/2,1/3", "1/5,1/7", "1/2", "0,1/2", "2,1/3", "1/2,x", "", "1/2,1/3,1/5"]


@st.composite
def argv(draw, tmp: Path) -> list[str]:
    outs = [str(tmp / "out"), str(tmp / "in.json" / "out"), str(tmp / "missing" / "out"), ""]
    command = draw(st.sampled_from(
        ["eggbeater", "eggbeater-2d", "barcode", "spread", "bounds", "freegroup", "nope"]))

    # In 3 examples of 4 a command that reads a file draws only what gets
    # past its options and operands: well-formed values, the right operand
    # count and a file that exists, so more examples reach the JSON parsers.
    tidy = draw(st.sampled_from([True, True, True, False]))
    written = []

    def input_file(kind: str) -> str:
        """A drawn input in a file of its own, or (untidy only) a missing file."""
        path = tmp / f"in{len(written)}.json"
        written.append(path)
        path.write_text(draw(json_text(kind)))
        return str(path) if tidy else draw(
            st.sampled_from([str(path)] * 3 + [str(tmp / "absent.json")]))

    if command == "eggbeater":
        rest = options(draw, {
            "--p": ["1", "2", "3", "0", "-1", "x"], "--L": ["4", "5", "0", "x"],
            "--mu": COEFFICIENTS, "--nu": COEFFICIENTS, "--fixture": None,
            "--lambda": RATIONALS, "--count": ["0", "1", "2", "-1", "x"], "--out": outs})
    elif command == "eggbeater-2d":
        rest = ["--mu", draw(st.sampled_from(["1/2", "1/3", "0", "x"])),
                "--nu", draw(st.sampled_from(["1/4", "2/3", "1/2", "1"])),
                "--lambda", draw(st.sampled_from(["160", "36", "0", "1/0"])),
                *options(draw, {"--L": ["4", "0"], "--format": ["json", "csv", "xml"],
                                "--out": outs})]
    elif command == "barcode":
        operands = {"decompose": 1, "bottleneck": 2, "mu": 1}
        sub = draw(st.sampled_from([*operands] if tidy else [*operands, "nope"]))
        kind = {"decompose": "complex", "mu": "module"}.get(sub, "barcode")
        count = operands[sub] if tidy else draw(st.integers(0, 2))
        files = [input_file(kind) for _ in range(count)]
        choices = {"--out": outs}
        if sub == "mu" or not tidy:
            choices["--zeta-index"] = ["1", "2", "0"] if tidy else ["1", "2", "0", "x"]
        rest = [sub, *files, *options(draw, choices)]
    elif command == "spread":
        rest = [input_file("spread"), *options(draw, {
            "--k": ["1", "2", "3"] if tidy else ["1", "2", "0", "x"], "--out": outs})]
    elif command == "bounds" and tidy:
        rest = ["--file", input_file("tuples"), *options(draw, {
            "--p": ["2", "3", "5"], "--k": ["1", "2"], "--epsilon-frac": ["1/100", "1/3"],
            "--stabilize": ["1,2,1", ""], "--svg": outs, "--out": outs})]
    elif command == "bounds":
        rest = options(draw, {
            "--p": ["2", "3", "5", "4", "1", "x"],
            "--lambda": RATIONALS, "--k": ["1", "2", "0", "x"],
            "--epsilon-frac": ["1/100", "0", "2", "x"], "--stabilize": ["1,2,1", "1,-1", "x", ""],
            "--svg": outs, "--out": outs})
        if draw(st.booleans()):  # the tuples file is drawn only when it is read
            rest += ["--file", input_file("tuples")]
    elif command == "freegroup":
        sub = draw(st.sampled_from(["reduce", "conjugate", "itinerary", "si", "nope"]))
        words = ["a b A", "a^2 b^-1", "q1 q2", "x", "", "V:A-A:3 H:A-A:2", "V:A-B", "2", "-1"]
        rest = [sub, *draw(st.lists(st.sampled_from(words), max_size=3)),
                *options(draw, {"--cyclic": None})]
    else:
        rest = draw(st.lists(st.sampled_from(["--help", "-x", "1"]), max_size=2))
    return [command, *rest]


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    """A directory shared by the examples; in.json is a regular file in it,
    which the drawn inputs (in0.json, in1.json) never overwrite."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "in.json").write_text("{}")
    return d


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_is_0_1_or_2(tmp, data):
    args = data.draw(argv(tmp))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code != 1 or "error:" in err.getvalue(), args
