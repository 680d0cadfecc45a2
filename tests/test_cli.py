import argparse
import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsing import cli, listmod, modgb
from fsing.cli import _build_parser, run
from fsing.errors import FsingError, InternalConsistencyError
from fsing.modgb import DEFAULT_PAIR_LIMIT
from fsing.polyring import MAX_VARS

FSING = [sys.executable, "-m", "fsing.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        FSING + list(args), capture_output=True, text=True
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture
def tame_problem(tmp_path):
    path = tmp_path / "tame.json"
    path.write_text(json.dumps({
        "p": 3, "gamma": 1, "num_vars": 0, "rank": 1, "matrix": [["t"]],
    }))
    return str(path)


def test_froot(tmp_path):
    proc = run_cli("froot", "--gens", "x0^3", "--e", "1", "-p", "2", "--json")
    assert json.loads(proc.stdout) == {"generators": ["x0"]}


@pytest.mark.parametrize("gens, expected", [
    ("x0^3+x0^2*x1", "x0\n"),
    ("x0^2+x1^3;x0^3", "x0\nx1\n"),
    ("x0^2+x1^3,x0^3;x0^3,x1^2", "(x0, 0)\n(x1, 0)\n(0, x0)\n(0, x1)\n"),
])
def test_froot_with_repeated_root_vector(capsys, gens, expected):
    # each root repeats a coefficient vector: x0 comes from x0^2 and x0^3
    assert run(["froot", "--gens", gens, "--e", "1", "-p", "2"]) == 0
    assert capsys.readouterr().out == expected


def test_froot_vector_generators():
    proc = run_cli(
        "froot", "--gens", "x0^2,0;0,x0^2", "--e", "1", "-p", "2", "--json"
    )
    assert json.loads(proc.stdout) == {"generators": ["(x0, 0)", "(0, x0)"]}


def test_tau_fixed_level():
    proc = run_cli(
        "tau", "--f", "x0^3", "--alpha", "1/3", "--e", "3", "-p", "2", "--json"
    )
    assert json.loads(proc.stdout) == {"generators": ["x0"]}


def test_tau_stable():
    proc = run_cli("tau", "--f", "x0^3", "--alpha", "1/3", "-p", "2", "--json")
    assert json.loads(proc.stdout) == {"generators": ["x0"]}


def test_tau_at_a_large_prime():
    # the ascent multiplies by f^995 at p = 997: a base-p digit near p
    proc = run_cli("tau", "--f", "x0", "-p", "997", "--alpha", "995/996", check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_tau_rejects_float_alpha():
    proc = run_cli(
        "tau", "--f", "x0^2", "--alpha", "0.5", "-p", "3", check=False
    )
    assert proc.returncode == 1


def test_fjump():
    proc = run_cli("fjump", "--f", "x0^3", "-p", "2", "--e-max", "5", "--json")
    assert json.loads(proc.stdout) == {
        "exponents": [
            {"num": 1, "den": 3},
            {"num": 2, "den": 3},
            {"num": 1, "den": 1},
        ]
    }


def test_bfun_tame_end_to_end(tame_problem):
    proc = run_cli("bfun", "--input", tame_problem, "--e-max", "5", "--json")
    report = json.loads(proc.stdout)
    assert report["roots"] == [{"den": 2, "num": 1}]
    assert report["shift_N"] == 0
    assert report["unresolved"] == []
    assert report["s_sets"]["0"] == [{"den": 3, "num": 1}]


def test_sset(tame_problem):
    proc = run_cli("sset", "--input", tame_problem, "--e", "1", "--json")
    assert json.loads(proc.stdout) == {"e": 1, "s_set": [{"den": 9, "num": 4}]}


def test_jumps(tame_problem):
    proc = run_cli("jumps", "--input", tame_problem, "--e-max", "3", "--json")
    report = json.loads(proc.stdout)
    assert report["estimates"] == [{"den": 2, "num": 1}]
    assert report["chains"][0]["resolved"] is True


def test_hexpand(tame_problem):
    proc = run_cli("hexpand", "--input", tame_problem, "--e", "2", "--json")
    assert json.loads(proc.stdout) == {
        "e": 2, "tau_bound": 0, "table": {"4": [["1"]]},
    }


def test_graphgen_roundtrip(tmp_path):
    proc = run_cli("graphgen", "--f", "x0^2", "-p", "3")
    problem = json.loads(proc.stdout)
    assert problem["matrix"] == [["x0^4 + x0^2*t + t^2"]]
    path = tmp_path / "graph.json"
    path.write_text(proc.stdout)
    report = json.loads(
        run_cli("bfun", "--input", str(path), "--e-max", "3", "--json").stdout
    )
    assert {"num": 1, "den": 2} in report["roots"]

    # same answer through the library composition
    from fsing.bfun import b_function, graph_generator
    from fsing.polyring import CharConfig, Ring, poly_parse

    cfg = CharConfig(3)
    res = b_function(graph_generator(poly_parse("x0^2", Ring(3, 1)), cfg), cfg, 3)
    assert [{"num": r.numerator, "den": r.denominator} for r in res.roots] == (
        report["roots"]
    )


def test_byte_determinism(tame_problem):
    args = ["bfun", "--input", tame_problem, "--e-max", "4", "--json"]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_text_mode(tame_problem):
    proc = run_cli("bfun", "--input", tame_problem, "--e-max", "3")
    assert "roots: 1/2" in proc.stdout


def test_unknown_subcommand():
    assert run_cli("nonsense", check=False).returncode == 1


def test_malformed_problem_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 3}')
    proc = run_cli("sset", "--input", str(path), "--e", "0", check=False)
    assert proc.returncode == 1
    assert "gamma" in proc.stderr


def test_unparsable_polynomial():
    proc = run_cli("tau", "--f", "x0 - 1", "--alpha", "1/2", "-p", "3", check=False)
    assert proc.returncode == 1


def test_pair_limit_exit_code():
    proc = run_cli(
        "froot", "--gens", "x0^4;x0^2*x1^2 + x1^4", "--e", "1", "-p", "2",
        "--limit-pairs", "1", check=False,
    )
    assert proc.returncode == 2


def test_pair_limit_applies_to_one_call(capsys):
    code = run([
        "froot", "--gens", "x0^4;x0^2*x1^2 + x1^4", "--e", "1", "-p", "2",
        "--limit-pairs", "1",
    ])
    assert code == 2
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tau", "--f", "x0^2+x1^3", "-p", "2", "--alpha", "1/1000003"],
    ["tau", "--f", "x0^2+x1^3", "-p", "3", "--alpha", "99999999/100000000"],
])
def test_long_period_exit_code(capsys, argv):
    # a stable alpha whose period passes testideal.MAX_PERIOD is a resource limit
    assert run(argv) == 2
    assert "exceeds the cap of 1000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tau", "--f", "x0^2+x1^3", "-p", "2", "--alpha", "1/3", "--e", "1001"],
    ["tau", "--f", "x0^2+x1^3", "-p", "2", "--alpha", f"1/{2**1001}"],
    ["fjump", "--f", "x0^2+x1^3", "-p", "2", "--e-max", "1001"],
])
def test_deep_level_exit_code(capsys, argv):
    # a root of more levels than frobenius.MAX_LEVEL is a resource limit
    assert run(argv) == 2
    assert "exceeds the level cap of 1000" in capsys.readouterr().err


@pytest.fixture
def cusp_graph(tmp_path, capsys):
    """The problem file of the cusp's graph generator at p = 3: A(t) has 6 terms."""
    assert run(["graphgen", "--f", "x0^2+x1^3", "-p", "3"]) == 0
    path = tmp_path / "cusp3.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (["sset", "--e", "1001"], "the list level e = 1001 exceeds the level cap of 1000"),
    (["jumps", "--e-max", "1001"], "e_max = 1001 exceeds the level cap of 1000"),
    (["bfun", "--e-max", "1001"], "e_max = 1001 exceeds the level cap of 1000"),
    (["hexpand", "--e", "1001"], "the expansion level e = 1001 exceeds the level cap of 1000"),
    # A^9 has at most 6^10 terms; the product is never formed
    (["hexpand", "--e", "10"], "A^9 may reach 6^10 terms, past the cap of 100000"),
], ids=["sset", "jumps", "bfun", "hexpand-level", "hexpand-terms"])
def test_list_caps_exit_code(capsys, cusp_graph, argv, message):
    # without the caps, jumps --e-max 30000 took 17 s and hexpand --e 10 over 30 s
    start = time.perf_counter()
    assert run(argv[:1] + ["--input", cusp_graph] + argv[1:]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"fsing: resource limit: {message}\n"


@pytest.mark.parametrize("argv", [
    # (10^9 + 7)(10^9 + 9): trial division to its square root hung
    ["tau", "--f", "x0", "-p", "1000000016000000063", "--alpha", "1/2"],
    ["fjump", "--f", "x0", "-p", str(2**31 + 11), "--e-max", "1"],
])
def test_huge_characteristic_exit_code(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert f"exceeds the cap of {2**31 - 1}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["froot", "--gens", "x0^3;x0^2+x0*x1", "--e", "1", "-p", "2"],
    ["tau", "--f", "x0^2+x1^3", "--alpha", "1/4", "-p", "3"],
    ["tau", "--f", "x0^2+x1^3", "--alpha", "5/6", "-p", "3", "--e", "2"],
    ["fjump", "--f", "x0^2+x1^3", "-p", "2", "--e-max", "3"],
    ["sset", "--input", "INPUT", "--e", "1"],
    ["jumps", "--input", "INPUT", "--e-max", "3"],
    ["bfun", "--input", "INPUT", "--e-max", "3"],
], ids=["froot", "tau", "tau-e", "fjump", "sset", "jumps", "bfun"])
def test_limit_pairs_reaches_every_buchberger_run(monkeypatch, capsys, tame_problem, command):
    # recorded at the one basis entry point: a term-generated module never
    # reaches `_buchberger`, but its basis is computed under the same cap
    caps = []
    basis = modgb._basis

    def recording(flats, p, cap):
        caps.append(cap)
        return basis(flats, p, cap)

    monkeypatch.setattr(modgb, "_basis", recording)
    argv = [tame_problem if arg == "INPUT" else arg for arg in command]
    assert run(argv + ["--limit-pairs", "7"]) == 0
    assert caps and set(caps) == {7}
    caps.clear()
    assert run(argv) == 0
    assert caps and set(caps) == {DEFAULT_PAIR_LIMIT}


@pytest.mark.parametrize("command", [
    ["hexpand", "--e", "2"],
    ["sset", "--e", "1"],
    ["bfun", "--e-max", "3"],
])
def test_internal_error_exit_code(monkeypatch, capsys, tame_problem, command):
    # hexpand checks its H-family; sset and bfun check the digit slices of the walk
    if command[0] == "hexpand":
        check, message = "_validate_family", "reassembly of H^2 does not reproduce A^1"
    else:
        check, message = "_digit_slices", "a Frobenius-root state exceeds the tau-degree bound 0"

    def broken(*args):
        raise InternalConsistencyError(message)

    monkeypatch.setattr(listmod, check, broken)
    code = run(command[:1] + ["--input", tame_problem] + command[1:])
    assert code == 3
    assert capsys.readouterr().err == f"fsing: internal error: {message}\n"


def test_hexpand_list_and_matrix_forms_agree(tmp_path, tame_problem):
    # t at q = 3 is the list entry A_{0,1} = 1
    path = tmp_path / "tame_list.json"
    path.write_text(json.dumps({
        "p": 3, "gamma": 1, "num_vars": 0, "rank": 1,
        "list": [{"k": 0, "n": 1, "matrix": [["1"]]}],
    }))
    for command in (
        ["hexpand", "--e", "2"], ["sset", "--e", "2"], ["jumps", "--e-max", "3"],
        ["bfun", "--e-max", "3"],
    ):
        from_list = run_cli(command[0], "--input", str(path), *command[1:], "--json")
        from_matrix = run_cli(command[0], "--input", tame_problem, *command[1:], "--json")
        assert from_list.stdout == from_matrix.stdout


@pytest.mark.parametrize("command", [
    "froot", "tau", "fjump", "hexpand", "sset", "jumps", "bfun", "graphgen",
])
def test_help_describes_limit_pairs(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--limit-pairs LIMIT_PAIRS cap on the Groebner S-pair queue" in out


def all_commands(problem):
    return [
        ["froot", "--gens", "x0^3", "--e", "1", "-p", "2", "--json"],
        ["tau", "--f", "x0^3", "--alpha", "1/3", "-p", "2", "--json"],
        ["fjump", "--f", "x0^3", "-p", "2", "--e-max", "3", "--json"],
        ["hexpand", "--input", problem, "--e", "2", "--json"],
        ["sset", "--input", problem, "--e", "1", "--json"],
        ["jumps", "--input", problem, "--e-max", "3", "--json"],
        ["bfun", "--input", problem, "--e-max", "3", "--json"],
        ["graphgen", "--f", "x0^2", "-p", "3"],
    ]


def test_parser_is_built_once(capsys, tame_problem):
    _build_parser.cache_clear()
    commands = all_commands(tame_problem)
    for i in range(20):
        assert run(commands[i % len(commands)]) == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 19)


def exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


TAU = ["tau", "--f", "x0^2+x1^3", "--alpha", "5/6", "-p", "3", "--json"]
FROOT = ["froot", "--gens", "x0^4;x0^2*x1^2 + x1^4", "--e", "1", "-p", "2"]


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["bogus"],
    ["tau", "--help"],
    ["tau"],
    TAU + ["--bogus"],
    ["fjump", "--f", "x0^2+x1^3", "-p", "2", "--e", "2"],
    ["tau", "--f", "x0^3", "--alpha=1/3", "-p", "2"],
], ids=["empty", "help", "bogus", "tau-help", "tau-bare", "tau-bogus", "prefix", "equals"])
def test_subcommand_dispatch_matches_the_full_parser(monkeypatch, capsys, argv):
    # argv the flag reader declines reaches the full parser: stdout, stderr
    # and the exit code are those of parsing with the full parser alone
    dispatched = (exit_code(argv), *capsys.readouterr())
    parser = _build_parser()[0]
    monkeypatch.setattr(cli, "_parse", parser.parse_args)
    assert (exit_code(argv), *capsys.readouterr()) == dispatched


def parse_outcome(parse, argv):
    """(Namespace or exit code, stdout, stderr) of parsing argv with `parse`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# values of every kind: good and bad for int, rational and text flags, and
# ones argparse reads by rules the flag reader leaves to it
VALUES = ["2", "0", "1/3", "x0^2+x1^3", " 3", "٣", "1_0", "", "0.5", "5/0", "x", "a b",
          "-1", "-p", "--json", "-x0 + 1", "--"]


def subparser(command):
    parser = _build_parser()[0]
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@st.composite
def command_lines(draw, command):
    """argv for `command` drawn from its own option strings: required flags
    mostly present, any flag repeated or missing its value, abbreviations,
    '--opt=value', '--', '-h' and stray values, in any order."""
    sub = subparser(command)
    options = sorted(opt for action in sub._actions for opt in action.option_strings)
    longs = [opt for opt in options if opt.startswith("--")]
    values = st.one_of(st.just("2"), st.sampled_from(VALUES))
    items = [
        [opt, draw(values)]
        for action in sub._actions if action.required and draw(st.integers(0, 9))
        for opt in [draw(st.sampled_from(action.option_strings))]
    ]
    items += draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(options), values).map(list),
        st.sampled_from(options).map(lambda opt: [opt]),
        st.tuples(st.sampled_from(longs), values).map(lambda ov: ["=".join(ov)]),
        st.sampled_from(sorted({opt[:k] for opt in longs for k in range(3, len(opt))})).map(
            lambda prefix: [prefix, "2"]
        ),
        st.sampled_from(["--", "--bogus", "-h", "x0"]).map(lambda junk: [junk]),
    ), max_size=4))
    return [command] + [arg for item in draw(st.permutations(items)) for arg in item]


COMMANDS = ["froot", "tau", "fjump", "hexpand", "sset", "jumps", "bfun", "graphgen"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_flag_reader_matches_argparse(command, data):
    # the argv the reader takes must parse to argparse's Namespace, and the
    # rest must reach argparse: the same Namespace, or the same exit code,
    # stdout and stderr, as parsing with the full parser alone
    argv = data.draw(command_lines(command))
    parser, tables = _build_parser()
    expected = parse_outcome(parser.parse_args, argv)
    assert parse_outcome(cli._parse, argv) == expected
    read = cli._read(tables[command], argv[1:])
    if read is not None:
        read.command = command
        assert (read, "", "") == expected


def test_subcommand_call_skips_the_full_parser(monkeypatch, capsys):
    parser = _build_parser()[0]

    def refused(argv):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(parser, "parse_args", refused)
    assert run(TAU) == 0
    assert capsys.readouterr().out == run_cli(*TAU).stdout


@pytest.mark.parametrize("failing, code, following", [
    (TAU + ["--bogus"], 1, TAU),
    (["tau", "--f", "x0 - 1", "--alpha", "1/2", "-p", "3"], 1, TAU),
    (FROOT + ["--limit-pairs", "1"], 2, FROOT),
])
def test_call_after_a_failure_matches_a_fresh_process(capsys, failing, code, following):
    assert exit_code(failing) == code
    capsys.readouterr()
    assert run(following) == 0
    assert capsys.readouterr().out == run_cli(*following).stdout


def test_parser_writes_to_the_current_streams(capsys):
    # the first calls build the parser under other streams; later calls
    # must still write to the streams current at call time
    _build_parser.cache_clear()
    first_out, first_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(first_out), contextlib.redirect_stderr(first_err):
        assert exit_code(["tau", "--help"]) == 0
        assert exit_code(["tau"]) == 1
    help_text, usage_error = first_out.getvalue(), first_err.getvalue()
    assert "--alpha" in help_text
    assert "error: the following arguments are required" in usage_error
    assert exit_code(["tau", "--help"]) == 0
    assert capsys.readouterr() == (help_text, "")
    assert exit_code(["tau"]) == 1
    assert capsys.readouterr() == ("", usage_error)
    assert (first_out.getvalue(), first_err.getvalue()) == (help_text, usage_error)
    assert _build_parser.cache_info().misses == 1


def test_defaults_do_not_carry_over(capsys):
    # at p = 2 the cusp's level-2 ideal at 1/3 is (x0, x1); the stable one is 1
    tau = ["tau", "--f", "x0^2+x1^3", "--alpha", "1/3", "-p", "2", "--json"]
    assert run(tau + ["--e", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"generators": ["x0", "x1"]}
    assert run(tau) == 0
    assert json.loads(capsys.readouterr().out) == {"generators": ["1"]}


REIMPORT_PROBE = """
import gc, importlib, json, sys, weakref
cli = importlib.import_module("fsing.cli")
assert cli.run(["tau", "--f", "x0^3", "--alpha", "1/3", "-p", "2"]) == 0
first = {
    "modgb.Submodule": weakref.ref(sys.modules["fsing.modgb"].Submodule),
    "polyring.Poly": weakref.ref(sys.modules["fsing.polyring"].Poly),
    "cli": weakref.ref(cli),
}
del cli
for name in [n for n in sys.modules if n == "fsing" or n.startswith("fsing.")]:
    del sys.modules[name]
importlib.import_module("fsing.cli")
gc.collect()
print(json.dumps(sorted(name for name, ref in first.items() if ref() is not None)))
"""


def test_reimport_frees_the_first_copy():
    # in a child process: purging fsing from sys.modules here would break
    # the isinstance checks of every later test
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("num_vars", [65, 100000])
def test_problem_file_num_vars_cap(capsys, tmp_path, num_vars):
    # every monomial holds num_vars exponents, so the count is capped before
    # any ring is built
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "p": 3, "gamma": 1, "num_vars": num_vars, "rank": 1, "matrix": [["x0 + t"]],
    }))
    assert run(["bfun", "--input", str(path), "--e-max", "2"]) == 1
    assert capsys.readouterr().err == (
        f"fsing: error: field 'num_vars' exceeds the cap of {MAX_VARS}\n"
    )


@pytest.mark.parametrize("argv", [
    ["tau", "--f", "x0", "--alpha", "1/2", "-p", "2", "--num-vars", "65"],
    ["fjump", "--f", "x0", "-p", "2", "--e-max", "1", "--num-vars", "100000"],
    ["froot", "--gens", "x64", "--e", "1", "-p", "2"],
    ["graphgen", "--f", "x99999", "-p", "3"],
])
def test_command_line_num_vars_cap(capsys, argv):
    assert run(argv) == 1
    count = argv[-1] if "--num-vars" in argv else int(argv[2][1:]) + 1
    assert capsys.readouterr().err == (
        f"fsing: error: {count} ring variables exceed the cap of {MAX_VARS}\n"
    )


def test_num_vars_at_the_cap(capsys):
    assert run(["froot", "--gens", "x63^2", "--e", "1", "-p", "2"]) == 0
    assert capsys.readouterr().out == "x63\n"


@pytest.mark.parametrize("argv, message", [
    (["tau", "--f", "x²", "--alpha", "1/2", "-p", "3"], "unexpected character '²' (at position 1)"),
    (["tau", "--f", "x٣", "--alpha", "1/2", "-p", "3"], "unexpected character '٣' (at position 1)"),
    (["fjump", "--f", "2²*x0", "-p", "3", "--e-max", "1"],
     "unexpected character '²' (at position 1)"),
], ids=["superscript", "arabic-indic-index", "superscript-coefficient"])
def test_non_ascii_polynomial_is_a_parse_error(capsys, argv, message):
    # the digit runs of the grammar and of the variable count are ASCII
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"fsing: error: {message}\n")


def test_integer_past_digit_limit_is_a_typed_error(capsys):
    # int() refuses more than 4300 digits with a bare ValueError; the
    # variable count and the parser give an FsingError
    with pytest.raises(FsingError, match="variable index is too long"):
        cli._infer_num_vars(["x" + "9" * 5000], None)
    assert run(["tau", "--f", "x0^" + "9" * 5000, "--alpha", "1/3", "-p", "2"]) == 1
    assert capsys.readouterr() == (
        "", "fsing: error: integer of 5000 digits is too long (at position 3)\n"
    )


def test_non_ascii_alpha_is_a_usage_error(capsys):
    assert exit_code(["tau", "--f", "x0", "--alpha", "٣/4", "-p", "3"]) == 1
    assert capsys.readouterr().err.endswith(
        "fsing tau: error: argument --alpha: expected an exact rational 'num' or"
        " 'num/den', got '٣/4'\n"
    )


TEN_TO_400 = str(10**400)
GAMMA_40 = {"p": 2, "gamma": 40, "num_vars": 2, "rank": 1, "matrix": [["x0^2 + t"]]}


@pytest.mark.parametrize("argv, code", [
    # f^(10^400) is one product per binary digit of 10^400, 1329 in all
    (["tau", "--f", "x0", "-p", "2", "--alpha", TEN_TO_400], 0),
    (["tau", "--f", "x0", "-p", "2", "--alpha", TEN_TO_400, "--e", "1"], 0),
    # (x0 + x1)^(10^400) would have 2^476 terms: the power's term cap
    (["tau", "--f", "x0+x1", "-p", "2", "--alpha", TEN_TO_400], 2),
    # q = p^gamma past the cap of p
    (["tau", "--f", "x0^2+x1^3", "-p", "2", "--gamma", "1000", "--alpha", "1/3"], 1),
    (["fjump", "--f", "x0^2+x1^3", "-p", "2", "--gamma", "1000", "--e-max", "1"], 1),
    (["sset", "--input", "GAMMA_40", "--e", "1"], 1),
    (["bfun", "--input", "GAMMA_40", "--e-max", "3"], 1),
    # q = 2^30 passes the q cap; (x0^2 - t)^(q-1) would have 2^30 terms
    (["graphgen", "--f", "x0^2", "-p", "2", "--gamma", "30"], 2),
    (["froot", "--gens", "x0^3", "-p", "2", "--e", "1000000000"], 2),
], ids=[
    "alpha-10^400", "alpha-10^400-e1", "alpha-10^400-binomial", "tau-gamma-1000",
    "fjump-gamma-1000", "sset-gamma-40", "bfun-gamma-40", "graphgen-gamma-30", "froot-deep-e",
])
def test_hostile_inputs_exit_at_once(tmp_path, argv, code):
    # each of these raised RecursionError, hung or ran past 5 s before its cap
    path = tmp_path / "gamma40.json"
    path.write_text(json.dumps(GAMMA_40))
    argv = [str(path) if arg == "GAMMA_40" else arg for arg in argv]
    proc = subprocess.run(FSING + argv, capture_output=True, text=True, timeout=1.0)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout == f"x0^{TEN_TO_400}\n"
    else:
        assert proc.stderr.startswith("fsing: resource limit: " if code == 2 else "fsing: error: ")
