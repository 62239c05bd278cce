import argparse
import ast
import contextlib
import functools
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import partlogic
from partlogic import parse
from partlogic.cli import MAX_EVAL_SIZE, _build_parser, main
from partlogic.suites import SUITES, CheckResult

from conftest import oracle_is_tautology, suite_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(partlogic.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestCheck:
    def test_counterexample_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "s \\/ ~s")
        assert code == 1
        assert "classical: tautology" in out
        assert "counterexample at n=3: s={{a,b},{c}}" in out

    def test_tautology_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "(s /\\ (s -> p)) -> p")
        assert code == 0
        assert "no counterexample up to n=4" in out

    # Decided at n=2, refuted at n=3, and unrefuted up to n=3.
    @pytest.mark.parametrize("text", ["s -> p", "0", "s \\/ ~s", "~~s -> s",
                                      "(s /\\ (s -> p)) -> p", "s -> s", "0 -> 0"])
    def test_classical_verdict_matches_the_truth_table(self, capsys, text):
        classical = oracle_is_tautology(parse(text))
        _, out, _ = run(capsys, "check", text, "--max-size", "3", "--format", "json")
        assert out == json.dumps({**json.loads(out), "classical": classical}) + "\n"
        _, out, _ = run(capsys, "check", text, "--max-size", "3")
        assert out.splitlines()[1] == f"classical: {'tautology' if classical else 'not a tautology'}"

    def test_the_budget_bounds_the_variables(self, capsys):
        # 2**21 truth-table rows fit the default budget, and the all-False
        # row is the first; 2**27 pass it.
        wide = " \\/ ".join(f"v{i}" for i in range(21))
        code, out, err = run(capsys, "check", wide, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out)["partition"] == {"status": "counterexample", "n": 2, "bound": 4,
                                                "assignment": {f"v{i}": "{{a,b}}" for i in range(21)}}
        code, _, err = run(capsys, "check", " \\/ ".join(f"v{i}" for i in range(27)))
        assert (code, err) == (2, "error: level n=2 needs 134217728 assignments, past the budget 100000000\n")

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "s \\/")
        assert code == 2
        assert "position 4" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "check", "s \\/ ~s", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["formula"] == "s \\/ ~s"
        assert report["classical"] is True
        assert report["partition"] == {
            "status": "counterexample",
            "n": 3,
            "assignment": {"s": "{{a,b},{c}}"},
            "bound": 4,
        }

    def test_json_no_counterexample(self, capsys):
        code, out, _ = run(capsys, "check", "s -> s", "--format", "json", "--max-size", "3")
        assert code == 0
        assert json.loads(out)["partition"] == {"status": "no_counterexample", "bound": 3}

    def test_stdin_formula(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("s -> s\n"))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0

    def test_budget_guard_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "s \\/ ~s \\/ p \\/ q", "--budget", "10", "--max-size", "3")
        assert code == 2
        assert "budget" in err

    def test_wide_tautology_passes_n2_and_exits_two_at_n3(self, capsys):
        # the truth table of 2**20 rows holds; the n=3 level is refused up front
        wide = " \\/ ".join(["(v0 \\/ ~v0)"] + [f"v{i}" for i in range(1, 20)])
        code, out, err = run(capsys, "check", wide)
        assert (code, out) == (2, "")
        assert err == f"error: level n=3 needs {5**20} assignments, past the budget {10**8}\n"

    def test_bad_flags_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "s", "--max-size", "1")
        assert (code, err) == (2, "error: --max-size must be at least 2\n")
        code, _, err = run(capsys, "check", "s", "--budget", "0")
        assert (code, err) == (2, "error: --budget must be positive\n")

    def test_no_jobs_flag(self, capsys):
        code, out, err = run(capsys, "check", "s", "--jobs", "2")
        assert (code, out) == (2, "")
        assert err.startswith("usage: partlogic ")
        assert err.endswith("partlogic: error: unrecognized arguments: --jobs 2\n")

    def test_closed_counterexample_binds_nothing(self, capsys):
        code, out, _ = run(capsys, "check", "0")
        assert (code, out.splitlines()[-1]) == (1, "partition: counterexample at n=2")
        _, out, _ = run(capsys, "check", "0", "--format", "json")
        assert out == ('{"formula": "0", "classical": false, "partition": '
                       '{"status": "counterexample", "n": 2, "assignment": {}, "bound": 4}}\n')

    def test_levels_past_the_budget_exit_two(self, capsys):
        # The levels up to --max-size are built in order and stop at the first
        # over the budget, so a million of them cost nothing.
        code, out, err = run(capsys, "check", "s -> (p -> s)", "--max-size", "1000000")
        assert (code, out) == (2, "")
        assert err == "error: level n=9 needs 447195609 assignments, past the budget 100000000\n"

    def test_closed_formula_at_a_large_max_size(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "1", "--max-size", "100000")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert "no counterexample up to n=100000" in out

    # Parsing, printing and compiling loop over explicit stacks, so depth
    # past the interpreter's recursion limit still gets a verdict.
    def test_deep_negation_gets_a_verdict(self, capsys):
        code, out, err = run(capsys, "check", "~" * 10**4 + "s")
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "partition: counterexample at n=2: s={{a,b}}"

    def test_long_implication_chain_gets_a_verdict(self, capsys):
        code, out, err = run(capsys, "check", " -> ".join(["s"] * 10**4))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "partition: no counterexample up to n=4"

    def test_deep_negation_on_stdin_in_a_fresh_process(self):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "partlogic.cli", "check", "-"], input="~" * 10**5 + "s\n",
                              capture_output=True, text=True, env=fresh_env(), timeout=60)
        assert time.perf_counter() - start < 30
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.splitlines()[-1] == "partition: counterexample at n=2: s={{a,b}}"


class TestEval:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "eval", "s -> p", "s={{a},{b,c,d}}", "p={{a,b},{c,d}}")
        assert code == 0
        assert out.strip() == "{{a,b},{c},{d}}"

    def test_join_of_lattice_middles(self, capsys):
        code, out, _ = run(capsys, "eval", "s \\/ p", "p={{a,b},{c}}", "s={{a},{b,c}}")
        assert code == 0
        assert out.strip() == "{{a},{b},{c}}"

    def test_constants_with_size(self, capsys):
        code, out, _ = run(capsys, "eval", "0 -> 0", "--size", "2")
        assert code == 0
        assert out.strip() == "{{a},{b}}"

    def test_size_below_one(self, capsys):
        for size in ("0", "-1"):
            code, out, err = run(capsys, "eval", "0 -> 0", "--size", size)
            assert (code, out) == (2, "")
            assert "--size" in err

    def test_size_bound(self, capsys):
        code, out, _ = run(capsys, "eval", "0 -> 0", "--size", str(MAX_EVAL_SIZE))
        assert code == 0 and out.count(",") == MAX_EVAL_SIZE - 1
        code, out, err = run(capsys, "eval", "0 -> 0", "--size", str(MAX_EVAL_SIZE + 1))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --size")

    def test_literal_size_bound(self, capsys):
        literal = "rgs:" + ",".join(map(str, range(MAX_EVAL_SIZE + 1)))
        code, out, err = run(capsys, "eval", "s /\\ s", f"s={literal}")
        assert (code, out) == (2, "")
        assert err == f"error: the bindings have {MAX_EVAL_SIZE + 1} elements, past the bound {MAX_EVAL_SIZE}\n"

    def test_meet_of_the_largest_universe(self, capsys):
        # The meet merges classes in near-linear time, so two discrete
        # partitions of the largest universe eval admits meet quickly.
        top = partlogic.format_partition(partlogic.Partition.discrete(MAX_EVAL_SIZE),
                                         partlogic.default_labels(MAX_EVAL_SIZE))
        assert run(capsys, "eval", "1 /\\ 1", "--size", str(MAX_EVAL_SIZE)) == (0, top + "\n", "")

    def test_deep_parentheses_get_a_value(self, capsys):
        depth = 10**5
        assert run(capsys, "eval", "(" * depth + "s" + ")" * depth, "s={{a}}") == (0, "{{a}}\n", "")

    def test_unbound_variable(self, capsys):
        code, _, err = run(capsys, "eval", "s -> p", "s={{a},{b}}")
        assert code == 2
        assert "unbound" in err
        code, _, err = run(capsys, "eval", "s -> p /\\ q", "s={{a},{b}}")
        assert (code, err) == (2, "error: unbound variables 'p', 'q'\n")

    def test_name_bound_twice(self, capsys):
        code, out, err = run(capsys, "eval", "s", "s={{a},{b}}", "s={{a,b}}")
        assert (code, out, err) == (2, "", "error: variable 's' is bound twice\n")

    def test_inconsistent_labels(self, capsys):
        code, _, err = run(capsys, "eval", "s \\/ p", "s={{a},{b}}", "p={{a},{c}}")
        assert code == 2
        assert "labels" in err

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "eval", "s", "s={{a},{b}}", "--size", "3")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["s", "s"], "binding 's' is not of the form name=partition"),
        (["s", "=x"], "binding '=x' is not of the form name=partition"),
        (["s", "s={{a}"], "bad partition literal for 's': expected '}' (at position 4) in partition literal"),
        (["s", "s=rgs:1"], "bad partition literal for 's': rgs is not in restricted-growth form at index 0"),
        (["0"], "a formula without bindings needs --size"),
    ])
    def test_malformed_arguments(self, capsys, argv, message):
        assert run(capsys, "eval", *argv) == (2, "", f"error: {message}\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", "s", "s={{a,b}}", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"formula": "s", "result": "{{a,b}}"}


class TestEnumerate:
    def test_text_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 5"
        assert lines[0].startswith("{{a,b,c}}")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--format", "json")
        data = json.loads(out)
        assert data["count"] == 15 and len(data["partitions"]) == 15

    def test_dot_diagram_shape(self, capsys):
        for n, bell, covers in ((3, 5, 6), (4, 15, 31), (5, 52, 160)):
            code, out, _ = run(capsys, "enumerate", str(n), "--format", "dot")
            assert code == 0
            nodes = [line for line in out.splitlines() if "label=" in line]
            edges = [line for line in out.splitlines() if "->" in line]
            assert len(nodes) == bell
            assert len(edges) == covers, f"n={n}"

    def test_guards(self, capsys):
        assert run(capsys, "enumerate", "11")[0] == 2
        assert run(capsys, "enumerate", "7", "--format", "dot")[0] == 2
        assert run(capsys, "enumerate", "0")[0] == 2


class TestTable:
    def test_join_table(self, capsys):
        code, out, _ = run(capsys, "table", "join", "2", "--format", "json")
        data = json.loads(out)
        assert data["partitions"] == ["{{a,b}}", "{{a},{b}}"]
        assert data["table"] == [[0, 1], [1, 1]]

    def test_implies_table_two_universe_is_classical(self, capsys):
        code, out, _ = run(capsys, "table", "implies", "2", "--format", "json")
        assert json.loads(out)["table"] == [[1, 1], [0, 1]]

    def test_guard(self, capsys):
        assert run(capsys, "table", "meet", "6")[0] == 2


class TestCore:
    def test_members_listed(self, capsys):
        code, out, _ = run(capsys, "core", "{{a,b},{c,d}}")
        assert code == 0
        assert "members (4):" in out
        assert "{} -> {{a,b},{c,d}}" in out
        assert "{0,1} -> {{a},{b},{c},{d}}" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "core", "{{a,b},{c}}", "--format", "json")
        data = json.loads(out)
        assert data["pi"] == "{{a,b},{c}}"
        assert data["non_singleton_blocks"] == ["{a,b}"]
        assert [m["member"] for m in data["members"]] == ["{{a,b},{c}}", "{{a},{b},{c}}"]

    def test_bad_literal(self, capsys):
        assert run(capsys, "core", "{{a,a}}")[0] == 2

    def test_member_bound(self, capsys):
        fifteen_pairs = "rgs:" + ",".join(str(u // 2) for u in range(30))
        code, out, err = run(capsys, "core", fifteen_pairs, "--format", "json")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: core would have 2**15 members of 30 elements, past the bound of 524288 entries"
        ]

    def test_entry_bound(self, capsys):
        # 14 blocks fit the entry bound over at most 32 elements, not over 400.
        long_tail = "rgs:" + ",".join(str(u // 2 if u < 28 else u - 14) for u in range(400))
        code, out, err = run(capsys, "core", long_tail)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: core would have 2**14 members of 400 elements, past the bound of 524288 entries"]


class TestSuite:
    @pytest.fixture(autouse=True)
    def shared_suite_runs(self, monkeypatch):
        # The acceptance battery runs the same suites; share one run of each.
        for name in SUITES:
            monkeypatch.setitem(SUITES, name, functools.partial(suite_checks, name))

    @pytest.mark.parametrize("name", ["figure3", "common-dits", "boolean-core", "identities"])
    def test_suites_pass(self, capsys, name):
        code, out, _ = run(capsys, "suite", name)
        assert code == 0
        assert "FAIL" not in out

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "suite", "figure3", "--format", "json")
        data = json.loads(out)
        assert data["suite"] == "figure3" and data["passed"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_failed_check_exits_one_with_its_detail(self, capsys, monkeypatch):
        failing = (CheckResult("holds", True), CheckResult("breaks", False, "n=3: {{0},{1,2}}"))
        monkeypatch.setitem(SUITES, "figure3", lambda: failing)
        code, out, _ = run(capsys, "suite", "figure3")
        assert code == 1
        assert "FAIL breaks  (n=3: {{0},{1,2}})" in out
        assert out.strip().splitlines()[-1] == "suite figure3: 1/2 checks passed"

    def test_unexpected_exception_exits_two_on_one_line(self, capsys, monkeypatch):
        def boom():
            raise RuntimeError("boom\n  detail")

        monkeypatch.setitem(SUITES, "figure3", boom)
        assert run(capsys, "suite", "figure3") == (2, "", "error: RuntimeError: boom detail\n")

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "suite", "nonsense")
        assert (code, out) == (2, "")
        assert err.startswith("usage: partlogic suite ")
        assert "error: argument name: invalid choice: 'nonsense'" in err


# Every sub-command, each format beside the text default, eval with and
# without bindings, check flags beside their defaults, and a usage error.
MIXED_ARGVS = [
    ["check", "s \\/ ~s"],
    ["check", "s -> p", "--max-size", "3", "--budget", "1000", "--format", "json"],
    ["check", "s", "--max-size", "1"],
    ["eval", "s -> p", "s={{a},{b,c,d}}", "p={{a,b},{c,d}}"],
    ["eval", "0 -> 0", "--size", "3", "--format", "json"],
    ["table", "implies", "2"],
    ["table", "join", "2", "--format", "json"],
    ["enumerate", "3"],
    ["enumerate", "3", "--format", "dot"],
    ["core", "{{a,b},{c,d}}", "--format", "json"],
    ["suite", "figure3"],
    ["table", "nonsense", "2"],
]


def readme_examples() -> list:
    """Each ``partlogic`` line of README's "Command line" block: its argv, exit code and quoted output.

    A comment ``exit N: text`` states the exit code and quotes ``text``;
    a comment that is a partition literal quotes it with exit 0; any
    other comment describes the output and states exit 0.
    """
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if not line.startswith("partlogic "):
            continue
        command, _, comment = line.partition("#")
        code, text = re.fullmatch(r"\s*(?:exit (\d+): )?(.*?)\s*", comment).groups()
        quoted = text if code or text.startswith("{") else ""
        argv = shlex.split(command)[1:]
        examples.append(pytest.param(argv, int(code or 0), quoted, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, code, quoted", readme_examples())
def test_readme_example(capsys, argv, code, quoted):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert quoted in out


@pytest.mark.parametrize("argv", [["table", "join", "0"], ["table", "meet", "-3"],
                                  ["enumerate", "-1", "--format", "dot"]])
def test_universe_below_one_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, code", [(["check", "s -> p", "--format", "json"], 1),
                                        (["eval", "s -> p", "s={{a},{b}}", "p={{a,b}}"], 0)])
def test_each_command_compiles_its_formula_once(capsys, monkeypatch, argv, code):
    compile_ = partlogic.formula._compile
    calls = []
    monkeypatch.setattr(partlogic.formula, "_compile", lambda f: calls.append(f) or compile_(f))
    assert (run(capsys, *argv)[0], len(calls)) == (code, 1)


def test_cli_imports_only_public_names():
    # The CLI stays on the package's public API, so no check is split
    # between it and the module that owns the data.
    tree = ast.parse(pathlib.Path(partlogic.cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("partlogic"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_package_imports_only_the_standard_library():
    # The package stays dependency-free: every import names a standard
    # library module or the package itself.
    allowed = sys.stdlib_module_names | {"partlogic"}
    paths = sorted(pathlib.Path(partlogic.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # Each CLI call is a fresh process; dataclasses and inspect cost it
    # ~10 ms, and logging alone ~9.5 ms.
    script = (
        "import sys\n"
        "def loaded(): return sorted({'dataclasses', 'inspect', 'logging'} & sys.modules.keys())\n"
        "import partlogic\n"
        "print(loaded())\n"
        "import partlogic.cli\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["[]", "[]"]


class TestOneParser:
    def test_main_builds_no_parser(self, capsys):
        init = argparse.ArgumentParser.__init__
        with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True, side_effect=init) as built:
            run(capsys, "check", "s -> s", "--max-size", "2")
            run(capsys, "eval", "s", "s={{a}}")
            assert built.call_count == 0
            _build_parser()
        assert built.call_count == 7  # the counter sees a parser and its six sub-parsers

    def test_commands_skip_the_top_level_parser(self, capsys):
        # A command's argv goes straight to that command's parser.
        parser = partlogic.cli._PARSER
        with mock.patch.object(parser, "parse_known_args", wraps=parser.parse_known_args) as top:
            codes = [run(capsys, *argv)[0] for argv in MIXED_ARGVS]
            assert top.call_count == 0
            run(capsys, "--help")
            assert top.call_count == 1
        assert codes == [1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2]

    @pytest.mark.parametrize("argv", [pytest.param(argv, id=" ".join(argv) or "(none)") for argv in [
        [], ["--help"], ["-h"], ["nonsense"], ["check"], ["check", "s", "--jobs", "2"],
        ["check", "s", "--max-size", "x"], ["check", "s", "-h"], ["suite", "nonsense"],
        ["--", "check", "s"], ["check", "--", "s"], *MIXED_ARGVS,
    ]])
    def test_dispatch_matches_argparse(self, capsys, monkeypatch, argv):
        # argparse's own path: the top-level parser scans the argv, hands the
        # command's words to its parser, and reports any leftovers itself.
        got = run(capsys, *argv)
        monkeypatch.setattr(partlogic.cli, "_parse_args", _build_parser()[0].parse_args)
        assert got == run(capsys, *argv)

    def test_outputs_do_not_depend_on_call_order(self, capsys):
        forward = [run(capsys, *argv) for argv in MIXED_ARGVS]
        backward = [run(capsys, *argv) for argv in reversed(MIXED_ARGVS)][::-1]
        for argv, first, second in zip(MIXED_ARGVS, forward, backward):
            assert first == second, argv
        assert [code for code, _, _ in forward] == [1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2]


class TestOneWriter:
    """Handlers return their exit code and text; ``main`` alone writes, and decides the code for every argv."""

    @pytest.mark.parametrize("argv", MIXED_ARGVS, ids=" ".join)
    def test_handlers_write_nothing(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        if err.startswith("usage:"):
            return  # argparse refused the argv before any handler ran
        args = _build_parser()[0].parse_args(argv)
        try:
            got = args.handler(args)
        except ValueError as exc:
            assert (code, out, err) == (2, "", f"error: {exc}\n")
        else:
            assert [type(v) for v in got] == [int, str]
            assert (code, out, err) == (got[0], got[1] + "\n", "")
        assert capsys.readouterr() == ("", "")

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: partlogic ")

    # The reader closes the pipe before the first write, as `| head -0` does.
    @pytest.mark.parametrize("argv, code", [
        pytest.param(argv, code, id=" ".join(argv)) for argv, code in [
            (["check", "s \\/ ~s", "--max-size", "3"], 1),
            (["check", "s -> s", "--format", "json"], 0),
            (["enumerate", "9"], 0),
            (["suite", "figure3", "--format", "json"], 0),
        ]
    ])
    def test_closed_stdout_keeps_the_verdict(self, argv, code):
        proc = subprocess.Popen([sys.executable, "-m", "partlogic.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=fresh_env())
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (code, "")

    # /dev/full fails every write with ENOSPC.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("stream, argv", [
        ("stdout", ["check", "s -> s"]),
        ("stdout", ["check", "s"]),
        ("stderr", ["check", "("]),
        ("stderr", ["check", "s", "--max-size", "1"]),
    ])
    def test_failed_write_exits_two(self, stream, argv):
        # Buffered streams, as by default: the flush at exit writes what a failed write left behind.
        env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: full}
            proc = subprocess.run([sys.executable, "-m", "partlogic.cli", *argv], text=True, env=env,
                                  timeout=60, **streams)
        if stream == "stdout":
            assert (proc.returncode, proc.stderr.count("\n")) == (2, 1)
            assert proc.stderr.startswith("error: cannot write the output: [Errno 28] ")
        else:
            assert (proc.returncode, proc.stdout) == (2, "")


formula_texts = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="spq01~()&|\\/-> ", max_size=24),
)


@settings(deadline=None, max_examples=150)
@given(formula_texts)
def test_random_text_exits_zero_one_or_two(text):
    for argv in (["check", text, "--max-size", "3", "--budget", "10000"], ["eval", text, "--size", "3"]):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), mock.patch("sys.stdin", io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, sink.getvalue())
