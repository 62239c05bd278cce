"""Command-line front-end.

Exit codes are the machine contract: 0 means pass or no counterexample,
1 means a counterexample was found or a suite check failed, 2 means a
usage, parse, or guard error; ``main(argv)`` returns one of them for
every argv.  Handlers return their code and text and ``main`` alone
writes, through ``_write`` as argparse's usage, help and error text does,
so a closed stdout keeps the verdict's code and any other failed write
returns 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .algebra import boolean_core, core_to_subset
from .core import Partition, enumerate_partitions, refines
from .formula import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_SIZE,
    Assignment,
    ParseError,
    SearchBudgetExceeded,
    eval_partition,
    find_partition_counterexample,
    format_formula,
    parse,
)
from .literals import default_labels, format_partition, format_rgs, parse_partition
from .ops import implication_blocks, join, meet
from .suites import SUITES

FORMATS = ("text", "json", "dot")
TABLE_OPS = {"join": join, "meet": meet, "implies": implication_blocks}
MAX_TABLE_SIZE = 5
MAX_ENUMERATE_SIZE = 10
MAX_HASSE_SIZE = 6
MAX_EVAL_SIZE = 10_000


def _parse_formula(arg: str):
    try:
        return parse(sys.stdin.read() if arg == "-" else arg)
    except ParseError as exc:
        raise ValueError(f"syntax error: {exc}") from exc


def cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    if args.max_size < 2:
        raise ValueError("--max-size must be at least 2")
    if args.budget < 1:
        raise ValueError("--budget must be positive")
    f = _parse_formula(args.formula)
    cex = find_partition_counterexample(f, max_n=args.max_size, budget=args.budget)
    # The n=2 level is the truth table, so it refutes exactly the classical non-tautologies.
    classical = cex is None or cex.n > 2
    report: dict = {"formula": format_formula(f), "classical": classical}
    if cex is None:
        report["partition"] = {"status": "no_counterexample", "bound": args.max_size}
        verdict = f"no counterexample up to n={args.max_size}"
    else:
        report["partition"] = {
            "status": "counterexample",
            "n": cex.n,
            "assignment": {name: format_partition(p) for name, p in sorted(cex.bindings.items())},
            "bound": args.max_size,
        }
        bound = ", ".join(f"{name}={text}" for name, text in report["partition"]["assignment"].items())
        verdict = f"counterexample at n={cex.n}: {bound}" if bound else f"counterexample at n={cex.n}"
    code = 0 if cex is None else 1
    if args.format == "json":
        return code, json.dumps(report)
    classical_text = "tautology" if classical else "not a tautology"
    return code, f"formula: {report['formula']}\nclassical: {classical_text}\npartition: {verdict}"


def cmd_eval(args: argparse.Namespace) -> tuple[int, str]:
    if args.size is not None and args.size < 1:
        raise ValueError("--size must be at least 1")
    if args.size is not None and args.size > MAX_EVAL_SIZE:
        raise ValueError(f"--size must be at most {MAX_EVAL_SIZE}")
    f = _parse_formula(args.formula)
    bindings: dict[str, Partition] = {}
    labels: tuple[str, ...] | None = None
    for item in args.bindings:
        name, eq, literal = item.partition("=")
        if not eq or not name:
            raise ValueError(f"binding {item!r} is not of the form name=partition")
        if name in bindings:
            raise ValueError(f"variable {name!r} is bound twice")
        try:
            p, p_labels = parse_partition(literal)
        except ValueError as exc:
            raise ValueError(f"bad partition literal for {name!r}: {exc}") from exc
        if labels is None:
            labels = p_labels
        elif labels != p_labels:
            raise ValueError(f"binding {name!r} uses labels {p_labels}, expected {labels}")
        bindings[name] = p
    if labels is None:
        if args.size is None:
            raise ValueError("a formula without bindings needs --size")
        labels = default_labels(args.size)
    elif len(labels) > MAX_EVAL_SIZE:
        raise ValueError(f"the bindings have {len(labels)} elements, past the bound {MAX_EVAL_SIZE}")
    elif args.size is not None and args.size != len(labels):
        raise ValueError(f"--size {args.size} does not match the {len(labels)} labels in the bindings")
    result = eval_partition(f, Assignment(len(labels), bindings))
    text = format_partition(result, labels)
    if args.format == "json":
        return 0, json.dumps({"formula": format_formula(f), "result": text})
    return 0, text


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    if args.n > MAX_TABLE_SIZE:
        raise ValueError(f"table supports universes up to {MAX_TABLE_SIZE}")
    op = TABLE_OPS[args.op]
    parts = list(enumerate_partitions(args.n))
    index = {p: i for i, p in enumerate(parts)}
    grid = [[index[op(p, q)] for q in parts] for p in parts]
    if args.format == "json":
        return 0, json.dumps({
            "op": args.op,
            "n": args.n,
            "partitions": [format_partition(p) for p in parts],
            "table": grid,
        })
    lines = [f"{args.op} over the {len(parts)} partitions of a {args.n}-element universe"]
    lines += [f"p{i} = {format_partition(p)}" for i, p in enumerate(parts)]
    width = len(f"p{len(parts) - 1}")
    lines.append(" " * (width + 2) + " ".join(f"p{j}".rjust(width) for j in range(len(parts))))
    lines += [f"{f'p{i}'.rjust(width)} | " + " ".join(f"p{v}".rjust(width) for v in row) for i, row in enumerate(grid)]
    return 0, "\n".join(lines)


def _hasse_edges(parts: list[Partition]) -> list[tuple[int, int]]:
    # The refinement lattice is graded by block count, so covers are
    # exactly the refinements that split one block.
    return [
        (i, j)
        for i, p in enumerate(parts)
        for j, q in enumerate(parts)
        if q.num_blocks == p.num_blocks + 1 and refines(p, q)
    ]


def cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    if args.n > MAX_ENUMERATE_SIZE:
        raise ValueError(f"enumerate supports universes up to {MAX_ENUMERATE_SIZE}")
    if args.format == "dot" and args.n > MAX_HASSE_SIZE:
        raise ValueError(f"the diagram output supports universes up to {MAX_HASSE_SIZE}")
    parts = list(enumerate_partitions(args.n))
    if args.format == "json":
        return 0, json.dumps({
            "n": args.n,
            "count": len(parts),
            "partitions": [format_partition(p) for p in parts],
        })
    if args.format == "dot":
        lines = ["digraph refinement {", "  rankdir=BT;", "  edge [dir=none];"]
        lines += [f'  p{i} [label="{format_partition(p)}" shape=plaintext];' for i, p in enumerate(parts)]
        lines += [f"  p{i} -> p{j};" for i, j in _hasse_edges(parts)]
        lines.append("}")
    else:
        lines = [f"{format_partition(p)}  {format_rgs(p)}" for p in parts]
        lines.append(f"count: {len(parts)}")
    return 0, "\n".join(lines)


def cmd_core(args: argparse.Namespace) -> tuple[int, str]:
    try:
        pi, labels = parse_partition(args.pi)
    except ValueError as exc:
        raise ValueError(f"bad partition literal: {exc}") from exc
    core = boolean_core(pi)
    blocks = ["{" + ",".join(labels[u] for u in block) + "}" for block in core.ns_blocks]
    rows = []
    for member in core.members:
        rows.append({
            "subset": sorted(core_to_subset(core, member)),
            "member": format_partition(member, labels),
        })
    if args.format == "json":
        return 0, json.dumps({
            "pi": format_partition(pi, labels),
            "non_singleton_blocks": blocks,
            "members": rows,
        })
    named = " ".join(f"{i}:{block}" for i, block in enumerate(blocks))
    lines = [f"pi: {format_partition(pi, labels)}", f"non-singleton blocks: {named if named else '(none)'}",
             f"members ({len(core)}):"]
    lines += ["  {" + ",".join(map(str, row["subset"])) + "} -> " + row["member"] for row in rows]
    return 0, "\n".join(lines)


def cmd_suite(args: argparse.Namespace) -> tuple[int, str]:
    start = time.perf_counter()
    checks = SUITES[args.name]()
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.passed]
    code = 0 if not failed else 1
    if args.format == "json":
        return code, json.dumps({
            "suite": args.name,
            "passed": not failed,
            "elapsed": elapsed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        })
    lines = []
    for c in checks:
        mark = "ok  " if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"{mark} {c.name}{detail}")
    lines.append(f"suite {args.name}: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return code, "\n".join(lines)


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream`` and flush it.

    A failed stream's descriptor is pointed at devnull, so the flush at
    exit does not fail again.  A closed pipe is the reader's choice and
    passes; any other failure (a full disk) is raised.
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage, help and error text go through ``_write``.

    argparse's own writes drop an ``OSError``, and a failed flush at exit
    then changes the exit code.  Its sub-command parsers are of this class
    too, since ``add_subparsers`` makes them of the parser's own class.
    """

    def print_usage(self, file=None):
        _write(file or sys.stdout, self.format_usage())

    def print_help(self, file=None):
        _write(file or sys.stdout, self.format_help())

    def exit(self, status=0, message=None):
        if message:
            _write(sys.stderr, message)
        sys.exit(status)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its sub-command parsers by name."""
    parser = _Parser(
        prog="partlogic",
        description="Algebra and logic of finite set partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")

    p_check = sub.add_parser("check", help="decide a formula classically and search for partition counterexamples")
    p_check.add_argument("formula", help="formula text, or - to read stdin")
    p_check.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE, dest="max_size")
    p_check.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate a formula under partition bindings")
    p_eval.add_argument("formula", help="formula text, or - to read stdin")
    p_eval.add_argument("bindings", nargs="*", metavar="name=partition")
    p_eval.add_argument("--size", type=int, default=None, help="universe size when there are no bindings")
    add_common(p_eval)
    p_eval.set_defaults(handler=cmd_eval)

    p_table = sub.add_parser("table", help="print the full operation table over all partitions of a universe")
    p_table.add_argument("op", choices=sorted(TABLE_OPS))
    p_table.add_argument("n", type=int)
    add_common(p_table)
    p_table.set_defaults(handler=cmd_table)

    p_enum = sub.add_parser("enumerate", help="list all partitions of a universe")
    p_enum.add_argument("n", type=int)
    add_common(p_enum, formats=FORMATS)
    p_enum.set_defaults(handler=cmd_enumerate)

    p_core = sub.add_parser("core", help="print the Boolean core of a partition")
    p_core.add_argument("pi", help="partition literal")
    add_common(p_core)
    p_core.set_defaults(handler=cmd_core)

    p_suite = sub.add_parser("suite", help="run a named check suite")
    p_suite.add_argument("name", choices=sorted(SUITES))
    add_common(p_suite)
    p_suite.set_defaults(handler=cmd_suite)

    return parser, sub.choices


# Built once per process: parsing leaves the parsers as they are and fills a
# fresh Namespace per call, so in-process callers share them safely.
_PARSER, _COMMANDS = _build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with one pass over a command's argv.

    argparse's own dispatch hands the words after the command to that
    command's parser and reports leftovers through the top-level parser;
    this does the same without first scanning the argv at the top level.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _error(message: str) -> int:
    """Write one ``error:`` line to stderr, if it can be written, and return 2."""
    try:
        _write(sys.stderr, f"error: {message}\n")
    except OSError:
        pass  # stderr is devnull now, and the code is 2 either way
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse has written its usage or help text: 2 for a usage error, 0 for --help.
        return exc.code
    except OSError as exc:
        # argparse could not write its usage or help text.
        return _error(f"cannot write the output: {exc}")
    try:
        code, text = args.handler(args)
    except (ValueError, SearchBudgetExceeded) as exc:
        return _error(str(exc))
    except Exception as exc:
        # Exit 1 is reserved for a counterexample or a failed suite; anything
        # else that escapes a handler is an error.
        return _error(f"{type(exc).__name__}: {' '.join(str(exc).split())}")
    try:
        _write(sys.stdout, text + "\n")
    except OSError as exc:
        # A failed write other than a closed pipe loses the verdict: an error.
        return _error(f"cannot write the output: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
