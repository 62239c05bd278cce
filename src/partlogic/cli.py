"""Command-line front-end.

Exit codes are the machine contract: 0 means pass or no counterexample,
1 means a counterexample was found or a suite check failed, 2 means a
usage, parse, or guard error.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def cmd_check(args: argparse.Namespace) -> int:
    if args.max_size < 2:
        raise ValueError("--max-size must be at least 2")
    if args.budget < 1:
        raise ValueError("--budget must be positive")
    f = _parse_formula(args.formula)
    try:
        cex = find_partition_counterexample(f, max_n=args.max_size, budget=args.budget)
    except SearchBudgetExceeded as exc:
        raise ValueError(str(exc)) from exc
    # The n=2 level is the truth table, so it refutes exactly the classical non-tautologies.
    classical = cex is None or cex.n > 2
    report: dict = {"formula": format_formula(f), "classical": classical}
    if cex is None:
        report["partition"] = {"status": "no_counterexample", "bound": args.max_size}
    else:
        report["partition"] = {
            "status": "counterexample",
            "n": cex.n,
            "assignment": {name: format_partition(p) for name, p in sorted(cex.bindings.items())},
            "bound": args.max_size,
        }
    if args.format == "json":
        print(json.dumps(report))
    else:
        print(f"formula: {report['formula']}")
        print(f"classical: {'tautology' if classical else 'not a tautology'}")
        if cex is None:
            print(f"partition: no counterexample up to n={args.max_size}")
        else:
            bound = ", ".join(f"{name}={text}" for name, text in report["partition"]["assignment"].items())
            print(f"partition: counterexample at n={cex.n}: {bound}")
    return 0 if cex is None else 1


def cmd_eval(args: argparse.Namespace) -> int:
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
        print(json.dumps({"formula": format_formula(f), "result": text}))
    else:
        print(text)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.n > MAX_TABLE_SIZE:
        raise ValueError(f"table supports universes up to {MAX_TABLE_SIZE}")
    op = TABLE_OPS[args.op]
    parts = list(enumerate_partitions(args.n))
    index = {p: i for i, p in enumerate(parts)}
    grid = [[index[op(p, q)] for q in parts] for p in parts]
    if args.format == "json":
        print(json.dumps({
            "op": args.op,
            "n": args.n,
            "partitions": [format_partition(p) for p in parts],
            "table": grid,
        }))
    else:
        print(f"{args.op} over the {len(parts)} partitions of a {args.n}-element universe")
        for i, p in enumerate(parts):
            print(f"p{i} = {format_partition(p)}")
        width = len(f"p{len(parts) - 1}")
        header = " ".join(f"p{j}".rjust(width) for j in range(len(parts)))
        print(" " * (width + 2) + header)
        for i, row in enumerate(grid):
            cells = " ".join(f"p{v}".rjust(width) for v in row)
            print(f"{f'p{i}'.rjust(width)} | {cells}")
    return 0


def _hasse_edges(parts: list[Partition]) -> list[tuple[int, int]]:
    # The refinement lattice is graded by block count, so covers are
    # exactly the refinements that split one block.
    return [
        (i, j)
        for i, p in enumerate(parts)
        for j, q in enumerate(parts)
        if q.num_blocks == p.num_blocks + 1 and refines(p, q)
    ]


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n > MAX_ENUMERATE_SIZE:
        raise ValueError(f"enumerate supports universes up to {MAX_ENUMERATE_SIZE}")
    if args.format == "dot" and args.n > MAX_HASSE_SIZE:
        raise ValueError(f"the diagram output supports universes up to {MAX_HASSE_SIZE}")
    parts = list(enumerate_partitions(args.n))
    if args.format == "json":
        print(json.dumps({
            "n": args.n,
            "count": len(parts),
            "partitions": [format_partition(p) for p in parts],
        }))
    elif args.format == "dot":
        print("digraph refinement {")
        print("  rankdir=BT;")
        print("  edge [dir=none];")
        for i, p in enumerate(parts):
            print(f'  p{i} [label="{format_partition(p)}" shape=plaintext];')
        for i, j in _hasse_edges(parts):
            print(f"  p{i} -> p{j};")
        print("}")
    else:
        for p in parts:
            print(f"{format_partition(p)}  {format_rgs(p)}")
        print(f"count: {len(parts)}")
    return 0


def cmd_core(args: argparse.Namespace) -> int:
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
        print(json.dumps({
            "pi": format_partition(pi, labels),
            "non_singleton_blocks": blocks,
            "members": rows,
        }))
    else:
        print(f"pi: {format_partition(pi, labels)}")
        named = " ".join(f"{i}:{block}" for i, block in enumerate(blocks))
        print(f"non-singleton blocks: {named if named else '(none)'}")
        print(f"members ({len(core)}):")
        for row in rows:
            chosen = "{" + ",".join(str(i) for i in row["subset"]) + "}"
            print(f"  {chosen} -> {row['member']}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    checks = SUITES[args.name]()
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
        print(json.dumps({
            "suite": args.name,
            "passed": not failed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        }))
    else:
        for c in checks:
            mark = "ok  " if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"{mark} {c.name}{detail}")
        print(f"suite {args.name}: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    return parser


# Built once per process: parse_args leaves the parser as it is and fills a
# fresh Namespace per call, so in-process callers share it safely.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for a counterexample or a failed suite; anything
        # else that escapes a handler is an error.
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
