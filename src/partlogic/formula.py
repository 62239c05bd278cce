"""Formula language over partitions.

The connectives are disjunction, conjunction, implication, and a
negation that both semantics read as implication into the bottom
constant.  A formula can be evaluated classically (variables range over
the two truth values) or over partitions of a universe (variables range
over partitions, constants are the indiscrete and discrete partitions).

Validity over partitions has no known finite-universe decision bound, so
the engine here is a refuter plus bounded verifier: it either produces a
counterexample or reports that none exists up to a given universe size,
never more.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Partition, enumerate_partitions
from .ops import AND, IMPLIES, OR, implication_blocks, join, meet, negation

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

MAX_TAUTOLOGY_VARS = 20
DEFAULT_MAX_SIZE = 4
DEFAULT_BUDGET = 10**8


class Formula:
    """Base class for formula nodes."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Const0(Formula):
    """The bottom constant: classically false, the indiscrete partition."""


@dataclass(frozen=True)
class Const1(Formula):
    """The top constant: classically true, the discrete partition."""


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


class ParseError(ValueError):
    """Lexical or syntax error; ``position`` is the offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        elif c == "~":
            tokens.append(("not", c, i))
            i += 1
        elif c == "|":
            tokens.append(("or", c, i))
            i += 1
        elif c == "&":
            tokens.append(("and", c, i))
            i += 1
        elif text.startswith("->", i):
            tokens.append(("arrow", "->", i))
            i += 2
        elif text.startswith("\\/", i):
            tokens.append(("or", "\\/", i))
            i += 2
        elif text.startswith("/\\", i):
            tokens.append(("and", "/\\", i))
            i += 2
        elif c == "0":
            tokens.append(("zero", c, i))
            i += 1
        elif c == "1":
            tokens.append(("one", c, i))
            i += 1
        elif m := _IDENT_RE.match(text, i):
            tokens.append(("ident", m.group(), i))
            i = m.end()
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "or":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.peek()[0] == "and":
            self.take()
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        if self.peek()[0] == "not":
            self.take()
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, position = self.take()
        if kind == "ident":
            return Var(value)
        if kind == "zero":
            return Const0()
        if kind == "one":
            return Const1()
        if kind == "lparen":
            inner = self.formula()
            kind, _, position = self.take()
            if kind != "rparen":
                raise ParseError("expected ')'", position)
            return inner
        raise ParseError("expected a variable, constant, '~', or '('", position)


def parse(text: str) -> Formula:
    """Parse a formula; implication binds loosest and associates right."""
    parser = _Parser(_tokenize(text))
    result = parser.formula()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r} after formula", position)
    return result


def format_formula(f: Formula) -> str:
    """Print with minimal parentheses; ``parse(format_formula(f)) == f``."""
    return _format(f, 0)


def _format(f: Formula, minimum: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const0):
        return "0"
    if isinstance(f, Const1):
        return "1"
    if isinstance(f, Not):
        text = "~" + _format(f.child, 4)
        precedence = 4
    elif isinstance(f, And):
        text = f"{_format(f.left, 3)} /\\ {_format(f.right, 4)}"
        precedence = 3
    elif isinstance(f, Or):
        text = f"{_format(f.left, 2)} \\/ {_format(f.right, 3)}"
        precedence = 2
    elif isinstance(f, Implies):
        text = f"{_format(f.left, 2)} -> {_format(f.right, 1)}"
        precedence = 1
    else:
        raise TypeError(f"not a formula node: {f!r}")
    return f"({text})" if precedence < minimum else text


def free_vars(f: Formula) -> tuple[str, ...]:
    """Sorted, deduplicated variable names occurring in the formula."""
    names: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        match node:
            case Var(name):
                names.add(name)
            case Not(child):
                stack.append(child)
            case And(left, right) | Or(left, right) | Implies(left, right):
                stack.extend((left, right))
    return tuple(sorted(names))


@dataclass(frozen=True)
class Assignment:
    """Bindings from variable names to partitions over one shared universe."""

    n: int
    bindings: Mapping[str, Partition]

    def __post_init__(self):
        for name, p in self.bindings.items():
            if p.n != self.n:
                raise ValueError(f"binding {name!r} has universe size {p.n}, expected {self.n}")


def _compile(f: Formula) -> tuple[tuple[str, ...], list[tuple]]:
    """Hash-cons ``f`` into its distinct subformulas in post-order, the root last.

    Step ``(kind, a, b)`` holds the node type and its operands'
    positions, ``None`` where it has fewer; a ``Var`` step holds the
    index of its name among the sorted names instead.  Keyed by these
    alone, equal subformulas share one position without any subtree
    being hashed, and a node object met twice is placed once.
    """
    names = free_vars(f)
    index = {name: i for i, name in enumerate(names)}
    steps: dict[tuple, int] = {}
    placed: dict[int, int] = {}

    def place(node: Formula) -> int:
        if id(node) not in placed:
            match node:
                case Var(name):
                    key = (Var, index[name], None)
                case Const0() | Const1():
                    key = (type(node), None, None)
                case Not(child):
                    key = (Not, place(child), None)
                case And(left, right) | Or(left, right) | Implies(left, right):
                    key = (type(node), place(left), place(right))
                case _:
                    raise TypeError(f"not a formula node: {node!r}")
            placed[id(node)] = steps.setdefault(key, len(steps))
        return placed[id(node)]

    place(f)
    return names, list(steps)


def _evaluate(steps: list[tuple], algebra: Mapping[type, object], values: Sequence):
    """Run compiled ``steps`` in one algebra, binding variable ``i`` to ``values[i]``.

    ``algebra`` maps ``Const0`` and ``Const1`` to the bottom and top
    values and each connective type to the function computing it.
    """
    slots: list = []
    for kind, a, b in steps:
        if kind is Var:
            slots.append(values[a])
        elif b is not None:
            slots.append(algebra[kind](slots[a], slots[b]))
        elif a is not None:
            slots.append(algebra[kind](slots[a]))
        else:
            slots.append(algebra[kind])
    return slots[-1]


def _bound_values(names: tuple[str, ...], bindings: Mapping[str, object]) -> tuple:
    try:
        return tuple(bindings[name] for name in names)
    except KeyError as exc:
        raise ValueError(f"unbound variable {exc.args[0]!r}") from None


def _partition_algebra(n: int) -> dict[type, object]:
    bottom, top = Partition.indiscrete(n), Partition.discrete(n)
    return {Const0: bottom, Const1: top, Not: negation, And: meet, Or: join, Implies: implication_blocks}


_TRUTH_VALUES = {Const0: False, Const1: True, Not: operator.not_, And: AND, Or: OR, Implies: IMPLIES}


def eval_partition(f: Formula, assignment: Assignment) -> Partition:
    """Evaluate over partitions; negation is implication into the indiscrete partition."""
    names, steps = _compile(f)
    return _evaluate(steps, _partition_algebra(assignment.n), _bound_values(names, assignment.bindings))


def eval_boolean(f: Formula, bits: Mapping[str, bool]) -> bool:
    """Classical truth-table evaluation; implication is the material conditional."""
    names, steps = _compile(f)
    return _evaluate(steps, _TRUTH_VALUES, _bound_values(names, bits))


def is_subset_tautology(f: Formula) -> bool:
    """True when the formula holds under every classical truth assignment."""
    names, steps = _compile(f)
    if len(names) > MAX_TAUTOLOGY_VARS:
        raise ValueError(f"formula has {len(names)} variables, past the bound {MAX_TAUTOLOGY_VARS}")
    truth_table = itertools.product((False, True), repeat=len(names))
    return all(_evaluate(steps, _TRUTH_VALUES, bits) for bits in truth_table)


def pi_negation_transform(f: Formula, pi_name: str) -> Formula:
    """Relativize every variable to a fresh partition variable.

    Each variable ``v`` becomes ``v -> pi_name``, the bottom constant
    becomes ``pi_name``, negations desugar to implications into the
    bottom first, and everything else is untouched.  ``pi_name`` must
    not already occur in the formula.
    """
    pi = Var(pi_name)
    names, steps = _compile(f)
    if pi_name in names:
        raise ValueError(f"variable {pi_name!r} already occurs in the formula")
    relativized = {Const0: pi, Const1: Const1(), Not: lambda child: Implies(child, pi),
                   And: And, Or: Or, Implies: Implies}
    return _evaluate(steps, relativized, [Implies(Var(name), pi) for name in names])


class SearchBudgetExceeded(RuntimeError):
    """A refutation level would require more assignments than the budget allows."""


def _bell(n: int) -> int:
    # Bell triangle recurrence; the last entry of row n is the count for n.
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def find_partition_counterexample(
    f: Formula,
    max_n: int = DEFAULT_MAX_SIZE,
    budget: int = DEFAULT_BUDGET,
) -> Assignment | None:
    """Search universes of size 2 up to ``max_n`` for a falsifying assignment.

    Returns the lexicographically least counterexample, ordering by
    universe size, then by each variable's partition in enumeration
    order with variables sorted by name; the result is identical across
    runs.  ``None`` means no counterexample up to ``max_n``, which is a
    bounded verdict, not a validity proof.

    The formula is compiled once and every level, n=2 included, runs
    the same scan: at n=2 the indiscrete partition precedes the discrete
    one as False precedes True, so that level is the truth table.  A
    closed formula stops there: the two constants form the same
    two-element Boolean algebra at every larger size.  Raises
    :class:`SearchBudgetExceeded` before scanning any level whose
    assignment count passes ``budget``.  With one variable the level
    streams; with more it is held once as a tuple, which the budget
    bounds since ``Bell(n)**2 <= budget``.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    names, steps = _compile(f)
    for n in range(2, (max_n if names else 2) + 1):
        count = _bell(n) ** len(names)
        if count > budget:
            raise SearchBudgetExceeded(
                f"level n={n} needs {count} assignments, past the budget {budget}"
            )
        algebra = _partition_algebra(n)
        top = algebra[Const1]
        level = enumerate_partitions(n)
        for values in zip(level) if len(names) == 1 else itertools.product(level, repeat=len(names)):
            if _evaluate(steps, algebra, values) != top:
                return Assignment(n, dict(zip(names, values)))
    return None
