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
import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import Partition, enumerate_partitions
from .ops import implication_blocks, join, meet, negation

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


_PRECEDENCE: dict[type, int] = {Implies: 1, Or: 2, And: 3, Not: 4}


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


def eval_partition(f: Formula, assignment: Assignment) -> Partition:
    """Evaluate over partitions; negation is implication into the indiscrete partition."""
    n = assignment.n
    match f:
        case Var(name):
            try:
                return assignment.bindings[name]
            except KeyError:
                raise ValueError(f"unbound variable {name!r}") from None
        case Const0():
            return Partition.indiscrete(n)
        case Const1():
            return Partition.discrete(n)
        case Not(child):
            return negation(eval_partition(child, assignment))
        case And(left, right):
            return meet(eval_partition(left, assignment), eval_partition(right, assignment))
        case Or(left, right):
            return join(eval_partition(left, assignment), eval_partition(right, assignment))
        case Implies(left, right):
            return implication_blocks(eval_partition(left, assignment), eval_partition(right, assignment))
    raise TypeError(f"not a formula node: {f!r}")


def eval_boolean(f: Formula, bits: Mapping[str, bool]) -> bool:
    """Classical truth-table evaluation; implication is the material conditional."""
    match f:
        case Var(name):
            try:
                return bits[name]
            except KeyError:
                raise ValueError(f"unbound variable {name!r}") from None
        case Const0():
            return False
        case Const1():
            return True
        case Not(child):
            return not eval_boolean(child, bits)
        case And(left, right):
            return eval_boolean(left, bits) and eval_boolean(right, bits)
        case Or(left, right):
            return eval_boolean(left, bits) or eval_boolean(right, bits)
        case Implies(left, right):
            return not eval_boolean(left, bits) or eval_boolean(right, bits)
    raise TypeError(f"not a formula node: {f!r}")


def _boolean_counterexample(f: Formula, names: tuple[str, ...]) -> tuple[bool, ...] | None:
    for values in itertools.product((False, True), repeat=len(names)):
        if not eval_boolean(f, dict(zip(names, values))):
            return values
    return None


def is_subset_tautology(f: Formula) -> bool:
    """True when the formula holds under every classical truth assignment."""
    names = free_vars(f)
    if len(names) > MAX_TAUTOLOGY_VARS:
        raise ValueError(f"formula has {len(names)} variables, past the bound {MAX_TAUTOLOGY_VARS}")
    return _boolean_counterexample(f, names) is None


def pi_negation_transform(f: Formula, pi_name: str) -> Formula:
    """Relativize every variable to a fresh partition variable.

    Each variable ``v`` becomes ``v -> pi_name``, the bottom constant
    becomes ``pi_name``, negations desugar to implications into the
    bottom first, and everything else is untouched.  ``pi_name`` must
    not already occur in the formula.
    """
    pi = Var(pi_name)
    if pi_name in free_vars(f):
        raise ValueError(f"variable {pi_name!r} already occurs in the formula")

    def go(node: Formula) -> Formula:
        match node:
            case Var(_):
                return Implies(node, pi)
            case Const0():
                return pi
            case Const1():
                return node
            case Not(child):
                return go(Implies(child, Const0()))
            case And(left, right):
                return And(go(left), go(right))
            case Or(left, right):
                return Or(go(left), go(right))
            case Implies(left, right):
                return Implies(go(left), go(right))
        raise TypeError(f"not a formula node: {node!r}")

    return go(f)


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

    The two-partition universe behaves exactly like the classical truth
    values, so that level is decided by truth table: a classical
    counterexample converts directly and classical validity rules the
    level out.  A closed formula stops there: the two constants form
    the same two-element Boolean algebra at every larger size.  Raises
    :class:`SearchBudgetExceeded` before scanning any level whose
    assignment count passes ``budget``.  Each larger level is scanned
    one assignment at a time.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    names = free_vars(f)
    for n in range(2, (max_n if names else 2) + 1):
        count = _bell(n) ** len(names)
        if count > budget:
            raise SearchBudgetExceeded(
                f"level n={n} needs {count} assignments, past the budget {budget}"
            )
        if n == 2:
            values = _boolean_counterexample(f, names)
            if values is None:
                continue
            bindings = {
                name: Partition.discrete(2) if value else Partition.indiscrete(2)
                for name, value in zip(names, values)
            }
            found = Assignment(2, bindings)
            if eval_partition(f, found) == Partition.discrete(2):
                raise RuntimeError("classical counterexample did not falsify the n=2 level")
            return found
        top = Partition.discrete(n)
        for bindings in _bindings(names, n):
            found = Assignment(n, bindings)
            if eval_partition(f, found) != top:
                return found
    return None


def _bindings(names: tuple[str, ...], n: int) -> Iterator[dict[str, Partition]]:
    """Every binding of ``names`` to partitions of ``{0..n-1}``, in lexicographic order.

    ``names[0]`` is the most significant digit and each digit runs in
    enumeration order; without names there is exactly one, empty,
    binding.  One name streams the level; more names hold it as one
    tuple, which the budget bounds since ``Bell(n)**2 <= budget``.
    """
    if len(names) == 1:
        return ({names[0]: p} for p in enumerate_partitions(n))
    level = tuple(enumerate_partitions(n)) if names else ()
    return (dict(zip(names, values)) for values in itertools.product(level, repeat=len(names)))
