"""Shared oracles, strategies, and suite results.

The oracles here are deliberately independent of the package internals:
plain set arithmetic over frozensets of pairs, brute-force enumeration
by quotienting block labelings, formula evaluators that walk the tree
with no compilation, and a recursive-descent parser, printer and
compiler that the loop-driven front end must agree with exactly.  They exist so the fast implementations are
checked against something slower and more obviously correct.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from hypothesis import strategies as st

from partlogic import (
    And,
    Assignment,
    BinaryRelation,
    Const0,
    Const1,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    Partition,
    Var,
    free_vars,
    implication_blocks,
    join,
    meet,
    negation,
)
from partlogic.suites import SUITES

_SUITE_FUNCTIONS = dict(SUITES)


@lru_cache(maxsize=None)
def suite_checks(name: str) -> tuple:
    """Run a named suite once per test session and share its results.

    The acceptance battery and the CLI tests both read suites; caching
    keeps every check to a single run.
    """
    return tuple(_SUITE_FUNCTIONS[name]())


@lru_cache(maxsize=None)
def oracle_partition_rgs(n: int) -> frozenset[tuple[int, ...]]:
    """All partitions of {0..n-1} as canonical strings, by brute force.

    Every function from elements to block labels is a labeling; two
    labelings describe the same partition exactly when they agree after
    renaming labels in order of first occurrence.
    """
    seen = set()
    for labeling in itertools.product(range(n), repeat=n):
        index: dict[int, int] = {}
        seen.add(tuple(index.setdefault(lab, len(index)) for lab in labeling))
    return frozenset(seen)


def oracle_ditset(blocks: list[list[int]]) -> frozenset[tuple[int, int]]:
    """Ordered pairs taken from distinct blocks, by double loop."""
    return frozenset(
        (u, v)
        for b1 in blocks
        for b2 in blocks
        if b1 != b2
        for u in b1
        for v in b2
    )


def relation_from_pairs(pairs, n: int) -> BinaryRelation:
    """The bit grid holding exactly the listed pairs."""
    bits = 0
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u}, {v}) out of range for universe size {n}")
        bits |= 1 << (u * n + v)
    return BinaryRelation(n, bits)


def empty_relation(n: int) -> BinaryRelation:
    return BinaryRelation(n, 0)


def universal_relation(n: int) -> BinaryRelation:
    return BinaryRelation(n, (1 << (n * n)) - 1)


def is_equivalence(r: BinaryRelation) -> bool:
    return r.is_reflexive() and r.is_symmetric() and r.is_transitive()


def is_partition_relation(r: BinaryRelation) -> bool:
    """True when the complement is an equivalence relation.

    Equivalent to irreflexive + symmetric + anti-transitive, but the
    complement formulation is the one implemented.
    """
    return is_equivalence(r.complement())


def oracle_equivalence_failures(pairs: frozenset[tuple[int, int]], n: int) -> list[str]:
    """The properties of an equivalence the pairs lack, in the order reflexive, symmetric, transitive."""
    reflexive = all((u, u) in pairs for u in range(n))
    symmetric = all((v, u) in pairs for u, v in pairs)
    transitive = all(
        (u, w) in pairs
        for u, v in pairs
        for v2, w in pairs
        if v2 == v
    )
    checks = (("reflexive", reflexive), ("symmetric", symmetric), ("transitive", transitive))
    return [name for name, ok in checks if not ok]


def oracle_is_equivalence(pairs: frozenset[tuple[int, int]], n: int) -> bool:
    return not oracle_equivalence_failures(pairs, n)


@lru_cache(maxsize=None)
def oracle_all_equivalences(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    universe = list(itertools.product(range(n), repeat=2))
    out = []
    for mask in range(1 << len(universe)):
        pairs = frozenset(p for i, p in enumerate(universe) if mask >> i & 1)
        if oracle_is_equivalence(pairs, n):
            out.append(pairs)
    return tuple(out)


def oracle_closure(pairs: frozenset[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    """Intersection of every equivalence relation containing the pairs."""
    containing = [e for e in oracle_all_equivalences(n) if pairs <= e]
    out = set(itertools.product(range(n), repeat=2))
    for e in containing:
        out &= e
    return frozenset(out)


def oracle_fixpoint_closure(pairs: frozenset[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    """Add the diagonal, then mirrored and composed pairs until nothing new appears.

    No union-find and no enumeration of equivalences, so it reaches
    universes where ``oracle_closure`` is out of range.
    """
    out = set(pairs) | {(u, u) for u in range(n)}
    while True:
        new = {(v, u) for u, v in out} | {(u, w) for u, v in out for v2, w in out if v == v2}
        if new <= out:
            return frozenset(out)
        out |= new


def oracle_interior(pairs: frozenset[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    """Complement of the fixpoint closure of the complement."""
    universe = frozenset(itertools.product(range(n), repeat=2))
    return universe - oracle_fixpoint_closure(universe - pairs, n)


def oracle_inditset(blocks) -> frozenset[tuple[int, int]]:
    """Ordered pairs taken from one block, by double loop."""
    return frozenset((u, v) for block in blocks for u in block for v in block)


def oracle_eval_partition(f: Formula, assignment: Assignment) -> Partition:
    """Partition semantics by walking the tree, every subformula evaluated where it occurs."""
    n = assignment.n
    match f:
        case Var(name):
            return assignment.bindings[name]
        case Const0():
            return Partition.indiscrete(n)
        case Const1():
            return Partition.discrete(n)
        case Not(child):
            return negation(oracle_eval_partition(child, assignment))
        case And(left, right):
            return meet(oracle_eval_partition(left, assignment), oracle_eval_partition(right, assignment))
        case Or(left, right):
            return join(oracle_eval_partition(left, assignment), oracle_eval_partition(right, assignment))
        case Implies(left, right):
            return implication_blocks(oracle_eval_partition(left, assignment), oracle_eval_partition(right, assignment))
    raise TypeError(f"not a formula node: {f!r}")


def oracle_eval_boolean(f: Formula, bits: dict[str, bool]) -> bool:
    """Truth-table semantics by walking the tree."""
    match f:
        case Var(name):
            return bits[name]
        case Const0():
            return False
        case Const1():
            return True
        case Not(child):
            return not oracle_eval_boolean(child, bits)
        case And(left, right):
            return oracle_eval_boolean(left, bits) and oracle_eval_boolean(right, bits)
        case Or(left, right):
            return oracle_eval_boolean(left, bits) or oracle_eval_boolean(right, bits)
        case Implies(left, right):
            return not oracle_eval_boolean(left, bits) or oracle_eval_boolean(right, bits)
    raise TypeError(f"not a formula node: {f!r}")


def oracle_is_tautology(f: Formula) -> bool:
    """True under every row of the truth table, by ``oracle_eval_boolean``."""
    names = free_vars(f)
    return all(oracle_eval_boolean(f, dict(zip(names, bits)))
               for bits in itertools.product((False, True), repeat=len(names)))


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


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


def oracle_parse(text: str) -> Formula:
    """Recursive-descent parse: one method per precedence level."""
    parser = _Parser(_tokenize(text))
    result = parser.formula()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r} after formula", position)
    return result


def oracle_format(f: Formula) -> str:
    """Print with minimal parentheses by recursing on the tree."""
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


def _oracle_names(f: Formula) -> set[str]:
    match f:
        case Var(name):
            return {name}
        case Not(child):
            return _oracle_names(child)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return _oracle_names(left) | _oracle_names(right)
    return set()


def oracle_compile(f: Formula) -> tuple[tuple[str, ...], list[tuple]]:
    """Hash-cons ``f`` into post-order steps by recursion, left operand first.

    Names are gathered by a walk of their own; ``~a`` is placed as ``a -> 0``.
    """
    names = tuple(sorted(_oracle_names(f)))
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
                    key = (Implies, place(child), steps.setdefault((Const0, None, None), len(steps)))
                case And(left, right) | Or(left, right) | Implies(left, right):
                    key = (type(node), place(left), place(right))
                case _:
                    raise TypeError(f"not a formula node: {node!r}")
            placed[id(node)] = steps.setdefault(key, len(steps))
        return placed[id(node)]

    place(f)
    return names, list(steps)


@st.composite
def partitions(draw, min_n: int = 1, max_n: int = 6) -> Partition:
    n = draw(st.integers(min_n, max_n))
    return draw(partitions_of(n))


@st.composite
def partitions_of(draw, n: int) -> Partition:
    rgs = [0]
    peak = 0
    for _ in range(n - 1):
        b = draw(st.integers(0, peak + 1))
        rgs.append(b)
        peak = max(peak, b)
    return Partition(n, tuple(rgs))


@st.composite
def partition_pairs(draw, min_n: int = 1, max_n: int = 6) -> tuple[Partition, Partition]:
    n = draw(st.integers(min_n, max_n))
    return draw(partitions_of(n)), draw(partitions_of(n))


@st.composite
def partition_triples(draw, min_n: int = 1, max_n: int = 5):
    n = draw(st.integers(min_n, max_n))
    return draw(partitions_of(n)), draw(partitions_of(n)), draw(partitions_of(n))


@st.composite
def relations(draw, min_n: int = 4, max_n: int = 9) -> tuple[int, frozenset[tuple[int, int]]]:
    """A universe size and a set of pairs on it, symmetric or not.

    A few random pairs, or all pairs but a few, so closures and
    interiors both come out neither trivial nor total.
    """
    n = draw(st.integers(min_n, max_n))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.frozensets(cell, max_size=2 * n))
    if draw(st.booleans()):
        pairs = frozenset(itertools.product(range(n), repeat=2)) - pairs
    return n, pairs
