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

import functools
import itertools
import operator
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Partition, enumerate_partitions
from .ops import AND, IMPLIES, OR, implication_blocks, join, meet

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

MAX_TAUTOLOGY_VARS = 20
DEFAULT_MAX_SIZE = 4
DEFAULT_BUDGET = 10**8


class Formula:
    """Base class for formula nodes, identified by their printed text.

    ``parse`` inverts the printer, so ``==``, ``hash`` and ``repr`` go
    through :func:`format_formula` and never recurse.
    """

    def __str__(self) -> str:
        return format_formula(self)

    def __eq__(self, other) -> bool:
        return format_formula(self) == format_formula(other) if isinstance(other, Formula) else NotImplemented

    def __hash__(self) -> int:
        return hash(format_formula(self))

    def __repr__(self) -> str:
        try:
            return f"parse({format_formula(self)!r})"
        except TypeError:  # a malformed tree has no text
            return object.__repr__(self)


# Nodes keep the generated keyword __init__, __match_args__ and frozen guard.
_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Var(Formula):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@_node
class Const0(Formula):
    """The bottom constant: classically false, the indiscrete partition."""


@_node
class Const1(Formula):
    """The top constant: classically true, the discrete partition."""


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


class ParseError(ValueError):
    """Lexical or syntax error; ``position`` is the offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One alternative per token kind, tried in this order after any whitespace;
# ``bad`` takes a character that starts no token.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<not>~)|(?P<or>\||\\/)|(?P<and>&|/\\)"
    rf"|(?P<arrow>->)|(?P<zero>0)|(?P<one>1)|(?P<ident>{_IDENT_RE.pattern})|(?P<bad>\S))"
)
# Binding power of each binary connective, whether it groups to the right,
# and the node it builds.
_BINARY = {"arrow": (1, True, Implies), "or": (2, False, Or), "and": (3, False, And)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, position = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", position)
        tokens.append((kind, value, position))
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str) -> Formula:
    """Parse a formula; implication binds loosest and associates right.

    ``~`` binds tightest, then ``/\\`` (or ``&``), then ``\\/`` (or
    ``|``); both group to the left.  One loop reads the tokens with an
    operand stack and an operator stack (operator precedence, after
    Dijkstra's shunting yard), so nesting depth is bounded only by
    memory.  Raises :class:`ParseError` at the first token no formula
    can continue with.
    """
    operands: list[Formula] = []
    # Pending "not" and "lparen" tokens and binary connective kinds.
    operators: list[str] = []
    expect_operand = True
    for kind, value, position in _tokenize(text):
        if expect_operand:
            if kind == "ident":
                operand = Var(value)
            elif kind == "zero":
                operand = Const0()
            elif kind == "one":
                operand = Const1()
            elif kind == "not" or kind == "lparen":
                operators.append(kind)
                continue
            else:
                raise ParseError("expected a variable, constant, '~', or '('", position)
            expect_operand = False
        else:
            binary = _BINARY.get(kind)
            precedence = binary[0] if binary else 0
            # Reduce the pending connectives that bind tighter; an equal one
            # is reduced too unless the connective groups to the right.
            while operators and operators[-1] in _BINARY:
                top, _, node = _BINARY[operators[-1]]
                if top < precedence or (top == precedence and binary[1]):
                    break
                operators.pop()
                right = operands.pop()
                operands[-1] = node(operands[-1], right)
            if binary:
                operators.append(kind)
                expect_operand = True
                continue
            if kind == "end" and not operators:
                break
            if kind != "rparen" or not operators:
                raise ParseError("expected ')'" if operators else f"unexpected {value!r} after formula", position)
            operators.pop()
            operand = operands.pop()
        while operators and operators[-1] == "not":
            operators.pop()
            operand = Not(operand)
        operands.append(operand)
    return operands[0]


# How each connective prints: its precedence, its symbol, and the least
# precedence its left and right operands print at without parentheses
# (``None`` on the left of the prefix ``~``).
_LAYOUT = {
    Not: (4, "~", None, 4),
    And: (3, " /\\ ", 3, 4),
    Or: (2, " \\/ ", 2, 3),
    Implies: (1, " -> ", 2, 1),
}


def format_formula(f: Formula) -> str:
    """Print with minimal parentheses; ``parse(format_formula(f)) == f``.

    Pieces are written left to right off an explicit stack of
    ``(node, least precedence)`` pairs and closing text.
    """
    pieces: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, minimum = item
        if isinstance(node, Var):
            pieces.append(node.name)
        elif isinstance(node, Const0):
            pieces.append("0")
        elif isinstance(node, Const1):
            pieces.append("1")
        else:
            layout = _LAYOUT.get(type(node))
            if layout is None:
                raise TypeError(f"not a formula node: {type(node).__name__}")
            precedence, symbol, left, right = layout
            if precedence < minimum:
                pieces.append("(")
                todo.append(")")
            if left is None:
                pieces.append(symbol)
                todo.append((node.child, right))
            else:
                todo += (node.right, right), symbol, (node.left, left)
    return "".join(pieces)


def free_vars(f: Formula) -> tuple[str, ...]:
    """Sorted, deduplicated variable names occurring in the formula."""
    return _compile(f)[0]


@dataclass(frozen=True)
class Assignment:
    """Bindings from variable names to partitions over one shared universe."""

    n: int
    bindings: Mapping[str, Partition]

    def __post_init__(self):
        for name, p in self.bindings.items():
            if p.n != self.n:
                raise ValueError(f"binding {name!r} has universe size {p.n}, expected {self.n}")


_PLACED = object()


def _compile(f: Formula) -> tuple[tuple[str, ...], list[tuple]]:
    """The sorted variable names of ``f`` and its distinct subformulas in post-order.

    Step ``(kind, a, b)`` holds the node type and its operands'
    positions, ``None`` for a constant; a ``Var`` step holds the index
    of its name among the sorted names instead.  A negation ``~a``
    compiles to its definition ``a -> 0``.  Keyed by these alone, equal
    subformulas share one position without any subtree being hashed,
    and a node object met twice is placed once.  The root is last.
    """
    steps: dict[tuple, int] = {}
    placed: dict[int, int] = {}
    # Post-order off an explicit stack: a node goes back under ``_PLACED``
    # and its operands, right below left, and is keyed once they are placed.
    todo: list = [f]
    while todo:
        node = todo.pop()
        if node is _PLACED:
            node = todo.pop()
            if isinstance(node, Not):
                key = (Implies, placed[id(node.child)], steps.setdefault((Const0, None, None), len(steps)))
            else:
                key = (type(node), placed[id(node.left)], placed[id(node.right)])
        elif id(node) in placed:
            continue
        elif isinstance(node, Var):
            key = (Var, node.name, None)
        elif isinstance(node, (Const0, Const1)):
            key = (type(node), None, None)
        elif isinstance(node, Not):
            todo += node, _PLACED, node.child
            continue
        elif isinstance(node, (And, Or, Implies)):
            todo += node, _PLACED, node.right, node.left
            continue
        else:
            raise TypeError(f"not a formula node: {node!r}")
        placed[id(node)] = steps.setdefault(key, len(steps))
    # Variable steps were keyed by name; number the names once they are sorted.
    names = tuple(sorted(a for kind, a, _ in steps if kind is Var))
    index = {name: i for i, name in enumerate(names)}
    return names, [(kind, index[a], b) if kind is Var else (kind, a, b) for kind, a, b in steps]


def _evaluate(steps: list[tuple], algebra: Mapping[type, object], values: Sequence):
    """Run compiled ``steps`` in one algebra, binding variable ``i`` to ``values[i]``.

    ``algebra`` maps ``Const0`` and ``Const1`` to the bottom and top
    values and each connective type to the function computing it.
    """
    slots: list = []
    for kind, a, b in steps:
        if kind is Var:
            slots.append(values[a])
        elif a is None:
            slots.append(algebra[kind])
        else:
            slots.append(algebra[kind](slots[a], slots[b]))
    return slots[-1]


def _bound_values(names: tuple[str, ...], bindings: Mapping[str, object]) -> tuple:
    try:
        return tuple(bindings[name] for name in names)
    except KeyError:
        missing = [repr(name) for name in names if name not in bindings]
        raise ValueError(f"unbound variable{'s' * (len(missing) > 1)} {', '.join(missing)}") from None


def _partition_algebra(n: int) -> dict[type, object]:
    bottom, top = Partition.indiscrete(n), Partition.discrete(n)
    return {Const0: bottom, Const1: top, And: meet, Or: join, Implies: implication_blocks}


_TRUTH_VALUES = {Const0: False, Const1: True, And: AND, Or: OR, Implies: IMPLIES}


def eval_partition(f: Formula, assignment: Assignment) -> Partition:
    """Evaluate over partitions; negation is implication into the indiscrete partition."""
    names, steps = _compile(f)
    return _evaluate(steps, _partition_algebra(assignment.n), _bound_values(names, assignment.bindings))


def eval_boolean(f: Formula, bits: Mapping[str, bool]) -> bool:
    """Classical truth-table evaluation; implication is the material conditional."""
    names, steps = _compile(f)
    return _evaluate(steps, _TRUTH_VALUES, _bound_values(names, bits))


def is_subset_tautology(f: Formula) -> bool:
    """True when the formula holds under every classical truth assignment.

    The refuter's n=2 level is the truth table: the indiscrete and
    discrete partitions of a 2-set are False and True.  Raises
    ``ValueError`` for a formula of more than ``MAX_TAUTOLOGY_VARS``
    variables, as :func:`find_partition_counterexample` does.
    """
    return find_partition_counterexample(f, max_n=2) is None


def pi_negation_transform(f: Formula, pi_name: str) -> Formula:
    """Relativize every variable to a fresh partition variable.

    Each variable ``v`` becomes ``v -> pi_name``, the bottom constant
    becomes ``pi_name``, so a negation, compiled as implication into the
    bottom, becomes implication into ``pi_name``; everything else is
    untouched.  ``pi_name`` must not already occur in the formula.
    """
    pi = Var(pi_name)
    names, steps = _compile(f)
    if pi_name in names:
        raise ValueError(f"variable {pi_name!r} already occurs in the formula")
    relativized = {Const0: pi, Const1: Const1(), And: And, Or: Or, Implies: Implies}
    return _evaluate(steps, relativized, [Implies(Var(name), pi) for name in names])


class SearchBudgetExceeded(RuntimeError):
    """A refutation level would require more assignments than the budget allows."""


# Entries the memo of one level may hold; it is cleared when full, so
# memory stays bounded at every size the budget admits.
_MEMO_LIMIT = 1 << 16


class _Level:
    """The partitions of ``{0..n-1}``, addressed by their index in enumeration order.

    ``tails[i][c]`` counts the ways to fill positions ``i+1..n-1`` of an
    rgs whose first ``i+1`` entries use ``c`` blocks.  It ranks and
    unranks an rgs without enumerating the level: index 0 is the
    indiscrete partition and ``size - 1`` the discrete one.  One level
    serves every formula at its size (see ``_level``), so it keeps what
    depends only on n: the block shapes, the relabelling rows, built on
    first need, and ``memo``, from ``(kind, i, j)`` to the index of that
    connective on those indices.  The memo holds at most ``_MEMO_LIMIT``
    entries; a full memo is cleared.
    """

    def __init__(self, n: int):
        self.n = n
        row = [1] * (n + 2)
        tails = [row]
        for _ in range(n - 1):
            row = [c * row[c] + row[c + 1] for c in range(n + 1)] + [0]
            tails.append(row)
        tails.reverse()
        self.tails = tails
        self.size = tails[0][1]
        self.algebra = _partition_algebra(n)
        self.memo: dict[tuple, int] = {}

    def partition(self, index: int) -> Partition:
        """The partition at ``index``."""
        rgs = []
        rest = index
        used = 0
        for tail in self.tails:
            count = tail[used]
            block = min(rest // count, used)
            rest -= block * count
            rgs.append(block)
            used += block == used
        return Partition._canonical(self.n, tuple(rgs))

    def apply(self, kind: type, i: int, j: int) -> int:
        """The index of connective ``kind`` on indices ``i`` and ``j``."""
        return _rank(self.tails, self.algebra[kind](self.partition(i), self.partition(j)).rgs)

    @functools.cached_property
    def shapes(self) -> list[int]:
        """The least index in each orbit of relabelling, in order.

        Relabelling keeps block sizes, and the least rgs with given sizes
        lays its blocks out as runs of non-increasing size: one per
        integer partition of ``n``, generated in reverse lexicographic
        order (TAOCP 4A, 7.2.1.4), which is index order.
        """
        indices = []
        todo = [((), self.n, self.n)]  # labels so far, positions left, largest next block
        while todo:
            labels, left, largest = todo.pop()
            if left:
                block = labels[-1] + 1 if labels else 0
                todo += [(labels + (block,) * size, left - size, size)
                         for size in range(1, min(left, largest) + 1)]
            else:
                indices.append(_rank(self.tails, labels))
        return indices

    @functools.cached_property
    def swaps(self) -> list[array]:
        """How each generating relabelling, its own inverse, acts on indices.

        First the interval swaps of ``a..a+L-1`` with ``a+L..a+2L-1``,
        which generate the stabilizer of each block shape, then the
        products ``(i i+1)(j j+1)``: ``(0 1)(2 3)`` fixes ``{0,2},{1,3}``,
        though neither of its factors does.
        """
        n, tails = self.n, self.tails
        if n < 3:
            return []  # every relabelling fixes both partitions of a 2-set
        cuts = [(a, a + length, a + 2 * length)
                for length in range(1, n // 2 + 1) for a in range(n - 2 * length + 1)]
        rows = [array("I") for _ in cuts]
        for p in enumerate_partitions(n):
            for (a, b, c), row in zip(cuts, rows):
                row.append(_rank(tails, p.rgs[:a] + p.rgs[b:c] + p.rgs[a:b] + p.rgs[c:]))
        # The first n-1 rows are the adjacent transpositions.
        return rows + [array("I", map(rows[i].__getitem__, rows[j]))
                       for i in range(n - 3) for j in range(i + 2, n - 1)]


# One level per universe size, shared by every formula and kept for the
# life of the process.
_level = functools.cache(_Level)


def _rank(tails: list[list[int]], labels: Sequence) -> int:
    """The index of the partition grouping equal ``labels``."""
    blocks: dict = {}
    index = 0
    for label, tail in zip(labels, tails):
        used = len(blocks)
        index += blocks.setdefault(label, used) * tail[used]
    return index


def _schedule(steps: list[tuple], k: int) -> tuple[list[int], list[list[tuple]]]:
    """Assign each connective step to the loop that must run it.

    A step's depth is the index of the last-bound variable it depends
    on, -1 when it depends on none; the first sorted name is the
    outermost loop.  Returns the slot of each variable's step and, at
    ``runs[d + 1]``, the steps of depth ``d`` as ``(slot, kind, a, b)``.
    """
    depths: list[int] = []
    var_slots = [0] * k
    runs: list[list[tuple]] = [[] for _ in range(k + 1)]
    for slot, (kind, a, b) in enumerate(steps):
        if kind is Var:
            var_slots[a] = slot
            depth = a
        elif a is None:
            depth = -1
        else:
            depth = max(depths[a], depths[b])
            runs[depth + 1].append((slot, kind, a, b))
        depths.append(depth)
    return var_slots, runs


def _scan(level: _Level, steps: list[tuple], var_slots: list[int], runs: list[list[tuple]]):
    """The least falsifying assignment on ``level`` as a tuple of indices, or ``None``.

    Loop ``d`` binds variable ``d`` and runs only the steps of depth
    ``d``.  A connective on indices is computed once by
    ``_Level.apply`` and read from the level's memo after that, in this
    scan and in every later one at the same size.

    Values are pruned by relabelling: a permutation ``g`` maps
    counterexamples to counterexamples, so the least one ``c`` satisfies
    ``c <= g.c``.  When ``g`` fixes the bound prefix this forces
    ``c[d] <= g.c[d]``, so a value that some such ``g`` maps lower is
    skipped, and the first hit is still ``c``.  The first variable,
    with nothing bound, takes only the block shapes, the least of each
    orbit; a deeper one is tested against the ``_Level.swaps`` that fix
    every bound value.
    """
    size, k, memo = level.size, len(var_slots), level.memo
    top = size - 1
    # The indiscrete partition is index 0 and the discrete one is ``top``.
    slots = [top if kind is Const1 else 0 for kind, _, _ in steps]
    values = [0] * k

    def descend(depth: int, candidates: Iterable[int], swaps: list[array]) -> bool:
        slot, todo, last = var_slots[depth], runs[depth + 1], depth == k - 1
        for v in candidates:
            slots[slot] = values[depth] = v
            for out, kind, a, b in todo:
                key = (kind, slots[a], slots[b])
                value = memo.get(key)
                if value is None:
                    if len(memo) >= _MEMO_LIMIT:
                        memo.clear()
                    value = memo[key] = level.apply(*key)
                slots[out] = value
            if last:
                if slots[-1] != top:
                    return True
                continue
            fixing = [row for row in swaps if row[v] == v]
            lows = map(min, range(size), *fixing) if fixing else range(size)
            least = itertools.compress(range(size), map(operator.eq, lows, itertools.count()))
            if descend(depth + 1, least, fixing):
                return True
        return False

    for out, kind, a, b in runs[0]:
        slots[out] = level.apply(kind, slots[a], slots[b])
    if not k:
        return () if slots[-1] != top else None
    return tuple(values) if descend(0, level.shapes, level.swaps if k > 1 else []) else None


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
    ``ValueError`` for a formula of more than ``MAX_TAUTOLOGY_VARS``
    variables before scanning anything, and
    :class:`SearchBudgetExceeded` before scanning any level whose
    assignment count passes ``budget``.  Each size's ``_Level`` is built
    once per process and kept: partitions are addressed by index, its
    memo is bounded by ``_MEMO_LIMIT``, and its ``3*n*n/4`` or so
    relabelling rows are built on the first formula of two or more
    variables, where Bell(n)**2 <= ``budget`` bounds them.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    names, steps = _compile(f)
    if len(names) > MAX_TAUTOLOGY_VARS:
        raise ValueError(f"formula has {len(names)} variables, past the bound {MAX_TAUTOLOGY_VARS}")
    var_slots, runs = _schedule(steps, len(names))
    for n in range(2, (max_n if names else 2) + 1):
        level = _level(n)
        count = level.size ** len(names)
        if count > budget:
            raise SearchBudgetExceeded(
                f"level n={n} needs {count} assignments, past the budget {budget}"
            )
        hit = _scan(level, steps, var_slots, runs)
        if hit is not None:
            return Assignment(n, {name: level.partition(i) for name, i in zip(names, hit)})
    return None
