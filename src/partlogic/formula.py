"""Formula language over partitions.

The connectives are disjunction, conjunction, implication, and a
negation read as implication into the bottom constant.  A formula is
evaluated over partitions of a universe: variables range over
partitions, constants are the indiscrete and discrete partitions.  On a
2-set those two partitions are the truth values, so classical validity
is the refuter's n=2 level.

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
import threading
from array import array
from typing import Mapping, Sequence

from .core import Partition, _Value, _set_field, _universe, enumerate_partitions
from .algebra import boolean_core
from .ops import _implication, _join, _meet, implication_blocks, join, meet

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

DEFAULT_MAX_SIZE = 4
DEFAULT_BUDGET = 10**8


class Formula(_Value):
    """Base class for formula nodes, identified by their printed text.

    ``parse`` inverts the printer, so ``==``, ``hash`` and ``repr`` go
    through :func:`format_formula` and never recurse.  Node constructors
    set their fields one by one, with no loop: ``parse`` builds one node
    per token.
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


class Var(Formula):
    """A variable, named by an identifier."""

    __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        _set_field(self, "name", name)


class Const0(Formula):
    """The bottom constant: classically false, the indiscrete partition."""


class Const1(Formula):
    """The top constant: classically true, the discrete partition."""


class Not(Formula):
    """Negation, read as implication into the bottom constant."""

    __match_args__ = ("child",)
    child: Formula

    def __init__(self, child: Formula):
        _set_field(self, "child", child)


class _Binary(Formula):
    """A binary connective; its three classes share this ``__init__``."""

    __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class And(_Binary):
    """Conjunction: the meet of partitions."""


class Or(_Binary):
    """Disjunction: the join of partitions."""


class Implies(_Binary):
    """Implication: the block rule on partitions."""


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
# the node it builds, and how it prints.
_BINARY = {"arrow": (1, True, Implies, " -> "), "or": (2, False, Or, " \\/ "), "and": (3, False, And, " /\\ ")}


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
                top, _, node, _ = _BINARY[operators[-1]]
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
# (``None`` on the left of the prefix ``~``).  A binary operand on the side
# its connective does not group to needs a tighter precedence.  Its keys and
# ``Var``, ``Const0``, ``Const1`` are the node classes, matched by exact type.
_LAYOUT = {Not: (4, "~", None, 4)} | {
    node: (precedence, symbol, precedence + right, precedence + (not right))
    for precedence, right, node, symbol in _BINARY.values()
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
        kind = type(node)
        if kind is Var:
            pieces.append(node.name)
        elif kind is Const0 or kind is Const1:
            pieces.append("0" if kind is Const0 else "1")
        elif kind not in _LAYOUT:
            raise TypeError(f"not a formula node: {kind.__name__}")
        else:
            precedence, symbol, left, right = _LAYOUT[kind]
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


class Assignment(_Value):
    """Bindings from variable names to partitions over one shared universe."""

    __match_args__ = ("n", "bindings")
    n: int
    bindings: Mapping[str, Partition]

    def __init__(self, n: int, bindings: Mapping[str, Partition]):
        _set_field(self, "n", _universe(n))
        for name, p in bindings.items():
            if not isinstance(p, Partition):
                raise ValueError(f"binding {name!r} is {p!r}, not a partition")
            if p.n != n:
                raise ValueError(f"binding {name!r} has universe size {p.n}, expected {n}")
        _set_field(self, "bindings", bindings)


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
            if type(node) is Not:
                key = (Implies, placed[id(node.child)], steps.setdefault((Const0, None, None), len(steps)))
            else:
                key = (type(node), placed[id(node.left)], placed[id(node.right)])
        elif id(node) in placed:
            continue
        elif (kind := type(node)) is Var:
            key = (Var, node.name, None)
        elif kind is Const0 or kind is Const1:
            key = (kind, None, None)
        elif kind is Not:
            todo += node, _PLACED, node.child
            continue
        elif kind in _LAYOUT:
            todo += node, _PLACED, node.right, node.left
            continue
        else:
            raise TypeError(f"not a formula node: {kind.__name__}")
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


def eval_partition(f: Formula, assignment: Assignment) -> Partition:
    """Evaluate over partitions; negation is implication into the indiscrete partition."""
    names, steps = _compile(f)
    return _evaluate(steps, _partition_algebra(assignment.n), _bound_values(names, assignment.bindings))


def is_subset_tautology(f: Formula) -> bool:
    """True when the formula holds under every classical truth assignment.

    The refuter's n=2 level is the truth table, evaluated bit-parallel:
    the indiscrete and discrete partitions of a 2-set are False and
    True.  Raises :class:`SearchBudgetExceeded` for a formula of more
    than 26 variables, whose ``2**k`` rows pass the default budget, as
    :func:`find_partition_counterexample` does.
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


# Entries the tables of one level may hold together; they are cleared when
# full, so memory stays bounded at every size the budget admits.
_MEMO_LIMIT = 1 << 16

# The ``ops`` kernel each connective's fill runs on two rgs tuples.
_KERNELS = {And: _meet, Or: _join, Implies: _implication}


class _Level:
    """The partitions of ``{0..n-1}``, addressed by their index in enumeration order.

    ``tails[i][c]`` counts the ways to fill positions ``i+1..n-1`` of an
    rgs whose first ``i+1`` entries use ``c`` blocks.  It ranks and
    unranks an rgs without enumerating the level: index 0 is the
    indiscrete partition and ``size - 1`` the discrete one.  One level
    serves every formula at its size (see ``_level``), so it keeps what
    depends only on n: the block shapes and the relabelling rows, built
    on first need, and its tables, keyed by int.
    ``memo[kind][i * size + j]`` is the index of connective ``kind`` on
    indices ``i`` and ``j``, ``cores[i]`` is ``core(i)``, and ``rgs[i]``
    is the rgs of index ``i``, kept once a connective has read it.  Only
    ``fill`` writes the tables, all of them in ``tables``, whose lengths
    sum to at most ``_MEMO_LIMIT``.
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
        self.memo: dict[type, dict[int, int]] = {kind: {} for kind in _KERNELS}
        self.cores: dict[int, list[int]] = {}
        self.rgs: dict[int, tuple[int, ...]] = {}
        self.tables = (*self.memo.values(), self.cores, self.rgs)
        self.lock = threading.Lock()

    def unrank(self, index: int) -> tuple[int, ...]:
        """The rgs of the partition at ``index``."""
        rgs = []
        rest = index
        used = 0
        for tail in self.tails:
            count = tail[used]
            block = min(rest // count, used)
            rest -= block * count
            rgs.append(block)
            used += block == used
        return tuple(rgs)

    def partition(self, index: int) -> Partition:
        """The partition at ``index``."""
        return Partition._canonical(self.n, self.rgs.get(index) or self.unrank(index))

    def fill(self, kind: type | None, i: int, j: int | None = None) -> int | list[int]:
        """Compute ``memo[kind][i * size + j]``, or ``cores[i]`` when ``kind`` is ``None``; store it and return it.

        A connective runs its ``ops`` kernel on the rgs of ``i`` and
        ``j``, read from ``rgs`` or unranked and kept there, and ranks
        its labels; no partition is built.  A fill writes at most three
        entries, so when the lengths of the level's tables sum past
        ``_MEMO_LIMIT - 3`` every table is cleared first.  Fills take the
        level's lock, so the sum stays within ``_MEMO_LIMIT`` when threads
        share the level; two threads that miss one entry both store it
        under one key.  Readers take no lock: a read finds a right entry
        or misses and fills.
        """
        with self.lock:
            if sum(map(len, self.tables)) > _MEMO_LIMIT - 3:
                for table in self.tables:
                    table.clear()
            if kind is None:
                value = self.cores[i] = self.core(i)
                return value
            rgs = self.rgs
            x = rgs.get(i) or rgs.setdefault(i, self.unrank(i))
            y = rgs.get(j) or rgs.setdefault(j, self.unrank(j))
            labels = _KERNELS[kind](x, y)
            # The block rule marks the ends of the core of ``y`` (``ops._dissolve``):
            # ``y`` itself and the discrete partition, the last index, need no rank.
            value = j if labels is y else self.size - 1 if type(labels) is range else _rank(self.tails, labels)
            self.memo[kind][i * self.size + j] = value
            return value

    def core(self, index: int) -> list[int]:
        """The indices of the members of the Boolean core of the partition at ``index``, in order.

        By the block rule ``x -> z`` dissolves the blocks of ``z`` inside
        a block of ``x`` and keeps the others whole, so as ``x`` runs over
        all partitions, or over this list alone, ``x -> z`` runs over the
        core of ``z``: one member per set of non-singleton blocks
        dissolved.
        """
        return [_rank(self.tails, x.rgs) for x in boolean_core(self.partition(index)).members]

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
        cuts = [(a, a + length, a + 2 * length)
                for length in range(1, n // 2 + 1) for a in range(n - 2 * length + 1)]
        rows = [array("I") for _ in cuts]
        for p in enumerate_partitions(n):
            for (a, b, c), row in zip(cuts, rows):
                row.append(_rank(tails, p.rgs[:a] + p.rgs[b:c] + p.rgs[a:b] + p.rgs[c:]))
        # The first n-1 rows are the adjacent transpositions.
        return rows + [array("I", map(rows[i].__getitem__, rows[j]))
                       for i in range(n - 3) for j in range(i + 2, n - 1)]


# One level per universe size, shared by every formula.  Each call builds
# its levels from n=2 up, so the sizes kept are 2..m for the largest m
# reached.  A call that scans, with ``max_n`` of 3 or more, drops them all
# first when m passes its ``max_n``; the truth table of ``max_n=2`` scans
# no level, so it keeps them.
_level = functools.cache(_Level)


def _rank(tails: list[list[int]], labels: Sequence) -> int:
    """The index of the partition grouping equal ``labels``."""
    blocks: dict = {}
    index = 0
    for label, tail in zip(labels, tails):
        used = len(blocks)
        index += blocks.setdefault(label, used) * tail[used]
    return index


# The signs a step is reached under from the root, as bits; a step
# reached under both is mixed.  ``_FLIPPED[sign]`` is the sign that an
# implication reached under ``sign`` passes to its left operand.
_POSITIVE, _NEGATIVE, _MIXED = 1, 2, 3
_FLIPPED = (0, _NEGATIVE, _POSITIVE, _MIXED)


def _analyse(steps: list[tuple]) -> tuple[dict[int, bool], dict[int, int]]:
    """The pins of the pure variables, and the sources of the other reducible ones.

    One reverse pass gives each step its uses and its sign: the root is
    positive, ``/\\`` and ``\\/`` pass a step's sign to both operands,
    and ``->`` passes it to its right operand and flips it on its left.
    Join and meet are monotone, and implication, the right adjoint of
    meet, is antitone in its antecedent and monotone in its consequent;
    so the root is monotone in a variable reached only positively and
    antitone in one reached only negatively.  Lowering the first to the
    indiscrete partition or raising the second to the discrete one keeps
    a counterexample, so a level has one exactly when it has one with
    every such pure variable pinned there.  ``pins`` maps each to
    ``True`` when it is pinned at the discrete partition.

    A variable that is not pure is reducible when its one use is as the
    left operand of an ``Implies`` step, so the formula sees ``v`` only
    through ``v -> r``; ``cores`` maps it to the slot of ``r``, in step
    order.  ``r`` cannot depend on ``v``: that would take a second use,
    by a step under ``r`` or, when ``r`` is ``v``, by the same step.
    """
    uses = [0] * len(steps)
    signs = [0] * len(steps)
    signs[-1] = _POSITIVE
    for slot in reversed(range(len(steps))):
        kind, a, b = steps[slot]
        if b is not None:  # a connective; variable and constant steps have no right operand
            sign = signs[slot]
            uses[a] += 1
            uses[b] += 1
            signs[a] |= _FLIPPED[sign] if kind is Implies else sign
            signs[b] |= sign
    pins = {a: sign == _NEGATIVE for (kind, a, _), sign in zip(steps, signs) if kind is Var and sign != _MIXED}
    cores = {steps[a][1]: b for kind, a, b in steps
             if kind is Implies and uses[a] == 1 and steps[a][0] is Var and steps[a][1] not in pins}
    return pins, cores


def _schedule(steps: list[tuple], k: int, pins: Mapping[int, bool], cores: Mapping[int, int]) -> tuple:
    """The loops ``_scan`` runs, with ``pins`` held and each variable in ``cores`` over a core.

    Each of the ``k`` variables that is not pinned gets a loop: first
    those not in ``cores``, by name, the first sorted name outermost,
    then those in ``cores`` in the order of their ``Implies`` steps.
    Each connective step runs in the loop of the last-bound variable it
    depends on.  A step on constants and pinned variables alone depends
    on none: it lies in the two-element subalgebra of the indiscrete and
    discrete partitions at every n, so it is folded here, once, in the
    truth-value algebra of ``_bitsets(0)``.

    The schedule holds each step's initial value as a truth value (0 for
    a step some loop computes), the slot each loop binds, each loop's
    source (a slot, or ``None``), at ``runs[d]`` loop ``d``'s steps as
    ``(slot, kind, a, b)``, the slot of each variable, by name, and the
    number of loops over the whole level, those with source ``None``.  A
    loop over a core binds the ``v -> r`` step itself, from the source
    ``r``: as ``x`` runs over the core of ``r``, ``x -> r`` runs over
    the same set.  So that step leaves ``runs``, and the slot of ``v``
    is never bound.
    """
    order = [v for v in range(k) if v not in pins and v not in cores] + list(cores)
    depth_of = {v: d for d, v in enumerate(order)}
    boolean = _bitsets(0)[1]
    initial: list[int] = []
    depths: list[int] = []
    var_slots = [0] * len(order)
    runs: list[list[tuple]] = [[] for _ in order]
    named = [0] * k
    for slot, (kind, a, b) in enumerate(steps):
        value = 0
        if kind is Var:
            named[a] = slot
            depth = depth_of.get(a, -1)
            if depth < 0:
                value = pins[a]
            elif a not in cores:
                var_slots[depth] = slot
        elif b is None:
            depth, value = -1, boolean[kind]
        else:
            depth = max(depths[a], depths[b])
            if depth < 0:
                value = boolean[kind](initial[a], initial[b])
            elif kind is Implies and steps[a][0] is Var and steps[a][1] in cores:
                var_slots[depth] = slot
            else:
                runs[depth].append((slot, kind, a, b))
        depths.append(depth)
        initial.append(value)
    return initial, var_slots, [cores.get(v) for v in order], runs, named, len(order) - len(cores)


def _scan(level: _Level, schedule: tuple) -> tuple[int, ...] | None:
    """A falsifying assignment on ``level`` as the index of each variable by name, or ``None``.

    ``schedule`` comes from ``_schedule``: loop ``d`` binds the slot
    ``var_slots[d]`` and runs only its own steps, ``runs[d]``.  A bound
    value lives in its slot alone: the deeper loops read it there, and
    so does the hit.  Every other slot starts at its folded truth value,
    the indiscrete partition, index 0, or the discrete one, ``top``.  A
    connective on indices, like a core's member list, is computed once
    by ``_Level.fill`` and read after that from the level's table for
    that connective, ``memo[kind][i * size + j]``, in this scan and in
    every later one at the same size.  It runs on levels from n=3; n=2 is
    ``_truth_table``.  The schedule has a loop: ``_plan`` stops a
    formula with none at n=2.

    ``sources[d]`` says where loop ``d`` takes its values.  ``None``
    prunes them by relabelling: a permutation ``g`` maps
    counterexamples to counterexamples and fixes every folded value, so
    the least one ``c`` satisfies ``c <= g.c``.  When ``g`` fixes the
    bound prefix this forces ``c[d] <= g.c[d]``, so a value that some
    such ``g`` maps lower is skipped, and the first hit is still ``c``,
    the least counterexample in loop order.  The first loop, with nothing bound,
    takes only the block shapes, the least of each orbit; a deeper one
    is tested against the ``_Level.swaps`` that fix every bound value.

    A slot ``r`` instead binds a ``v -> r`` step to each member of the
    Boolean core of the value of ``r``, ``_Level.core`` of that value,
    kept in ``cores``: those are the values ``v -> r`` takes.  The
    formula sees ``v`` only through that implication, so this loop
    decides whether a counterexample extends the bound prefix, though
    not which one is least, and the hit reads ``v`` as index 0.  Such
    loops come after every loop that prunes by relabelling, and the
    projection of the counterexamples to those loops is closed under
    relabelling too.  Each ``r`` is exact when its loop starts: it is
    computed in an earlier loop, or folded.
    """
    initial, var_slots, sources, runs, named, whole = schedule
    size, loops, memo, cores = level.size, len(var_slots), level.memo, level.cores
    top = size - 1
    slots = [top * bit for bit in initial]

    def descend(depth: int, swaps: list[array]) -> bool:
        slot, todo, last, source = var_slots[depth], runs[depth], depth == loops - 1, sources[depth]
        if source is not None:
            try:
                candidates = cores[slots[source]]
            except KeyError:
                candidates = level.fill(None, slots[source])
        elif depth:
            bound = slots[var_slots[depth - 1]]
            swaps = [row for row in swaps if row[bound] == bound]
            lows = map(min, range(size), *swaps) if swaps else range(size)
            candidates = itertools.compress(range(size), map(operator.eq, lows, itertools.count()))
        else:
            candidates = level.shapes
        for v in candidates:
            slots[slot] = v
            for out, kind, a, b in todo:
                try:
                    slots[out] = memo[kind][slots[a] * size + slots[b]]
                except KeyError:
                    slots[out] = level.fill(kind, slots[a], slots[b])
            if last:
                if slots[-1] != top:
                    return True
            elif descend(depth + 1, swaps):
                return True
        return False

    found = descend(0, level.swaps if whole > 1 else [])
    del descend  # it reaches itself through its closure: break the cycle, so a dropped level is freed at once
    return tuple(map(slots.__getitem__, named)) if found else None


# The truth table takes at most ``2**_CHUNK_BITS`` rows in one pass.
_CHUNK_BITS = 12


@functools.cache
def _bitsets(inner: int) -> tuple[int, dict[type, object], tuple[int, ...]]:
    """The set of all ``2**inner`` rows, the algebra on sets of rows, and a mask per variable.

    Row ``r`` gives variable ``i`` bit ``inner-1-i`` of ``r``, so mask
    ``i`` repeats ``h`` clear bits and then ``h`` set ones, with
    ``h = 2**(inner-1-i)``.
    """
    full = (1 << (1 << inner)) - 1
    algebra = {Const0: 0, Const1: full, And: operator.and_, Or: operator.or_, Implies: lambda a, b: full ^ a | b}
    return full, algebra, tuple(full // ((1 << h) + 1) << h for h in (1 << b for b in reversed(range(inner))))


def _truth_table(steps: list[tuple], k: int) -> tuple[int, ...] | None:
    """The least falsifying row of the n=2 level as indices (0 False, 1 True), or ``None``.

    Each value is a set of rows, an int with bit ``r`` for row ``r``.
    Row ``r`` gives variable ``i`` bit ``k-1-i`` of ``r``, the first
    sorted name most significant as in the scan, so the lowest set bit
    of ``full ^ root`` is the lex-least falsifying row.  The last
    ``_CHUNK_BITS`` variables, or all of them, are masks over the rows
    of a chunk; the others are constants, 0 or ``full``, for the chunk,
    whose number counts them up in order.  So memory stays at one chunk
    per step, and a non-tautology stops at the chunk of its first
    falsifying row.
    """
    inner = min(k, _CHUNK_BITS)
    outer = k - inner
    full, algebra, masks = _bitsets(inner)
    for chunk in range(1 << outer):
        values = [full * (chunk >> i & 1) for i in reversed(range(outer))]
        values += masks
        falsified = full ^ _evaluate(steps, algebra, values)
        if falsified:
            row = chunk << inner | (falsified & -falsified).bit_length() - 1
            return tuple(row >> i & 1 for i in reversed(range(k)))
    return None


def _plan(steps: list[tuple], k: int, max_n: int, budget: int) -> tuple:
    """How the levels from n=3 run: ``(deciding, lows, path)``.

    ``deciding`` is the schedule that decides each level, with the pins
    and cores of ``_analyse``.  ``lows`` holds the pins at the indiscrete
    partition that the name-order rerun keeps on the level of a hit, or
    is ``None`` when the deciding scan already returns the lex-least hit:
    it has no core and no pin at the discrete partition.  ``path`` is
    ``"stop"`` for a formula with no loop, which builds no schedule;
    ``"top"`` to scan ``max_n`` first, for a formula with no ``0`` step
    and at most one loop over the whole level whose every level up to
    ``max_n`` fits the budget, walked here only for such a formula; and
    ``"levels"`` to scan level by level.  See
    :func:`find_partition_counterexample` for why each is exact.
    """
    pins, cores = _analyse(steps)
    if len(pins) == k:
        return None, None, "stop"
    deciding = _schedule(steps, k, pins, cores)
    lows = {v: pin for v, pin in pins.items() if not pin} if cores or any(pins.values()) else None
    top = (3 < max_n and deciding[-1] < 2 and (Const0, None, None) not in steps
           and all(_level(n).size ** k <= budget for n in range(3, max_n + 1)))
    return deciding, lows, "top" if top else "levels"


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

    The formula is compiled once.  At n=2 the indiscrete partition
    precedes the discrete one as False precedes True, so that level is
    the truth table, evaluated bit-parallel by ``_truth_table``: every
    step once per chunk of up to ``2**_CHUNK_BITS`` rows.  When it has no
    hit and ``max_n > 2``, ``_plan`` makes, once, every decision about
    the levels from n=3, and the loop over them only reads it.  A formula
    decided at n=2 builds no plan.

    Levels n>=3 run ``_scan``, first on the plan's deciding schedule,
    which ``_analyse`` and ``_schedule`` build.  It pins each pure
    variable: one that occurs only positively at the indiscrete
    partition and one that occurs only negatively at the discrete one,
    and folds every step on constants and pins alone.  It binds each
    other reducible variable, such as each ``v`` of a
    relativized ``v -> z`` whose implication is shared under both signs,
    through ``v -> r`` itself, over the Boolean core of the value of
    ``r`` (2**b members for b non-singleton blocks, against Bell(n)
    partitions).  That scan decides whether the level has a
    counterexample.  Only on the level where it finds one, and only when
    it pinned a variable at the discrete partition or took one over a
    core, is the name-order schedule built from the plan's low pins: it
    keeps the pins at the indiscrete partition, since lowering such a
    variable keeps a counterexample and is lex-no-greater, and its scan
    returns the lex-least counterexample.  A tautology never pays for it.

    A formula with no loop, closed or with every variable pinned, stops
    at n=2.  Its pinned values are the indiscrete and discrete
    partitions, so every step on them lies in the two-element subalgebra,
    the same Boolean algebra at every n>=2, and the truth table, which
    has a row for the pins, has decided it.

    A formula with no ``0`` step, so no ``~`` either, and at most one
    loop over the whole level in its deciding schedule is decided at
    ``max_n`` alone once every level up to it fits the budget: a
    counterexample at n gives one at n+1.  Add an element that is a
    singleton in every variable, and in ``1``, the discrete partition.
    Join, meet and the block rule keep it a singleton, and restricting
    to the old elements commutes with each of them (no chain of a meet
    passes through a singleton, and a block of ``y`` lies in a block of
    ``x`` before exactly when it does after), so the root stays
    non-discrete.  ``0``, the indiscrete partition, puts the new element
    in its one block, and such a formula scans level by level.  No hit
    at ``max_n`` means none below it; on a hit the levels from n=3 run
    in order as above, to find the least one.  The loop rule bounds what
    a formula refuted below ``max_n`` pays for the top scan.  With one
    such loop, which takes only the block shapes, and every other
    variable pinned or over a core, a level costs a small multiple of
    the one below it; each further such loop takes up to Bell(n) values,
    so the top level would cost Bell(max_n) / Bell(max_n - 1) times the
    one below it or more.

    Raises ``ValueError`` when ``max_n`` or ``budget`` is not an
    ``int`` (a ``bool`` is not), or when ``max_n < 2`` or
    ``budget < 1``, before scanning anything, and
    :class:`SearchBudgetExceeded` before scanning any level whose
    assignment count passes ``budget``.  At n=2 that count is the
    ``2**k`` rows of the truth table, so the budget alone bounds the
    variables: the default admits k <= 26.  Each size's ``_Level`` is
    built once and kept for later calls, up to the first call with a
    smaller ``max_n`` past 2, which drops every kept level first.
    Partitions are addressed by index, a level's tables hold at most
    ``_MEMO_LIMIT`` entries together, and its ``3*n*n/4`` or so
    relabelling rows are built on the first scan that prunes two or more
    variables by relabelling, where Bell(n)**2 <= ``budget`` bounds them.
    """
    for name, value, least in (("max_n", max_n, 2), ("budget", budget, 1)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    names, steps = _compile(f)
    k = len(names)
    if max_n > 2 and _level.cache_info().currsize > max_n - 1:
        _level.cache_clear()
    for n in range(2, max_n + 1):
        level = _level(n)
        count = level.size ** k
        if count > budget:
            raise SearchBudgetExceeded(f"level n={n} needs {count} assignments, past the budget {budget}")
        if n == 2:
            hit = _truth_table(steps, k)
            if hit is None and max_n > 2:
                deciding, lows, path = _plan(steps, k, max_n, budget)
                if path == "stop" or path == "top" and _scan(_level(max_n), deciding) is None:
                    return None
        else:
            hit = _scan(level, deciding)
            if hit is not None and lows is not None:
                hit = _scan(level, _schedule(steps, k, lows, {}))
        if hit is not None:
            return Assignment(n, {name: level.partition(i) for name, i in zip(names, hit)})
    return None
