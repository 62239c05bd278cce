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
from array import array
from typing import Mapping, Sequence

from .core import Partition, _Value, _set_field, enumerate_partitions
from .algebra import boolean_core
from .ops import implication_blocks, join, meet

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

MAX_TAUTOLOGY_VARS = 20
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
        for name, p in bindings.items():
            if p.n != n:
                raise ValueError(f"binding {name!r} has universe size {p.n}, expected {n}")
        _set_field(self, "n", n)
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
    True.  Raises ``ValueError`` for a formula of more than
    ``MAX_TAUTOLOGY_VARS`` variables, as
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
    connective on those indices and from ``("core", i, None)`` to
    ``preimages(i)``.  Only ``fill`` writes the memo, which holds at
    most ``_MEMO_LIMIT`` entries.
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
        self.memo: dict[tuple, int | list[int]] = {}

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

    def fill(self, key: tuple) -> int | list[int]:
        """Compute the memo entry ``key``, store it, and return it; a full memo is cleared first.

        ``(kind, i, j)`` is the index of connective ``kind`` on indices
        ``i`` and ``j``, and ``("core", i, None)`` is ``preimages(i)``.
        """
        memo = self.memo
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        kind, i, j = key
        if j is None:
            value = self.preimages(i)
        else:
            value = _rank(self.tails, self.algebra[kind](self.partition(i), self.partition(j)).rgs)
        memo[key] = value
        return value

    def preimages(self, index: int) -> list[int]:
        """One ``x`` for each value ``x -> z`` takes, ``z`` the partition at ``index``.

        By the block rule ``x -> z`` dissolves the blocks of ``z`` inside
        a block of ``x`` and keeps the others whole, so its values are
        the Boolean core of ``z``: one member per set D of non-singleton
        blocks dissolved.  The ``x`` that keeps the blocks of D whole and
        makes every other element a singleton gives that member, so the
        core itself is a set of preimages.
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


def _schedule(steps: list[tuple], k: int) -> tuple[tuple, tuple | None]:
    """The schedules ``_scan`` takes for the name-order and the core-image scan.

    Each binds the ``k`` variables in nested loops and runs each
    connective step in the loop of the last-bound variable it depends
    on, loop 0 when it depends on none.  It holds the slot of each
    loop's variable step, each loop's source of values (a slot, or
    ``None``) and, at ``runs[d]``, loop ``d``'s steps as
    ``(slot, kind, a, b)``.  The first binds the variables by name, the
    first sorted name outermost.  The second, ``None`` when no variable
    is reducible, binds the others first, by name, then each reducible
    one in the order of its ``Implies`` step, from that step's right
    operand.

    A variable is reducible when its one use is as the left operand of
    an ``Implies`` step, so the formula sees ``v`` only through
    ``v -> r``; the uses of each step are counted once, for both
    schedules.  ``r`` cannot depend on ``v``: that would take a second
    use, by a step under ``r`` or, when ``r`` is ``v``, by the same step.
    """
    uses = [0] * len(steps)
    for _, a, b in steps:
        if b is not None:  # a connective; variable and constant steps have no right operand
            uses[a] += 1
            uses[b] += 1
    reducible = {steps[a][1]: b for kind, a, b in steps if kind is Implies and uses[a] == 1 and steps[a][0] is Var}

    def loops(cores: Mapping[int, int]) -> tuple:
        order = [v for v in range(k) if v not in cores] + list(cores)
        depths: list[int] = []
        var_slots = [0] * k
        runs: list[list[tuple]] = [[] for _ in range(k)]
        for slot, (kind, a, b) in enumerate(steps):
            if kind is Var:
                depth = order.index(a)
                var_slots[depth] = slot
            elif b is None:
                depth = 0
            else:
                depth = max(depths[a], depths[b])
                runs[depth].append((slot, kind, a, b))
            depths.append(depth)
        return var_slots, list(map(cores.get, order)), runs

    return loops({}), loops(reducible) if reducible else None


def _scan(level: _Level, steps: list[tuple], schedule: tuple):
    """A falsifying assignment on ``level`` as a tuple of indices in loop order, or ``None``.

    ``schedule`` is ``(var_slots, sources, runs)``: loop ``d`` binds the
    variable at slot ``var_slots[d]`` and runs only its own steps,
    ``runs[d]``.  A bound value lives in its variable's slot alone: the
    deeper loops read it there, and so does the hit.  A connective on
    indices, like a list of preimages, is computed once by
    ``_Level.fill`` and read from the level's memo after that, in this
    scan and in every later one at the same size.  It runs on levels
    from n=3, for formulas with at least one variable; n=2 is
    ``_truth_table``.

    ``sources[d]`` says where loop ``d`` takes its values.  ``None``
    prunes them by relabelling: a permutation ``g`` maps
    counterexamples to counterexamples, so the least one ``c``
    satisfies ``c <= g.c``.  When ``g`` fixes the bound prefix this
    forces ``c[d] <= g.c[d]``, so a value that some such ``g`` maps
    lower is skipped, and the first hit is still ``c``, the least
    counterexample in loop order.  The first variable, with nothing
    bound, takes only the block shapes, the least of each orbit; a
    deeper one is tested against the ``_Level.swaps`` that fix every
    bound value.

    A slot ``r`` instead scans a reducible variable ``v`` over the
    Boolean core of the value of ``r``: it takes ``_Level.preimages`` of
    that value, kept in the memo, one real partition for each value
    ``v -> r`` can take.  The formula sees ``v`` only through that
    implication, so this loop decides whether a counterexample extends
    the bound prefix, though not which one is least.  Such loops come
    after every loop that prunes by relabelling, and the projection of
    the counterexamples to those loops is closed under relabelling too.
    Loop 0 reads an ``r`` on constants alone before running it, as 0.
    That is exact: such a step is the bottom, 0, or the top, and under
    the top every ``v -> r`` is the top whatever ``v`` takes.
    """
    var_slots, sources, runs = schedule
    size, k, memo = level.size, len(var_slots), level.memo
    top = size - 1
    # The indiscrete partition is index 0 and the discrete one is ``top``.
    slots = [top if kind is Const1 else 0 for kind, _, _ in steps]

    def descend(depth: int, swaps: list[array]) -> bool:
        slot, todo, last, source = var_slots[depth], runs[depth], depth == k - 1, sources[depth]
        if source is not None:
            key = ("core", slots[source], None)
            try:
                candidates = memo[key]
            except KeyError:
                candidates = level.fill(key)
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
                key = (kind, slots[a], slots[b])
                try:
                    slots[out] = memo[key]
                except KeyError:
                    slots[out] = level.fill(key)
            if last:
                if slots[-1] != top:
                    return True
            elif descend(depth + 1, swaps):
                return True
        return False

    found = descend(0, level.swaps if None in sources[1:] else [])
    return tuple(map(slots.__getitem__, var_slots)) if found else None


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
    step once per chunk of up to ``2**_CHUNK_BITS`` rows.  A closed
    formula stops there: the two constants form the same two-element
    Boolean algebra at every larger size.  Levels n>=3 run ``_scan`` on
    the two schedules one ``_schedule`` call builds on the first of them.

    A formula with a reducible variable, such as each ``v`` of a
    relativized ``v -> z`` or one that occurs only negated, is first
    decided by the core-image scan: each reducible ``v`` takes one
    preimage per member of the Boolean core of its right operand's value
    (2**b members for b non-singleton blocks, against Bell(n)
    partitions).  Only on the level where that scan finds a hit does the
    name-order scan run and return the lex-least counterexample; a
    tautology never pays for it.

    Raises ``ValueError`` when ``max_n`` or ``budget`` is not an
    ``int`` (a ``bool`` is not), when ``max_n < 2`` or ``budget < 1``,
    and for a formula of more than ``MAX_TAUTOLOGY_VARS`` variables,
    all before scanning anything, and
    :class:`SearchBudgetExceeded` before scanning any level whose
    assignment count passes ``budget``.  Each size's ``_Level`` is built
    once per process and kept: partitions are addressed by index, its
    memo is bounded by ``_MEMO_LIMIT``, and its ``3*n*n/4`` or so
    relabelling rows are built on the first scan that prunes two or
    more variables by relabelling, where Bell(n)**2 <= ``budget`` bounds
    them.
    """
    for name, value, least in (("max_n", max_n, 2), ("budget", budget, 1)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    names, steps = _compile(f)
    k = len(names)
    if k > MAX_TAUTOLOGY_VARS:
        raise ValueError(f"formula has {k} variables, past the bound {MAX_TAUTOLOGY_VARS}")
    by_name = None
    for n in range(2, (max_n if names else 2) + 1):
        level = _level(n)
        count = level.size ** k
        if count > budget:
            raise SearchBudgetExceeded(
                f"level n={n} needs {count} assignments, past the budget {budget}"
            )
        if n == 2:
            hit = _truth_table(steps, k)
        else:
            if by_name is None:
                by_name, by_core = _schedule(steps, k)
            if by_core and _scan(level, steps, by_core) is None:
                continue
            hit = _scan(level, steps, by_name)
        if hit is not None:
            return Assignment(n, {name: level.partition(i) for name, i in zip(names, hit)})
    return None
