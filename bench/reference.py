"""Independent reference semantics for checking the program's outputs.

Nothing here imports the package under test.  A partition of
``{0..n-1}`` is a frozenset of frozensets (its blocks); join, meet and
the block-rule implication are written straight from their definitions.
Formulas are nested tuples:

    ("var", name)  ("const", 0 | 1)  ("not", f)
    ("and", f, g)  ("or", f, g)      ("imp", f, g)

The module also holds a small parser and printer for the program's
formula syntax, a truth-table checker, a brute-force refuter and a
partition-literal reader, so every verdict the benchmark sees can be
recomputed here.
"""

from __future__ import annotations

import itertools
import re

BINARY = ("and", "or", "imp")
_SYMBOL = {"and": "/\\", "or": "\\/", "imp": "->"}


# --- partitions -----------------------------------------------------------

def rgs_tuples(n):
    """Every restricted-growth string of length ``n``, in lexicographic order."""
    def grow(prefix, peak):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(peak + 2):
            prefix.append(b)
            yield from grow(prefix, max(peak, b))
            prefix.pop()
    yield from grow([0], 0)


def from_rgs(rgs):
    blocks = {}
    for u, b in enumerate(rgs):
        blocks.setdefault(b, set()).add(u)
    return frozenset(frozenset(block) for block in blocks.values())


def to_rgs(partition, n):
    """Canonical restricted-growth string: blocks numbered by least element."""
    label = [0] * n
    for b, block in enumerate(sorted(partition, key=min)):
        for u in block:
            label[u] = b
    return tuple(label)


def canonical_rgs(labels):
    """Restricted-growth string grouping equal labels."""
    index = {}
    return tuple(index.setdefault(lab, len(index)) for lab in labels)


def top(n):
    """The discrete partition: every element alone."""
    return frozenset(frozenset((u,)) for u in range(n))


def bottom(n):
    """The indiscrete partition: one block."""
    return frozenset((frozenset(range(n)),))


def join(p, q):
    """Non-empty intersections of a block of ``p`` with a block of ``q``."""
    return frozenset(a & b for a in p for b in q if a & b)


def meet(p, q):
    """Blocks are the classes of the equivalence both operands generate."""
    merged = []
    for block in itertools.chain(p, q):
        block = set(block)
        apart = []
        for other in merged:
            if other & block:
                block |= other
            else:
                apart.append(other)
        apart.append(block)
        merged = apart
    return frozenset(frozenset(block) for block in merged)


def implies(sigma, pi):
    """Block rule: a block of ``pi`` inside a block of ``sigma`` becomes singletons."""
    out = []
    for block in pi:
        if any(block <= whole for whole in sigma):
            out.extend(frozenset((u,)) for u in block)
        else:
            out.append(block)
    return frozenset(out)


def boolean_core_members(pi, n):
    """Members ``sigma => pi``, indexed by the mask of discretized non-singleton blocks."""
    ns_blocks = sorted((block for block in pi if len(block) > 1), key=min)
    members = []
    for mask in range(1 << len(ns_blocks)):
        out = [block for block in pi if len(block) == 1]
        for b, block in enumerate(ns_blocks):
            if mask >> b & 1:
                out.extend(frozenset((u,)) for u in block)
            else:
                out.append(block)
        members.append(frozenset(out))
    return members


# --- formulas -------------------------------------------------------------

def variables(f):
    if f[0] == "var":
        return {f[1]}
    if f[0] == "const":
        return set()
    return set().union(*(variables(child) for child in f[1:]))


def eval_bool(f, env):
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "const":
        return bool(f[1])
    if kind == "not":
        return not eval_bool(f[1], env)
    left, right = eval_bool(f[1], env), eval_bool(f[2], env)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    return (not left) or right


def is_tautology(f):
    """Classical validity by the full truth table."""
    names = sorted(variables(f))
    return all(
        eval_bool(f, dict(zip(names, values)))
        for values in itertools.product((False, True), repeat=len(names))
    )


def eval_partition(f, env, n, memo=None):
    """Partition semantics: ``not`` is implication into the bottom."""
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "const":
        return top(n) if f[1] else bottom(n)
    if kind == "not":
        args = (eval_partition(f[1], env, n, memo), bottom(n))
        kind = "imp"
    else:
        args = (eval_partition(f[1], env, n, memo), eval_partition(f[2], env, n, memo))
    if memo is None:
        return _OPS[kind](*args)
    key = (kind,) + args
    value = memo.get(key)
    if value is None:
        value = memo[key] = _OPS[kind](*args)
    return value


_OPS = {"and": meet, "or": join, "imp": implies}


def first_counterexample(f, max_n):
    """Lexicographically least falsifying assignment over n = 2..max_n, or None.

    Variables are taken in name order, each ranging over the partitions
    in restricted-growth order, the first variable most significant.
    Returns ``(n, {name: partition})``.
    """
    names = sorted(variables(f))
    for n in range(2, max_n + 1):
        parts = [from_rgs(rgs) for rgs in rgs_tuples(n)]
        memo = {}
        everything_apart = top(n)
        for combo in itertools.product(parts, repeat=len(names)):
            env = dict(zip(names, combo))
            if eval_partition(f, env, n, memo) != everything_apart:
                return n, env
    return None


def relativize(f, z):
    """The transform: ``v`` becomes ``v -> z``, ``0`` becomes ``z``, ``~g`` is ``g -> 0``."""
    kind = f[0]
    if kind == "var":
        return ("imp", f, ("var", z))
    if kind == "const":
        return f if f[1] else ("var", z)
    if kind == "not":
        return ("imp", relativize(f[1], z), ("var", z))
    return (kind, relativize(f[1], z), relativize(f[2], z))


def size(f):
    """Number of nodes."""
    if f[0] in ("var", "const"):
        return 1
    return 1 + sum(size(child) for child in f[1:])


def format_formula(f):
    """Program syntax, every compound operand parenthesized."""
    def operand(g):
        return f"({format_formula(g)})" if g[0] in BINARY else format_formula(g)
    kind = f[0]
    if kind == "var":
        return f[1]
    if kind == "const":
        return str(f[1])
    if kind == "not":
        return "~" + operand(f[1])
    return f"{operand(f[1])} {_SYMBOL[kind]} {operand(f[2])}"


_TOKEN = re.compile(r"\s*(->|\\/|/\\|[()~01]|[A-Za-z][A-Za-z0-9_]*)")


def parse_formula(text):
    """Parse the program syntax: ``->`` loosest and right-associative, then ``\\/``, ``/\\``, ``~``."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def implication():
        left = chain("\\/", "or", conjunction)
        if tokens[at] == "->":
            take()
            return ("imp", left, implication())
        return left

    def conjunction():
        return chain("/\\", "and", negation)

    def chain(symbol, kind, operand):
        left = operand()
        while tokens[at] == symbol:
            take()
            left = (kind, left, operand())
        return left

    def negation():
        if tokens[at] == "~":
            take()
            return ("not", negation())
        token = take()
        if token == "(":
            inner = implication()
            if take() != ")":
                raise ValueError(f"expected ')' in {text!r}")
            return inner
        if token in ("0", "1"):
            return ("const", int(token))
        if token and (token[0].isalpha()):
            return ("var", token)
        raise ValueError(f"unexpected {token!r} in {text!r}")

    result = implication()
    if tokens[at] != "":
        raise ValueError(f"trailing {tokens[at]!r} in {text!r}")
    return result


# --- partition literals ---------------------------------------------------

def letters(n):
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


def parse_literal(text):
    """Block form ``{{a,b},{c}}`` or ``rgs:0,0,1``; labels sort onto 0..n-1."""
    text = text.strip()
    if text.startswith("rgs:"):
        rgs = tuple(int(tok) for tok in text[4:].split(","))
        return from_rgs(rgs), letters(len(rgs))
    if not (text.startswith("{{") and text.endswith("}}")):
        raise ValueError(f"not a partition literal: {text!r}")
    blocks = [
        [label.strip() for label in body.split(",")]
        for body in text[2:-2].split("},{")
    ]
    labels = tuple(sorted(label for block in blocks for label in block))
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError(f"repeated label in {text!r}")
    return frozenset(frozenset(index[label] for label in block) for block in blocks), labels


def format_literal(partition, labels):
    """Block form, blocks by least element, elements ascending."""
    return "{" + ",".join(
        "{" + ",".join(labels[u] for u in sorted(block)) + "}"
        for block in sorted(partition, key=min)
    ) + "}"
