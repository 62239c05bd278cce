"""Shared oracles, strategies, and suite results.

The oracles here are deliberately independent of the package internals:
plain set arithmetic over frozensets of pairs, brute-force enumeration
by quotienting block labelings, and formula evaluators that walk the
tree with no compilation.  They exist so the fast implementations are
checked against something slower and more obviously correct.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from hypothesis import strategies as st

from partlogic import (
    And,
    Assignment,
    Const0,
    Const1,
    Formula,
    Implies,
    Not,
    Or,
    Partition,
    Var,
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


def oracle_is_equivalence(pairs: frozenset[tuple[int, int]], n: int) -> bool:
    reflexive = all((u, u) in pairs for u in range(n))
    symmetric = all((v, u) in pairs for u, v in pairs)
    transitive = all(
        (u, w) in pairs
        for u, v in pairs
        for v2, w in pairs
        if v2 == v
    )
    return reflexive and symmetric and transitive


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
