"""Lattice operations and logical operations on partitions.

Join and meet make the partitions on a universe a lattice; implication
upgrades it to an algebra.  Implication comes in four equivalent
formulations: the block rule is the production implementation and the
other three are kept as oracles for cross-checking.  The link-labelling
method generalizes to all sixteen binary truth functions.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    BinaryRelation,
    Partition,
    _Value,
    _component_labels,
    _diagonal_bits,
    _require_same_universe,
    _set_field,
    enumerate_partitions,
)


class BoolOp2(_Value):
    """One of the 16 binary truth functions, as a 4-entry truth table.

    ``table`` is indexed by ``2*left + right``, so the entries are the
    values at (F,F), (F,T), (T,F), (T,T).
    """

    __match_args__ = ("table",)
    table: tuple[bool, bool, bool, bool]

    def __init__(self, table: tuple[bool, bool, bool, bool]):
        if len(table) != 4 or not all(isinstance(v, bool) for v in table):
            raise ValueError("truth table needs exactly four boolean entries")
        _set_field(self, "table", table)

    def __call__(self, left: bool, right: bool) -> bool:
        return self.table[2 * left + right]


OR = BoolOp2((False, True, True, True))
AND = BoolOp2((False, False, False, True))
IMPLIES = BoolOp2((True, True, False, True))


def all_binary_ops() -> tuple[BoolOp2, ...]:
    """All sixteen binary truth functions."""
    return tuple(
        BoolOp2((bool(k & 1), bool(k >> 1 & 1), bool(k >> 2 & 1), bool(k >> 3 & 1)))
        for k in range(16)
    )


def join(p: Partition, q: Partition) -> Partition:
    """Least upper bound in the refinement order.

    Blocks are the non-empty intersections of a block of ``p`` with a
    block of ``q``; the distinctions of the join are the union of the
    operands' distinctions.
    """
    _require_same_universe(p, q)
    return Partition.from_labels(tuple(zip(p.rgs, q.rgs)))


def meet(p: Partition, q: Partition) -> Partition:
    """Greatest lower bound in the refinement order.

    Elements end up together exactly when a chain of overlapping blocks
    of the two operands connects them, i.e. the blocks are the classes
    of the equivalence relation generated by keeping together whatever
    either operand keeps together.  The blocks of ``p`` are the nodes:
    each element links its ``p`` block to the ``p`` block of the first
    element of its ``q`` block, and the blocks are read off the
    connected components.
    """
    _require_same_universe(p, q)
    first: dict[int, int] = {}
    links = zip(p.rgs, map(first.setdefault, q.rgs, p.rgs))
    labels = _component_labels(p.num_blocks, links)
    return Partition.from_labels([labels[b] for b in p.rgs])


def implication_blocks(sigma: Partition, pi: Partition) -> Partition:
    """Implication by the block rule: the production implementation.

    Every block of ``pi`` that lies inside a block of ``sigma`` dissolves
    into singletons; every other block stays whole.  The result lies in
    the Boolean core of ``pi``, and its two ends are returned without
    building a partition: the shared ``Partition.discrete(n)`` when
    ``pi`` refines ``sigma`` (no block straddles), and the ``pi``
    argument itself when every non-singleton block straddles.  Values
    are frozen, so which object comes back is not part of the result.
    """
    _require_same_universe(sigma, pi)
    straddling, repeated = _straddling(sigma, pi)
    if not straddling:
        return Partition.discrete(pi.n)
    if len(straddling) == len(repeated):
        return pi
    return _discretize(pi, straddling)


def _straddling(sigma: Partition, pi: Partition) -> tuple[set[int], set[int]]:
    """The labels of the blocks of ``pi`` that straddle ``sigma``, and of those with two or more elements.

    A block straddles when it meets two blocks of ``sigma``, so the
    first set lies inside the second.  Reads only the two rgs tuples.
    """
    first: dict[int, int] = {}
    straddling: set[int] = set()
    repeated: set[int] = set()
    for s, b in zip(sigma.rgs, pi.rgs):
        if b in first:
            repeated.add(b)
            if first[b] != s:
                straddling.add(b)
        else:
            first[b] = s
    return straddling, repeated


def _discretize(pi: Partition, whole: set[int]) -> Partition:
    """Keep the blocks of ``pi`` whose labels are in ``whole``; dissolve the rest.

    A dissolved element ``u`` gets the label ``-1 - u``, which no block
    of ``pi`` uses, and ``from_labels`` canonicalizes the result.
    """
    return Partition.from_labels([b if b in whole else -1 - u for u, b in enumerate(pi.rgs)])


class AdjunctiveLimitError(ValueError):
    """The adjunctive oracle was asked for a universe beyond its enumeration bound."""


ADJUNCTIVE_LIMIT = 8


@lru_cache(maxsize=None)
def _ditset_masks(n: int) -> tuple[int, ...]:
    """The ditset bits of every partition of ``{0..n-1}``, in enumeration order."""
    return tuple(tau.ditset.bits for tau in enumerate_partitions(n))


def implication_adjunctive(sigma: Partition, pi: Partition) -> Partition:
    """Implication as the largest partition adjoint to intersecting with ``dit(sigma)``.

    Its ditset is the union of every ditset whose intersection with
    ``dit(sigma)`` lands inside ``dit(pi)``.  Ranges over all partitions
    of the universe, so it exists for verification, not production;
    raises :class:`AdjunctiveLimitError` past ``ADJUNCTIVE_LIMIT``.
    """
    _require_same_universe(sigma, pi)
    if sigma.n > ADJUNCTIVE_LIMIT:
        raise AdjunctiveLimitError(
            f"adjunctive oracle limit: universe size {sigma.n} exceeds bound {ADJUNCTIVE_LIMIT}"
        )
    outside = sigma.ditset.bits & ~pi.ditset.bits
    bits = 0
    for dit_tau in _ditset_masks(sigma.n):
        if not dit_tau & outside:
            bits |= dit_tau
    return Partition.from_equivalence(BinaryRelation(sigma.n, bits).complement())


def retained_links(op: BoolOp2, p: Partition, q: Partition) -> BinaryRelation:
    """Off-diagonal pairs whose truth values evaluate to false under ``op``.

    A pair counts as true for a partition when it is one of its
    distinctions.  These are the links that survive the deletion step of
    the link-labelling method; for implication they are exactly the
    pairs distinguished by ``p`` but not by ``q``.
    """
    _require_same_universe(p, q)
    n = p.n
    off = ((1 << n * n) - 1) ^ _diagonal_bits(n)
    dp = p.ditset.bits
    dq = q.ditset.bits
    bits = 0
    for left in (False, True):
        for right in (False, True):
            if not op(left, right):
                bits |= (dp if left else ~dp) & (dq if right else ~dq) & off
    return BinaryRelation._trusted(n, bits)


def binary_op_graph(op: BoolOp2, p: Partition, q: Partition) -> Partition:
    """Evaluate any binary truth function on partitions by the link-labelling method.

    Label every link of the complete graph on the universe with the pair
    of truth values the operands give it, delete the links evaluating to
    true, and read the blocks off the connected components of what
    remains.  ``p`` supplies the left truth-table argument and ``q`` the
    right one.  Isolated vertices become singleton blocks.
    """
    return Partition.from_labels(_component_labels(p.n, retained_links(op, p, q)))


def implication_graph(sigma: Partition, pi: Partition) -> Partition:
    """Implication by the link-labelling method."""
    return binary_op_graph(IMPLIES, sigma, pi)


def implication_interior(sigma: Partition, pi: Partition) -> Partition:
    """Implication through distinction sets.

    Form ``dit(sigma)^c | dit(pi)``, which need not be a ditset, and
    take its interior; the partition is read back off the complementary
    equivalence relation.
    """
    _require_same_universe(sigma, pi)
    target = (sigma.ditset.complement() | pi.ditset).interior()
    return Partition.from_equivalence(target.complement())


def negation(sigma: Partition) -> Partition:
    """Absolute negation: implication into the indiscrete partition.

    Collapses everything except the indiscrete partition itself, whose
    negation is discrete.  Both answers are ends of the Boolean core of
    the indiscrete partition, so no partition is built: the result is
    the shared ``Partition.indiscrete(n)`` or ``Partition.discrete(n)``.
    """
    return implication_blocks(sigma, Partition.indiscrete(sigma.n))
