"""Canonical set partitions and binary relations on a finite universe.

The universe is always ``{0, .., n-1}``; human-readable labels are a
front-end concern.  A partition is stored as a restricted-growth string,
so every partition has exactly one representation and equality, hashing,
and ordering are plain tuple operations.  Binary relations are bit grids
packed into a single integer, which keeps the exhaustive checks in the
test batteries cheap at any universe size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Hashable, Iterable, Iterator, Sequence


def _require_same_universe(a, b) -> None:
    if a.n != b.n:
        raise ValueError(f"universe size mismatch: {a.n} != {b.n}")


def _component_labels(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Label each of ``0..n-1`` by a representative of its connected component.

    Union-find with path halving; the one place the package merges
    classes, shared by relation closure, meet, and the link-labelling
    method.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [find(u) for u in range(n)]


@dataclass(frozen=True)
class BinaryRelation:
    """A set of ordered pairs over ``{0..n-1} x {0..n-1}``.

    Pair ``(u, v)`` occupies bit ``u*n + v`` of ``bits``.  Python's
    arbitrary-precision integers make one dense representation work for
    every ``n``, with the set algebra as single bitwise operations.
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe must contain at least one element")
        if self.bits < 0 or self.bits >> (self.n * self.n):
            raise ValueError("relation contains a pair outside the universe")

    @classmethod
    def empty(cls, n: int) -> "BinaryRelation":
        return cls(n, 0)

    @classmethod
    def universal(cls, n: int) -> "BinaryRelation":
        return cls(n, (1 << (n * n)) - 1)

    @classmethod
    def identity(cls, n: int) -> "BinaryRelation":
        bits = 0
        for u in range(n):
            bits |= 1 << (u * n + u)
        return cls(n, bits)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], n: int) -> "BinaryRelation":
        bits = 0
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"pair ({u}, {v}) out of range for universe size {n}")
            bits |= 1 << (u * n + v)
        return cls(n, bits)

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        bits = self.bits
        n = self.n
        while bits:
            low = bits & -bits
            yield divmod(low.bit_length() - 1, n)
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self.bits >> (u * self.n + v) & 1)

    def __or__(self, other: "BinaryRelation") -> "BinaryRelation":
        _require_same_universe(self, other)
        return BinaryRelation(self.n, self.bits | other.bits)

    def __and__(self, other: "BinaryRelation") -> "BinaryRelation":
        _require_same_universe(self, other)
        return BinaryRelation(self.n, self.bits & other.bits)

    def __sub__(self, other: "BinaryRelation") -> "BinaryRelation":
        _require_same_universe(self, other)
        return BinaryRelation(self.n, self.bits & ~other.bits)

    def __le__(self, other: "BinaryRelation") -> bool:
        """Subset test."""
        _require_same_universe(self, other)
        return self.bits & ~other.bits == 0

    def complement(self) -> "BinaryRelation":
        return BinaryRelation(self.n, self.bits ^ ((1 << (self.n * self.n)) - 1))

    def _row(self, u: int) -> int:
        return self.bits >> (u * self.n) & ((1 << self.n) - 1)

    def is_reflexive(self) -> bool:
        return BinaryRelation.identity(self.n) <= self

    def is_symmetric(self) -> bool:
        return all((v, u) in self for u, v in self)

    def is_transitive(self) -> bool:
        # R is transitive iff for every (u, v) in R the v-row is inside the u-row.
        return all(self._row(v) & ~self._row(u) == 0 for u, v in self)

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def is_partition_relation(self) -> bool:
        """True when the complement is an equivalence relation.

        Equivalent to irreflexive + symmetric + anti-transitive, but the
        complement formulation is the one implemented.
        """
        return self.complement().is_equivalence()

    def closure(self) -> "BinaryRelation":
        """Smallest equivalence relation containing this one.

        The classes are the connected components of the listed pairs.
        """
        return Partition.from_labels(_component_labels(self.n, self)).inditset

    def interior(self) -> "BinaryRelation":
        """Largest ditset contained in this relation.

        Computed as the complement of the closure of the complement,
        mirroring the topological interior.
        """
        return self.complement().closure().complement()

    def __str__(self) -> str:
        return "{" + ",".join(f"({u},{v})" for u, v in self) + "}"


@dataclass(frozen=True, order=True)
class Partition:
    """A partition of ``{0..n-1}`` in canonical restricted-growth form.

    ``rgs[u]`` is the block index of element ``u``.  Canonical form means
    ``rgs[0] == 0`` and each entry exceeds the running maximum of the
    prefix by at most one; block indices therefore appear in order of
    their least element and every block is non-empty.  Ordering between
    partitions is lexicographic on ``(n, rgs)``, which is also the order
    ``enumerate_partitions`` produces.
    """

    n: int
    rgs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe must contain at least one element")
        if len(self.rgs) != self.n:
            raise ValueError(f"rgs length {len(self.rgs)} does not match universe size {self.n}")
        peak = -1
        for i, b in enumerate(self.rgs):
            if b < 0 or b > peak + 1:
                raise ValueError(f"rgs is not in restricted-growth form at index {i}")
            if b > peak:
                peak = b

    @classmethod
    def _canonical(cls, n: int, rgs: tuple[int, ...]) -> "Partition":
        """Wrap an rgs its builder made canonical, without re-checking it."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "rgs", rgs)
        return p

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        """The partition of all singletons, top of the refinement order."""
        return _discrete(n)

    @classmethod
    def indiscrete(cls, n: int) -> "Partition":
        """The one-block partition, bottom of the refinement order."""
        return _indiscrete(n)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build the canonical partition with the given blocks.

        Blocks must be non-empty, pairwise disjoint, and cover the
        universe exactly; violations raise ``ValueError`` naming the
        failed condition.
        """
        block_lists = [sorted(block) for block in blocks]
        if not block_lists:
            raise ValueError("partition needs at least one block")
        labels: list[int | None] = [None] * n
        for i, block in enumerate(block_lists):
            if not block:
                raise ValueError(f"empty block at position {i}")
            for e in block:
                if not (0 <= e < n):
                    raise ValueError(f"element {e} out of range for universe size {n}")
                if labels[e] is not None:
                    raise ValueError(f"element {e} appears in more than one block")
                labels[e] = i
        for e, lab in enumerate(labels):
            if lab is None:
                raise ValueError(f"blocks do not cover the universe: element {e} missing")
        return cls.from_labels(labels)

    @classmethod
    def from_labels(cls, labels: Sequence[Hashable]) -> "Partition":
        """Group equal labels into blocks and canonicalize."""
        if not labels:
            raise ValueError("universe must contain at least one element")
        index: dict[Hashable, int] = {}
        return cls._canonical(len(labels), tuple(index.setdefault(lab, len(index)) for lab in labels))

    @classmethod
    def from_equivalence(cls, relation: BinaryRelation) -> "Partition":
        """The partition whose blocks are the classes of an equivalence relation."""
        for name, ok in (
            ("reflexive", relation.is_reflexive()),
            ("symmetric", relation.is_symmetric()),
            ("transitive", relation.is_transitive()),
        ):
            if not ok:
                raise ValueError(f"not an equivalence relation: fails to be {name}")
        # The class of u is its row; label each element by the least member.
        labels = [(relation._row(u) & -relation._row(u)).bit_length() - 1 for u in range(relation.n)]
        return cls.from_labels(labels)

    @cached_property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks ordered by least element, elements ascending."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for u, b in enumerate(self.rgs):
            out[b].append(u)
        return tuple(tuple(block) for block in out)

    @cached_property
    def inditset(self) -> BinaryRelation:
        """All ordered pairs of elements lying in the same block."""
        bits = 0
        for block in self.blocks:
            row = 0
            for v in block:
                row |= 1 << v
            for u in block:
                bits |= row << (u * self.n)
        return BinaryRelation(self.n, bits)

    @cached_property
    def ditset(self) -> BinaryRelation:
        """All ordered pairs of elements lying in distinct blocks."""
        return self.inditset.complement()

    def __str__(self) -> str:
        return "{" + ",".join("{" + ",".join(str(u) for u in block) + "}" for block in self.blocks) + "}"


def refines(sigma: Partition, pi: Partition) -> bool:
    """True when ``pi`` refines ``sigma``, written ``sigma <= pi`` in the refinement order.

    Every block of ``pi`` must lie inside a single block of ``sigma``;
    equivalently the distinctions of ``sigma`` are among those of ``pi``.
    The indiscrete partition is below everything and the discrete
    partition is the top.
    """
    _require_same_universe(sigma, pi)
    seen: dict[int, int] = {}
    for u in range(pi.n):
        s = sigma.rgs[u]
        if seen.setdefault(pi.rgs[u], s) != s:
            return False
    return True


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of ``{0..n-1}`` once, in lexicographic rgs order.

    The count is the Bell number of ``n``.  Restricted-growth strings
    are generated in place by Knuth's Algorithm H (TAOCP 4A, 7.2.1.5):
    ``peak[i]`` holds ``max(rgs[:i])``, so the rightmost position that
    can still grow is found without rescanning a prefix.  Nothing is
    cached; every call yields fresh ``Partition`` objects.
    """
    if n < 1:
        raise ValueError("universe must contain at least one element")
    rgs = [0] * n
    peak = [0] * n
    while True:
        yield Partition._canonical(n, tuple(rgs))
        i = n - 1
        while i and rgs[i] > peak[i]:
            i -= 1
        if not i:
            return
        rgs[i] += 1
        top = max(peak[i], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            peak[j] = top


@lru_cache(maxsize=None)
def _discrete(n: int) -> Partition:
    return Partition(n, tuple(range(n)))


@lru_cache(maxsize=None)
def _indiscrete(n: int) -> Partition:
    return Partition(n, (0,) * n)
