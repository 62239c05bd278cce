"""Canonical set partitions and binary relations on a finite universe.

The universe is always ``{0, .., n-1}``; human-readable labels are a
front-end concern.  A partition is stored as a restricted-growth string,
so every partition has exactly one representation and equality, hashing,
and ordering are plain tuple operations.  Binary relations are bit grids
packed into a single integer, which keeps the exhaustive checks in the
test batteries cheap at any universe size.
"""

from __future__ import annotations

from functools import cache, cached_property, total_ordering
from typing import Hashable, Iterable, Iterator, Sequence

# Sets a field from ``__init__``, past the frozen guard.
_set_field = object.__setattr__


class _Value:
    """Base of the package's frozen value classes.

    The fields are the names in ``__match_args__``, set once by each
    class's own ``__init__`` through ``_set_field``; setting or deleting
    any attribute afterwards raises ``dataclasses.FrozenInstanceError``,
    imported only to raise it.  Equality (same class, equal fields),
    hash and repr follow the fields, as a frozen dataclass's do; classes
    on hot paths write their own.  Instances keep a ``__dict__``, so
    cached properties, ``vars``, ``pickle`` and ``copy`` work on them.
    """

    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


def _require_same_universe(a, b) -> None:
    if a.n != b.n:
        raise ValueError(f"universe size mismatch: {a.n} != {b.n}")


def _universe(n: int) -> int:
    """Return ``n`` once it is a usable universe size: an ``int``, not a ``bool``, at least 1."""
    if type(n) is not int:
        raise ValueError(f"universe size {n!r} is not an integer")
    if n < 1:
        raise ValueError("universe must contain at least one element")
    return n


def _grouped(rgs: Sequence[int], items: Sequence) -> list[list]:
    """``items[u]`` for each element ``u``, grouped into the blocks of ``rgs`` in block order.

    One pass: in restricted-growth form each block index is at most one
    past the blocks seen so far.
    """
    blocks: list[list] = []
    for item, b in zip(items, rgs):
        if b < len(blocks):
            blocks[b].append(item)
        else:
            blocks.append([item])
    return blocks


def _equivalence_bits(labels: Sequence[Hashable]) -> int:
    """Relation bits pairing every two elements of ``0..n-1`` that carry equal labels."""
    n = len(labels)
    masks: dict[Hashable, int] = {}
    for u, lab in enumerate(labels):
        masks[lab] = masks.get(lab, 0) | 1 << u
    bits = 0
    for u, lab in enumerate(labels):
        bits |= masks[lab] << (u * n)
    return bits


def _diagonal_bits(n: int) -> int:
    """Relation bits of the pairs ``(u, u)``: the geometric series of bits ``k * (n + 1)``, ``k < n``."""
    return ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)


def _component_labels(n: int, links: Iterable[tuple[int, int]]) -> list[int]:
    """Label each of ``0..n-1`` by the least node of its connected component.

    A union-find over the links ``(u, v)`` (Tarjan, JACM 1975) with path
    halving, linking the larger root under the smaller: every parent is
    then a smaller node or the node itself, so one upward pass settles
    every label.  A node in no link stays alone.  The one place the
    package merges classes, shared by relation closure, meet, and the
    link-labelling method.
    """
    parent = list(range(n))
    for u, v in links:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        else:
            parent[u] = v
    for u in range(n):
        parent[u] = parent[parent[u]]
    return parent


def _pairs(n: int, bits: int) -> Iterator[tuple[int, int]]:
    """The pairs of relation bits in row-major order: the one walk over a relation's pairs.

    Each step clears the lowest bit of one row, not of the whole grid, so
    a dense relation costs time linear in its pairs.  It yields them, so a
    closure holds one pair at a time.
    """
    full = (1 << n) - 1
    u = 0
    while bits:
        row = bits & full
        bits >>= n
        while row:
            low = row & -row
            yield u, low.bit_length() - 1
            row ^= low
        u += 1


def _closure_bits(n: int, bits: int) -> int:
    """Bits of the smallest equivalence relation containing ``bits``: the components of its pairs."""
    return _equivalence_bits(_component_labels(n, _pairs(n, bits)))


class BinaryRelation(_Value):
    """A set of ordered pairs over ``{0..n-1} x {0..n-1}``.

    Pair ``(u, v)`` occupies bit ``u*n + v`` of ``bits``.  Python's
    arbitrary-precision integers make one dense representation work for
    every ``n``, with the set algebra as single bitwise operations.
    """

    __match_args__ = ("n", "bits")
    n: int
    bits: int

    def __init__(self, n: int, bits: int):
        _universe(n)
        if type(bits) is not int:
            raise ValueError(f"relation bits {bits!r} are not an integer")
        if bits < 0 or bits >> (n * n):
            raise ValueError("relation contains a pair outside the universe")
        _set_field(self, "n", n)
        _set_field(self, "bits", bits)

    @classmethod
    def _trusted(cls, n: int, bits: int) -> "BinaryRelation":
        """Wrap bits its builder kept inside an ``n``-universe, without re-checking them."""
        r = object.__new__(cls)
        _set_field(r, "n", n)
        _set_field(r, "bits", bits)
        return r

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.bits == other.bits and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.bits))

    @classmethod
    def identity(cls, n: int) -> "BinaryRelation":
        return cls._trusted(_universe(n), _diagonal_bits(n))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return _pairs(self.n, self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self.bits >> (u * self.n + v) & 1)

    def __or__(self, other: "BinaryRelation") -> "BinaryRelation":
        _require_same_universe(self, other)
        return BinaryRelation._trusted(self.n, self.bits | other.bits)

    def __and__(self, other: "BinaryRelation") -> "BinaryRelation":
        _require_same_universe(self, other)
        return BinaryRelation._trusted(self.n, self.bits & other.bits)

    def __sub__(self, other: "BinaryRelation") -> "BinaryRelation":
        _require_same_universe(self, other)
        return BinaryRelation._trusted(self.n, self.bits & ~other.bits)

    def __le__(self, other: "BinaryRelation") -> bool:
        """Subset test."""
        _require_same_universe(self, other)
        return self.bits & ~other.bits == 0

    def complement(self) -> "BinaryRelation":
        return BinaryRelation._trusted(self.n, self.bits ^ ((1 << (self.n * self.n)) - 1))

    def _rows(self) -> list[int]:
        """Row ``u`` holds bit ``v`` for each pair ``(u, v)``."""
        n, full = self.n, (1 << self.n) - 1
        return [self.bits >> (u * n) & full for u in range(n)]

    def is_reflexive(self) -> bool:
        diagonal = _diagonal_bits(self.n)
        return self.bits & diagonal == diagonal

    def is_symmetric(self) -> bool:
        return all((v, u) in self for u, v in self)

    def is_transitive(self) -> bool:
        # R is transitive iff for every (u, v) in R the v-row is inside the u-row.
        rows = self._rows()
        return all(rows[v] & ~rows[u] == 0 for u, v in self)

    def closure(self) -> "BinaryRelation":
        """Smallest equivalence relation containing this one."""
        return BinaryRelation._trusted(self.n, _closure_bits(self.n, self.bits))

    def interior(self) -> "BinaryRelation":
        """Largest ditset contained in this relation.

        Computed as the complement of the closure of the complement,
        mirroring the topological interior.
        """
        full = (1 << self.n * self.n) - 1
        return BinaryRelation._trusted(self.n, full ^ _closure_bits(self.n, full ^ self.bits))


@total_ordering
class Partition(_Value):
    """A partition of ``{0..n-1}`` in canonical restricted-growth form.

    ``rgs[u]`` is the block index of element ``u``.  Canonical form means
    ``rgs[0] == 0`` and each entry exceeds the running maximum of the
    prefix by at most one; block indices therefore appear in order of
    their least element and every block is non-empty.  Ordering between
    partitions is lexicographic on ``(n, rgs)``, which is also the order
    ``enumerate_partitions`` produces.
    """

    __match_args__ = ("n", "rgs")
    n: int
    rgs: tuple[int, ...]

    def __init__(self, n: int, rgs: tuple[int, ...]):
        if len(rgs) != _universe(n):
            raise ValueError(f"rgs length {len(rgs)} does not match universe size {n}")
        peak = -1
        for i, b in enumerate(rgs):
            if type(b) is not int:
                raise ValueError(f"rgs entry {b!r} at index {i} is not an integer")
            if b < 0 or b > peak + 1:
                raise ValueError(f"rgs is not in restricted-growth form at index {i}")
            if b > peak:
                peak = b
        _set_field(self, "n", n)
        _set_field(self, "rgs", tuple(rgs))

    @classmethod
    def _canonical(cls, n: int, rgs: tuple[int, ...]) -> "Partition":
        """Wrap an rgs its builder made canonical, without re-checking it."""
        p = object.__new__(cls)
        _set_field(p, "n", n)
        _set_field(p, "rgs", rgs)
        return p

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rgs == other.rgs  # of length n, so n agrees too
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.rgs))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rgs) < (other.n, other.rgs)
        return NotImplemented

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        """The partition of all singletons, top of the refinement order; one per size."""
        return _discrete(cls, _universe(n))

    @classmethod
    def indiscrete(cls, n: int) -> "Partition":
        """The one-block partition, bottom of the refinement order; one per size."""
        return _indiscrete(cls, _universe(n))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build the canonical partition with the given blocks.

        Elements must be ``int`` (a ``bool`` is not), and blocks
        non-empty, pairwise disjoint, and cover the universe exactly;
        violations raise ``ValueError`` naming the failed condition.
        """
        block_lists = [list(block) for block in blocks]
        if not block_lists:
            raise ValueError("partition needs at least one block")
        labels: list[int | None] = [None] * _universe(n)
        for i, block in enumerate(block_lists):
            if not block:
                raise ValueError(f"empty block at position {i}")
            for e in block:
                if type(e) is not int:
                    raise ValueError(f"element {e!r} is not an integer")
            for e in sorted(block):
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
        index: dict[Hashable, int] = {}
        return cls._canonical(_universe(len(labels)), tuple([index.setdefault(lab, len(index)) for lab in labels]))

    @classmethod
    def from_equivalence(cls, relation: BinaryRelation) -> "Partition":
        """The partition whose blocks are the classes of an equivalence relation."""
        # Label each element by the least member of its row.  A relation is
        # an equivalence exactly when it pairs the elements with equal labels;
        # only a mismatch pays for the predicates, to name what fails.
        labels = [(row & -row).bit_length() - 1 for row in relation._rows()]
        if _equivalence_bits(labels) != relation.bits:
            for name in ("reflexive", "symmetric", "transitive"):
                if not getattr(relation, f"is_{name}")():
                    raise ValueError(f"not an equivalence relation: fails to be {name}")
        return cls.from_labels(labels)

    @cached_property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks ordered by least element, elements ascending."""
        return tuple(map(tuple, _grouped(self.rgs, range(self.n))))

    @cached_property
    def inditset(self) -> BinaryRelation:
        """All ordered pairs of elements lying in the same block."""
        return BinaryRelation._trusted(self.n, _equivalence_bits(self.rgs))

    @cached_property
    def ditset(self) -> BinaryRelation:
        """All ordered pairs of elements lying in distinct blocks."""
        return self.inditset.complement()

    def __str__(self) -> str:
        return "{" + ",".join("{" + ",".join(str(u) for u in block) + "}" for block in self.blocks) + "}"


# The shared ends of each size, cached on sizes that ``_universe`` has
# checked: ``2.0 == 2`` and ``True == 1`` would otherwise hit the cache.
_discrete = cache(lambda cls, n: cls._canonical(n, tuple(range(n))))
_indiscrete = cache(lambda cls, n: cls._canonical(n, (0,) * n))


def refines(sigma: Partition, pi: Partition) -> bool:
    """True when ``pi`` refines ``sigma``, written ``sigma <= pi`` in the refinement order.

    No block of ``pi`` may straddle ``sigma``, the scan the block rule of
    implication reads: every block of ``pi`` lies inside a single block of
    ``sigma``, so the distinctions of ``sigma`` are among those of ``pi``.
    The indiscrete partition is below everything and the discrete
    partition is the top.
    """
    _require_same_universe(sigma, pi)
    return not _straddling(sigma.rgs, pi.rgs)[0]


def _straddling(sigma: Sequence[int], pi: Sequence[int]) -> tuple[set[int], set[int]]:
    """The labels of the blocks of rgs ``pi`` that straddle rgs ``sigma``, and of those with two or more elements.

    A block straddles when it meets two blocks of ``sigma``, so the
    first set lies inside the second.
    """
    first: dict[int, int] = {}
    straddling: set[int] = set()
    repeated: set[int] = set()
    for s, b in zip(sigma, pi):
        if b in first:
            repeated.add(b)
            if first[b] != s:
                straddling.add(b)
        else:
            first[b] = s
    return straddling, repeated


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of ``{0..n-1}`` once, in lexicographic rgs order.

    The count is the Bell number of ``n``.  Restricted-growth strings
    are generated in place by Knuth's Algorithm H (TAOCP 4A, 7.2.1.5):
    ``peak[i]`` holds ``max(rgs[:i])``, so the rightmost position that
    can still grow is found without rescanning a prefix.  Nothing is
    cached; every call yields fresh ``Partition`` objects.
    """
    rgs = [0] * _universe(n)
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
