"""The Boolean algebra sitting above a fixed partition.

For a fixed partition ``pi``, the partitions of the form
``sigma => pi`` are exactly the partitions that discretize some subset
of the non-singleton blocks of ``pi`` and leave the rest whole.  They
form a Boolean algebra inside the segment from ``pi`` up to the discrete
partition, isomorphic to the powerset of those non-singleton blocks.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .core import Partition, _Value, _require_same_universe, _set_field, refines
from .ops import _discretize, _straddling, implication_blocks, join, meet

MAX_CORE_BLOCKS = 14
# Members times elements a core may hold: a core of 14 blocks fits 32 elements.
MAX_CORE_ENTRIES = 1 << 19


class BooleanCore(_Value):
    """All partitions of the form ``sigma => pi`` for a fixed ``pi``.

    ``members[mask]`` discretizes exactly the blocks of ``ns_blocks``
    whose bit is set in ``mask``, so ``members[0]`` is ``pi`` itself and
    the last member is the discrete partition.
    """

    __match_args__ = ("pi", "ns_blocks", "members")
    pi: Partition
    ns_blocks: tuple[tuple[int, ...], ...]
    members: tuple[Partition, ...]

    def __init__(self, pi: Partition, ns_blocks: tuple[tuple[int, ...], ...], members: tuple[Partition, ...]):
        _set_field(self, "pi", pi)
        _set_field(self, "ns_blocks", ns_blocks)
        _set_field(self, "members", members)

    @property
    def bottom(self) -> Partition:
        return self.members[0]

    @property
    def top(self) -> Partition:
        return self.members[-1]

    @cached_property
    def _member_masks(self) -> dict[Partition, int]:
        return {member: mask for mask, member in enumerate(self.members)}

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Partition) -> bool:
        return p in self._member_masks


def boolean_core(pi: Partition) -> BooleanCore:
    """Materialize the Boolean core of ``pi``.

    Builds one member per subset of the non-singleton blocks and checks
    each member is a double-negation fixed point.  The discrete
    partition has no non-singleton blocks, so its core is the
    one-element algebra.  A core of more than ``MAX_CORE_BLOCKS``
    blocks, or of more than ``MAX_CORE_ENTRIES`` entries over all its
    members, is refused.
    """
    ns_labels = [b for b, block in enumerate(pi.blocks) if len(block) > 1]
    k = len(ns_labels)
    if k > MAX_CORE_BLOCKS:
        raise ValueError(f"core would have 2**{k} members, past the bound 2**{MAX_CORE_BLOCKS}")
    if pi.n << k > MAX_CORE_ENTRIES:
        raise ValueError(
            f"core would have 2**{k} members of {pi.n} elements, past the bound of {MAX_CORE_ENTRIES} entries"
        )
    ns_blocks = tuple(pi.blocks[b] for b in ns_labels)
    members = [
        _discretize(pi, {b for i, b in enumerate(ns_labels) if not mask >> i & 1})
        for mask in range(1 << k)
    ]
    core = BooleanCore(pi, ns_blocks, tuple(members))
    for member in members:
        if double_pi_negation(member, pi) != member:
            raise RuntimeError("core member failed the double-negation round-trip")
    return core


def core_from_subset(core: BooleanCore, chosen: Iterable[int]) -> Partition:
    """The member discretizing exactly the chosen non-singleton blocks."""
    mask = 0
    for i in chosen:
        if not (0 <= i < len(core.ns_blocks)):
            raise ValueError(f"block index {i} out of range for {len(core.ns_blocks)} non-singleton blocks")
        mask |= 1 << i
    return core.members[mask]


def core_to_subset(core: BooleanCore, member: Partition) -> frozenset[int]:
    """The set of discretized non-singleton blocks of a core member."""
    mask = core._member_masks.get(member)
    if mask is None:
        raise ValueError("partition is not a member of the core")
    return frozenset(i for i in range(len(core.ns_blocks)) if mask >> i & 1)


def double_pi_negation(sigma: Partition, pi: Partition) -> Partition:
    """Negate ``sigma`` relative to ``pi`` twice.

    This is the closure of ``sigma`` into the core: the blocks of ``pi``
    that lie inside blocks of ``sigma`` stay whole and everything else
    discretizes, so ``sigma`` always refines into the result.  The
    block rule is applied once, keeping whole the non-singleton blocks
    that no block of ``sigma`` straddles, so the ends of the core are
    returned without building a partition: the ``pi`` argument itself
    when nothing straddles, and the shared ``Partition.discrete(n)``
    when every non-singleton block does.  Values are frozen, so which
    object comes back is not part of the result.
    """
    _require_same_universe(sigma, pi)
    straddling, repeated = _straddling(sigma, pi)
    if not straddling:
        return pi
    if len(straddling) == len(repeated):
        return Partition.discrete(pi.n)
    return _discretize(pi, repeated - straddling)


def excluded_middle_partition(sigma: Partition, pi: Partition) -> Partition:
    """The join of ``sigma`` with its negation relative to ``pi``.

    Not the discrete partition in general, but dense relative to ``pi``:
    its double negation is always discrete.
    """
    return join(sigma, implication_blocks(sigma, pi))


def check_join_decomposition(sigma: Partition, pi: Partition) -> bool:
    """Verify that the join splits through the core.

    The join of ``sigma`` and ``pi`` must equal the meet of the
    excluded-middle partition with the double negation of ``sigma``.
    """
    neg_sigma = implication_blocks(sigma, pi)  # shared by both operands of the meet
    return join(sigma, pi) == meet(join(sigma, neg_sigma), implication_blocks(neg_sigma, pi))


def check_core_distribution(phi: Partition, pi: Partition, sigma: Partition, tau: Partition) -> bool:
    """Verify that ``phi`` distributes over negated elements.

    ``phi`` must lie in the segment from ``pi`` up to the discrete
    partition; both distributive equations over the relative negations
    of ``sigma`` and ``tau`` are checked.
    """
    _require_same_universe(phi, pi)
    _require_same_universe(sigma, tau)
    _require_same_universe(phi, sigma)
    if not refines(pi, phi):
        raise ValueError("phi must refine pi (lie in the segment above pi)")
    neg_sigma = implication_blocks(sigma, pi)
    neg_tau = implication_blocks(tau, pi)
    over_meet = join(phi, meet(neg_sigma, neg_tau)) == meet(join(phi, neg_sigma), join(phi, neg_tau))
    over_join = meet(phi, join(neg_sigma, neg_tau)) == join(meet(phi, neg_sigma), meet(phi, neg_tau))
    return over_meet and over_join
