import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given

from partlogic import BinaryRelation, Partition, all_binary_ops, enumerate_partitions, meet, refines, retained_links
from partlogic.core import _component_labels, _diagonal_bits

from conftest import (
    empty_relation,
    is_equivalence,
    is_partition_relation,
    oracle_closure,
    oracle_ditset,
    oracle_equivalence_failures,
    oracle_fixpoint_closure,
    oracle_inditset,
    oracle_interior,
    oracle_partition_rgs,
    partition_pairs,
    partitions,
    relation_from_pairs,
    relations,
    universal_relation,
)


def all_parts(n):
    return list(enumerate_partitions(n))


class TestConstructors:
    def test_discrete(self):
        assert Partition.discrete(1).rgs == (0,)
        assert Partition.discrete(3).blocks == ((0,), (1,), (2,))
        p = Partition.discrete(4)
        assert p.num_blocks == 4
        # independent count of ordered pairs crossing singleton blocks
        assert len(p.ditset) == len(oracle_ditset([[0], [1], [2], [3]])) == 12

    def test_indiscrete(self):
        assert Partition.indiscrete(1).rgs == (0,)
        assert Partition.indiscrete(3).blocks == ((0, 1, 2),)
        for n in range(1, 6):
            assert len(Partition.indiscrete(n).ditset) == 0

    def test_from_blocks_canonicalizes(self):
        assert Partition.from_blocks([{2}, {0, 1}], 3).rgs == (0, 0, 1)
        assert Partition.from_blocks([[0], [1, 2, 3]], 4).rgs == (0, 1, 1, 1)

    def test_from_blocks_rejects_overlap(self):
        with pytest.raises(ValueError, match="more than one block"):
            Partition.from_blocks([[0, 1], [1, 2]], 3)

    def test_from_blocks_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty block"):
            Partition.from_blocks([[0, 1, 2], []], 3)

    def test_from_blocks_rejects_gaps(self):
        with pytest.raises(ValueError, match="element 2 missing"):
            Partition.from_blocks([[0, 1]], 3)

    def test_from_blocks_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Partition.from_blocks([[0, 3]], 3)
        with pytest.raises(ValueError, match="at least one block"):
            Partition.from_blocks([], 3)

    def test_rgs_validation(self):
        with pytest.raises(ValueError, match="restricted-growth"):
            Partition(3, (1, 0, 0))
        with pytest.raises(ValueError, match="restricted-growth"):
            Partition(3, (0, 2, 0))
        # the public constructor still checks what the trusted builders skip
        with pytest.raises(ValueError, match="restricted-growth"):
            Partition(3, (0, 2, 1))
        with pytest.raises(ValueError, match="at least one element"):
            Partition.from_labels([])
        with pytest.raises(ValueError, match="does not match"):
            Partition(3, (0, 0))
        with pytest.raises(ValueError, match="at least one element"):
            Partition.discrete(0)
        with pytest.raises(ValueError, match="at least one element"):
            Partition.indiscrete(0)

    @given(partitions(max_n=6))
    def test_round_trip_blocks(self, p):
        assert Partition.from_blocks(p.blocks, p.n) == p

    def test_round_trip_blocks_exhaustive(self):
        for n in range(1, 7):
            for p in all_parts(n):
                assert Partition.from_blocks(p.blocks, n) == p


class TestRelations:
    def test_ditset_example(self):
        p = Partition.from_blocks([[0, 1], [2]], 3)
        assert frozenset(p.ditset) == {(0, 2), (2, 0), (1, 2), (2, 1)}
        assert frozenset(p.inditset) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}

    def test_discrete_ditset_is_off_diagonal(self):
        for n in range(1, 6):
            d = Partition.discrete(n)
            assert d.ditset == BinaryRelation.identity(n).complement()
            assert d.inditset == BinaryRelation.identity(n)

    def test_diagonal_bits_closed_form(self):
        for n in range(1, 17):
            diagonal = frozenset((u, u) for u in range(n))
            assert _diagonal_bits(n) == relation_from_pairs(diagonal, n).bits

    def test_complementation_exhaustive(self):
        for n in range(1, 6):
            universal = universal_relation(n)
            for p in all_parts(n):
                assert p.ditset | p.inditset == universal
                assert len(p.ditset & p.inditset) == 0
                assert frozenset(p.ditset) == oracle_ditset([list(b) for b in p.blocks])

    def test_from_pairs_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            relation_from_pairs([(0, 3)], 3)

    def test_relation_validation(self):
        for n in (0, -1):
            with pytest.raises(ValueError) as err:
                BinaryRelation(n, 0)
            assert str(err.value) == "universe must contain at least one element"
        for n in (0, -1, -2):
            with pytest.raises(ValueError) as err:
                BinaryRelation.identity(n)
            assert str(err.value) == "universe must contain at least one element"
        for bits in (-1, 1 << 4, 1 << 9):
            with pytest.raises(ValueError) as err:
                BinaryRelation(2, bits)
            assert str(err.value) == "relation contains a pair outside the universe"

    def test_pairs_outside_the_universe_are_not_members(self):
        full = universal_relation(2)
        assert (1, 1) in full
        assert all(pair not in full for pair in [(0, 2), (2, 0), (-1, 0), (0, -1), (5, 5)])

    def test_set_algebra(self):
        a = relation_from_pairs([(0, 1), (1, 2)], 3)
        b = relation_from_pairs([(1, 2), (2, 2)], 3)
        assert frozenset(a | b) == {(0, 1), (1, 2), (2, 2)}
        assert frozenset(a & b) == {(1, 2)}
        assert frozenset(a - b) == {(0, 1)}
        assert (1, 2) in a and (2, 1) not in a
        assert sorted(a) == [(0, 1), (1, 2)]
        assert list(universal_relation(3)) == list(itertools.product(range(3), repeat=2))
        assert a & b <= a <= a | b


class TestEquivalence:
    def test_partition_from_equivalence_examples(self):
        assert Partition.from_equivalence(BinaryRelation.identity(3)) == Partition.discrete(3)
        assert Partition.from_equivalence(universal_relation(3)) == Partition.indiscrete(3)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for p in all_parts(n):
                assert Partition.from_equivalence(p.inditset) == p

    def test_rejects_non_equivalence(self):
        missing_reflexive = relation_from_pairs([(0, 1), (1, 0)], 3)
        with pytest.raises(ValueError, match="reflexive"):
            Partition.from_equivalence(missing_reflexive)
        asymmetric = BinaryRelation.identity(3) | relation_from_pairs([(0, 1)], 3)
        with pytest.raises(ValueError, match="symmetric"):
            Partition.from_equivalence(asymmetric)
        intransitive = BinaryRelation.identity(3) | relation_from_pairs(
            [(0, 1), (1, 0), (1, 2), (2, 1)], 3
        )
        with pytest.raises(ValueError, match="transitive"):
            Partition.from_equivalence(intransitive)

    def test_decides_every_relation_on_three_elements(self):
        # Accepts exactly the equivalences; otherwise names the first
        # property that fails, in the order reflexive, symmetric, transitive.
        n = 3
        for mask in range(1 << (n * n)):
            r = BinaryRelation(n, mask)
            pairs = frozenset((u, v) for u in range(n) for v in range(n) if mask >> (u * n + v) & 1)
            failures = oracle_equivalence_failures(pairs, n)
            if failures:
                with pytest.raises(ValueError, match=f"fails to be {failures[0]}$"):
                    Partition.from_equivalence(r)
            else:
                assert oracle_inditset(Partition.from_equivalence(r).blocks) == pairs

    def test_predicates(self):
        diagonal = BinaryRelation.identity(3)
        assert is_equivalence(diagonal)
        assert not is_partition_relation(diagonal)
        lonely = relation_from_pairs([(0, 1), (1, 0)], 3)
        assert not is_partition_relation(lonely)
        for n in range(1, 6):
            for p in all_parts(n):
                assert is_partition_relation(p.ditset)
                assert is_equivalence(p.inditset)

    def test_anti_transitivity_disjunction_form(self):
        # The complement-transitivity predicate must coincide with the
        # elementwise form: whenever (u, v) is in R, every a is related
        # to u or to v.  Checked over every relation on a 3-universe.
        n = 3
        for mask in range(1 << (n * n)):
            r = BinaryRelation(n, mask)
            disjunction = all(
                (u, a) in r or (a, v) in r
                for u, v in r
                for a in range(n)
            )
            assert disjunction == r.complement().is_transitive()

    def test_ditsets_are_anti_transitive(self):
        for n in range(1, 5):
            for p in all_parts(n):
                dit = p.ditset
                for u, v in dit:
                    assert all((u, a) in dit or (a, v) in dit for a in range(n))


class TestClosureInterior:
    def test_closure_examples(self):
        assert empty_relation(3).closure() == BinaryRelation.identity(3)
        assert frozenset(relation_from_pairs([(0, 1)], 3).closure()) == {
            (0, 0), (1, 1), (2, 2), (0, 1), (1, 0),
        }

    def test_closure_is_least_containing_equivalence(self):
        n = 3
        for mask in range(1 << (n * n)):
            r = BinaryRelation(n, mask)
            assert frozenset(r.closure()) == oracle_closure(frozenset(r), n)

    @given(relations(min_n=4, max_n=9))
    def test_closure_and_interior_match_the_fixpoint(self, case):
        n, pairs = case
        r = relation_from_pairs(pairs, n)
        assert frozenset(r.closure()) == oracle_fixpoint_closure(pairs, n)
        assert frozenset(r.interior()) == oracle_interior(pairs, n)

    @given(partition_pairs(min_n=7, max_n=12))
    def test_meet_is_the_fixpoint_of_both_inditsets(self, pq):
        p, q = pq
        together = oracle_inditset(p.blocks) | oracle_inditset(q.blocks)
        assert oracle_inditset(meet(p, q).blocks) == oracle_fixpoint_closure(together, p.n)

    # Link orders that stress a union-find: chains either way round,
    # stars on either end, self-links, repeated links, and n=1.
    @pytest.mark.parametrize("n, links", [
        (1, []),
        (1, [(0, 0), (0, 0)]),
        (9, [(u, u + 1) for u in range(8)]),
        (9, [(u + 1, u) for u in range(8)]),
        (9, [(u, u + 1) for u in reversed(range(8))]),
        (9, [(u + 1, u) for u in reversed(range(8))]),
        (9, [(u, u + 2) for u in reversed(range(7))] + [(8, 1)]),
        (9, [(0, v) for v in range(1, 9)]),
        (9, [(v, 8) for v in range(8)]),
        (9, [(4, v) for v in (8, 0, 7, 1, 6, 2)]),
        (9, [(3, 3), (5, 2), (2, 5), (5, 2), (7, 7), (6, 0), (0, 6), (6, 6)]),
    ])
    def test_merger_matches_the_fixpoint(self, n, links):
        closed = oracle_fixpoint_closure(frozenset(links), n)
        least = [min(v for v in range(n) if (u, v) in closed) for u in range(n)]
        assert Partition.from_labels(_component_labels(n, links)) == Partition.from_labels(least)

    def test_meet_merges_in_linear_steps(self):
        # Count the lines the merger runs for meets of two discrete
        # partitions: a union-find doubles them when n doubles, where
        # merging masks of groups with components quadruples them.
        code = _component_labels.__code__

        def lines(n):
            count = 0

            def local(frame, event, arg):
                nonlocal count
                count += event == "line"
                return local

            p = Partition.discrete(n)
            outer = sys.gettrace()
            sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
            try:
                meet(p, p)
            finally:
                sys.settrace(outer)
            return count

        assert lines(1000) <= 2.2 * lines(500)

    def test_interior_examples(self):
        n = 4
        assert universal_relation(n).interior() == Partition.discrete(n).ditset
        no_symmetric_content = relation_from_pairs([(0, 1), (1, 2), (0, 2)], 3)
        assert len(no_symmetric_content.interior()) == 0
        sigma = Partition.from_blocks([[0], [1, 2, 3]], 4)
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        target = sigma.ditset.complement() | pi.ditset
        assert target.interior() == Partition.from_blocks([[0, 1], [2], [3]], 4).ditset

    def test_galois_facts(self):
        n = 3
        for mask in range(1 << (n * n)):
            r = BinaryRelation(n, mask)
            closed = r.closure()
            inner = r.interior()
            assert inner <= r <= closed
            assert closed.closure() == closed
            assert inner.interior() == inner

    def test_derived_relations_pass_the_public_checks(self):
        # These results are built without re-checking; each must be one the checked constructor accepts.
        n = 3
        s = relation_from_pairs([(0, 1), (2, 2)], n)
        for mask in range(1 << (n * n)):
            r = BinaryRelation(n, mask)
            for derived in (r | s, r & s, r - s, s - r, r.complement(), r.closure(), r.interior()):
                assert BinaryRelation(derived.n, derived.bits) == derived
        parts = all_parts(n)
        for p in parts:
            assert BinaryRelation(n, p.inditset.bits) == p.inditset
            for q, op in itertools.product(parts, all_binary_ops()):
                links = retained_links(op, p, q)
                assert BinaryRelation(n, links.bits) == links

    def test_interior_fixes_ditsets(self):
        for n in range(1, 6):
            for p in all_parts(n):
                assert p.ditset.interior() == p.ditset

    def test_monotone(self):
        n = 3
        small = relation_from_pairs([(0, 1)], n)
        for mask in range(1 << (n * n)):
            big = small | BinaryRelation(n, mask)
            assert small.closure() <= big.closure()
            assert small.interior() <= big.interior()


class TestRefinement:
    def test_bounds(self):
        for n in range(1, 6):
            for p in all_parts(n):
                assert refines(Partition.indiscrete(n), p)
                assert refines(p, Partition.discrete(n))

    def test_incomparable_pair(self):
        sigma = Partition.from_blocks([[0], [1, 2]], 3)
        pi = Partition.from_blocks([[0, 1], [2]], 3)
        assert not refines(sigma, pi)
        assert not refines(pi, sigma)

    def test_matches_ditset_inclusion(self):
        for n in range(1, 6):
            parts = all_parts(n)
            for sigma in parts:
                for pi in parts:
                    assert refines(sigma, pi) == (sigma.ditset <= pi.ditset)

    def test_mismatched_universes(self):
        with pytest.raises(ValueError, match="mismatch"):
            refines(Partition.discrete(3), Partition.discrete(4))

    @given(partition_pairs(max_n=6))
    def test_antisymmetry(self, pair):
        p, q = pair
        if refines(p, q) and refines(q, p):
            assert p == q


class TestEnumeration:
    def test_counts_match_oracle(self):
        for n in range(1, 8):
            produced = {p.rgs for p in enumerate_partitions(n)}
            assert produced == oracle_partition_rgs(n), f"enumeration differs from the label-quotient oracle at n={n}"

    def test_lexicographic_order(self):
        for n in range(1, 11):
            seq = [p.rgs for p in enumerate_partitions(n)]
            assert all(a < b for a, b in itertools.pairwise(seq)), f"not strictly increasing at n={n}"

    def test_caches_nothing(self):
        tracemalloc.start()
        try:
            for _ in range(2):
                for _ in enumerate_partitions(9):
                    pass
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1 << 20

    def test_endpoints(self):
        parts = all_parts(4)
        assert parts[0] == Partition.indiscrete(4)
        assert parts[-1] == Partition.discrete(4)

    def test_three_element_lattice(self):
        assert [str(p) for p in enumerate_partitions(3)] == [
            "{{0,1,2}}",
            "{{0,1},{2}}",
            "{{0,2},{1}}",
            "{{0},{1,2}}",
            "{{0},{1},{2}}",
        ]

    def test_ordering_is_rgs_lexicographic(self):
        parts = all_parts(4)
        assert sorted(parts) == parts
        assert parts[0] < parts[1]
