import pytest
from hypothesis import given, settings

from partlogic import (
    IMPLIES,
    AdjunctiveLimitError,
    BinaryRelation,
    BoolOp2,
    Partition,
    all_binary_ops,
    binary_op_graph,
    double_pi_negation,
    enumerate_partitions,
    implication_adjunctive,
    implication_blocks,
    implication_graph,
    implication_interior,
    join,
    meet,
    negation,
    refines,
)
from partlogic.algebra import boolean_core
from partlogic.ops import _implication, _join, _meet

from conftest import partition_pairs, partition_triples


def all_parts(n):
    return list(enumerate_partitions(n))


class TestLattice:
    def test_join_examples(self):
        pi = Partition.from_blocks([[0, 1], [2]], 3)
        sigma = Partition.from_blocks([[0], [1, 2]], 3)
        assert join(pi, sigma) == Partition.discrete(3)
        for n in range(1, 6):
            for p in all_parts(n):
                assert join(p, Partition.indiscrete(n)) == p
                assert join(p, p) == p

    def test_meet_examples(self):
        sigma = Partition.from_blocks([[0], [1, 2]], 3)
        tau = Partition.from_blocks([[1], [0, 2]], 3)
        assert meet(sigma, tau) == Partition.indiscrete(3)
        for n in range(1, 6):
            for p in all_parts(n):
                assert meet(p, Partition.discrete(n)) == p
                assert meet(p, p) == p

    def test_meet_two_definitions_agree(self):
        # generated-equivalence route vs interior of the ditset intersection
        for n in range(1, 6):
            parts = all_parts(n)
            for p in parts:
                for q in parts:
                    by_interior = (p.ditset & q.ditset).interior()
                    assert meet(p, q).ditset == by_interior

    def test_join_ditset_law(self):
        # the one operation whose ditset needs no interior
        for n in range(1, 7):
            parts = all_parts(n)
            for p in parts:
                for q in parts:
                    assert join(p, q).ditset == p.ditset | q.ditset

    def test_mismatched_universes(self):
        with pytest.raises(ValueError, match="mismatch"):
            join(Partition.discrete(2), Partition.discrete(3))
        with pytest.raises(ValueError, match="mismatch"):
            meet(Partition.discrete(2), Partition.discrete(3))

    def test_lattice_identities(self):
        for n in range(1, 7):
            top = Partition.discrete(n)
            bottom = Partition.indiscrete(n)
            for p in all_parts(n):
                assert meet(top, p) == p
                assert join(bottom, p) == p

    @given(partition_pairs())
    def test_commutative(self, pair):
        p, q = pair
        assert join(p, q) == join(q, p)
        assert meet(p, q) == meet(q, p)

    @given(partition_triples())
    def test_associative_and_absorbing(self, triple):
        p, q, r = triple
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(meet(p, q), r) == meet(p, meet(q, r))
        assert join(p, meet(p, q)) == p
        assert meet(p, join(p, q)) == p

    @given(partition_pairs())
    def test_join_meet_order_consistency(self, pair):
        p, q = pair
        assert refines(p, join(p, q))
        assert refines(meet(p, q), p)


class TestImplication:
    def test_top_iff_refines(self):
        for n in range(1, 6):
            top = Partition.discrete(n)
            parts = all_parts(n)
            for sigma in parts:
                for pi in parts:
                    assert (implication_blocks(sigma, pi) == top) == refines(sigma, pi)

    def test_indiscrete_antecedent_gives_top(self):
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        assert implication_blocks(Partition.indiscrete(4), pi) == Partition.discrete(4)

    def test_self_implication_is_top(self):
        for n in range(1, 6):
            for p in all_parts(n):
                assert implication_graph(p, p) == Partition.discrete(n)

    def test_discrete_consequent_gives_top(self):
        for n in range(1, 5):
            for sigma in all_parts(n):
                assert implication_interior(sigma, Partition.discrete(n)) == Partition.discrete(n)

    def test_adjunction_property(self):
        # dit(tau) & dit(sigma) <= dit(pi) exactly when tau lies below sigma => pi
        for n in range(1, 5):
            parts = all_parts(n)
            for sigma in parts:
                for pi in parts:
                    result = implication_blocks(sigma, pi)
                    assert result.ditset & sigma.ditset <= pi.ditset  # the unit
                    for tau in parts:
                        lhs = tau.ditset & sigma.ditset <= pi.ditset
                        assert lhs == refines(tau, result)

    def test_adjunctive_limit(self):
        big = Partition.discrete(9)
        with pytest.raises(AdjunctiveLimitError, match="adjunctive oracle limit"):
            implication_adjunctive(big, big)

    def test_mismatched_universes(self):
        with pytest.raises(ValueError, match="mismatch"):
            implication_blocks(Partition.discrete(2), Partition.discrete(3))

    def test_block_rule_reads_only_rgs(self):
        sigma = Partition(5, (0, 1, 1, 1, 2))
        pi = Partition(5, (0, 0, 1, 1, 2))
        assert implication_blocks(sigma, pi) == Partition(5, (0, 0, 1, 2, 3))
        assert "blocks" not in vars(sigma)
        assert "blocks" not in vars(pi)
        # double negation, through each of its three answers: built, pi, discrete
        for sigma_rgs, pi_rgs, expected in [
            ((0, 1, 1, 1, 2), (0, 0, 1, 1, 2), (0, 1, 2, 2, 3)),
            ((0, 1, 0, 1, 1), (0, 0, 1, 1, 2), (0, 1, 2, 3, 4)),
            ((0, 0, 1, 1, 1), (0, 0, 1, 1, 2), (0, 0, 1, 1, 2)),
        ]:
            sigma, pi = Partition(5, sigma_rgs), Partition(5, pi_rgs)
            assert double_pi_negation(sigma, pi) == Partition(5, expected)
            assert "blocks" not in vars(sigma)
            assert "blocks" not in vars(pi)

    @settings(deadline=None)
    @given(partition_pairs(min_n=7, max_n=12))
    def test_definitions_agree_past_the_suite_sizes(self, pair):
        sigma, pi = pair
        n = sigma.n
        assert implication_blocks(sigma, pi) == implication_graph(sigma, pi) == implication_interior(sigma, pi)
        assert negation(sigma) == implication_graph(sigma, Partition.indiscrete(n))
        assert double_pi_negation(sigma, pi) == implication_blocks(implication_blocks(sigma, pi), pi)

    def test_interior_oracle_keeps_its_definition(self, monkeypatch):
        # One interior of dit(sigma)^c | dit(pi), read back by from_equivalence:
        # a faster path must not fold this oracle into the graph one.
        calls = []
        interior, from_equivalence = BinaryRelation.interior, Partition.from_equivalence
        monkeypatch.setattr(BinaryRelation, "interior", lambda r: calls.append("interior") or interior(r))
        monkeypatch.setattr(Partition, "from_equivalence",
                            classmethod(lambda cls, r: calls.append("from_equivalence") or from_equivalence(r)))
        sigma = Partition.from_blocks([[0], [1, 2, 3]], 4)
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        assert implication_interior(sigma, pi) == Partition.from_blocks([[0, 1], [2], [3]], 4)
        assert calls == ["interior", "from_equivalence"]


class TestKernels:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_kernels_give_the_public_operations(self, n):
        # Each kernel reads two rgs tuples; its labels, grouped, are the public
        # operation's rgs and the partition the definitions give: the join
        # and the meet through distinctions and their closure, the block rule
        # through the link-labelling oracle.
        parts = all_parts(n)
        for p in parts:
            for q in parts:
                joined = Partition.from_equivalence((p.ditset | q.ditset).complement())
                met = Partition.from_equivalence((p.inditset | q.inditset).closure())
                for kernel, op, expected in [(_join, join, joined), (_meet, meet, met),
                                             (_implication, implication_blocks, implication_graph(p, q))]:
                    labels = kernel(p.rgs, q.rgs)
                    assert Partition.from_labels(labels).rgs == op(p, q).rgs == expected.rgs


class TestNegation:
    def test_absolute_negation(self):
        assert negation(Partition.indiscrete(3)) == Partition.discrete(3)
        assert negation(Partition.from_blocks([[0], [1, 2]], 3)) == Partition.indiscrete(3)
        for n in range(2, 6):
            assert negation(Partition.discrete(n)) == Partition.indiscrete(n)
            for p in all_parts(n):
                if p != Partition.indiscrete(n):
                    assert negation(p) == Partition.indiscrete(n)

    def test_pi_negation_endpoints(self):
        for n in range(1, 6):
            for pi in all_parts(n):
                assert implication_blocks(Partition.discrete(n), pi) == pi
                assert implication_blocks(pi, pi) == Partition.discrete(n)

    def test_core_ends_are_returned_without_building(self, monkeypatch):
        # Over all pairs at n=6, only the answers strictly inside the core of
        # pi build a partition; the rest come back as pi or the shared discrete.
        built = []
        production = Partition.from_labels

        def counted(labels):
            built.append(labels)
            return production(labels)

        monkeypatch.setattr(Partition, "from_labels", staticmethod(counted))
        parts = all_parts(6)
        top = Partition.discrete(6)
        # A discrete pi is its own core: both ends are the shared discrete.
        for op, expected in [
            (implication_blocks, {"built": 9470, "pi": 29268, "discrete": 2471}),
            (double_pi_negation, {"built": 9470, "pi": 2268, "discrete": 29471}),
        ]:
            built.clear()
            seen = {"built": 0, "pi": 0, "discrete": 0}
            for sigma in parts:
                for pi in parts:
                    result = op(sigma, pi)
                    seen["pi" if result is pi else "discrete" if result is top else "built"] += 1
            assert seen == expected
            assert len(built) == expected["built"]
        # The cores hold 755 members.  Their ends are not built; each of the
        # 350 strictly inside is built once.
        built.clear()
        cores = [boolean_core(pi) for pi in parts]
        assert sum(map(len, cores)) == 755
        assert len(built) == 755 - 2 * len(parts) + 1 == 350
        for pi, core in zip(parts, cores):
            assert core.bottom is (pi if pi != top else top) and core.top is top


class TestGraphMethod:
    def test_constant_true_gives_top(self):
        always = BoolOp2((True, True, True, True))
        for n in range(1, 5):
            for p in all_parts(n):
                assert binary_op_graph(always, p, p) == Partition.discrete(n)

    def test_left_operand_feeds_first_argument(self):
        # projection onto the left operand: true exactly on the left dits,
        # so the retained links are the left partition's indits
        left_projection = BoolOp2((False, False, True, True))
        for n in range(2, 5):
            parts = all_parts(n)
            for p in parts:
                for q in parts:
                    assert binary_op_graph(left_projection, p, q) == p
        sigma, pi, expected = (
            Partition.from_blocks([[0], [1, 2, 3]], 4),
            Partition.from_blocks([[0, 1], [2, 3]], 4),
            Partition.from_blocks([[0, 1], [2], [3]], 4),
        )
        assert binary_op_graph(IMPLIES, sigma, pi) == expected
        assert binary_op_graph(IMPLIES, pi, sigma) != expected

    def test_sixteen_distinct_ops(self):
        ops = all_binary_ops()
        assert len(ops) == len(set(ops)) == 16

    def test_table_validation(self):
        with pytest.raises(ValueError, match="four boolean"):
            BoolOp2((True, False))
        # a list is copied into a tuple: the value is OR, hashes, and stays frozen
        entries = [False, True, True, True]
        listed = BoolOp2(entries)
        entries[0] = True
        assert listed.table == (False, True, True, True)
        assert listed == BoolOp2((False, True, True, True)) and len({listed, BoolOp2((False, True, True, True))}) == 1
        assert IMPLIES(True, False) is False
        assert IMPLIES(False, False) is True
