import pytest

from partlogic import (
    Partition,
    boolean_core,
    check_core_distribution,
    core_from_subset,
    core_to_subset,
    check_join_decomposition,
    double_pi_negation,
    enumerate_partitions,
    excluded_middle_partition,
    implication_blocks,
    join,
    meet,
    refines,
)


def all_parts(n):
    return list(enumerate_partitions(n))


class TestBooleanCore:
    def test_two_block_pi(self):
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        core = boolean_core(pi)
        assert set(core.members) == {
            pi,
            Partition.from_blocks([[0], [1], [2, 3]], 4),
            Partition.from_blocks([[0, 1], [2], [3]], 4),
            Partition.discrete(4),
        }
        assert core.bottom == pi
        assert core.top == Partition.discrete(4)

    def test_discrete_pi_gives_one_element_core(self):
        core = boolean_core(Partition.discrete(4))
        assert core.members == (Partition.discrete(4),)
        assert core.bottom == core.top

    def test_indiscrete_pi_gives_two_element_core(self):
        for n in range(2, 6):
            core = boolean_core(Partition.indiscrete(n))
            assert core.members == (Partition.indiscrete(n), Partition.discrete(n))

    def test_members_live_above_pi(self):
        for n in range(1, 6):
            for pi in all_parts(n):
                core = boolean_core(pi)
                assert len(core) == 2 ** len(core.ns_blocks)
                for m in core.members:
                    assert refines(pi, m)
                    assert double_pi_negation(m, pi) == m

    def test_subset_maps_are_inverse(self):
        for n in range(1, 6):
            for pi in all_parts(n):
                core = boolean_core(pi)
                k = len(core.ns_blocks)
                for mask in range(1 << k):
                    chosen = [i for i in range(k) if mask >> i & 1]
                    member = core_from_subset(core, chosen)
                    assert core_to_subset(core, member) == frozenset(chosen)

    def test_subset_map_endpoints(self):
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        core = boolean_core(pi)
        assert core_from_subset(core, []) == pi
        assert core_from_subset(core, [0]) == Partition.from_blocks([[0], [1], [2, 3]], 4)
        assert core_from_subset(core, [0, 1]) == Partition.discrete(4)

    def test_members_are_the_implications_into_pi(self):
        for n in range(1, 6):
            parts = all_parts(n)
            for pi in parts:
                assert set(boolean_core(pi).members) == {implication_blocks(s, pi) for s in parts}

    def test_core_is_distributive(self):
        for n in range(1, 5):
            for pi in all_parts(n):
                members = boolean_core(pi).members
                for a in members:
                    for b in members:
                        for c in members:
                            assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))

    def test_cardinality_identity(self):
        for n in range(1, 7):
            for pi in all_parts(n):
                core = boolean_core(pi)
                singletons = pi.num_blocks - len(core.ns_blocks)
                assert 2**pi.num_blocks == len(core) * 2**singletons

    def test_membership_errors(self):
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        core = boolean_core(pi)
        outsider = Partition.from_blocks([[0, 2], [1, 3]], 4)
        assert outsider not in core
        with pytest.raises(ValueError, match="not a member"):
            core_to_subset(core, outsider)
        with pytest.raises(ValueError, match="out of range"):
            core_from_subset(core, [5])


class TestNegationIdentities:
    @pytest.mark.parametrize("op", [double_pi_negation, excluded_middle_partition, check_join_decomposition])
    def test_mismatched_universes(self, op):
        with pytest.raises(ValueError, match="mismatch"):
            op(Partition.discrete(2), Partition.discrete(3))

    def test_double_negation_example(self):
        sigma = Partition.from_blocks([[0], [1, 2, 3]], 4)
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        assert double_pi_negation(sigma, pi) == Partition.from_blocks([[0], [1], [2, 3]], 4)
        assert double_pi_negation(pi, pi) == pi

    def test_double_negation_keeps_contained_blocks(self):
        for n in range(1, 6):
            parts = all_parts(n)
            for sigma in parts:
                for pi in parts:
                    closed = double_pi_negation(sigma, pi)
                    assert closed == implication_blocks(implication_blocks(sigma, pi), pi)
                    expected_whole = {
                        block for block in pi.blocks
                        if len(block) > 1 and len({sigma.rgs[u] for u in block}) == 1
                    }
                    actual_whole = {block for block in closed.blocks if len(block) > 1}
                    assert actual_whole == expected_whole

    def test_excluded_middle_example(self):
        sigma = Partition.from_blocks([[0], [1, 2, 3]], 4)
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        assert excluded_middle_partition(sigma, pi) == Partition.discrete(4)

    def test_excluded_middle_of_bottom(self):
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        assert excluded_middle_partition(Partition.indiscrete(4), pi) == Partition.discrete(4)

    def test_excluded_middle_can_leave_the_core(self):
        # the dense partition need not be a member, pinned small case
        pi = Partition.from_blocks([[0, 1, 2]], 3)
        sigma = Partition.from_blocks([[0, 1], [2]], 3)
        em = excluded_middle_partition(sigma, pi)
        assert em == sigma
        assert em not in boolean_core(pi)

class TestDistribution:
    def test_distribution_over_the_core(self):
        for n in range(1, 5):
            parts = all_parts(n)
            for pi in parts:
                above = [phi for phi in parts if refines(pi, phi)]
                for phi in above:
                    for sigma in parts:
                        for tau in parts:
                            assert check_core_distribution(phi, pi, sigma, tau)

    def test_precondition(self):
        pi = Partition.from_blocks([[0, 1], [2]], 3)
        phi = Partition.from_blocks([[0], [1, 2]], 3)
        assert not refines(pi, phi)
        with pytest.raises(ValueError, match="refine"):
            check_core_distribution(phi, pi, pi, pi)

    def test_top_phi_reduces_to_lattice_identities(self):
        for n in range(1, 5):
            top = Partition.discrete(n)
            parts = all_parts(n)
            for pi in parts:
                for sigma in parts:
                    assert check_core_distribution(top, pi, sigma, sigma)
                    assert check_core_distribution(pi, pi, sigma, sigma)

