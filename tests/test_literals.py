import pytest
from hypothesis import given

from partlogic import Partition, default_labels, enumerate_partitions, format_partition, format_rgs, parse_partition

from conftest import partitions


class TestParse:
    def test_block_form(self):
        p, labels = parse_partition("{{a,b},{c}}")
        assert p == Partition.from_blocks([[0, 1], [2]], 3)
        assert labels == ("a", "b", "c")

    def test_labels_sort_onto_elements(self):
        p, labels = parse_partition("{{d},{b,a},{c}}")
        assert labels == ("a", "b", "c", "d")
        assert p == Partition.from_blocks([[0, 1], [2], [3]], 4)

    def test_rgs_form(self):
        p, labels = parse_partition("rgs:0,0,1")
        assert p == Partition.from_blocks([[0, 1], [2]], 3)
        assert labels == ("a", "b", "c")

    def test_rgs_must_be_canonical(self):
        with pytest.raises(ValueError, match="restricted-growth"):
            parse_partition("rgs:0,1,0,3")
        with pytest.raises(ValueError, match="malformed"):
            parse_partition("rgs:0,x")

    def test_whitespace_tolerated(self):
        p, labels = parse_partition(" { {a , b} , {c} } ")
        assert labels == ("a", "b", "c")
        assert p.rgs == (0, 0, 1)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{{a,a},{b}}", "duplicate label"),
            ("{{a},{a,b}}", "duplicate label"),
            ("{a,b}", "expected '{'"),
            ("{{a},{b}} junk", "trailing input"),
            ("{{a},{}}", "expected a label"),
            ("{{}}", "expected a label"),
        ],
    )
    def test_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_partition(text)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("{a,b}", "expected '{'", 1),
            ("{{a},{}}", "expected a label", 6),
            ("{{a},{b}} junk", "trailing input", 10),
            ("{{a}", "expected '}'", 4),
            ("", "expected '{'", 0),
        ],
    )
    def test_error_positions(self, text, message, position):
        with pytest.raises(ValueError) as err:
            parse_partition(text)
        assert str(err.value) == f"{message} (at position {position}) in partition literal"


class TestFormat:
    def test_block_form_is_bit_exact(self):
        p = Partition.from_blocks([[2], [0, 1], [3]], 4)
        assert format_partition(p) == "{{a,b},{c},{d}}"
        assert format_partition(p, ("w", "x", "y", "z")) == "{{w,x},{y},{z}}"

        def from_blocks(q, labels):
            assert q.blocks == tuple(tuple(u for u in range(q.n) if q.rgs[u] == b) for b in range(q.num_blocks))
            return "{" + ",".join("{" + ",".join(labels[u] for u in block) + "}" for block in q.blocks) + "}"

        wide = [Partition.discrete(27), Partition.indiscrete(27)]
        wide += [Partition.from_labels([u * u % k for u in range(27)]) for k in (2, 5, 13)]
        for q in [*(q for n in range(1, 7) for q in enumerate_partitions(n)), *wide]:
            custom = tuple(sorted(f"v{10 * u + 9}" for u in range(q.n)))
            for labels in (default_labels(q.n), custom):
                assert format_partition(q, labels) == from_blocks(q, labels)
            assert format_partition(q) == from_blocks(q, default_labels(q.n))
        assert format_partition(wide[0]).startswith("{{x00},{x01},")

    def test_rgs_form(self):
        assert format_rgs(Partition.from_blocks([[0, 1], [2]], 3)) == "rgs:0,0,1"

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            format_partition(Partition.discrete(3), ("a", "b"))

    def test_default_labels_sort_in_element_order(self):
        for n in (1, 5, 26, 27, 120):
            labels = default_labels(n)
            assert len(labels) == n
            assert list(labels) == sorted(labels)

    @given(partitions(max_n=6))
    def test_round_trip(self, p):
        parsed, labels = parse_partition(format_partition(p))
        assert parsed == p
        assert labels == default_labels(p.n)

    @given(partitions(max_n=6))
    def test_rgs_round_trip(self, p):
        parsed, _ = parse_partition(format_rgs(p))
        assert parsed == p
