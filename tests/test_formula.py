import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from partlogic import (
    And,
    Assignment,
    Const0,
    Const1,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    Partition,
    SearchBudgetExceeded,
    Var,
    eval_boolean,
    eval_partition,
    find_partition_counterexample,
    enumerate_partitions,
    format_formula,
    free_vars,
    is_subset_tautology,
    parse,
    pi_negation_transform,
)
from partlogic import formula
from partlogic.suites import CLASSICAL_TAUTOLOGIES, NON_TAUTOLOGIES

from conftest import (
    oracle_compile,
    oracle_eval_boolean,
    oracle_eval_partition,
    oracle_format,
    oracle_is_tautology,
    oracle_parse,
    oracle_tree,
    partitions_of,
)


formulas = st.recursive(
    st.sampled_from([Const0(), Const1(), Var("s"), Var("p"), Var("q"), Var("r_1")]),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
    ),
    max_leaves=32,
)

small_formulas = st.recursive(
    st.sampled_from([Const0(), Const1(), Var("s"), Var("p"), Var("q")]),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
    ),
    max_leaves=8,
)
# ``g \/ ~g`` is a classical tautology that fails over partitions exactly
# where ``g`` is neither constant, so its search reaches the n=3 scan.
refuter_inputs = st.one_of(small_formulas, small_formulas.map(lambda g: Or(g, Not(g))))
# ``op(g, g)`` and ``~g`` stacked on a formula repeat whole subformulas,
# which the compiled evaluator stores once.
repeated_formulas = st.recursive(
    small_formulas,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(lambda op, g: op(g, g), st.sampled_from([And, Or, Implies]), inner),
    ),
    max_leaves=8,
)
# Token spellings, whitespace, characters that start no token (``2``,
# ``\u00e9``) or start one they do not finish (``-``), and whole printed
# formulas, so that well-formed text is common too, run together.
formula_texts = st.lists(
    st.one_of(
        st.sampled_from(["s", "p", "q1", "0", "1", "~", "(", ")", "->", "\\/", "/\\", "|", "&",
                         " ", "\t", "-", "2", "\u00e9"]),
        small_formulas.map(oracle_format),
    ),
    max_size=16,
).map("".join)


def parsed(parser, printer, text):
    """The formula's tree and its printed text, or the error message and position."""
    try:
        f = parser(text)
    except ParseError as err:
        return str(err), err.position
    return oracle_tree(f), printer(f)


def one_node_mutations(f: Formula) -> list[Formula]:
    """Every formula made from ``f`` by changing it at one node.

    A node changes kind (``~a`` becomes ``a -> 0``), swaps or loses an
    operand, gains a ``~``, or is regrouped with a left or right operand
    of the same connective, so a printer that lost a needed parenthesis
    would print some mutation as ``f``.
    """
    match f:
        case Var(name):
            return [Var("q" if name == "s" else "s"), Const0()]
        case Const0():
            return [Const1(), Var("s")]
        case Const1():
            return [Const0()]
        case Not(child):
            return [child, Implies(child, Const0()), Not(f)] + [Not(g) for g in one_node_mutations(child)]
    op, left, right = type(f), f.left, f.right
    out = [other(left, right) for other in (And, Or, Implies) if other is not op]
    out += [op(right, left), left, Not(f)]
    if type(left) is op:
        out.append(op(left.left, op(left.right, right)))
    if type(right) is op:
        out.append(op(op(left, right.left), right.right))
    return out + [op(g, right) for g in one_node_mutations(left)] + [op(left, g) for g in one_node_mutations(right)]


@st.composite
def formula_pairs(draw):
    """A formula and either another one, its round trip, or a one-node mutation of it."""
    f = draw(formulas)
    return f, draw(st.one_of(formulas, st.just(parse(format_formula(f))),
                             st.sampled_from(one_node_mutations(f))))


class TestParser:
    def test_examples(self):
        assert parse("s \\/ ~s") == Or(Var("s"), Not(Var("s")))
        assert parse("(s /\\ (s -> p)) -> p") == Implies(
            And(Var("s"), Implies(Var("s"), Var("p"))), Var("p")
        )
        assert parse("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))

    def test_precedence(self):
        assert parse("~a /\\ b \\/ c -> d") == Implies(
            Or(And(Not(Var("a")), Var("b")), Var("c")), Var("d")
        )
        assert parse("a \\/ b /\\ c") == Or(Var("a"), And(Var("b"), Var("c")))

    def test_left_associativity(self):
        assert parse("a \\/ b \\/ c") == Or(Or(Var("a"), Var("b")), Var("c"))
        assert parse("a /\\ b /\\ c") == And(And(Var("a"), Var("b")), Var("c"))

    def test_alternate_spellings(self):
        assert parse("a | b & c") == parse("a \\/ b /\\ c")

    def test_constants_and_idents(self):
        assert parse("0 \\/ 1") == Or(Const0(), Const1())
        assert parse("x_9 -> 0") == Implies(Var("x_9"), Const0())
        assert parse("~~s") == Not(Not(Var("s")))

    def test_whitespace_insignificant(self):
        assert parse("  s->p  ") == parse("s -> p")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("s \\/", 4),
            ("(s", 2),
            ("s)", 1),
            ("2", 0),
            ("s p", 2),
            ("", 0),
            ("s -> -", 5),
            ("s -> \u00e9", 5),
            ("()", 1),
            ("(s p)", 3),
            ("s ~", 2),
            ("((s)", 4),
            ("~", 1),
        ],
    )
    def test_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_var_name_validation(self):
        with pytest.raises(ValueError, match="invalid variable name"):
            Var("0abc")
        with pytest.raises(ValueError, match="invalid variable name"):
            Var("")

    @given(formulas)
    def test_print_parse_round_trip(self, f):
        assert oracle_tree(parse(format_formula(f))) == oracle_tree(f)

    @settings(max_examples=300)
    @given(formula_texts)
    def test_matches_recursive_descent(self, text):
        assert parsed(parse, format_formula, text) == parsed(oracle_parse, oracle_format, text)

    @given(st.one_of(formulas, repeated_formulas))
    def test_print_and_compile_match_recursion(self, f):
        assert format_formula(f) == oracle_format(f)
        assert formula._compile(f) == oracle_compile(f)

    def test_nesting_far_past_the_recursion_limit(self):
        depth = 10**4
        f = parse("~" * depth + "(" * depth + "s -> " * depth + "s" + ")" * depth)
        assert format_formula(f) == "~" * depth + "(" + "s -> " * depth + "s)"
        names, steps = formula._compile(f)
        # s, the depth implications, one 0 step, and each ~ as an implication into 0
        assert names == ("s",) and len(steps) == 2 * depth + 2

    @given(formulas)
    def test_compiles_to_binary_connectives(self, f):
        _, steps = formula._compile(f)
        assert {kind for kind, _, _ in steps} <= {Var, Const0, Const1, And, Or, Implies}

    def test_printing_examples(self):
        assert format_formula(parse("a -> b -> c")) == "a -> b -> c"
        assert format_formula(parse("(a -> b) -> c")) == "(a -> b) -> c"
        assert format_formula(parse("~(a /\\ b)")) == "~(a /\\ b)"
        assert str(parse("a|b&c")) == "a \\/ b /\\ c"

    @pytest.mark.parametrize("node,name", [(And(Var("s"), 3), "int"), (Formula(), "Formula")])
    def test_printing_a_node_that_is_no_formula(self, node, name):
        with pytest.raises(TypeError) as err:
            format_formula(node)
        assert str(err.value) == f"not a formula node: {name}"


# ``~`` chain, ``->`` chain and ``/\`` chain, each 10^4 connectives deep.
DEEP_TEXTS = ["~" * 10**4 + "s", " -> ".join(["s"] * (10**4 + 1)), " /\\ ".join(["s"] * (10**4 + 1))]


class TestIdentity:
    def test_one_identity_on_the_base_class(self):
        for node in (Var, Const0, Const1, Not, And, Or, Implies):
            assert (node.__eq__, node.__hash__, node.__repr__) == (
                Formula.__eq__, Formula.__hash__, Formula.__repr__)

    @settings(max_examples=300)
    @given(formula_pairs())
    def test_equal_exactly_when_the_trees_are(self, pair):
        f, g = pair
        assert (f == g) == (oracle_tree(f) == oracle_tree(g))
        assert (f != g) == (not f == g)
        if f == g:
            assert hash(f) == hash(g)

    def test_distinct_trees_differ(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        pairs = [
            (parse("~s"), parse("s -> 0")),
            (And(a, b), Or(a, b)),
            (parse("(a /\\ b) /\\ c"), parse("a /\\ (b /\\ c)")),
            (And(And(a, b), c), And(a, And(b, c))),
            (Implies(Implies(a, b), c), Implies(a, Implies(b, c))),
        ]
        for f, g in pairs:
            assert f != g and not f == g
            assert len({f, g, parse(str(f)), parse(str(g))}) == 2

    def test_compares_unequal_to_other_types(self):
        assert Var("s") != "s" and not Var("s") == "s"
        assert parse("s -> p") != ("Implies", "s", "p")

    @given(formulas)
    def test_repr_evaluates_back(self, f):
        g = eval(repr(f), {"parse": parse})
        assert g == f and oracle_tree(g) == oracle_tree(f)

    def test_repr_examples(self):
        assert repr(Var("s")) == "parse('s')"
        assert repr(parse("~(a /\\ b) -> 0")) == "parse('~(a /\\\\ b) -> 0')"

    @pytest.mark.parametrize("text", DEEP_TEXTS, ids=["not", "implies", "and"])
    def test_deep_chains(self, text):
        f, g = parse(text), parse(text)
        assert f is not g and f == g and hash(f) == hash(g)
        assert f != parse(text[:-1] + "p")
        assert eval(repr(f), {"parse": parse}) == f

    def test_repr_of_a_node_that_is_no_formula_returns(self):
        assert repr(Formula()).startswith("<partlogic.formula.Formula object at ")
        assert repr(And(Var("s"), 3)).startswith("<partlogic.formula.And object at ")

    def test_comparing_a_malformed_tree_raises(self):
        with pytest.raises(TypeError, match="^not a formula node: int$"):
            And(Var("s"), 3) == And(Var("s"), 3)
        with pytest.raises(TypeError, match="^not a formula node: int$"):
            hash(Not(3))

    def test_keyword_construction_and_class_patterns(self):
        f = And(left=Var(name="s"), right=Implies(left=Const0(), right=Const1()))
        assert f == parse("s /\\ (0 -> 1)")
        match f:
            case And(Var(name), Implies(Const0(), Const1())):
                assert name == "s"
            case _:
                pytest.fail("class patterns no longer match")

    def test_nodes_are_frozen(self):
        f = parse("s -> p")
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.left = Var("q")
        with pytest.raises(dataclasses.FrozenInstanceError):
            Var("s").name = "p"


class TestFreeVars:
    def test_examples(self):
        assert free_vars(parse("s -> p")) == ("p", "s")
        assert free_vars(parse("0 \\/ 1")) == ()
        assert free_vars(pi_negation_transform(parse("s -> 0"), "z")) == ("s", "z")

    def test_rejects_a_node_that_is_no_formula(self):
        with pytest.raises(TypeError, match="not a formula node"):
            free_vars(And(Var("s"), object()))


class TestEvaluation:
    def test_partition_examples(self):
        sigma = Partition.from_blocks([[0], [1, 2, 3]], 4)
        pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
        a = Assignment(4, {"s": sigma, "p": pi})
        assert eval_partition(parse("s -> p"), a) == Partition.from_blocks([[0, 1], [2], [3]], 4)

    def test_excluded_middle_is_not_top(self):
        sigma = Partition.from_blocks([[0, 1], [2]], 3)
        a = Assignment(3, {"s": sigma})
        assert eval_partition(parse("s \\/ ~s"), a) == sigma

    def test_lattice_constants(self):
        from partlogic import enumerate_partitions

        for n in (1, 2, 3, 4):
            for p in enumerate_partitions(n):
                a = Assignment(n, {"p": p})
                assert eval_partition(parse("1 /\\ p"), a) == p
                assert eval_partition(parse("0 \\/ p"), a) == p

    def test_boolean_examples(self):
        em = parse("s \\/ ~s")
        assert eval_boolean(em, {"s": True}) and eval_boolean(em, {"s": False})
        assert eval_boolean(parse("s -> 0"), {"s": True}) is False
        assert eval_boolean(parse("s -> 0"), {"s": False}) is True

    def test_unbound_variables(self):
        with pytest.raises(ValueError, match="unbound variable 'p'"):
            eval_partition(parse("p"), Assignment(2, {}))
        with pytest.raises(ValueError, match="unbound variable 'p'"):
            eval_boolean(parse("p"), {})
        # the bottom constant decides the conjunction, but p is still unbound
        with pytest.raises(ValueError, match="unbound variable 'p'"):
            eval_boolean(parse("0 /\\ p"), {})
        with pytest.raises(ValueError, match="unbound variable 'p'"):
            eval_partition(parse("0 /\\ p"), Assignment(2, {}))

    def test_assignment_universe_validation(self):
        with pytest.raises(ValueError, match="universe size"):
            Assignment(3, {"s": Partition.discrete(2)})

    @settings(deadline=None)
    @given(st.one_of(formulas, repeated_formulas), st.integers(1, 4), st.data())
    def test_evaluators_match_tree_walking_oracle(self, f, n, data):
        names = ("s", "p", "q", "r_1")
        a = Assignment(n, {name: data.draw(partitions_of(n)) for name in names})
        assert eval_partition(f, a) == oracle_eval_partition(f, a)
        bits = {name: data.draw(st.booleans()) for name in names}
        assert eval_boolean(f, bits) == oracle_eval_boolean(f, bits)

    @given(formulas)
    def test_not_equals_implies_bottom(self, f):
        negated = Not(f)
        desugared = Implies(f, Const0())
        for n in (1, 2, 3):
            from partlogic import enumerate_partitions

            parts = list(enumerate_partitions(n))
            for s in parts:
                for p in parts:
                    a = Assignment(n, {"s": s, "p": p, "q": s, "r_1": p})
                    assert eval_partition(negated, a) == eval_partition(desugared, a)
        for s_bit in (False, True):
            bits = {"s": s_bit, "p": not s_bit, "q": s_bit, "r_1": True}
            assert eval_boolean(negated, bits) == eval_boolean(desugared, bits)

    def test_two_element_universe_is_classical(self):
        # the two partitions of a 2-universe behave exactly like the truth values
        corpus = [text for _, text in CLASSICAL_TAUTOLOGIES + NON_TAUTOLOGIES]
        as_partition = {False: Partition.indiscrete(2), True: Partition.discrete(2)}
        for text in corpus:
            f = parse(text)
            names = free_vars(f)
            for values in itertools.product((False, True), repeat=len(names)):
                bits = dict(zip(names, values))
                a = Assignment(2, {k: as_partition[v] for k, v in bits.items()})
                expected = eval_boolean(f, bits)
                assert (eval_partition(f, a) == Partition.discrete(2)) == expected


class TestSubsetTautology:
    def test_examples(self):
        assert is_subset_tautology(parse("s \\/ ~s"))
        assert not is_subset_tautology(parse("s"))
        assert is_subset_tautology(parse("((s -> p) -> s) -> s"))

    def test_variable_guard(self):
        wide = " \\/ ".join(f"v{i}" for i in range(21))
        with pytest.raises(ValueError, match="past the bound"):
            is_subset_tautology(parse(wide))


@pytest.fixture
def cold_levels():
    """Build the refuter's levels afresh inside the test, and drop them after it.

    A level outlives the call that built it, so a warm one would pass a
    test that patches or measures the refuter without exercising it.
    """
    formula._level.cache_clear()
    yield
    formula._level.cache_clear()


class TestRefuter:
    def test_excluded_middle_counterexample(self):
        cex = find_partition_counterexample(parse("s \\/ ~s"), max_n=3)
        assert cex is not None
        assert cex.n == 3
        assert cex.bindings == {"s": Partition.from_blocks([[0, 1], [2]], 3)}

    def test_modus_ponens_holds(self):
        assert find_partition_counterexample(parse("(s /\\ (s -> p)) -> p"), max_n=4) is None

    def test_weak_excluded_middle_holds(self):
        f = parse("(s -> p) \\/ ((s -> p) -> p)")
        assert find_partition_counterexample(f, max_n=4) is None

    def test_classical_failure_found_at_two(self):
        cex = find_partition_counterexample(parse("s"), max_n=4)
        assert cex is not None and cex.n == 2
        assert cex.bindings == {"s": Partition.indiscrete(2)}

    def test_constant_formulas(self):
        assert find_partition_counterexample(parse("0 -> 0"), max_n=3) is None
        cex = find_partition_counterexample(parse("0"), max_n=3)
        assert cex is not None and cex.n == 2 and cex.bindings == {}

    def test_deterministic_across_runs(self):
        dne = parse("~~s -> s")
        hits = [find_partition_counterexample(dne, max_n=3) for _ in range(3)]
        assert all(h == hits[0] for h in hits)
        assert hits[0] is not None and hits[0].n == 3

    def test_closed_formula_enumerates_no_level(self, cold_levels):
        tracemalloc.start()
        try:
            assert find_partition_counterexample(parse("0 -> 0"), max_n=11) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(deadline=None)
    @given(refuter_inputs)
    def test_lex_least_counterexample(self, f):
        names = free_vars(f)
        expected = None
        for n in (2, 3):
            top = Partition.discrete(n)
            for values in itertools.product(list(enumerate_partitions(n)), repeat=len(names)):
                assignment = Assignment(n, dict(zip(names, values)))
                if oracle_eval_partition(f, assignment) != top:
                    expected = assignment
                    break
            if expected is not None:
                break
        assert find_partition_counterexample(f, max_n=3) == expected

    def test_one_variable_does_not_hold_its_level(self, cold_levels):
        tracemalloc.start()
        try:
            assert find_partition_counterexample(parse("s -> s"), max_n=8) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def _count_implications(monkeypatch) -> list[int]:
        calls = [0]
        production = formula.implication_blocks

        def counting(p, q):
            calls[0] += 1
            return production(p, q)

        monkeypatch.setattr(formula, "implication_blocks", counting)
        return calls

    def test_one_variable_visits_the_block_shapes(self, monkeypatch, cold_levels):
        # one value per integer partition of n: 2+3+5+7+11+15+22+30+42 for n=2..10
        calls = self._count_implications(monkeypatch)
        assert find_partition_counterexample(parse("s -> s"), max_n=10) is None
        assert calls[0] <= 137

    def test_long_chain_reads_the_memo(self, monkeypatch, cold_levels):
        calls = self._count_implications(monkeypatch)
        chain = parse(" -> ".join(["s"] * 10**4))
        assert find_partition_counterexample(chain) is None
        assert calls[0] <= 100

    def test_negation_shares_the_memo_of_implication_into_0(self, monkeypatch, cold_levels):
        calls = self._count_implications(monkeypatch)
        assert find_partition_counterexample(parse("~s \\/ s"), max_n=4) is not None
        before = calls[0]
        assert find_partition_counterexample(parse("(s -> 0) \\/ s"), max_n=4) is not None
        assert calls[0] == before

    def test_a_warm_level_computes_nothing_twice(self, monkeypatch, cold_levels):
        calls = self._count_implications(monkeypatch)
        syllogism = pi_negation_transform(parse("(s -> p) -> ((p -> q) -> (s -> q))"), "z")
        assert find_partition_counterexample(syllogism, max_n=4) is None
        assert calls[0] > 0
        cold = calls[0]
        assert find_partition_counterexample(syllogism, max_n=4) is None
        assert calls[0] == cold

    @staticmethod
    def _relabel(p, g):
        return Partition.from_labels([p.rgs[x] for x in g])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_first_variable_takes_the_orbit_minima(self, n):
        index = {p: i for i, p in enumerate(enumerate_partitions(n))}
        group = list(itertools.permutations(range(n)))
        minima = sorted({min(index[self._relabel(p, g)] for g in group) for p in index})
        assert formula._Level(n).shapes == minima

    @pytest.mark.parametrize("n", range(2, 6))
    def test_swaps_fixing_a_shape_generate_its_stabilizer(self, n):
        level = formula._Level(n)
        parts = list(enumerate_partitions(n))
        group = list(itertools.permutations(range(n)))
        rows = level.swaps
        for row in rows:
            # the action of a relabelling that is its own inverse
            assert any(all(row[i] == parts.index(self._relabel(p, g)) for i, p in enumerate(parts))
                       for g in group)
            assert all(row[row[i]] == i for i in range(level.size))
        for shape in level.shapes:
            stabilizer = [g for g in group if self._relabel(parts[shape], g) == parts[shape]]
            orbits = {frozenset(parts.index(self._relabel(q, g)) for g in stabilizer) for q in parts}
            # the orbits of the group the rows fixing the shape generate: join the ends of every edge
            generated = {i: frozenset([i]) for i in range(level.size)}
            for row in (row for row in rows if row[shape] == shape):
                for i in range(level.size):
                    if generated[i] is not generated[row[i]]:
                        merged = generated[i] | generated[row[i]]
                        generated.update(dict.fromkeys(merged, merged))
            assert set(generated.values()) == orbits

    # Shapes alone prune only the first variable, every index and no rows
    # prune nothing, a tiny memo is cleared again and again, and memos
    # shared across formulas give the same answers in either order.
    no_rows, every_index = property(lambda level: []), property(lambda level: range(level.size))

    @pytest.mark.parametrize("limits", [{"_Level.swaps": no_rows},
                                        {"_Level.swaps": no_rows, "_Level.shapes": every_index},
                                        {"_MEMO_LIMIT": 3},
                                        {}])
    def test_bounded_tables_give_the_same_counterexample(self, monkeypatch, limits):
        rng = random.Random(7)

        def grow(leaves):
            if leaves == 1:
                return rng.choice([Const0(), Const1(), Var("s"), Var("p"), Var("q")])
            if rng.random() < 0.2:
                return Not(grow(leaves - 1))
            split = rng.randint(1, leaves - 1)
            return rng.choice([And, Or, Implies])(grow(split), grow(leaves - split))

        corpus = [pi_negation_transform(parse(text), "z") for _, text in CLASSICAL_TAUTOLOGIES]
        corpus.append(parse("(s -> p) \\/ (p -> s)"))
        for i in range(50):
            g = grow(rng.randint(2, 9))
            corpus.append(Or(g, Not(g)) if i % 2 else g)
        expected = [find_partition_counterexample(f, max_n=4) for f in corpus]
        assert expected[len(CLASSICAL_TAUTOLOGIES)].n == 4
        formula._level.cache_clear()
        for name, value in limits.items():
            monkeypatch.setattr(f"partlogic.formula.{name}", value)
        assert [find_partition_counterexample(f, max_n=4) for f in corpus] == expected
        assert [find_partition_counterexample(f, max_n=4) for f in reversed(corpus)] == expected[::-1]

    def test_budget_guard(self):
        f = parse("s \\/ ~s \\/ p \\/ q")
        with pytest.raises(SearchBudgetExceeded, match="past the budget"):
            find_partition_counterexample(f, max_n=3, budget=10)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="max_n"):
            find_partition_counterexample(parse("s"), max_n=1)

    def test_variable_bound(self):
        # The refuter owns the bound: a scan of the 2**21 truth-table rows is
        # refused before it starts.
        wide = parse(" \\/ ".join(f"v{i}" for i in range(21)))
        with pytest.raises(ValueError, match="formula has 21 variables, past the bound 20"):
            find_partition_counterexample(wide, max_n=2)

    def test_partition_validity_implies_subset_validity(self):
        # every formula over two variables up to depth 3: the n=2 level
        # refutes exactly the classical non-tautologies
        atoms = [Const0(), Const1(), Var("s"), Var("p")]
        layers = [atoms]
        for _ in range(2):
            previous = [f for layer in layers for f in layer]
            grown = [Not(f) for f in previous]
            grown += [op(a, b) for op in (And, Or, Implies) for a in previous for b in previous]
            layers.append(grown)
        checked = 0
        for layer in layers:
            for f in layer:
                cex = find_partition_counterexample(f, max_n=2)
                assert (cex is None) == oracle_is_tautology(f)
                assert cex is None or cex.n == 2
                checked += cex is not None
        assert checked > 1000


class TestCensus:
    def test_two_connectives_fail_first_at_three(self):
        """Every tree of at most two connectives over ``s``, ``p``, ``0``, ``1``.

        Each classical tautology among them that fails over partitions
        fails first at n=3; none first fails at n=4.
        """
        by_connectives = [[Var("s"), Var("p"), Const0(), Const1()]]
        for k in (1, 2):
            trees = [Not(f) for f in by_connectives[k - 1]]
            trees += [op(a, b) for op in (And, Or, Implies) for i in range(k)
                      for a in by_connectives[i] for b in by_connectives[k - 1 - i]]
            by_connectives.append(trees)
        trees = [f for layer in by_connectives for f in layer]
        tautologies = [f for f in trees if is_subset_tautology(f)]
        assert tautologies == [f for f in trees if oracle_is_tautology(f)]
        hits = [find_partition_counterexample(f, max_n=4) for f in tautologies]
        first_failures = Counter(cex.n for cex in hits if cex is not None)
        assert (len(trees), len(tautologies), first_failures) == (1356, 515, {3: 12})


class TestTransform:
    def test_weak_excluded_middle_shape(self):
        f = parse("s \\/ (s -> 0)")
        assert pi_negation_transform(f, "p") == parse("(s -> p) \\/ ((s -> p) -> p)")

    def test_constant_rule(self):
        assert pi_negation_transform(parse("0"), "p") == Var("p")
        assert pi_negation_transform(parse("1"), "p") == Const1()

    def test_negation_desugars_first(self):
        assert pi_negation_transform(parse("~s"), "p") == parse("(s -> p) -> p")

    def test_name_collision(self):
        with pytest.raises(ValueError, match="already occurs"):
            pi_negation_transform(parse("s -> p"), "p")

    def test_peirce_transform_is_partition_valid_up_to_four(self):
        transformed = pi_negation_transform(parse("((s -> p) -> s) -> s"), "z")
        assert find_partition_counterexample(transformed, max_n=4) is None

    def test_transformed_corpus_small_bound(self):
        for _, text in CLASSICAL_TAUTOLOGIES:
            transformed = pi_negation_transform(parse(text), "z")
            assert find_partition_counterexample(transformed, max_n=3) is None
