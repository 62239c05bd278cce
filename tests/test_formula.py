import dataclasses
import itertools
import random
import re
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

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
    boolean_core,
    eval_partition,
    find_partition_counterexample,
    enumerate_partitions,
    format_formula,
    free_vars,
    implication_blocks,
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
# Formulas over s, p, q and 1 with no 0 and no ~, which compiles to ``-> 0``.
zero_free_formulas = st.recursive(
    st.sampled_from([Const1(), Var("s"), Var("p"), Var("q")]),
    lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner),
                            st.builds(Implies, inner, inner)),
    max_leaves=12,
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


def grow(rng: random.Random, leaves: int, atoms: list[Formula], negation: float = 0.2) -> Formula:
    """A seeded random formula of ``leaves`` atoms drawn from ``atoms``, with a ``~`` at a node by chance ``negation``."""
    if leaves == 1:
        return rng.choice(atoms)
    if rng.random() < negation:
        return Not(grow(rng, leaves - 1, atoms, negation))
    split = rng.randint(1, leaves - 1)
    return rng.choice([And, Or, Implies])(grow(rng, split, atoms, negation), grow(rng, leaves - split, atoms, negation))


def scan_or_fold(level, schedule):
    """``_scan(level, schedule)``; for a schedule with no loop, which the refuter never scans,
    what its folded root gives: ``None`` when it folds to True, else every variable at its pin."""
    initial, var_slots, _, _, named, _ = schedule
    if var_slots:
        return formula._scan(level, schedule)
    return None if initial[-1] else tuple((level.size - 1) * initial[slot] for slot in named)


ATOMS = [Const0(), Const1(), Var("s"), Var("p"), Var("q")]
Z = Var("z")
# Classical tautologies that fail over partitions, first at n=3, 4 and 4,
# where the deciding scan, with a variable pinned at the discrete
# partition, finds the hit and the name-order scan reruns.
REDUCIBLE_FAILURES = ["(s -> z) \\/ ~z", "(z -> s) \\/ (p -> z) \\/ (s -> z)", "(s -> p) \\/ (p -> s) \\/ ~q"]
# A reducible variable whose source is the folded 0 -> 0.
FOLDED = "(q -> (0 -> 0))"


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


NODE_CLASSES = [Var, Const0, Const1, Not, And, Or, Implies]


class TestNodeClasses:
    @pytest.mark.parametrize("node", NODE_CLASSES, ids=lambda node: node.__name__)
    def test_a_subclass_is_no_formula_node(self, node):
        # Each node class is matched by exact type: a subclass passes no
        # entry point, as a leaf or under a connective.
        sub = type(f"My{node.__name__}", (node,), {})
        args = {Var: ("s",), Const0: (), Const1: (), Not: (Var("s"),)}.get(node, (Var("s"), Var("p")))
        entry_points = [free_vars, format_formula, find_partition_counterexample,
                        lambda f: eval_partition(f, Assignment(3, {})),
                        lambda f: pi_negation_transform(f, "z")]
        for f in (sub(*args), Implies(Var("q"), Not(sub(*args)))):
            for entry_point in entry_points:
                with pytest.raises(TypeError) as err:
                    entry_point(f)
                assert str(err.value) == f"not a formula node: My{node.__name__}"


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
        # the n=2 level is the truth table: True is the discrete partition
        assert is_subset_tautology(parse("s \\/ ~s"))
        cex = find_partition_counterexample(parse("s -> 0"), max_n=2)
        assert cex.bindings == {"s": Partition.discrete(2)}
        assert find_partition_counterexample(parse("~(s -> 0)"), max_n=2).bindings == {"s": Partition.indiscrete(2)}

    def test_unbound_variables(self):
        with pytest.raises(ValueError, match="unbound variable 'p'"):
            eval_partition(parse("p"), Assignment(2, {}))
        # the bottom constant decides the conjunction, but p is still unbound
        with pytest.raises(ValueError, match="unbound variable 'p'"):
            eval_partition(parse("0 /\\ p"), Assignment(2, {}))

    def test_assignment_universe_validation(self):
        with pytest.raises(ValueError, match="universe size"):
            Assignment(3, {"s": Partition.discrete(2)})
        # the size is checked as a partition's is, and each binding is a partition
        for n, message in [(-1, "at least one element"), (0, "at least one element"),
                           (2.0, "universe size 2.0 is not an integer"), (True, "universe size True is not an integer")]:
            with pytest.raises(ValueError, match=message):
                Assignment(n, {})
        for value in [5, "{{a,b}}", Partition.discrete(2).rgs, None]:
            with pytest.raises(ValueError, match=f"^binding 's' is {re.escape(repr(value))}, not a partition$"):
                Assignment(2, {"s": value})

    @settings(deadline=None)
    @given(st.one_of(formulas, repeated_formulas), st.integers(1, 4), st.data())
    def test_evaluators_match_tree_walking_oracle(self, f, n, data):
        names = ("s", "p", "q", "r_1")
        a = Assignment(n, {name: data.draw(partitions_of(n)) for name in names})
        assert eval_partition(f, a) == oracle_eval_partition(f, a)

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
        assert is_subset_tautology(negated) == is_subset_tautology(desugared)

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
                expected = oracle_eval_boolean(f, bits)
                assert (eval_partition(f, a) == Partition.discrete(2)) == expected


class TestSubsetTautology:
    def test_examples(self):
        assert is_subset_tautology(parse("s \\/ ~s"))
        assert not is_subset_tautology(parse("s"))
        assert is_subset_tautology(parse("((s -> p) -> s) -> s"))

    def test_the_budget_bounds_the_variables(self):
        # The truth table runs 2**k rows, and the default budget of 10**8
        # admits k <= 26: memory stays one chunk of rows per step.
        assert is_subset_tautology(self._wide(26, excluded_middle=True))
        with pytest.raises(SearchBudgetExceeded, match="level n=2 needs 134217728 assignments"):
            is_subset_tautology(self._wide(27, excluded_middle=True))

    @staticmethod
    def _wide(k: int, excluded_middle: bool = False) -> Formula:
        """``v0 \\/ v1 \\/ ... \\/ v{k-1}``, with ``v0`` replaced by ``(v0 \\/ ~v0)`` for a tautology."""
        first = "(v0 \\/ ~v0)" if excluded_middle else "v0"
        return parse(" \\/ ".join([first] + [f"v{i}" for i in range(1, k)]))


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

    @staticmethod
    def _least_counterexample(f: Formula, max_n: int) -> Assignment | None:
        """The first falsifying assignment in lex order, by the tree-walking oracle."""
        names = free_vars(f)
        for n in range(2, max_n + 1):
            top = Partition.discrete(n)
            for values in itertools.product(list(enumerate_partitions(n)), repeat=len(names)):
                assignment = Assignment(n, dict(zip(names, values)))
                if oracle_eval_partition(f, assignment) != top:
                    return assignment
        return None

    @settings(deadline=None)
    @given(refuter_inputs)
    # relabelling at the third loop must fix the second loop's value too
    @example(parse("(p -> 0) /\\ (q -> s) \\/ ~((p -> 0) /\\ (q -> s))"))
    def test_lex_least_counterexample(self, f):
        assert find_partition_counterexample(f, max_n=3) == self._least_counterexample(f, 3)

    def test_constant_subformulas_give_the_lex_least_counterexample(self):
        # A step on constants alone is folded before any loop, and a variable
        # may be reduced through such a step: s in s -> (0 -> 0).
        body = "1 /\\ 1 /\\ ((1 -> s) \\/ 0 -> q \\/ p)"
        texts = ["(1 /\\ 0) \\/ s", "(0 -> 0) -> ~p", "(0 -> 0) -> (s -> s)", "s -> (0 -> 0)",
                 "(s -> ~1) \\/ (p -> ~0)", "((s -> (0 \\/ 1)) -> p) \\/ ~p", f"{body} \\/ ~({body})"]
        corpus = [parse(text) for text in texts]
        rng = random.Random(23)
        closed = [Const0(), Const1()]
        for i in range(60):
            g = grow(rng, rng.randint(2, 6), ATOMS)
            h = rng.choice([And, Or, Implies])(grow(rng, rng.randint(2, 3), closed), g)
            corpus.append(Or(h, Not(h)) if i % 2 else h)
        hits = [find_partition_counterexample(f, max_n=4) for f in corpus]
        assert hits == [self._least_counterexample(f, 4) for f in corpus]
        assert {cex.n for cex in hits if cex} == {2, 3}

    def test_pure_variables_give_the_lex_least_counterexample(self):
        # q next to a formula over s, p and constants, reached only positively,
        # only negatively, or both ways; hits at n=3 and 4 with q pinned at 0,
        # or at 1 in the deciding scan and free in the name-order rerun
        rng = random.Random(25)
        sides = [Var("q"), Not(Var("q")), Const0(), Const1()]
        corpus = []
        for i in range(60):
            g = grow(rng, rng.randint(2, 5), ATOMS[:4])
            base = [Or(g, Not(g)), parse("(s -> p) \\/ (p -> s)"), g][i % 3]
            h = grow(rng, rng.randint(1, 3), sides)
            corpus.append(rng.choice([And, Or, Implies])(h, base) if i % 2 else rng.choice([Or, Implies])(base, h))
        hits = [find_partition_counterexample(f, max_n=4) for f in corpus]
        assert hits == [self._least_counterexample(f, 4) for f in corpus]
        pinned = Counter((cex.n, how) for f, cex in zip(corpus, hits) if cex and cex.n > 2
                         for name, how in self._reductions(f) if name == "q")
        assert all(pinned[n, pin] for n in (3, 4) for pin in (0, 1))

    def test_one_variable_does_not_hold_its_level(self, cold_levels):
        # Only the block shapes' rgs tuples are unranked, never a whole level.
        tracemalloc.start()
        try:
            assert find_partition_counterexample(parse("s -> s"), max_n=10, budget=10**30) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_smaller_call_releases_the_larger_levels(self, cold_levels):
        # The levels of a call stay for the next one, a warm rerun or a truth
        # table at max_n=2, up to a call that scans to a smaller max_n: then
        # the levels past n=4 of the syllogism go.
        syllogism = parse("((s -> p) /\\ (p -> q)) -> (s -> q)")
        tracemalloc.start()
        try:
            assert find_partition_counterexample(syllogism, max_n=6) is None
            held, _ = tracemalloc.get_traced_memory()
            assert find_partition_counterexample(syllogism, max_n=6) is None
            assert is_subset_tautology(syllogism)
            assert abs(held - tracemalloc.get_traced_memory()[0]) < 1 << 14
            assert find_partition_counterexample(parse("s \\/ ~s"), max_n=3).n == 3
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held > 1 << 18 and left < 1 << 16

    @staticmethod
    def _count_connectives(monkeypatch, kinds=(Implies,)) -> list[int]:
        """Count the calls of the kernels of the connectives ``kinds``."""
        calls = [0]

        def counting(production):
            def count(p, q):
                calls[0] += 1
                return production(p, q)
            return count

        for kind in kinds:
            monkeypatch.setitem(formula._KERNELS, kind, counting(formula._KERNELS[kind]))
        return calls

    def test_one_variable_visits_the_block_shapes(self, monkeypatch, cold_levels):
        # one value per integer partition of n, at n=10 alone: a formula
        # without 0 is decided at its top level
        calls = self._count_connectives(monkeypatch)
        assert find_partition_counterexample(parse("s -> s"), max_n=10) is None
        assert 0 < calls[0] <= 42

    def test_long_chain_reads_the_memo(self, monkeypatch, cold_levels):
        calls = self._count_connectives(monkeypatch)
        chain = parse(" -> ".join(["s"] * 10**4))
        assert find_partition_counterexample(chain) is None
        assert 0 < calls[0] <= 100

    def test_negation_shares_the_memo_of_implication_into_0(self, monkeypatch, cold_levels):
        calls = self._count_connectives(monkeypatch)
        assert find_partition_counterexample(parse("~s \\/ s"), max_n=4) is not None
        before = calls[0]
        assert find_partition_counterexample(parse("(s -> 0) \\/ s"), max_n=4) is not None
        assert calls[0] == before > 0

    def test_a_warm_level_computes_nothing_twice(self, monkeypatch, cold_levels):
        # 0 -> 0 depends on no variable; it is folded before any loop.
        calls = self._count_connectives(monkeypatch)
        syllogism = pi_negation_transform(parse("(s -> p) -> ((p -> q) -> (s -> q))"), "z")
        for f in (syllogism, parse("(0 -> 0) -> (s -> s)")):
            assert find_partition_counterexample(f, max_n=4) is None
            assert calls[0] > 0
            cold = calls[0]
            assert find_partition_counterexample(f, max_n=4) is None
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
        corpus = [pi_negation_transform(parse(text), "z") for _, text in CLASSICAL_TAUTOLOGIES]
        corpus.append(parse("(s -> p) \\/ (p -> s)"))
        for i in range(50):
            g = grow(rng, rng.randint(2, 9), ATOMS)
            corpus.append(Or(g, Not(g)) if i % 2 else g)
        # Relativized non-tautologies: those refuted past n=2 scan over cores
        # first, so a tiny memo evicts core member lists too.
        corpus += [pi_negation_transform(parse(text), "z") for _, text in NON_TAUTOLOGIES]
        corpus += [parse(text) for text in REDUCIBLE_FAILURES]
        corpus += [Or(pi_negation_transform(grow(rng, rng.randint(2, 6), ATOMS[:4]), "z"), Not(Z))
                   for _ in range(10)]
        expected = [find_partition_counterexample(f, max_n=4) for f in corpus]
        assert expected[len(CLASSICAL_TAUTOLOGIES)].n == 4
        formula._level.cache_clear()
        for name, value in limits.items():
            monkeypatch.setattr(f"partlogic.formula.{name}", value)
        # The one writer keeps the lengths of every level's tables, summed,
        # within the bound after each of its fills.
        fill = formula._Level.fill

        def bounded_fill(level, *args):
            value = fill(level, *args)
            assert self._entries(level) <= formula._MEMO_LIMIT
            return value
        monkeypatch.setattr(formula._Level, "fill", bounded_fill)
        assert [find_partition_counterexample(f, max_n=4) for f in corpus] == expected
        assert [find_partition_counterexample(f, max_n=4) for f in reversed(corpus)] == expected[::-1]
        assert all(self._entries(formula._level(n)) <= formula._MEMO_LIMIT for n in range(2, 5))

    def test_threads_sharing_a_level_keep_its_count(self, monkeypatch, cold_levels):
        # More threads than cores fill tiny shared tables at once, switching
        # often: every result stands, and the lock around each fill keeps
        # the lengths of a level's tables, summed, within the bound.
        corpus = [pi_negation_transform(parse(text), "z") for _, text in CLASSICAL_TAUTOLOGIES[-4:]]
        corpus += [parse(text) for text in REDUCIBLE_FAILURES] + [parse("(s -> p) \\/ (p -> s)")]
        expected = [find_partition_counterexample(f, max_n=4) for f in corpus]
        formula._level.cache_clear()
        monkeypatch.setattr(formula, "_MEMO_LIMIT", 40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(lambda: [find_partition_counterexample(f, max_n=4) for f in corpus])
                        for _ in range(4)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
        for n in (3, 4):
            level = formula._level(n)
            assert self._entries(level) <= formula._MEMO_LIMIT

    @staticmethod
    def _entries(level) -> int:
        """The entries of a level's tables: connective values, core member lists and rgs tuples."""
        return sum(len(table) for table in (*level.memo.values(), level.cores, level.rgs))

    @pytest.mark.parametrize("text, reduced", [("(s -> z) /\\ (s -> p)", [("p", 0), ("s", 1), ("z", 0)]),
                                               ("s -> s", []),
                                               ("s -> (s -> z)", [("s", 1), ("z", 0)]),
                                               ("~s", [("s", 1)]),
                                               ("p -> (q -> z)", [("p", 1), ("q", 1), ("z", 0)]),
                                               ("s", [("s", 0)]),
                                               ("~~s", [("s", 0)]),
                                               ("(s -> p) -> s", [("p", 1), ("s", 0)]),
                                               ("(s \\/ p -> q) /\\ (s \\/ p)", [("q", 0)]),
                                               ("(s -> z) \\/ ~(s -> z)", [("s", "core")]),
                                               ("(p -> (q -> z)) \\/ ~(p -> (q -> z))", [("q", "core"), ("p", "core")]),
                                               ("(0 -> s) -> 1 /\\ p", [("p", 0), ("s", 1)]),
                                               ("~(s -> 0) \\/ (1 -> p)", [("p", 0), ("s", 0)]),
                                               ("(s -> ~1) /\\ ((s -> ~1) -> q)", [("q", 0), ("s", "core")])])
    def test_reducible_variables(self, text, reduced):
        # A variable reached only positively is pinned at 0, the indiscrete
        # partition, and one reached only negatively at 1, the discrete one:
        # ``->`` flips the sign on its left and keeps it on its right, the
        # other connectives keep it.  Another variable is reducible when its
        # one use is as the left operand of an implication; those are listed
        # in scan order.
        assert self._reductions(parse(text)) == reduced

    @staticmethod
    def _reductions(f: Formula) -> list[tuple[str, int | str]]:
        """Each pinned variable and its pin, by name, then each variable the deciding scan takes over a core."""
        names, steps = formula._compile(f)
        pins, cores = formula._analyse(steps)
        _, var_slots, sources, _, _, _ = formula._schedule(steps, len(names), pins, cores)
        # a loop over a core binds the implication whose left operand is the variable
        scanned = [names[steps[steps[slot][1]][1]] for slot, source in zip(var_slots, sources) if source is not None]
        return [(names[v], int(pins[v])) for v in sorted(pins)] + [(name, "core") for name in scanned]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_preimages_map_onto_the_core(self, n):
        # The core's member list ranks the members in order, and those are
        # the values ``x -> z`` takes, so a core loop binds ``v -> r`` to them.
        level = formula._Level(n)
        parts = [level.partition(i) for i in range(level.size)]
        for i, z in enumerate(parts):
            members = boolean_core(z).members
            assert [parts[x] for x in level.core(i)] == list(members)
            assert set(members) == {implication_blocks(x, z) for x in parts}
            assert level.fill(None, i) is level.cores[i] and level.cores[i] == level.core(i)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_fill_ranks_the_public_operation(self, n):
        # A fill runs a kernel on two rgs tuples and ranks its labels; the
        # public operation on the two partitions gives the same index.
        level = formula._Level(n)
        parts = list(enumerate_partitions(n))
        index = {p: i for i, p in enumerate(parts)}
        for kind, op in [(And, formula.meet), (Or, formula.join), (Implies, implication_blocks)]:
            for (i, p), (j, q) in itertools.product(enumerate(parts), repeat=2):
                value = index[op(p, q)]
                assert level.fill(kind, i, j) == value == formula._rank(level.tails, op(p, q).rgs)
                assert level.memo[kind][i * level.size + j] == value
        assert level.rgs == {i: p.rgs for i, p in enumerate(parts)}
        assert [level.partition(i) for i in range(level.size)] == parts

    def test_core_image_scan_gives_the_name_order_result(self, monkeypatch):
        rng = random.Random(16)
        corpus = [parse(text) for text in REDUCIBLE_FAILURES]
        for _, text in CLASSICAL_TAUTOLOGIES + NON_TAUTOLOGIES:
            corpus.append(pi_negation_transform(parse(text), "z"))
        corpus += [parse(text) for _, text in NON_TAUTOLOGIES]
        negated = [Const0(), Const1()] + [Not(Var(v)) for v in "spq"]
        for _ in range(20):
            corpus.append(pi_negation_transform(grow(rng, rng.randint(2, 7), ATOMS), "z"))
            corpus.append(grow(rng, rng.randint(2, 7), negated))
            corpus.append(Or(pi_negation_transform(grow(rng, rng.randint(2, 6), ATOMS[:4]), "z"), Not(Z)))
        reduced = [find_partition_counterexample(f, max_n=5) for f in corpus]
        # the hits past n=2 that a core loop or a pin at 1 found and the name-order scan reran
        reran = Counter(cex.n for f, cex in zip(corpus, reduced)
                        if cex and cex.n > 2 and {1, "core"} & {how for _, how in self._reductions(f)})
        assert reran == {3: 9, 4: 2}
        # no pin and no core: every variable by name, in one scan
        monkeypatch.setattr(formula, "_analyse", lambda steps: ({}, {}))
        assert [find_partition_counterexample(f, max_n=5) for f in corpus] == reduced

    def test_relativized_variables_range_over_the_core(self, monkeypatch, cold_levels):
        calls = self._count_connectives(monkeypatch)
        syllogism = pi_negation_transform(parse("((s -> p) /\\ (p -> q)) -> (s -> q)"), "z")
        assert find_partition_counterexample(syllogism, max_n=5) is None
        assert 0 < calls[0] <= 37

    def test_pure_variables_get_no_loop(self, monkeypatch, cold_levels):
        calls = self._count_connectives(monkeypatch, (And, Or, Implies))
        # p is pinned at 0 and q at 1, so ~q folds to 0 and s alone is scanned:
        # s -> s once per block shape, 3+5+7 for n=3..5, and one join per level
        assert find_partition_counterexample(parse("((s -> s) \\/ p) \\/ ~q"), max_n=5) is None
        assert 0 < calls[0] <= 18
        # q's core loop reads the folded top of 0 -> 0 and binds the implication
        # to that one member: one implication and one meet per level
        calls[0] = 0
        formula._level.cache_clear()
        assert find_partition_counterexample(parse(f"{FOLDED} /\\ ({FOLDED} -> {FOLDED})"), max_n=5) is None
        assert 0 < calls[0] <= 6

    @pytest.mark.parametrize("text, max_n, levels", [
        # no 0 and at most one loop over the whole level: a tautology scans
        # its top level alone
        ("s -> s", 5, [5]),
        ("(1 -> s) -> s /\\ 1", 4, [4]),
        ("((s -> z) -> (p -> z)) \\/ ((p -> z) -> (s -> z))", 6, [6]),
        # refuted: the top level decides, the levels from n=3 locate the
        # least hit, and its level reruns in name order when z is pinned
        # at the discrete partition
        ("q \\/ (q -> p)", 5, [5, 3]),
        ("z -> (p -> q) \\/ p", 5, [5, 3, 3]),
        # a 0 or a ~ scans every level from n=3
        ("~s -> ~s", 5, [3, 4, 5]),
        ("s /\\ 0 -> s", 4, [3, 4]),
        ("(s -> p) \\/ (p -> s) \\/ ~q", 5, [3, 4, 4]),
        # two loops over the whole level, s and p or z and s: every level in
        # order, since the top would cost a formula refuted below it far more
        # than the levels it skips
        ("(s -> p) \\/ (p -> s)", 4, [3, 4]),
        ("(z -> s) \\/ (p -> z) \\/ (s -> z)", 6, [3, 4, 4]),
        # a top level over the budget: every level in order, refuted below it
        ("q \\/ (q -> p)", 10, [3]),
        # no loop, every variable pinned: the truth table decides every level
        ("(s -> 0) -> 1 \\/ p", 5, []),
    ])
    def test_levels_scanned(self, monkeypatch, text, max_n, levels):
        seen = self._record_scans(monkeypatch)
        f = parse(text)
        cex = find_partition_counterexample(f, max_n=max_n)
        assert seen == levels
        if max_n <= 5:
            assert cex == self._least_counterexample(f, max_n)

    @staticmethod
    def _record_scans(monkeypatch) -> list[int]:
        """Record the ``level.n`` of every ``_scan`` call."""
        seen = []
        scan = formula._scan
        monkeypatch.setattr(formula, "_scan", lambda level, *args: seen.append(level.n) or scan(level, *args))
        return seen

    def test_no_level_past_the_budget_is_built(self, monkeypatch, cold_levels):
        # The levels are built in order and checked against the budget before
        # the top one is scanned: the first over it, n=9, is the last built,
        # and the levels below it are scanned in order before the error.
        seen = self._record_scans(monkeypatch)
        f = parse("s -> (p -> s)")
        message = "^level n=9 needs 447195609 assignments, past the budget 100000000$"
        with pytest.raises(SearchBudgetExceeded, match=message):
            find_partition_counterexample(f, max_n=40)
        assert formula._level.cache_info().currsize == 8  # n=2..9
        assert seen == [3, 4, 5, 6, 7, 8]
        with pytest.raises(SearchBudgetExceeded, match=message):
            find_partition_counterexample(f, max_n=10**6)
        assert formula._level.cache_info().currsize == 8
        # max_n=9 is the first level over the budget itself: no top scan, and
        # the same levels in order before the error
        seen.clear()
        with pytest.raises(SearchBudgetExceeded, match=message):
            find_partition_counterexample(f, max_n=9)
        assert formula._level.cache_info().currsize == 8
        assert seen == [3, 4, 5, 6, 7, 8]

    def test_a_formula_with_no_loop_builds_no_level_past_n2(self, monkeypatch, cold_levels):
        # Its pins are the indiscrete and discrete partitions, whose two-element
        # subalgebra is the same at every n: the truth table decides it, at
        # any max_n, and a level past n=2 would only count toward the budget.
        seen = self._record_scans(monkeypatch)
        wide = parse(" /\\ ".join(f"v{i}" for i in range(1, 21)) + " -> 1")
        for f in [wide, parse("p -> (q -> 1)"), parse("~~(s \\/ 1) \\/ ~p"), parse("1")]:
            assert find_partition_counterexample(f, max_n=40) is None
        assert seen == []
        assert formula._level.cache_info().currsize == 1  # n=2

    def test_budget_guard(self):
        f = parse("s \\/ ~s \\/ p \\/ q")
        with pytest.raises(SearchBudgetExceeded, match="past the budget"):
            find_partition_counterexample(f, max_n=3, budget=10)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="max_n"):
            find_partition_counterexample(parse("s"), max_n=1)
        # both bounds must be ints (a bool is not), and the budget positive
        for kwargs, message in [({"max_n": 3.0}, "max_n must be an integer"),
                                ({"max_n": True}, "max_n must be an integer"),
                                ({"max_n": "3"}, "max_n must be an integer"),
                                ({"budget": 10.0**8}, "budget must be an integer"),
                                ({"budget": True}, "budget must be an integer"),
                                ({"budget": None}, "budget must be an integer"),
                                ({"budget": 0}, "budget must be at least 1"),
                                ({"budget": -5}, "budget must be at least 1")]:
            with pytest.raises(ValueError, match=message):
                find_partition_counterexample(parse("s"), **kwargs)
        # the smallest budget still runs a level that fits it
        assert find_partition_counterexample(parse("1"), budget=1) is None

    def test_the_budget_alone_bounds_the_variables(self):
        # No bound on the number of variables: the n=2 level's 2**k rows are
        # checked against the budget like any level's assignments.
        wide = TestSubsetTautology._wide(21)
        bottom = Partition.indiscrete(2)
        assert find_partition_counterexample(wide, max_n=2) == Assignment(2, {f"v{i}": bottom for i in range(21)})
        message = "^level n=2 needs 134217728 assignments, past the budget 100000000$"
        with pytest.raises(SearchBudgetExceeded, match=message):
            find_partition_counterexample(TestSubsetTautology._wide(27), max_n=2)
        # a level whose count equals the budget runs
        three = TestSubsetTautology._wide(3, excluded_middle=True)
        assert find_partition_counterexample(three, max_n=2, budget=8) is None
        with pytest.raises(SearchBudgetExceeded, match="level n=2 needs 8 assignments, past the budget 7"):
            find_partition_counterexample(three, max_n=2, budget=7)

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


class TestTruthTable:
    @pytest.mark.parametrize("chunk_bits", [0, 1, formula._CHUNK_BITS])
    def test_matches_the_n2_scan_and_the_oracle(self, monkeypatch, chunk_bits):
        # With chunks of one or two rows a hit in a later chunk must still
        # be the lex-least row.
        monkeypatch.setattr(formula, "_CHUNK_BITS", chunk_bits)
        rng = random.Random(22)
        atoms = [Const0(), Const1()] + [Var(name) for name in "abcdef"]
        refuted = 0
        for i in range(400):
            g = grow(rng, rng.randint(1, 14), atoms[:rng.randint(3, 8)])
            f = Or(g, Not(g)) if i % 4 == 0 else g
            names, steps = formula._compile(f)
            hit = formula._truth_table(steps, len(names))
            # the scan needs a variable to bind; a closed formula has the oracle alone
            if names:
                # every variable by name, and with the variables reached only
                # positively pinned at 0, as in the name-order rerun
                pins, _ = formula._analyse(steps)
                lows = {v: pin for v, pin in pins.items() if not pin}
                for held in ({}, lows):
                    assert hit == scan_or_fold(formula._level(2), formula._schedule(steps, len(names), held, {}))
            assert (hit is None) == oracle_is_tautology(f)
            refuted += hit is not None
        assert 100 < refuted < 300

    def test_no_scan_and_no_schedule_at_n2(self, monkeypatch):
        seen, scheduled, analysed = [], [], []
        scan, schedule, analyse = formula._scan, formula._schedule, formula._analyse
        monkeypatch.setattr(formula, "_scan", lambda level, *args: seen.append(level.n) or scan(level, *args))
        monkeypatch.setattr(formula, "_schedule", lambda *args: scheduled.append(args) or schedule(*args))
        monkeypatch.setattr(formula, "_analyse", lambda steps: analysed.append(steps) or analyse(steps))
        corpus = [parse(text) for _, text in CLASSICAL_TAUTOLOGIES + NON_TAUTOLOGIES]
        corpus += [pi_negation_transform(f, "z") for f in corpus] + [parse("0"), parse("1")]
        # q's core loop reads the folded top of 0 -> 0: a stale 0 would give a hit
        corpus += [parse(text) for text in REDUCIBLE_FAILURES + [f"{FOLDED} /\\ ({FOLDED} -> {FOLDED})"]]
        outcomes = Counter()
        for f in corpus:
            scheduled.clear()
            analysed.clear()
            cex = find_partition_counterexample(f, max_n=4)
            # The plan is built once, after a truth table with no hit, and the
            # levels from n=3 only read it.
            assert len(analysed) == (cex is None or cex.n > 2)
            # None for a formula decided at n=2.  One that reaches n=3 builds
            # the deciding schedule once, however many levels it scans from
            # there, and a tautology builds nothing more.  On the level of a
            # hit the name-order schedule follows, with no core and no pin at
            # 1, when the deciding one has either.
            reaches = (cex is None or cex.n > 2) and bool(free_vars(f))
            first = [(pins, cores) for _, _, pins, cores in scheduled[:1]]
            rerun = cex is not None and any(cores or any(pins.values()) for pins, cores in first)
            assert len(scheduled) == reaches + rerun
            assert all(not cores and not any(pins.values()) for _, _, pins, cores in scheduled[1:])
            outcomes["none" if cex is None else cex.n, rerun] += 1
        assert all(outcomes[key] for key in [("none", False), (2, False), (3, False), (3, True), (4, True)])
        assert seen and 2 not in seen
        # a formula decided at n=2, or checked at max_n=2, builds no plan
        monkeypatch.setattr(formula, "_schedule", None)
        monkeypatch.setattr(formula, "_analyse", None)
        assert find_partition_counterexample(parse("s /\\ ~s"), max_n=4).n == 2
        assert is_subset_tautology(parse("s \\/ ~s"))

    def test_twenty_variables_in_bounded_memory(self):
        rng = random.Random(20)
        atoms = [Var(f"v{i}") for i in range(1, 20)]
        f = Or(Or(Var("v0"), Not(Var("v0"))), grow(rng, 4000, atoms))
        names, steps = formula._compile(f)
        assert len(names) == 20 and len(steps) > 3000
        tracemalloc.start()
        try:
            assert is_subset_tautology(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestSingletonExtension:
    """A fresh element that is a singleton in every variable keeps a counterexample.

    So a formula without ``0`` that has a counterexample at n has one at
    every larger size, and the refuter may decide it at ``max_n`` alone.
    """

    @staticmethod
    def _extend(p: Partition) -> Partition:
        """``p`` with a new element ``p.n`` in a block of its own."""
        return Partition.from_labels(p.rgs + (p.n,))

    @settings(deadline=None)
    @given(zero_free_formulas, st.integers(1, 5), st.data())
    def test_a_fresh_singleton_extends_the_root(self, f, n, data):
        bindings = {name: data.draw(partitions_of(n)) for name in "spq"}
        root = eval_partition(f, Assignment(n, bindings))
        extended = Assignment(n + 1, {name: self._extend(p) for name, p in bindings.items()})
        assert eval_partition(f, extended) == self._extend(root)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_0_does_not_extend(self, n):
        # The indiscrete partition puts the new element in its one block, so
        # a formula with 0, or with ~, keeps the level-by-level scan.
        assert eval_partition(Const0(), Assignment(n + 1, {})) != self._extend(Partition.indiscrete(n))

    def test_verdicts_per_level_are_monotone(self):
        # Whether each level n=2..5 has a counterexample, by the truth table
        # and the deciding scan: once one has, every larger one has too.
        rng = random.Random(30)
        corpus = [parse(text) for _, text in CLASSICAL_TAUTOLOGIES + NON_TAUTOLOGIES]
        corpus += [pi_negation_transform(f, "z") for f in corpus]
        corpus += [grow(rng, rng.randint(2, 8), ATOMS[1:], negation=0) for _ in range(100)]
        first_failures = Counter()
        for f in corpus:
            names, steps = formula._compile(f)
            k = len(names)
            deciding = formula._schedule(steps, k, *formula._analyse(steps))
            verdicts = [formula._truth_table(steps, k) is not None]
            verdicts += [scan_or_fold(formula._level(n), deciding) is not None for n in range(3, 6)]
            assert verdicts == sorted(verdicts)
            first_failures[verdicts.index(True) + 2 if True in verdicts else None] += 1
        assert all(first_failures[n] for n in (None, 2, 3, 4))


class TestCensus:
    def test_two_connectives_fail_first_at_three(self):
        """Every tree of at most two connectives over ``s``, ``p``, ``0``, ``1``.

        Each classical tautology among them that fails over partitions
        fails first at n=3; none first fails at n=4.  Each counterexample
        is the lex-least one.
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
        assert hits == [TestRefuter._least_counterexample(f, 4) for f in tautologies]


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
