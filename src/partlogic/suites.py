"""Named check suites: the package's acceptance checks.

Each suite is a fixed list of checks over small universes, exercising
the theorem-level properties of the operations: implication-definition
agreement, overlap of distinction sets, the Boolean core laws, the
negation identities, the pinned non-distributivity example, and the
tautology engine.  This module is the only definition of these checks:
``partlogic suite <name>`` and the acceptance tests both run them.
Suites return structured results, and a failed check names its first
failing input in ``detail``; the CLI renders them and turns failures
into its exit code.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .algebra import (
    boolean_core,
    check_join_decomposition,
    core_from_subset,
    double_pi_negation,
    excluded_middle_partition,
)
from .core import BinaryRelation, Partition, _Value, _set_field, enumerate_partitions, refines
from .formula import (
    Assignment,
    Formula,
    find_partition_counterexample,
    is_subset_tautology,
    parse,
    pi_negation_transform,
)
from .ops import (
    AND,
    IMPLIES,
    OR,
    all_binary_ops,
    binary_op_graph,
    implication_adjunctive,
    implication_blocks,
    implication_graph,
    implication_interior,
    join,
    meet,
    retained_links,
)

CLASSICAL_TAUTOLOGIES: tuple[tuple[str, str], ...] = (
    ("identity", "s -> s"),
    ("excluded middle", "s \\/ ~s"),
    ("double negation elimination", "~~s -> s"),
    ("double negation introduction", "s -> ~~s"),
    ("non-contradiction", "~(s /\\ ~s)"),
    ("Peirce's law", "((s -> p) -> s) -> s"),
    ("modus ponens", "(s /\\ (s -> p)) -> p"),
    ("De Morgan for disjunction", "(~(s \\/ p) -> (~s /\\ ~p)) /\\ ((~s /\\ ~p) -> ~(s \\/ p))"),
    ("De Morgan for conjunction", "(~(s /\\ p) -> (~s \\/ ~p)) /\\ ((~s \\/ ~p) -> ~(s /\\ p))"),
    ("linearity", "(s -> p) \\/ (p -> s)"),
    ("weakening", "s -> (p -> s)"),
    ("contraposition", "(s -> p) -> (~p -> ~s)"),
    ("hypothetical syllogism", "((s -> p) /\\ (p -> q)) -> (s -> q)"),
    ("distribution of implication", "(s -> (p -> q)) -> ((s -> p) -> (s -> q))"),
    ("disjunctive syllogism", "((s \\/ p) /\\ ~s) -> p"),
)

NON_TAUTOLOGIES: tuple[tuple[str, str], ...] = (
    ("bare variable", "s"),
    ("bare implication", "s -> p"),
    ("bare disjunction", "s \\/ p"),
    ("converse implication", "(s -> p) -> (p -> s)"),
    ("negated variable", "~s"),
)

TRANSFORM_VARIABLE = "z"


class CheckResult(_Value):
    """The outcome of one named check; ``detail`` names a failure's first failing input."""

    __match_args__ = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str = ""):
        _set_field(self, "name", name)
        _set_field(self, "passed", passed)
        _set_field(self, "detail", detail)


def _check(name: str, failure: str | None) -> CheckResult:
    """A passed check, or a failed one whose detail is its first failing input."""
    return CheckResult(name, failure is None, failure or "")


def _first(failures: Iterable[str]) -> str | None:
    return next(iter(failures), None)


def _expect(name: str, got, expected) -> CheckResult:
    return _check(name, None if got == expected else f"got {got}, expected {expected}")


def _describe(cex: Assignment | None) -> str:
    if cex is None:
        return "no counterexample"
    bound = ", ".join(f"{name}={p}" for name, p in sorted(cex.bindings.items()))
    return f"counterexample at n={cex.n}: {bound}"


def _disagreements(
    sizes: Iterable[int],
    reference: Callable[[Partition, Partition], Partition],
    oracles: dict[str, Callable[[Partition, Partition], Partition]],
) -> Iterator[str]:
    """Each pair of partitions, at every size in ``sizes``, on which an oracle differs from ``reference``."""
    for n in sizes:
        parts = list(enumerate_partitions(n))
        for s in parts:
            for p in parts:
                expected = reference(s, p)
                for label, oracle in oracles.items():
                    got = oracle(s, p)
                    if got != expected:
                        yield f"{label}({s}, {p}) = {got}, expected {expected}"


def _truth_function_mismatches(sizes: Iterable[int]) -> Iterator[str]:
    """Pairs on which the link-labelling method differs from the interior of the true links."""
    for n in sizes:
        parts = list(enumerate_partitions(n))
        off = BinaryRelation.identity(n).complement()
        for op in all_binary_ops():
            for s in parts:
                for p in parts:
                    true_links = off - retained_links(op, s, p)
                    if binary_op_graph(op, s, p).ditset != true_links.interior():
                        table = "".join(str(int(v)) for v in op.table)
                        yield f"truth table {table} on {s}, {p}"


def _pinned_example() -> tuple[Partition, Partition, Partition]:
    sigma = Partition.from_blocks([[0], [1, 2, 3]], 4)
    pi = Partition.from_blocks([[0, 1], [2, 3]], 4)
    expected = Partition.from_blocks([[0, 1], [2], [3]], 4)
    return sigma, pi, expected


def suite_implication_equivalence() -> list[CheckResult]:
    sigma, pi, expected = _pinned_example()
    oracles = {"graph": implication_graph, "interior": implication_interior, "adjunctive": implication_adjunctive}
    results = [
        _expect("pinned example: block rule gives {{a,b},{c},{d}}", implication_blocks(sigma, pi), expected),
        _expect(
            "pinned example: exactly one retained link a-b",
            sorted(retained_links(IMPLIES, sigma, pi)),
            [(0, 1), (1, 0)],
        ),
        _check("pinned example: all four definitions agree", _first(
            f"{label} gives {oracle(sigma, pi)}"
            for label, oracle in oracles.items()
            if oracle(sigma, pi) != expected
        )),
    ]
    for n in range(1, 7):
        results.append(_check(
            f"block = graph = interior on all pairs, n={n}",
            _first(_disagreements([n], implication_blocks, {
                "graph": implication_graph,
                "interior": implication_interior,
            })),
        ))
    for n in range(1, 6):
        results.append(_check(
            f"adjunctive oracle agrees on all pairs, n={n}",
            _first(_disagreements([n], implication_blocks, {"adjunctive": implication_adjunctive})),
        ))
    results.append(_check(
        "all 16 truth functions: components match interior of true links, n<=4",
        _first(_truth_function_mismatches(range(1, 5))),
    ))
    for name, op, lattice_op in (("disjunction", OR, join), ("conjunction", AND, meet)):
        results.append(_check(
            f"{name} table matches the lattice operation, n<=5",
            _first(_disagreements(range(1, 6), lattice_op, {name: partial(binary_op_graph, op)})),
        ))
    return results


def suite_common_dits() -> list[CheckResult]:
    results = []
    for n in range(2, 7):
        nontrivial = [p for p in enumerate_partitions(n) if p != Partition.indiscrete(n)]
        results.append(_check(f"non-empty ditsets pairwise overlap, n={n}", _first(
            f"disjoint ditsets: {p}, {q}"
            for p in nontrivial
            for q in nontrivial
            if not p.ditset.bits & q.ditset.bits
        )))
    results.append(_check("two-block partitions pairwise overlap, n<=6", _first(
        f"disjoint ditsets: {p}, {q}"
        for n in range(2, 7)
        for p, q in combinations([p for p in enumerate_partitions(n) if p.num_blocks == 2], 2)
        if not p.ditset.bits & q.ditset.bits
    )))
    return results


def suite_boolean_core() -> list[CheckResult]:
    size = "core size is 2^(non-singleton blocks), with bottom pi and top discrete, n<=5"
    iso = "subset maps preserve join, meet, and complement, n<=5"
    complement = "complement laws: meet with negation is pi, join is discrete, n<=5"
    cardinality = "powerset cardinality identity, n<=5"
    first: dict[str, str] = {}
    for n in range(1, 6):
        top = Partition.discrete(n)
        for pi in enumerate_partitions(n):
            core = boolean_core(pi)
            k = len(core.ns_blocks)
            if len(core) != 2**k or core.bottom != pi or core.top != top:
                first.setdefault(size, f"pi={pi}: {len(core)} members from {core.bottom} to {core.top}")
            subsets = range(1 << k)
            for a in subsets:
                member_a = core.members[a]
                if core_from_subset(core, [i for i in range(k) if a >> i & 1]) != member_a:
                    first.setdefault(iso, f"pi={pi}: subset map at mask {a}")
                if implication_blocks(member_a, pi) != core.members[(~a) & ((1 << k) - 1)]:
                    first.setdefault(iso, f"pi={pi}: complement map at mask {a}")
                for b in subsets:
                    member_b = core.members[b]
                    if join(member_a, member_b) != core.members[a | b]:
                        first.setdefault(iso, f"pi={pi}: join at masks {a}, {b}")
                    if meet(member_a, member_b) != core.members[a & b]:
                        first.setdefault(iso, f"pi={pi}: meet at masks {a}, {b}")
            for member in core.members:
                negated = implication_blocks(member, pi)
                if meet(member, negated) != pi or join(member, negated) != top:
                    first.setdefault(complement, f"pi={pi}, member {member}")
            singletons = pi.num_blocks - k
            if 2**pi.num_blocks != len(core) * 2**singletons:
                first.setdefault(cardinality, f"pi={pi}")
    return [_check(name, first.get(name)) for name in (size, iso, complement, cardinality)]


def suite_identities() -> list[CheckResult]:
    closure = "sigma refines into its double negation, n<=5"
    join_below = "the join with pi refines into the double negation, n<=5"
    em_above_pi = "pi refines into the excluded-middle partition, n<=5"
    em_negation = "negating the excluded-middle partition gives back pi, n<=5"
    em_dense = "the excluded-middle partition is dense: double negation is discrete, n<=5"
    decomposition = "join decomposition through the core, n<=5"
    triple = "triple negation collapses to single negation, n<=5"
    first: dict[str, str] = {}
    for n in range(1, 6):
        parts = list(enumerate_partitions(n))
        top = Partition.discrete(n)
        for sigma in parts:
            for pi in parts:
                ddn = double_pi_negation(sigma, pi)
                em = excluded_middle_partition(sigma, pi)
                for name, ok in (
                    (closure, refines(sigma, ddn)),
                    (join_below, refines(join(sigma, pi), ddn)),
                    (em_above_pi, refines(pi, em)),
                    (em_negation, implication_blocks(em, pi) == pi),
                    (em_dense, double_pi_negation(em, pi) == top),
                    (decomposition, check_join_decomposition(sigma, pi)),
                    (triple, implication_blocks(ddn, pi) == implication_blocks(sigma, pi)),
                ):
                    if not ok:
                        first.setdefault(name, f"sigma={sigma}, pi={pi}")
    return [
        _check(name, first.get(name))
        for name in (closure, join_below, em_above_pi, em_negation, em_dense, decomposition, triple)
    ]


def suite_figure3() -> list[CheckResult]:
    pi = Partition.from_blocks([[0, 1], [2]], 3)
    sigma = Partition.from_blocks([[0], [1, 2]], 3)
    tau = Partition.from_blocks([[1], [0, 2]], 3)
    bottom = Partition.indiscrete(3)
    top = Partition.discrete(3)
    left = join(pi, meet(sigma, tau))
    right = meet(join(pi, sigma), join(pi, tau))
    return [
        _expect("the two side partitions meet to the bottom", meet(sigma, tau), bottom),
        _check("each pair of middle partitions joins to the top", _first(
            f"join of {pi} and {other} is {join(pi, other)}" for other in (sigma, tau) if join(pi, other) != top
        )),
        _expect("join over the meet stays at pi", left, pi),
        _expect("meet of the joins is the top", right, top),
        _check("the two sides differ, so the lattice is not distributive",
               None if left != right else f"both sides are {left}"),
    ]


def _refute(f: Formula) -> Assignment | None:
    return find_partition_counterexample(f, max_n=5)


def suite_tautologies() -> list[CheckResult]:
    em = parse("s \\/ ~s")
    em_runs = [_refute(em) for _ in range(3)]
    em_cex = em_runs[0]
    bare_cex = _refute(parse("s"))
    results = [
        _expect("modus ponens has no counterexample up to n=5",
                _describe(_refute(parse("(s /\\ (s -> p)) -> p"))), _describe(None)),
        _expect("weak excluded middle has no counterexample up to n=5",
                _describe(_refute(parse("(s -> p) \\/ ((s -> p) -> p)"))), _describe(None)),
        _expect("excluded middle survives n=2 and fails first at n=3",
                _describe(em_cex), _describe(Assignment(3, {"s": Partition.from_blocks([[0, 1], [2]], 3)}))),
        # The only check whose counterexample lies past n=3: it pins the scan's order at n=4.
        _expect("linearity fails first at n=4",
                _describe(_refute(parse("(s -> p) \\/ (p -> s)"))),
                _describe(Assignment(4, {"p": Partition.from_blocks([[0, 1, 2], [3]], 4),
                                         "s": Partition.from_blocks([[0, 1, 3], [2]], 4)}))),
        _check("the excluded-middle counterexample is the same in repeated runs", _first(
            f"run {i} gave {_describe(cex)}" for i, cex in enumerate(em_runs) if cex != em_cex
        )),
        _check("a bare variable fails at n=2",
               None if bare_cex is not None and bare_cex.n == 2 else _describe(bare_cex)),
        _check("the corpus holds at least 10 classical tautologies",
               None if len(CLASSICAL_TAUTOLOGIES) >= 10 else f"only {len(CLASSICAL_TAUTOLOGIES)}"),
    ]
    for name, text in CLASSICAL_TAUTOLOGIES:
        f = parse(text)
        if not is_subset_tautology(f):
            failure = "not a classical tautology"
        else:
            cex = _refute(pi_negation_transform(f, TRANSFORM_VARIABLE))
            failure = None if cex is None else _describe(cex)
        results.append(_check(f"transform of {name} has no counterexample up to n=5", failure))
    for name, text in NON_TAUTOLOGIES:
        f = parse(text)
        if is_subset_tautology(f):
            failure = "a classical tautology"
        else:
            cex = _refute(f)
            failure = None if cex is not None and cex.n == 2 else _describe(cex)
        results.append(_check(f"{name} is no classical tautology and fails at n=2", failure))
    return results


SUITES = {
    "common-dits": suite_common_dits,
    "implication-equivalence": suite_implication_equivalence,
    "boolean-core": suite_boolean_core,
    "identities": suite_identities,
    "tautologies": suite_tautologies,
    "figure3": suite_figure3,
}
