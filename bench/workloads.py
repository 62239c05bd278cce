"""The four workloads: inputs drawn from a seed, one pass of operations, checks.

A workload is a closed loop: one client issues each operation when the
previous one has returned.  ``ops(pl, k)`` yields the ``(callable,
args)`` pairs of pass ``k``; the runner times each call, hands the
value to ``summarize`` and later compares every summary with
``expected(k)`` through ``mismatch``, outside the timed region.  Every
pass of a workload does the same amount of work, so figures from runs
of different lengths compare.

Inputs come from this module and ``reference``; the program only ever
sees formula texts, argv lists and ``Partition`` objects built from
restricted-growth strings.  Calls use default arguments apart from the
stated input size, so no option of the program is pinned here.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import re

import reference as ref

# The fifteen classical tautologies of the package's suite corpus
# (``suites.CLASSICAL_TAUTOLOGIES``), copied so the inputs stay fixed
# whatever happens to that module.
CORPUS = (
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
NAMES = ("p", "q", "s")
FRESH = "z"
MAX_DRAWS = 200_000


def bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def random_formula(rng, binaries, nots):
    """A random tree over ``NAMES`` using exactly the given connectives."""
    nodes = [("var", rng.choice(NAMES)) for _ in range(len(binaries) + 1)]
    steps = list(binaries) + ["not"] * nots
    rng.shuffle(steps)
    for kind in steps:
        if kind == "not":
            i = rng.randrange(len(nodes))
            nodes[i] = ("not", nodes[i])
        else:
            i, j = rng.sample(range(len(nodes)), 2)
            pair = (kind, nodes[i], nodes[j])
            nodes = [node for k, node in enumerate(nodes) if k not in (i, j)] + [pair]
    return nodes[0]


def draw(rng, make, accept=lambda f: True):
    """A formula from ``make`` that uses every name in ``NAMES`` and passes ``accept``."""
    for _ in range(MAX_DRAWS):
        f = make()
        if ref.variables(f) == set(NAMES) and accept(f):
            return f
    raise RuntimeError("input generator found no formula of the requested kind")


def random_rgs(rng, n):
    k = rng.randint(1, n)
    return ref.canonical_rgs([rng.randrange(k) for _ in range(n)])


class Raised:
    """Stands in for the value of a call that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return False

    def __repr__(self):
        return f"raised {self.text}"


# --- refute-deep ------------------------------------------------------------

class RefuteDeep:
    name = "refute-deep"
    why = ("Relativized classical tautologies scanned in full up to n=4: the formula "
           "refuter and the ops under it do almost all the work.")
    max_n = 4
    random_count = 1
    # Connectives of each random tautology, fixed so its cost varies little by seed.
    random_shape = (("imp", "imp", "and", "or"), 1)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.formulas = [(name, ref.parse_formula(text)) for name, text in CORPUS]
        for i in range(self.random_count):
            binaries, nots = self.random_shape
            f = draw(rng, lambda: random_formula(rng, binaries, nots), ref.is_tautology)
            self.formulas.append((f"random {i}: {ref.format_formula(f)}", f))
        for name, f in self.formulas:
            if not ref.is_tautology(f):
                raise RuntimeError(f"{name} is not a classical tautology")
        self.relativized = [ref.relativize(f, FRESH) for _, f in self.formulas]
        self.texts = [ref.format_formula(f) for f in self.relativized]

    def sizes(self):
        rows = []
        for (name, _), f in zip(self.formulas, self.relativized):
            k = len(ref.variables(f))
            rows.append({
                "formula": name,
                "variables": k,
                "nodes": ref.size(f),
                "assignments_n3_n4": sum(bell(n) ** k for n in range(3, self.max_n + 1)),
            })
        return {"max_n": self.max_n, "bell": {n: bell(n) for n in range(2, self.max_n + 1)},
                "formulas": rows}

    def ops(self, pl, k):
        refute = functools.partial(pl.find_partition_counterexample, max_n=self.max_n)
        for text in self.texts:
            yield refute, (pl.parse(text),)

    def summarize(self, value, out):
        if value is None or isinstance(value, Raised):
            return value
        return (value.n, {name: p.rgs for name, p in value.bindings.items()})

    def expected(self, k):
        # The transform theorem: a relativized classical tautology has no counterexample.
        return [None] * len(self.texts)

    def mismatch(self, expect, got):
        return None if got is None else f"expected no counterexample up to n={self.max_n}, got {got!r}"


# --- cli-mix ----------------------------------------------------------------

class CliMix:
    name = "cli-mix"
    why = ("Thousands of short in-process CLI calls, so per-call costs dominate: argparse, "
           "formula and literal parsing, formatting and any per-level set-up.")
    max_size = 3
    # Checks per pass by the level that decides them, then evals per pass.
    decided_at_2, counterexample_at_3, none_up_to_3 = 450, 150, 150
    evals = 250
    eval_sizes = range(2, 9)

    def __init__(self, seed):
        rng = random.Random(seed)

        def make():
            return random_formula(rng, [rng.choice(ref.BINARY) for _ in range(4)], 1)

        quota = {2: self.decided_at_2, 3: self.counterexample_at_3, None: self.none_up_to_3}
        self.plan = []
        for _ in range(MAX_DRAWS):
            if not any(quota.values()):
                break
            f = draw(rng, make)
            verdict = ref.first_counterexample(f, self.max_size)
            level = verdict and verdict[0]
            if quota.get(level, 0):
                quota[level] -= 1
                self.plan.append(("check", f, verdict))
        else:
            raise RuntimeError(f"input generator could not fill the check quotas {quota}")
        for _ in range(self.evals):
            f = draw(rng, make)
            n = rng.choice(self.eval_sizes)
            env = {name: ref.from_rgs(random_rgs(rng, n)) for name in NAMES}
            literals = {name: self._literal(rng, p, n) for name, p in env.items()}
            result = ref.format_literal(ref.eval_partition(f, env, n), ref.letters(n))
            self.plan.append(("eval", f, (n, literals, result)))
        rng.shuffle(self.plan)

    @staticmethod
    def _literal(rng, partition, n):
        """Block form in a shuffled order, or the raw rgs form."""
        if rng.random() < 0.25:
            return "rgs:" + ",".join(map(str, ref.to_rgs(partition, n)))
        labels = ref.letters(n)
        blocks = [[labels[u] for u in block] for block in partition]
        for block in blocks:
            rng.shuffle(block)
        rng.shuffle(blocks)
        return "{" + ",".join("{" + ",".join(block) + "}" for block in blocks) + "}"

    @staticmethod
    def _names(k):
        """Variable names of pass ``k``: renamed so no pass repeats a formula, order kept."""
        return {name: name if k == 0 else f"{name}{k}" for name in NAMES}

    @staticmethod
    def _rename(f, names):
        if f[0] == "var":
            return ("var", names[f[1]])
        if f[0] == "const":
            return f
        return (f[0],) + tuple(CliMix._rename(child, names) for child in f[1:])

    def sizes(self):
        return {
            "ops_per_pass": len(self.plan),
            "check": {"decided_at_n2": self.decided_at_2, "counterexample_at_n3": self.counterexample_at_3,
                      "none_up_to_n3": self.none_up_to_3, "max_size": self.max_size,
                      "variables": len(NAMES), "binary_connectives": 4, "negations": 1},
            "eval": {"count": self.evals, "universe_sizes": list(self.eval_sizes),
                     "bell": {n: bell(n) for n in self.eval_sizes}},
        }

    def ops(self, pl, k):
        main = importlib.import_module(f"{pl.__name__}.cli").main
        names = self._names(k)
        for kind, f, data in self.plan:
            text = ref.format_formula(self._rename(f, names))
            if kind == "check":
                argv = ["check", text, "--max-size", str(self.max_size), "--format", "json"]
            else:
                _, literals, _ = data
                argv = ["eval", text] + [f"{names[name]}={literals[name]}" for name in NAMES]
            yield main, (argv,)

    def summarize(self, value, out):
        return value if isinstance(value, Raised) else (value, out)

    def expected(self, k):
        names = self._names(k)
        for kind, f, data in self.plan:
            if kind == "eval":
                yield kind, f, data[2]
            elif data is None:
                yield kind, f, None
            else:
                n, env = data
                yield kind, f, (n, {names[name]: p for name, p in env.items()})

    def mismatch(self, expect, got):
        kind, f, want = expect
        if isinstance(got, Raised):
            return repr(got)
        code, out = got
        if kind == "eval":
            if code != 0 or out.strip() != want:
                return f"eval exited {code} with {out.strip()!r}, expected {want!r}"
            return None
        if code != (0 if want is None else 1):
            return f"check exited {code}"
        try:
            report = json.loads(out)
            partition = report["partition"]
            if report["classical"] != ref.is_tautology(f):
                return "wrong classical verdict"
            if want is None:
                return None if partition["status"] == "no_counterexample" else f"unexpected {partition}"
            n, env = want
            if partition["status"] != "counterexample" or partition["n"] != n:
                return f"expected a counterexample at n={n}, got {partition}"
            got_env = {name: ref.parse_literal(text)[0] for name, text in partition["assignment"].items()}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable check output {out!r}: {exc}"
        if got_env != env:
            return f"counterexample {partition['assignment']} is not the lex-least one at n={n}"
        return None


# --- lattice-sweep ----------------------------------------------------------

PAIR_FUNCTIONS = ("join", "meet", "implication_blocks", "double_pi_negation",
                  "excluded_middle_partition", "check_join_decomposition")


def _listed(enumerate_partitions, n):
    return list(enumerate_partitions(n))


class LatticeSweep:
    name = "lattice-sweep"
    why = ("Lattice operations on all 203^2 pairs at n=6, Boolean cores at n=7 and sampled "
           "pairs at n=9 and n=10: core, ops and algebra with no formula layer.")
    full_n, core_n = 6, 7
    sample_sizes = (9, 10)
    samples = 300
    enumerated = (6, 7, 9, 10)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.full = list(ref.rgs_tuples(self.full_n))
        self.cores = list(ref.rgs_tuples(self.core_n))
        self.sampled = [
            (n, random_rgs(rng, n), random_rgs(rng, n))
            for n in self.sample_sizes for _ in range(self.samples)
        ]
        self._expected = None
        self._interned = {}

    def _pairs(self):
        for a in self.full:
            for b in self.full:
                yield self.full_n, a, b
        yield from self.sampled

    def sizes(self):
        pairs = len(self.full) ** 2 + len(self.sampled)
        return {
            "ops_per_pass": len(self.enumerated) + pairs * len(PAIR_FUNCTIONS) + len(self.cores),
            "pair_functions": list(PAIR_FUNCTIONS),
            "pairs": {"n6_all": len(self.full) ** 2, "sampled_per_size": self.samples,
                      "sampled_sizes": list(self.sample_sizes)},
            "boolean_cores_n7": len(self.cores),
            "enumerated": list(self.enumerated),
            "bell": {n: bell(n) for n in sorted({self.full_n, self.core_n, *self.sample_sizes})},
        }

    def ops(self, pl, k):
        # Fresh Partition objects each pass, so every pass starts with cold cached properties.
        make = {}

        def partition(n, rgs):
            p = make.get(rgs)
            if p is None:
                p = make[rgs] = pl.Partition(n, rgs)
            return p

        for n in self.enumerated:
            yield _listed, (pl.enumerate_partitions, n)
        functions = [getattr(pl, name) for name in PAIR_FUNCTIONS]
        for n, a, b in self._pairs():
            args = (partition(n, a), partition(n, b))
            for fn in functions:
                yield fn, args
        for rgs in self.cores:
            yield pl.boolean_core, (partition(self.core_n, rgs),)

    def summarize(self, value, out):
        if isinstance(value, (bool, Raised)):
            return value
        if isinstance(value, list):
            return len(value), hash(tuple(p.rgs for p in value))
        members = getattr(value, "members", None)
        summary = tuple(m.rgs for m in members) if members is not None else value.rgs
        # Interned, so holding a pass of results keeps few objects alive for the collector.
        return self._interned.setdefault(summary, summary)

    def expected(self, k):
        if self._expected is None:
            self._expected = out = []
            for n in self.enumerated:
                rgs = tuple(ref.rgs_tuples(n))
                out.append((len(rgs), hash(rgs)))
            for n, a, b in self._pairs():
                sigma, pi = ref.from_rgs(a), ref.from_rgs(b)
                neg = ref.implies(sigma, pi)
                double = ref.implies(neg, pi)
                middle = ref.join(sigma, neg)
                joined = ref.join(sigma, pi)
                out.extend(ref.to_rgs(p, n) for p in (joined, ref.meet(sigma, pi), neg, double, middle))
                out.append(joined == ref.meet(middle, double))
            for rgs in self.cores:
                members = ref.boolean_core_members(ref.from_rgs(rgs), self.core_n)
                out.append(tuple(ref.to_rgs(m, self.core_n) for m in members))
        return self._expected

    def mismatch(self, expect, got):
        return None if got == expect else f"expected {expect!r}, got {got!r}"


# --- suite-oracles ----------------------------------------------------------

SUITE_NAMES = ("implication-equivalence", "identities", "boolean-core", "common-dits", "figure3")
# One pass: the two long suites once, the three short ones four times each, so the
# median latency rests on a dozen samples of short calls rather than on one or two.
SUITE_PASS = SUITE_NAMES[:2] + SUITE_NAMES[2:] * 4
_SUITE_SUMMARY = re.compile(r"suite (\S+): (\d+)/(\d+) checks passed")


class SuiteOracles:
    name = "suite-oracles"
    why = ("Named suites through the CLI: measures suites, BinaryRelation closure and "
           "interior and the three oracle implications, which no other workload reaches.")

    def __init__(self, seed):
        """The suites take no input, so the seed changes nothing here."""

    def sizes(self):
        return {"ops_per_pass": len(SUITE_PASS),
                "runs_per_pass": {name: SUITE_PASS.count(name) for name in SUITE_NAMES}}

    def ops(self, pl, k):
        main = importlib.import_module(f"{pl.__name__}.cli").main
        for name in SUITE_PASS:
            yield main, (["suite", name],)

    def summarize(self, value, out):
        return value if isinstance(value, Raised) else (value, out)

    def expected(self, k):
        return SUITE_PASS

    def mismatch(self, expect, got):
        if isinstance(got, Raised):
            return repr(got)
        code, out = got
        lines = out.strip().splitlines()
        m = _SUITE_SUMMARY.fullmatch(lines[-1]) if lines else None
        if code != 0 or m is None or m.group(1) != expect or m.group(2) != m.group(3):
            return f"suite {expect} exited {code}: {lines[-1] if lines else ''!r}"
        return None


WORKLOADS = {w.name: w for w in (RefuteDeep, CliMix, LatticeSweep, SuiteOracles)}
