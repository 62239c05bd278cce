"""Acceptance battery: every named suite in ``partlogic.suites`` must pass.

The suites are the only definition of the acceptance checks, the same
ones ``partlogic suite <name>`` runs.  One test per suite (run with
``pytest tests/test_acceptance.py -v`` for one line each); a failure
lists every failed check with its first failing input.

The ``test_criterion_*`` tests name the paper's claims that a suite
holds among its other checks.  They read the same session cache, so no
check runs twice; each selects its checks by name and fails if the
selection comes back empty, so a renamed suite check cannot leave a
criterion silently unchecked.  Criterion 10 is the one exception: the
partition counts are no suite check, so it enumerates them itself.
"""

import pytest

from partlogic import enumerate_partitions
from partlogic.suites import SUITES

from conftest import suite_checks


def _failures(checks) -> list[str]:
    return [f"{check.name}: {check.detail}" for check in checks if not check.passed]


def _assert_selected(suite: str, *prefixes: str, suffix: str | None = None) -> None:
    """Assert that the checks of ``suite`` named by a prefix (or ending in ``suffix``) pass."""
    selected = [
        check for check in suite_checks(suite)
        if check.name.startswith(prefixes) or (suffix is not None and check.name.endswith(suffix))
    ]
    assert selected, f"suite {suite} has no check named {prefixes} or ending {suffix!r}"
    failed = _failures(selected)
    assert not failed, f"suite {suite} failed:\n" + "\n".join(failed)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite(name):
    failed = _failures(suite_checks(name))
    assert not failed, f"suite {name} failed:\n" + "\n".join(failed)


def test_criterion_01_four_definition_agreement():
    _assert_selected("implication-equivalence", "block = graph = interior", "adjunctive oracle agrees")


def test_criterion_03_worked_example_bit_exact():
    _assert_selected("implication-equivalence", "pinned example:")


def test_criterion_07_tautology_engine():
    _assert_selected(
        "tautologies",
        "modus ponens",
        "weak excluded middle",
        "excluded middle survives",
        "linearity fails first at n=4",
        "the excluded-middle counterexample is the same",
        "a bare variable",
    )


def test_criterion_08_transform_theorem():
    _assert_selected(
        "tautologies",
        "the corpus holds",
        "transform of ",
        suffix=" is no classical tautology and fails at n=2",
    )


def test_criterion_09_graph_method_generality():
    _assert_selected("implication-equivalence", "all 16 truth functions", "disjunction table", "conjunction table")


def test_criterion_10_enumeration_counts():
    # agreement with the label-quotient oracle is held by
    # tests/test_core.py::TestEnumeration::test_counts_match_oracle
    counts = [sum(1 for _ in enumerate_partitions(n)) for n in range(1, 11)]
    assert counts == [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
