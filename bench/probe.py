"""Set-up probe: import the package, run one workload's warm-up, report the clock.

Run as ``python3 bench/probe.py <workload>`` in a fresh process.  It
prints ``time.perf_counter()`` once the warm-up has finished; the parent
subtracts the moment it started the process, so the figure covers
interpreter start, ``import partlogic`` and every lazy cache the
warm-up fills.  ``run.py`` calls the same ``warm_up`` before it times
anything, so timed passes start warm.

The warm-up checks no output: that is the timed passes' job, so a wrong
answer is reported as one rather than stopping the run.  This file
imports only the standard library and the package under test.
"""

import contextlib
import importlib
import io
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_program():
    """Import ``partlogic`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "partlogic", "__init__.py")):
        raise RuntimeError(f"no partlogic package under {SRC}")
    sys.path.insert(0, SRC)
    import partlogic

    if os.path.dirname(os.path.dirname(os.path.abspath(partlogic.__file__))) != SRC:
        raise RuntimeError(f"imported partlogic from {partlogic.__file__}, not {SRC}")
    return partlogic


def _cli(pl, argv):
    importlib.import_module("partlogic.cli")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        pl.cli.main(argv)


def _refute_deep(pl):
    pl.find_partition_counterexample(pl.parse("(s -> z) -> (s -> z)"), max_n=4)


def _cli_mix(pl):
    _cli(pl, ["check", "(s /\\ (s -> p)) -> p", "--max-size", "3", "--format", "json"])
    _cli(pl, ["eval", "s -> (p /\\ q)", "s={{a},{b,c}}", "p={{a,b},{c}}", "q=rgs:0,1,0"])


def _lattice_sweep(pl):
    for n in (6, 7, 9):
        list(pl.enumerate_partitions(n))
    sigma = pl.Partition(6, (0, 1, 1, 0, 2, 2))
    pi = pl.Partition(6, (0, 0, 1, 1, 2, 3))
    for fn in (pl.join, pl.meet, pl.implication_blocks, pl.double_pi_negation,
               pl.excluded_middle_partition, pl.check_join_decomposition):
        fn(sigma, pi)
    pl.boolean_core(pl.Partition(7, (0, 0, 1, 1, 2, 2, 3)))


def _suite_oracles(pl):
    _cli(pl, ["suite", "figure3"])


WARM_UPS = {
    "refute-deep": _refute_deep,
    "cli-mix": _cli_mix,
    "lattice-sweep": _lattice_sweep,
    "suite-oracles": _suite_oracles,
}


def warm_up(pl, workload):
    WARM_UPS[workload](pl)


if __name__ == "__main__":
    program = import_program()
    warm_up(program, sys.argv[1])
    print(repr(time.perf_counter()))
