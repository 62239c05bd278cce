"""Benchmark for partlogic: end-to-end metrics per workload, per-layer spans on request.

    python3 bench/run.py                          # every workload, one fresh process each
    python3 bench/run.py --workload cli-mix --seed 3 --seconds 20 --trace 0

With ``--workload`` the run happens in this process: it times set-up in
fresh probe processes, generates the inputs from ``--seed``, warms up,
runs whole passes of the workload for about ``--seconds`` (at least
one), checks every output against the independent reference, and prints
a report line and then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of the time from process
  start to the end of the workload's warm-up (``probe.py``);
- ``ops_per_s``: operations per second of time spent inside them;
- ``op_p50_ms``: median operation latency (sample count in the report);
- ``peak_rss_mb``: peak resident memory of this process once the first
  timed pass ends, before any check runs.

Timings are corrected for the host's speed as sampled during the run
(``speed.py``); the report keeps the wall-clock figures too.

``--trace 1`` runs one plain pass and then one pass with every public
function of the package wrapped (``tracer.py``) and reports the
per-layer metrics, the tracing overhead among them.

The exit code is 0 when every output was right, 1 when one was not, and
2 when the benchmark could not run at all (for instance without the
package source under ``src/``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit).  ``<label>.calls|self_s|us_per_call`` read the
# span table; the rest are derived in ``layer_metrics``.
PER_LAYER = [
    ("ops.meet.calls", "count"), ("ops.meet.self_s", "s"), ("ops.meet.us_per_call", "us"),
    ("ops.join.calls", "count"), ("ops.join.self_s", "s"),
    ("ops.implication_blocks.calls", "count"), ("ops.implication_blocks.self_s", "s"),
    ("ops.implication_adjunctive.calls", "count"), ("ops.implication_adjunctive.self_s", "s"),
    ("formula.find_partition_counterexample.calls", "count"),
    ("formula.refuter.assignments", "count"),
    ("formula.refuter.assignments_per_s", "1/s"),
    ("formula.refuter.assignments_per_verdict", "count"),
    ("formula.eval_partition.calls", "count"), ("formula.eval_partition.self_s", "s"),
    ("formula.parse.calls", "count"), ("formula.parse.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.main.us_per_call", "us"),
    ("literals.parse_partition.calls", "count"), ("literals.parse_partition.self_s", "s"),
    ("literals.format_partition.calls", "count"), ("literals.format_partition.self_s", "s"),
    ("core.enumerate_partitions.calls", "count"), ("core.enumerate_partitions.self_s", "s"),
    ("core.enumerate_partitions.us_per_partition_n10", "us"),
    ("core.Partition.from_labels.calls", "count"), ("core.Partition.from_labels.self_s", "s"),
    ("core.Partition.from_equivalence.calls", "count"), ("core.Partition.from_equivalence.self_s", "s"),
    ("core.BinaryRelation.closure.calls", "count"), ("core.BinaryRelation.closure.self_s", "s"),
    ("algebra.boolean_core.calls", "count"), ("algebra.boolean_core.self_s", "s"),
    ("algebra.check_join_decomposition.self_s", "s"),
    ("suites.suite_implication_equivalence.self_s", "s"),
    ("suites.suite_identities.self_s", "s"),
    ("trace.ops_per_s_untraced", "1/s"), ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "x"),
]
SPAN_FIELDS = ("calls", "self_s", "us_per_call")


def program_present():
    return os.path.isfile(os.path.join(ROOT, "src", "partlogic", "__init__.py"))


def source_identity():
    """Git revision when there is one, and a digest of the package source either way."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "partlogic")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return revision, digest.hexdigest()


def probe_setup(workload):
    """Seconds from starting a fresh process to the end of its warm-up."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "probe.py"), workload],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return float(out.strip().splitlines()[-1]) - start


def measure_setup(workload):
    """Raw and speed-corrected set-up seconds, one pair per probe."""
    raw, corrected = [], []
    for _ in range(SETUP_PROBES):
        seconds, factor = speed.corrected(lambda: probe_setup(workload))
        raw.append(seconds)
        corrected.append(seconds * factor)
    return raw, corrected


def run_passes(workload, pl, seconds, max_passes=None):
    """Whole passes while the next one is expected to end within ``seconds``.

    Returns the raw and the speed-corrected latency of every operation,
    per pass the summaries of their values, and the peak resident memory
    in MB once the first pass is over: later passes repeat its work, so
    this leaves out only the benchmark's own growing record of them.
    Output the program prints is captured per call.
    """
    from workloads import Raised

    starts, ends = array("d"), array("d")
    passes = []
    out, err = io.StringIO(), io.StringIO()
    clock = time.perf_counter
    started = clock()
    with speed.SpeedSampler() as sampler, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        while True:
            pass_started = clock()
            summaries = []
            for fn, args in workload.ops(pl, len(passes)):
                out.seek(0)
                out.truncate()
                err.seek(0)
                err.truncate()
                starts.append(clock())
                try:
                    value = fn(*args)
                except Exception as exc:  # an operation that raises counts as failed
                    value = Raised(exc)
                ends.append(clock())
                try:
                    summary = workload.summarize(value, out.getvalue())
                except Exception as exc:  # a value of the wrong shape is a wrong output
                    summary = Raised(exc)
                summaries.append(summary)
            passes.append(summaries)
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = clock()
            if len(passes) == max_passes or now + (now - pass_started) - started > seconds:
                break
    raw = array("d", (end - start for start, end in zip(starts, ends)))
    return raw, sampler.normalize(starts, ends), passes, peak_rss_mb


def check(workload, passes):
    """Compare every summary with the reference; returns (attempted, failures)."""
    attempted, failures = 0, []
    for k, summaries in enumerate(passes):
        expected = list(workload.expected(k))
        if len(expected) != len(summaries):
            raise RuntimeError(f"pass {k}: {len(summaries)} results for {len(expected)} operations")
        for i, (want, got) in enumerate(zip(expected, summaries)):
            attempted += 1
            problem = workload.mismatch(want, got)
            if problem is not None:
                failures.append(f"pass {k} op {i}: {problem}")
    return attempted, failures


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def enumeration_us_per_partition(pl, n=10, repeats=3):
    """Speed-corrected microseconds per partition of a full uncached enumeration."""
    def enumerate_all():
        start = time.perf_counter()
        count = sum(1 for _ in pl.enumerate_partitions(n))
        return (time.perf_counter() - start) / count * 1e6

    samples = []
    for _ in range(repeats):
        us, factor = speed.corrected(enumerate_all)
        samples.append(us * factor)
    return statistics.median(samples)


def layer_metrics(tracer, untraced_ops_per_s, traced_ops_per_s, enum_us):
    table = tracer.table()
    refuter = table.get("formula.find_partition_counterexample", {"calls": 0})
    refuter_s = tracer.inclusive_s("formula.find_partition_counterexample")
    assignments = tracer.refuter_assignments
    derived = {
        "formula.refuter.assignments": assignments,
        "formula.refuter.assignments_per_s": assignments / refuter_s if refuter_s else 0.0,
        "formula.refuter.assignments_per_verdict":
            assignments / refuter["calls"] if refuter["calls"] else 0.0,
        "core.enumerate_partitions.us_per_partition_n10": enum_us,
        "trace.ops_per_s_untraced": untraced_ops_per_s,
        "trace.ops_per_s_traced": traced_ops_per_s,
        "trace.overhead_ratio": untraced_ops_per_s / traced_ops_per_s,
    }
    metrics, absent = {}, []
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            label, field = name.rsplit(".", 1)
            if label not in table:
                absent.append(label)
            value = table.get(label, dict.fromkeys(SPAN_FIELDS, 0))[field]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, sorted(set(absent)), table


def run_workload(name, seed, seconds, trace):
    import probe
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    revision, digest = source_identity()
    report = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "git_revision": revision, "src_sha256": digest,
        "closed_loop": "one client in one process, each call issued when the previous returns",
        "sizes": workload.sizes(),
    }
    setup = None if trace else measure_setup(name)
    pl = probe.import_program()
    probe.warm_up(pl, name)

    if trace:
        from tracer import Tracer

        _, plain, plain_passes, _ = run_passes(workload, pl, seconds, max_passes=1)
        enum_us = enumeration_us_per_partition(pl)
        tracer = Tracer()
        tracer.install(pl)
        try:
            _, traced, traced_passes, _ = run_passes(workload, pl, seconds, max_passes=1)
        finally:
            tracer.uninstall()
        metrics, absent, table = layer_metrics(tracer, len(plain) / sum(plain),
                                               len(traced) / sum(traced), enum_us)
        groups = [plain_passes, traced_passes]
        report.update({"passes": 2, "absent": absent, "spans": table})
    else:
        raw, latencies, passes, peak_rss_mb = run_passes(workload, pl, seconds)
        raw_setup, setup = setup
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        groups = [passes]
        report.update({
            "passes": len(passes), "samples": len(latencies), "setup_samples_s": setup,
            "op_p99_ms": quantile(latencies, 0.99) * 1e3,
            "wall_clock": {"setup_s": statistics.median(raw_setup), "ops_per_s": len(raw) / sum(raw),
                           "op_p50_ms": statistics.median(raw) * 1e3,
                           "op_p99_ms": quantile(raw, 0.99) * 1e3},
            "samples_beyond_p99": len(latencies) - int(0.99 * len(latencies)) - 1,
        })

    attempted, failures = 0, []
    for group in groups:
        group_attempted, group_failures = check(workload, group)
        attempted += group_attempted
        failures += group_failures
    report.update({"attempted": attempted, "failed": len(failures),
                   "fail_ratio": len(failures) / attempted, "failures": failures[:10]})
    print(json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process, then one table of metrics."""
    from workloads import WORKLOADS

    code = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: benchmark error (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            code = 2
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"]:
            code = max(code, 1)
            print(f"{name}: {result['failed']} of {result['attempted']} outputs wrong, "
                  f"first: {report['failures'][:3]}", file=sys.stderr)
        rows.append((name, "fail_ratio", report["fail_ratio"], "ratio"))
        rows.extend((name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items())
        if not trace:
            rows.append((name, "samples", report["samples"], "count"))
            if report["samples_beyond_p99"] >= 10:
                rows.append((name, "op_p99_ms", report["op_p99_ms"], "ms"))
        else:
            rows.extend((name, f"absent:{label}", 0, "-") for label in report["absent"])
    width = max((len(metric) for _, metric, _, _ in rows), default=10)
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:{width}s} {value:>14.6g} {unit}")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default=None, help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'partlogic')}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
