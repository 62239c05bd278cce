"""The benchmark harness runs one pass of a workload and checks its outputs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_one_pass(workload):
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_refute_deep_pass_is_correct():
    run_one_pass("refute-deep")


def test_cli_mix_pass_is_correct():
    # About a thousand in-process CLI outputs, each checked against bench/reference.py.
    run_one_pass("cli-mix")
