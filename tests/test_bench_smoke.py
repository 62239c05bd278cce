"""The benchmark harness runs one refute-deep pass and checks its outputs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_refute_deep_pass_is_correct():
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", "refute-deep", "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
