"""The benchmark's own test: every workload very briefly, through run.py.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    out = subprocess.run([sys.executable, str(run), "--smoke"],
                         capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count(": ok,") == 4, out.stdout
