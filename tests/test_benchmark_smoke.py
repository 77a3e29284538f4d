"""The benchmark's smoke run: `perfbench/smoke.py` drives every workload at
tiny shapes through the interfaces the benchmark pins (`save_checkpoint`'s
path argument, `load_unet`, the float64 masters of a training result), so a
change that breaks one of them fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
