"""Benchmark of artifactgen's training, sampling, curation and evaluation paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ddpm_train, gan_train, sample_eval, or ``all`` for the three in turn.
Each workload runs in a fresh process whose BLAS thread count is pinned here,
before numpy loads, so peak RSS and timings belong to that workload alone.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). See perfbench/NOTES.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ddpm_train", "gan_train", "sample_eval")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 170


def run_one(name: str, args, capture: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # SystemExit inside subprocess.run makes it kill and reap the workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "artifactgen" / "__init__.py").is_file():
        print(f"error: no artifactgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        return run_one(args.workload, args, capture=False).returncode

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = run_one(name, args, capture=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
