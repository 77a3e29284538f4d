"""Smoke test of the benchmark at tiny shapes. From the repository root:

    python3 perfbench/smoke.py

It checks that every metric named in BENCHMARK.json is emitted once with its
unit, that traced spans nest and have non-negative self times, that corrupted
(NaN) sampled windows raise the error rate above 0, and that the launcher
fails without printing a result where the artifactgen sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workload  # noqa: E402
from artifactgen import cli  # noqa: E402
from spans import self_times  # noqa: E402

TINY = workload.Shapes(
    ddpm={"widths": (8, 8, 8), "cond_dim": 8, "time_dim": 8, "batch_size": 4},
    gan={"channels": (8, 8, 8, 8), "latent_dim": 8, "batch_size": 4, "n_critic": 2},
    corpus_per_class=2, gan_per_class=4, ddim_num=2, ddim_steps=2, eval_n=10, check_n=6)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_metrics(record: dict, declared: list[dict]) -> None:
    line = json.loads(workload.result_line(record))
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(line)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    expect(got == want, f"{record['workload']}: metrics {got} differ from BENCHMARK.json {want}")
    expect(line["correct"] and line["failed"] == 0,
           f"{record['workload']}: {line['failed']} of {line['attempted']} checks failed")


def check_spans(spans: list[list]) -> None:
    expect(len(spans) > 0, "a traced unit records spans")
    for name, start, end, parent in spans:
        expect(start <= end, f"{name}: ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            expect(p_start <= start and end <= p_end, f"{name} is not inside its parent")
    expect(min(self_times(spans)) >= -1e-9, "self times are >= 0")


def check_corrupt_windows(work: Path) -> None:
    original = cli.write_window_file

    def write_nan(path, data, label):
        original(path, np.full_like(np.asarray(data), np.nan), label)

    cli.write_window_file = write_nan
    try:
        with contextlib.redirect_stderr(io.StringIO()):   # the failures it reports are expected
            record, _ = workload.run_workload("sample_eval", 0, 0.1, False, TINY, work)
    finally:
        cli.write_window_file = original
    expect(record["error_rate"] > 0, f"NaN windows give error rate {record['error_rate']}")


def check_missing_sources(work: Path) -> None:
    bare = Path(tempfile.mkdtemp(dir=work))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gan_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    warnings.filterwarnings("ignore", message="split '.*' is empty")   # tiny corpora
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=workload.WORK_DIR))
    try:
        for name in workload.WORKLOADS:
            record, _ = workload.run_workload(name, 0, 0.1, False, TINY, work)
            check_metrics(record, bench["end_to_end"])
            record, tracer = workload.run_workload(name, 0, 0.1, True, TINY, work)
            check_metrics(record, bench["per_layer"])
            check_spans(tracer.spans)
            print(f"ok {name}")
        check_corrupt_windows(work)
        print("ok corrupted windows counted")
        check_missing_sources(work)
        print("ok fails without sources")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
