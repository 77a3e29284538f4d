"""`tools/same_bits.py`: one tree run twice writes the same bits, and the
comparison names what differs, except a run record's timings."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_bits.py"


def test_one_tree_twice_writes_the_same_bits(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--work", str(tmp_path)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 differ" in proc.stdout
    for side in ("old", "new"):
        for report in ("eval_wgan", "eval_ddpm"):
            assert (tmp_path / side / report / "report.json").is_file()


def test_differences_ignore_only_the_timings_of_run_records(tmp_path):
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    record = {"command": "curate", "config_hash": "a", "elapsed_s": 1.0, "peak_rss_mb": 9.0}
    files = {
        "old": {"run.json": record, "d/run.json": record, "report.json": {"x": 1, "y": 2},
                "w.agw": b"\x00", "only_old.csv": b""},
        "new": {"run.json": dict(record, elapsed_s=2.0, peak_rss_mb=8.0),
                "d/run.json": dict(record, config_hash="b"), "report.json": {"x": 1, "y": 3},
                "w.agw": b"\x01"},
    }
    for side, tree in files.items():
        for name, content in tree.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content if isinstance(content, bytes) else
                             json.dumps(content).encode())
    assert tool.differences(tmp_path / "old", tmp_path / "new") == [
        f"only_old.csv: only under {tmp_path / 'old'}",
        "d/run.json: differs in config_hash",
        "report.json: differs in y",
        "w.agw: bytes differ",
    ]
