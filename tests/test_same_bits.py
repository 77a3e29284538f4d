"""`tools/same_bits.py`: one tree run twice writes the same bits, and the
comparison names what differs, except a run record's timings, inside JSON
files, report metrics and checkpoints."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from artifactgen.nn import save_checkpoint

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


def load_tool():
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_differences_ignore_only_the_timings_of_run_records(tmp_path):
    tool = load_tool()
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


def test_differences_name_what_differs_inside_a_checkpoint(tmp_path):
    w = np.arange(6.0).reshape(2, 3)
    for side, shift, step in (("old", 0.0, 3), ("new", 0.5, 4)):
        (tmp_path / side).mkdir()
        save_checkpoint(tmp_path / side / "m_last.ckpt", {"params/net/w": w + shift,
                                                          "ema/net/w": w},
                        step=4, meta={"config": {"a": 1} if side == "old" else {}})
        save_checkpoint(tmp_path / side / "m_best.ckpt", {"params/net/w": w}, step=step)
    assert load_tool().differences(tmp_path / "old", tmp_path / "new") == [
        "m_best.ckpt: differs in step",
        "m_last.ckpt: differs in meta, params/net/w",
    ]


def test_differences_name_the_report_metrics_removed_added_or_changed(tmp_path):
    kept = {"a_wgan": 1.0, "b_wgan": [1, 2], "c_wgan": 3.0}
    old = {"meta": {"fs": 250.0}, "metrics": dict(kept, g_mu_diff=[0.5])}
    reports = {"old": {"eval_a/report.json": old, "eval_b/report.json": old},
               "new": {"eval_a/report.json": {"meta": old["meta"], "metrics": dict(
                           kept, b_wgan=[1, 3], c_wgan=4.0, d_wgan=0.0)},
                       "eval_b/report.json": {"meta": {"fs": 500.0}, "metrics": kept}}}
    for side, tree in reports.items():
        for name, doc in tree.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
    assert load_tool().differences(tmp_path / "old", tmp_path / "new") == [
        "eval_a/report.json: removed g_mu_diff; added d_wgan; changed b_wgan, c_wgan",
        "eval_b/report.json: differs in meta; removed g_mu_diff",
    ]
