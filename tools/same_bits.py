"""Run the same-seed pipeline on two source trees and list the output files
whose bytes differ.

    python tools/same_bits.py OLD_ROOT NEW_ROOT [--threads N] [--work DIR]

Each tree runs, in its own process with its ``src/`` on PYTHONPATH and
OPENBLAS_NUM_THREADS=N (default 1), one pipeline at tiny widths: `curate` in
both normalization schemes, `train` of both models, `sample` of the WGAN and
of the DDPM at guidance 1.5 and at 1.0, and `evaluate` of both models. Every
output file of one run is then compared with its twin from the other. A
``run.json`` is compared on its keys other than the timings; for any other
JSON file that differs, the top-level keys that differ are named (for a
``report.json``, each ``metrics`` key removed, added or changed), and for a
checkpoint, the arrays that differ and ``step`` and ``meta`` if they do. Each
tree's ``src/`` line count is printed too.

Exit status: 0 when every file matches, 1 when some differ, 2 when a pipeline
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

TIMING_KEYS = {"started_utc", "finished_utc", "elapsed_s", "peak_rss_mb"}
MODELS = {"gan": {"channels": [8, 8, 8, 8], "latent_dim": 8, "batch_size": 4, "n_critic": 2,
                  "epochs": 2},
          "ddpm": {"widths": [8, 8, 8], "cond_dim": 8, "time_dim": 8, "batch_size": 4,
                   "epochs": 2}}
# JSON is YAML, so the configs are written with `json`
CONFIGS = {name: {"seed": 3, "output_dir": "out", "data": {"normalization": scheme},
                  "model": MODELS}
           for name, scheme in (("minmax", "minmax_window"), ("zscore", "zscore_recording"))}
STEPS = (
    ("curate", "--config", "minmax.yaml", "--synthetic", "--n-per-class", "6", "--out", "minmax"),
    ("curate", "--config", "zscore.yaml", "--synthetic", "--n-per-class", "6", "--out", "zscore"),
    ("train", "--config", "minmax.yaml", "--model", "gan",
     "--manifest", "minmax/dataset/manifest.json", "--out", "minmax"),
    ("train", "--config", "zscore.yaml", "--model", "ddpm",
     "--manifest", "zscore/dataset/manifest.json", "--out", "zscore"),
    ("sample", "--checkpoint", "minmax/gan/gan_best.ckpt", "--class", "1", "--num", "40",
     "--seed", "5", "--out", "wgan"),
    *(("sample", "--checkpoint", "zscore/ddpm/ddpm_best.ckpt", "--class", "2", "--num", "8",
       "--steps", "10", "--guidance", g, "--seed", "5", "--out", f"ddpm_g{g}")
      for g in ("1.5", "1.0")),
    ("evaluate", "--config", "minmax.yaml", "--real", "minmax/dataset/manifest.json",
     "--fake", "wgan=wgan", "--out", "eval_wgan"),
    ("evaluate", "--config", "zscore.yaml", "--real", "zscore/dataset/manifest.json",
     "--fake", "ddpm=ddpm_g1.5", "--out", "eval_ddpm"),
)


def run_pipeline(work: Path) -> int:
    """Run STEPS in ``work`` with the `artifactgen` on PYTHONPATH; the exit
    code of the first step that fails, else 0."""
    from artifactgen import cli

    warnings.simplefilter("ignore")   # small corpora leave splits empty
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"imported {cli.__file__}, not the tree under {src}", file=sys.stderr)
        return 2
    os.chdir(work)
    for name, doc in CONFIGS.items():
        Path(f"{name}.yaml").write_text(json.dumps(doc, indent=2) + "\n")
    for step in STEPS:
        code = cli.main(list(step))
        if code:
            print(f"{' '.join(step)}: exit {code}", file=sys.stderr)
            return code
    return 0


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def _checkpoint_fields(raw: bytes) -> dict:
    """A checkpoint's arrays, by key, with its ``step`` and ``meta``."""
    from artifactgen.nn import load_checkpoint

    ck = load_checkpoint(raw)
    return {**{k: (v.shape, v.tobytes()) for k, v in ck.arrays.items()},
            "step": ck.step, "meta": ck.meta}


def differences(old: Path, new: Path) -> list[str]:
    """One line per output file that is not the same under both roots."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    a, b = files(old), files(new)
    lines = [f"{rel}: only under {root}" for root, only in ((old, a - b), (new, b - a))
             for rel in sorted(only)]
    for rel in sorted(a & b):
        x, y = (old / rel).read_bytes(), (new / rel).read_bytes()
        if x == y:
            continue
        if rel.suffix not in (".json", ".ckpt"):
            lines.append(f"{rel}: bytes differ")
            continue
        load = _checkpoint_fields if rel.suffix == ".ckpt" else json.loads
        dx, dy = load(x), load(y)
        skip = TIMING_KEYS if rel.name == "run.json" else set()
        keys = sorted(k for k in dx.keys() | dy.keys()
                      if k not in skip and dx.get(k) != dy.get(k))
        metrics = []
        if rel.name == "report.json" and "metrics" in keys:
            keys.remove("metrics")
            mx, my = dx["metrics"], dy["metrics"]
            metrics = [f"{verb} {', '.join(sorted(names))}" for verb, names in (
                ("removed", mx.keys() - my.keys()), ("added", my.keys() - mx.keys()),
                ("changed", {k for k in mx.keys() & my.keys() if mx[k] != my[k]})) if names]
        parts = ([f"differs in {', '.join(keys)}"] if keys else []) + metrics
        if parts:
            lines.append(f"{rel}: {'; '.join(parts)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--pipeline"]:
        return run_pipeline(Path(argv[1]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_root", type=Path)
    p.add_argument("new_root", type=Path)
    p.add_argument("--threads", type=int, default=1, help="OPENBLAS_NUM_THREADS (default 1)")
    p.add_argument("--work", type=Path,
                   help="keep the outputs under this directory (default: a temporary one)")
    args = p.parse_args(argv)
    # this process reads checkpoints with the loader of the tree the tool is in
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        outs = {}
        for side, root in (("old", args.old_root), ("new", args.new_root)):
            out = outs[side] = work / side
            out.mkdir(parents=True)
            env = {k: v for k, v in os.environ.items() if k != "ARTIFACTGEN_SEED"}
            env.update(PYTHONPATH=str(root.resolve() / "src"),
                       OPENBLAS_NUM_THREADS=str(args.threads))
            proc = subprocess.run([sys.executable, __file__, "--pipeline", str(out)], env=env,
                                  stdout=subprocess.DEVNULL)
            print(f"{side} {root}: src/ {src_lines(root)} lines")
            if proc.returncode:
                print(f"{side}: the pipeline failed (exit {proc.returncode})", file=sys.stderr)
                return 2
        lines = differences(outs["old"], outs["new"])
        n = sum(1 for p in outs["old"].rglob("*") if p.is_file())
    print(f"OPENBLAS_NUM_THREADS={args.threads}: {n} files under old, {len(lines)} differ")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
