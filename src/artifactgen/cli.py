"""Command-line entry points: curate, train, sample, evaluate.

Each command returns where its outputs went, and `main` writes its run
record (config hash, seed, code version, timestamps, peak RSS) there as
``run.json``; all other outputs are byte-deterministic given the same
configuration and seed. The seed is `config.effective_seed`:
`sample --seed`, else ARTIFACTGEN_SEED, else the config's seed (0 for
`sample`, which reads no config). Exit codes: 0 success, 1 internal failure,
2 user/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import SEED_ENV, ConfigError, effective_seed, load_config
from .diffusion import SamplerConfig, load_unet, sample, train_ddpm
from .gan import load_generator, train_wgan
from .manifest import (
    Manifest,
    load_window_set,
    read_class_map_csv,
    read_split_csv,
    read_window_stack,
    validate_split,
    write_class_map_csv,
    write_json,
    write_split_csv,
    write_window_file,
    write_windows,
)
from .metrics import WelchSettings, WindowSet, compute_report, render_table
from .nn import load_checkpoint, no_grad
from .normalize import MINMAX_WINDOW, ZSCORE_RECORDING, minmax_normalize, zscore_normalize
from .synthetic import generate_corpus, recording_from_npz
from .windowing import ClassMap, extract_windows

# The normalization each model trains on, by checkpoint model name.
MODEL_SCHEME = {"wgan": MINMAX_WINDOW, "ddpm": ZSCORE_RECORDING}
# WGAN `sample` runs the generator on about this many windows at a time, which
# bounds its im2col temporaries. In float32, chunks of 2 or more gave the same
# bits as one batch of 64 (OpenBLAS 0.3.31, Haswell kernels); a chunk of 1 does
# not, as BLAS takes its matrix-vector path. 100 default-width windows took
# 73-94 ms in chunks of 16 to 100, against 165-200 ms in float64 (2-core VM).
SAMPLE_CHUNK = 32
# `sample` runs the generator and the U-Net in this dtype. Their checkpoints
# hold float64 weights: both trainers keep float64 master weights while their
# nets compute in `training.TRAIN_DTYPE`. The DDIM update itself stays float64.
SAMPLE_DTYPE = np.float32


def _require_scheme(model: str, manifest: Manifest, what: str) -> None:
    required = MODEL_SCHEME[model]
    if manifest.scheme != required:
        raise ConfigError(
            f"{what} requires '{required}' windows (per-window min-max pairs with the "
            f"adversarial path, per-recording z-score with the diffusion path); manifest "
            f"has '{manifest.scheme}'")


def _auto_split(subjects: list[str]) -> dict[str, str]:
    """Deterministic 60/20/20 round-robin over sorted subject ids."""
    order = ("train", "train", "train", "val", "test")
    return {s: order[i % len(order)] for i, s in enumerate(sorted(set(subjects)))}


def cmd_curate(args) -> tuple[Path, str, str, int]:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.output_dir) / "dataset"
    class_map = read_class_map_csv(args.class_map) if args.class_map else ClassMap()

    if args.synthetic:
        recordings = generate_corpus(args.n_per_class, fs=cfg.data.sample_rate,
                                     seed=cfg.seed, channel_names=cfg.data.channels)
    else:
        if not args.input:
            raise ConfigError("curate needs either --synthetic or --input DIR")
        paths = sorted(Path(args.input).glob("*.npz"))
        if not paths:
            raise ConfigError(f"no .npz recordings found in {args.input}")
        recordings = [recording_from_npz(p) for p in paths]

    split_of = (read_split_csv(args.split_csv) if args.split_csv
                else _auto_split([r.subject_id for r in recordings]))

    scheme = cfg.data.normalization
    windows, labels, subjects = [], [], []
    rejections: list[str] = []
    for rec in recordings:
        if rec.fs != cfg.data.sample_rate:
            raise ConfigError(f"recording '{rec.rec_id}' is sampled at {rec.fs:g} Hz, but "
                              f"data.sample_rate is {cfg.data.sample_rate:g} Hz")
        if scheme == ZSCORE_RECORDING:
            rec = zscore_normalize(rec)
        x, y = extract_windows(rec, cfg.data.window_seconds, cfg.data.overlap,
                               class_map, cfg.data.channels, rejections)
        if scheme == MINMAX_WINDOW:
            x = minmax_normalize(x)
        # views into each recording's array: concatenated, the set would be in
        # memory twice while its files are written
        windows.extend(x)
        labels.extend(y)
        subjects += [rec.subject_id] * len(x)

    if not windows:
        raise ConfigError("curation produced no windows")
    manifest = write_windows(windows, labels, subjects, out_dir, split_of, cfg.hash(),
                             cfg.seed, class_map, scheme, cfg.data.sample_rate)
    write_json(out_dir / "manifest.json", manifest.to_dict())
    report = validate_split(manifest)
    write_split_csv(out_dir / "split.csv", {s: split_of[s] for s in set(subjects)})
    write_class_map_csv(out_dir / "class_map.csv", class_map)

    print(f"curated {len(windows)} windows -> {out_dir}")
    for split in ("train", "val", "test"):
        r = report[split]
        print(f"  {split}: {len(r['subjects'])} subjects, {r['windows']} windows, "
              f"per-class {r['per_class']}")
    if rejections:
        print(f"  rejections: {len(rejections)} (first: {rejections[0]})")
    return out_dir, "curate", cfg.hash(), cfg.seed


def cmd_train(args) -> tuple[Path, str, str, int]:
    cfg = load_config(args.config)
    manifest = Manifest.load(args.manifest)
    base = Path(args.manifest).parent

    _require_scheme("wgan" if args.model == "gan" else "ddpm", manifest, f"--model {args.model}")

    data, labels, _ = load_window_set(manifest, base, split="train")
    out_dir = Path(args.out or cfg.output_dir) / args.model
    train, model_cfg = (train_wgan, cfg.gan) if args.model == "gan" else (train_ddpm, cfg.ddpm)
    result = train(data, labels, len(manifest.class_map), model_cfg, out_dir)
    final = " ".join(f"{k} {v:.4g}" for row in result.history[-1:] for k, v in row.items()
                     if k != "step")
    print(f"{args.model}: {len(result.history)} steps, best step {result.best_step}, "
          f"final {final or 'none'}")
    print(f"checkpoints and loss log -> {out_dir}")
    return out_dir, f"train:{args.model}", cfg.hash(), cfg.seed


def cmd_sample(args) -> tuple[Path, str, str, int]:
    seed = effective_seed(0, args.seed)
    out_dir = Path(args.out)
    if any(out_dir.glob("*.agw")) or (out_dir / "provenance.json").exists():
        raise ConfigError(f"--out '{out_dir}' already holds sampled windows; `evaluate` "
                          f"would read them with these, so sample into a new directory")
    ck_path = Path(args.checkpoint)
    raw = ck_path.read_bytes()          # read once: hashed, then parsed
    model_hash = hashlib.sha256(raw).hexdigest()
    ck = load_checkpoint(raw)
    del raw
    model, n_classes = ck.meta.get("model"), ck.meta.get("n_classes")
    if model not in MODEL_SCHEME:
        raise ConfigError(f"{ck_path}: unknown checkpoint model '{model}'")
    if args.num < 1:
        raise ConfigError(f"--num must be at least 1, got {args.num}")
    if not 0 <= args.class_index < n_classes:
        raise ConfigError(f"class index {args.class_index} out of range [0, {n_classes})")
    rng = np.random.default_rng(seed)

    if model == "wgan":
        gen, _ = load_generator(ck)
        gen.astype(SAMPLE_DTYPE)
        z = rng.standard_normal((args.num, gen.latent_dim))
        chunks = np.array_split(z, -(-args.num // SAMPLE_CHUNK))
        with no_grad():
            windows = np.concatenate([
                gen(zc, np.full(len(zc), args.class_index, dtype=np.int64)).data
                for zc in chunks])
        sampler_info = {"latent_dim": gen.latent_dim}
    else:
        scfg = SamplerConfig(num_steps=args.steps, guidance_scale=args.guidance)
        net, sched, _ = load_unet(ck)
        net.astype(SAMPLE_DTYPE)
        y = np.full(args.num, args.class_index, dtype=np.int64)
        windows = sample(net, y, sched, scfg, rng)
        sampler_info = {"num_steps": scfg.num_steps, "guidance_scale": scfg.guidance_scale,
                        "deterministic": True, "ema": True}
    sampler_info["dtype"] = np.dtype(SAMPLE_DTYPE).name

    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.num):
        write_window_file(out_dir / f"w{i:06d}.agw", windows[i], args.class_index)
    write_json(out_dir / "provenance.json", {
        "model": model, "model_hash": model_hash, "class": args.class_index,
        "num": args.num, "sampler": sampler_info, "seed": seed, "code_version": __version__,
    })
    print(f"wrote {args.num} windows of class {args.class_index} -> {out_dir}")
    return out_dir, "sample", model_hash, seed


def cmd_evaluate(args) -> tuple[Path, str, str, int]:
    fake_dirs: dict[str, Path] = {}
    for spec in args.fake or []:
        name, _, d = spec.partition("=")
        if not d:
            raise ConfigError(f"--fake expects NAME=DIR, got '{spec}'")
        if name not in MODEL_SCHEME:
            raise ConfigError(f"--fake NAME must be one of {sorted(MODEL_SCHEME)}, got '{name}'")
        if name in fake_dirs:
            raise ConfigError(f"--fake {name} is given twice ('{fake_dirs[name]}' and '{d}')")
        fake_dirs[name] = Path(d)
    if not fake_dirs:
        raise ConfigError("evaluate needs at least one --fake NAME=DIR")
    cfg = load_config(args.config)
    manifest = Manifest.load(args.real)
    if manifest.fs != cfg.data.sample_rate:
        raise ConfigError(f"{args.real}: its windows were cut at {manifest.fs:g} Hz, but "
                          f"data.sample_rate is {cfg.data.sample_rate:g} Hz")
    split = None if args.split == "all" else args.split
    real = WindowSet(*load_window_set(manifest, Path(args.real).parent, split=split)[:2],
                     origin="real", fs=manifest.fs)

    fakes: dict[str, WindowSet] = {}
    for name, fake_dir in fake_dirs.items():
        files = sorted(fake_dir.glob("*.agw"))
        if not files:
            raise ConfigError(f"no .agw windows found in '{fake_dir}'")
        provenance = fake_dir / "provenance.json"
        if not provenance.is_file():
            raise ConfigError(f"no provenance.json in '{fake_dir}': cannot tell which model "
                              f"made its windows, nor on which normalization")
        prov = json.loads(provenance.read_text())
        if not isinstance(prov, dict):
            raise ConfigError(f"{provenance}: not a JSON object")
        model = prov.get("model")
        if model != name:
            raise ConfigError(f"--fake {name}: '{fake_dir}' holds windows of model '{model}'")
        _require_scheme(model, manifest, f"--fake {name}")
        if len(files) != prov.get("num"):
            raise ConfigError(f"--fake {name}: '{fake_dir}' holds {len(files)} windows, but "
                              f"its provenance.json records {prov.get('num')}")
        data, labels = read_window_stack(files)   # compute_report refuses another shape
        for fp, lab in zip(files, labels):
            if lab != prov.get("class"):
                raise ConfigError(f"--fake {name}: {fp} has label {lab}, but "
                                  f"its provenance.json records class {prov.get('class')}")
        fakes[name] = WindowSet(data, labels, origin=name, fs=manifest.fs)

    welch = WelchSettings(nperseg=cfg.eval.nperseg, overlap=cfg.eval.overlap)
    report = compute_report(
        real, fakes, welch=welch, max_lag=cfg.eval.max_lag, knn_k=cfg.eval.knn_k,
        normalization=manifest.scheme,
        seeds={"seed": cfg.seed, "manifest_seed": manifest.seed},
    )
    out_dir = Path(args.out or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report.to_dict())
    print(render_table(report))
    print(f"\nreport -> {out_dir / 'report.json'}")
    return out_dir, "evaluate", cfg.hash(), cfg.seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="artifactgen",
                                description="label-conditioned signal synthesis pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curate", help="windows + manifest from recordings")
    c.add_argument("--config", required=True)
    c.add_argument("--synthetic", action="store_true",
                   help="use the parametric artifact corpus instead of input recordings")
    c.add_argument("--n-per-class", type=int, default=20)
    c.add_argument("--input", help="directory of .npz recordings")
    c.add_argument("--split-csv", help="subject_id,split assignment (default: round-robin)")
    c.add_argument("--class-map", help="label_name,index CSV (default: canonical five)")
    c.add_argument("--out", help="override config output_dir")
    c.set_defaults(func=cmd_curate)

    t = sub.add_parser("train", help="train a model on a curated manifest")
    t.add_argument("--config", required=True)
    t.add_argument("--model", required=True, choices=("gan", "ddpm"))
    t.add_argument("--manifest", required=True)
    t.add_argument("--out", help="override config output_dir")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="draw windows from a trained checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--class", dest="class_index", type=int, required=True)
    s.add_argument("--num", type=int, required=True)
    s.add_argument("--steps", type=int, default=80, help="DDIM steps (ddpm only)")
    s.add_argument("--guidance", type=float, default=1.5, help="guidance scale (ddpm only)")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    e = sub.add_parser("evaluate", help="metric report for real vs synthetic sets")
    e.add_argument("--config", required=True)
    e.add_argument("--real", required=True, help="manifest.json of the real windows")
    e.add_argument("--split", default="all", choices=("all", "train", "val", "test"))
    e.add_argument("--fake", action="append", metavar="NAME=DIR",
                   help="synthetic window dir; NAME is ddpm or wgan (repeatable)")
    e.add_argument("--out", help="override config output_dir (report.json goes there)")
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = datetime.now(timezone.utc)
        out_dir, command, cfg_hash, seed = args.func(args)
        finished = datetime.now(timezone.utc)
        write_json(out_dir / "run.json", {
            "command": command, "config_hash": cfg_hash, "seed": seed,
            "code_version": __version__, "started_utc": started.isoformat(),
            "finished_utc": finished.isoformat(),
            "elapsed_s": round((finished - started).total_seconds(), 3),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        })
        return 0
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
