"""One benchmark workload in this process: set-up, timed units, output checks.

Started by ``run.py``, which pins the BLAS threads before numpy loads here:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the steps (a unit, or in ``sample_eval`` one stage of a
pass) repeat until their measured time would pass ``--seconds``, and the last
stdout line carries the end-to-end metrics. With ``--trace 1`` a traced unit
runs between two untraced ones, and the last line carries the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import artifactgen
from artifactgen import cli, diffusion, gan, manifest, metrics

import checks
from spans import FIELD_UNITS, LAYER_FIELDS, RATIO_METRICS, Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
N_CHANNELS, LENGTH, N_CLASSES, FS = 8, 250, 5, 250.0
SETUP_REPEATS = 3
GUIDANCE = 1.5
MIN_UNITS = 2
FD_WINDOWS = 2


@dataclass
class Shapes:
    """Sizes of one workload. The defaults are the benchmark's; tests shrink them."""

    ddpm: dict = field(default_factory=dict)    # DiffusionTrainConfig overrides
    gan: dict = field(default_factory=dict)     # GanTrainConfig overrides
    corpus_per_class: int = 100                 # curate --n-per-class
    gan_per_class: int = 100                    # sample --num, once per class
    ddim_num: int = 16
    ddim_steps: int = 5
    eval_n: int = 500
    check_n: int = 12                           # windows per set in the report check


class Ledger:
    """Counts checked operations and failed ones; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# check failed: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn, *args):
        """Call ``fn``; an exception counts as a failed operation and returns None."""
        try:
            return fn(*args)
        except Exception:
            self.check(False, f"{what} raised:\n{traceback.format_exc()}")
            return None

    def verify(self, what: str, fn, *args) -> None:
        """Count the check ``fn`` makes; it returns (ok, detail)."""
        outcome = self.run(what, fn, *args)
        if outcome is not None:
            self.check(outcome[0], f"{what}: {outcome[1]}")


def training_windows(rng: np.random.Generator, n: int, scale: str) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (n, C, L) windows: random sinusoids in white noise, with labels.

    ``scale`` is "zscore" (per channel over the set, as a recording z-score)
    or "minmax" (per window to [-1, 1], as the adversarial path expects).
    """
    t = np.arange(LENGTH) / FS
    shape = (n, N_CHANNELS, 1)
    x = (rng.uniform(0.5, 2.0, shape)
         * np.sin(2 * np.pi * rng.uniform(1.0, 40.0, shape) * t + rng.uniform(0, 2 * np.pi, shape))
         + 0.5 * rng.standard_normal((n, N_CHANNELS, LENGTH)))
    if scale == "zscore":
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
    else:
        lo = x.min(axis=(1, 2), keepdims=True)
        hi = x.max(axis=(1, 2), keepdims=True)
        x = 2.0 * (x - lo) / (hi - lo) - 1.0
    return x, rng.integers(0, N_CLASSES, n)


def _quiet_cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"artifactgen {argv[0]} exited with {code}")


class TrainWorkload:
    """One unit is one train call of one generator or denoiser step."""

    min_steps = MIN_UNITS

    def __init__(self, shapes: Shapes, seed: int, work: Path, ledger: Ledger):
        self.shapes, self.seed, self.work, self.ledger = shapes, seed, work, ledger
        self.histories: list[list[dict]] = []
        self.last = None

    def setup(self) -> None:
        """Seeded inputs, plus one warm-up call: the first full-size step of a
        process pays for growing the heap to the tape's size."""
        rng = np.random.default_rng(self.seed)
        self.overrides = dict(getattr(self.shapes, self.model), epochs=1)
        cfg = self.config(**dict(self.overrides, seed=self.seed))
        self.windows_per_call = cfg.batch_size * getattr(cfg, "n_critic", 1)
        self.data, self.labels = training_windows(rng, self.windows_per_call, self.scale)
        self.train(self.data, self.labels, cfg, self.work / "warmup")

    def unit(self, i: int) -> dict[str, float]:
        if self.last is not None:
            shutil.rmtree(self.last[1])
            self.last = None
        out_dir = self.work / f"{self.model}{i}"
        cfg = self.config(**dict(self.overrides, seed=self.seed * 1000 + i))
        t0 = time.perf_counter()
        result = self.train(self.data, self.labels, cfg, out_dir)
        seconds = time.perf_counter() - t0
        self.histories.append(result.history)
        self.last = (result, out_dir)
        rate = self.windows_per_call / seconds
        return {"windows_per_s": rate, "measured_s": seconds}

    step = unit

    def summarize(self, samples: list[dict]) -> dict[str, float]:
        rate = _median_of(samples, "windows_per_s")
        return {"windows_per_s": rate, "train_windows_per_s": rate}

    def check(self) -> None:
        for history in self.histories:
            values = [v for row in history for k, v in row.items() if k != "step"]
            self.ledger.check(len(history) == 1 and bool(np.all(np.isfinite(values))),
                              f"{self.name}: one step with finite losses, got {history}")
        result, out_dir = self.last
        for path in self.outputs:
            self.ledger.check((out_dir / path).is_file(), f"{self.name}: {path} written")
        for what, (loss_fn, params) in self.gradient_checks(result).items():
            self.ledger.verify(f"{self.name}: {what}", checks.directional_fd, loss_fn, params)


class DdpmTrain(TrainWorkload):
    name, model, scale = "ddpm_train", "ddpm", "zscore"
    outputs = ("ddpm_losses.csv", "ddpm_last.ckpt", "ddpm_best.ckpt")
    config = diffusion.DiffusionTrainConfig

    def train(self, data, labels, cfg, out_dir):
        return diffusion.train_ddpm(data, labels, N_CLASSES, cfg, out_dir)

    def gradient_checks(self, result) -> dict:
        cfg = self.config(**self.overrides)
        sched = diffusion.BetaSchedule.linear(cfg.schedule_steps, cfg.beta_start, cfg.beta_end)
        x, y = self.data[:FD_WINDOWS], self.labels[:FD_WINDOWS]

        def loss():
            return diffusion.denoise_loss(result.net, x, y, sched, cfg.label_dropout_prob,
                                          np.random.default_rng(self.seed))

        return {"denoise_loss gradient": (loss, result.net.named_parameters())}


class GanTrain(TrainWorkload):
    name, model, scale = "gan_train", "gan", "minmax"
    outputs = ("gan_losses.csv", "gan_last.ckpt", "gan_best.ckpt")
    config = gan.GanTrainConfig

    def train(self, data, labels, cfg, out_dir):
        return gan.train_wgan(data, labels, N_CLASSES, cfg, out_dir)

    def gradient_checks(self, result) -> dict:
        cfg = self.config(**self.overrides)
        x, y = self.data[:FD_WINDOWS], self.labels[:FD_WINDOWS]
        z = np.random.default_rng(self.seed).standard_normal((FD_WINDOWS, cfg.latent_dim))
        fake = result.generator(z, y).data

        def penalty():
            return gan.gradient_penalty(result.critic, x, fake, y, cfg.lambda_gp,
                                        np.random.default_rng(self.seed))

        def generator_loss():
            return -result.critic(result.generator(z, y), y).mean()

        return {"gradient penalty (double backward)": (penalty, result.critic.named_parameters()),
                "generator loss gradient": (generator_loss, result.generator.named_parameters())}


class SampleEval:
    """One unit is a pass: curate, sample both models, evaluate. The timed loop
    steps through the pass one stage at a time, so that each stage's median is
    taken over every pass of the run."""

    name = "sample_eval"
    stages = ("curate", "sample_gan", "sample_ddim", "evaluate")
    min_steps = MIN_UNITS * len(stages)

    def __init__(self, shapes: Shapes, seed: int, work: Path, ledger: Ledger):
        self.shapes, self.seed, self.work, self.ledger = shapes, seed, work, ledger
        self.reports = []
        self.current = None     # (run dir, manifest, data, labels) of the pass in progress
        self.last = None        # (run dir, manifest, data, real, fakes) of the last whole pass
        self.windows_per_pass = 0

    def setup(self) -> None:
        """Config file and untrained fixed-seed checkpoints of both models."""
        self.config_path = self.work / "config.yaml"
        self.config_path.write_text(f"seed: {self.seed}\noutput_dir: {self.work / 'runs'}\n")
        rng = np.random.default_rng(self.seed)
        data, labels = training_windows(rng, 8, "zscore")
        ddpm_cfg = dict(self.shapes.ddpm, epochs=0, seed=self.seed)
        diffusion.train_ddpm(data, labels, N_CLASSES,
                             diffusion.DiffusionTrainConfig(**ddpm_cfg), self.work / "ddpm")
        # batches of 1 so that 8 windows cover n_critic batches
        gan_cfg = dict(self.shapes.gan, epochs=0, seed=self.seed, batch_size=1)
        gan.train_wgan(np.clip(data, -1, 1), labels, N_CLASSES,
                       gan.GanTrainConfig(**gan_cfg), self.work / "gan")
        self.ddpm_ckpt = self.work / "ddpm" / "ddpm_best.ckpt"
        self.gan_ckpt = self.work / "gan" / "gan_best.ckpt"

    def step(self, i: int) -> dict:
        """Stage i % 4 of pass i // 4; returns that stage's timed seconds."""
        return getattr(self, "_" + self.stages[i % len(self.stages)])(i // len(self.stages))

    def unit(self, i: int) -> dict:
        sample = {"measured_s": 0.0}
        for k in range(len(self.stages)):
            stage = self.step(i * len(self.stages) + k)
            sample["measured_s"] += stage.pop("measured_s")
            sample.update(stage)
        return sample

    def _curate(self, i: int) -> dict:
        keep = self.last[0] if self.last is not None else None
        for old in self.work.glob("pass*"):
            if old != keep:
                shutil.rmtree(old)
        run = self.work / f"pass{i}"
        t0 = time.perf_counter()
        _quiet_cli("curate", "--config", self.config_path, "--synthetic",
                   "--n-per-class", self.shapes.corpus_per_class, "--out", run)
        dataset = run / "dataset"
        curated = manifest.Manifest.load(dataset / "manifest.json")
        data, labels, _ = manifest.load_window_set(curated, dataset)
        seconds = time.perf_counter() - t0
        self.current = (run, curated, data, labels)
        return {"measured_s": seconds, "curate_s": seconds}

    def _sample_gan(self, i: int) -> dict:
        """One CLI call per class; each call is one sample of the stage."""
        run = self.current[0]
        calls = []
        for k in range(N_CLASSES):
            t0 = time.perf_counter()
            _quiet_cli("sample", "--checkpoint", self.gan_ckpt, "--class", k,
                       "--num", self.shapes.gan_per_class, "--seed", self.seed * 1000 + i + k,
                       "--out", run / f"gan{k}")
            calls.append(time.perf_counter() - t0)
        return {"measured_s": sum(calls), "gan_call_s": calls}

    def _sample_ddim(self, i: int) -> dict:
        s = self.shapes
        t0 = time.perf_counter()
        _quiet_cli("sample", "--checkpoint", self.ddpm_ckpt, "--class", i % N_CLASSES,
                   "--num", s.ddim_num, "--steps", s.ddim_steps, "--guidance", GUIDANCE,
                   "--seed", self.seed * 1000 + i, "--out", self.current[0] / "ddim")
        seconds = time.perf_counter() - t0
        return {"measured_s": seconds, "ddim_s": seconds}

    def _evaluate(self, i: int) -> dict:
        run, curated, data, labels = self.current
        real, fakes = self._eval_sets(data, labels, run, self.seed * 1000 + i)
        t0 = time.perf_counter()
        report = metrics.compute_report(real, fakes)
        seconds = time.perf_counter() - t0
        self.reports.append(report)
        self.last = (run, curated, data, real, fakes)
        self.windows_per_pass = (len(data) + N_CLASSES * self.shapes.gan_per_class
                                 + self.shapes.ddim_num + real.n + sum(f.n for f in fakes.values()))
        return {"measured_s": seconds, "evaluate_s": seconds}

    def summarize(self, samples: list[dict]) -> dict[str, float]:
        """Each stage's median over the run's passes. A pass's time is the sum of
        those medians, with the WGAN stage as N_CLASSES median calls."""
        curate, ddim, evaluate, gan_call = (_median_of(samples, k) for k in
                                            ("curate_s", "ddim_s", "evaluate_s", "gan_call_s"))
        if not (curate and ddim and evaluate and gan_call and self.windows_per_pass):
            return {"windows_per_s": 0.0}
        pass_s = curate + N_CLASSES * gan_call + ddim + evaluate
        return {"windows_per_s": self.windows_per_pass / pass_s, "curate_s": curate,
                "gan_windows_per_s": self.shapes.gan_per_class / gan_call,
                "ddim_windows_per_s": self.shapes.ddim_num / ddim, "evaluate_s": evaluate}

    def _eval_sets(self, data, labels, run: Path, seed: int):
        """Real: eval_n curated windows. ddpm: a seeded perturbation of eval_n
        held-out curated windows. wgan: the generator's windows, all classes."""
        rng = np.random.default_rng(seed)
        n = self.shapes.eval_n
        order = rng.permutation(len(data))
        real_idx, held = order[:n], order[n: 2 * n]
        perturbed = np.clip(data[held] + 0.05 * rng.standard_normal(data[held].shape), -1.0, 1.0)
        gan_data, gan_labels = self._read_windows(sorted(run.glob("gan*/*.agw")))
        real = metrics.WindowSet(data[real_idx], labels[real_idx], fs=FS)
        fakes = {"ddpm": metrics.WindowSet(perturbed, labels[held], origin="ddpm", fs=FS),
                 "wgan": metrics.WindowSet(gan_data[:n], gan_labels[:n], origin="wgan", fs=FS)}
        return real, fakes

    @staticmethod
    def _read_windows(paths) -> tuple[np.ndarray, np.ndarray]:
        pairs = [manifest.read_window_file(p) for p in paths]
        return (np.stack([d.astype(np.float64) for d, _ in pairs]),
                np.array([label for _, label in pairs]))

    def check(self) -> None:
        s, ledger = self.shapes, self.ledger
        run, curated, data, real, fakes = self.last

        splits = manifest.validate_split(curated)
        on_disk = len(list((run / "dataset").glob("*.agw")))
        counted = sum(splits[k]["windows"] for k in manifest.SPLITS)
        ledger.check(counted == len(curated.entries) == on_disk == len(data),
                     f"curate: validate_split counts {counted}, manifest {len(curated.entries)}, "
                     f"files {on_disk}, loaded {len(data)}")

        for k in range(N_CLASSES):
            x, y = self._read_windows(sorted((run / f"gan{k}").glob("*.agw")))
            ledger.check(len(x) == s.gan_per_class and bool(np.all(y == k))
                         and bool(np.all(np.abs(x) <= 1.0)),
                         f"wgan sample class {k}: {len(x)} windows, finite in [-1, 1]")
        x, _ = self._read_windows(sorted((run / "ddim").glob("*.agw")))
        ledger.check(len(x) == s.ddim_num and bool(np.all(np.isfinite(x))),
                     f"ddim sample: {len(x)} finite windows")

        net, sched, _ = diffusion.load_unet(self.ddpm_ckpt)
        ledger.verify("1-step sample vs manual cfg_epsilon update", checks.one_step_sample,
                      net, sched, np.arange(2) % N_CLASSES, GUIDANCE, self.seed)

        def subsample(ws: metrics.WindowSet) -> metrics.WindowSet:
            idx = np.linspace(0, ws.n - 1, s.check_n).astype(int)   # spans every class block
            return metrics.WindowSet(ws.data[idx], ws.labels[idx], origin=ws.origin, fs=FS)

        ledger.verify("compute_report vs reference", checks.report_matches_reference,
                      subsample(real), {k: subsample(f) for k, f in fakes.items()})

        for report in self.reports:
            values = [v for v in report.metrics.values() if isinstance(v, float)]
            ledger.check(bool(np.all(np.isfinite(values))), "report values finite")


WORKLOADS = {w.name: w for w in (DdpmTrain, GanTrain, SampleEval)}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "windows_per_s": "1/s"}
STAGES = {"train_windows_per_s": "1/s", "curate_s": "s", "gan_windows_per_s": "1/s",
          "ddim_windows_per_s": "1/s", "evaluate_s": "s"}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "nproc": len(os.sched_getaffinity(0)), "dtype": "float64",
            "python": sys.version.split()[0]}


def _median_of(samples: list[dict], key: str) -> float:
    """Median of ``key`` over the samples that report it, a list counting as
    one value per element; 0 when none does."""
    values = [v for s in samples if key in s for v in np.atleast_1d(s[key])]
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, shapes: Shapes | None = None,
                 work: Path | None = None) -> tuple[dict, Tracer | None]:
    """Run one workload; return its result record and, when traced, the tracer."""
    shapes = shapes or Shapes()
    ledger = Ledger()
    work = work or WORK_DIR
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    tracer = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(scratch)
            scratch.mkdir()
            workload = WORKLOADS[name](shapes, seed, scratch, ledger)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            gc.collect()

        samples: list[dict] = []
        if not trace:
            measured = slowest = 0.0
            while True:
                t0 = time.perf_counter()
                sample = ledger.run(f"{name} unit", workload.step, len(samples)) or {}
                unit_s = sample.pop("measured_s", time.perf_counter() - t0)
                samples.append(sample)
                measured, slowest = measured + unit_s, max(slowest, unit_s)
                gc.collect()
                if len(samples) >= workload.min_steps and measured + slowest > seconds:
                    break
        else:
            # untraced, traced, untraced: trace_overhead compares with the untraced mean
            untraced = []
            for i in range(3):
                with Tracer() if i == 1 else contextlib.nullcontext() as active:
                    t0 = time.perf_counter()
                    sample = ledger.run(f"{name} unit", workload.unit, i) or {}
                    sample.pop("measured_s", None)
                    unit_s = time.perf_counter() - t0
                gc.collect()
                if i == 1:
                    tracer, traced = active, unit_s
                else:
                    samples.append(sample)
                    untraced.append(unit_s)
        ledger.run(f"{name} checks", workload.check)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = workload.summarize(samples)
    stages = {k: summary.get(k, 0.0) for k in STAGES}
    if trace:
        values = {k: v for k, (v, _) in per_layer_metrics(tracer, shapes.ddim_steps).items()}
        values["trace_overhead"] = traced / statistics.mean(untraced) - 1.0
        values.update({f"stage.{k}": v for k, v in stages.items()})
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "windows_per_s": summary["windows_per_s"]}
    record = {"workload": name, "seed": seed, "trace": int(trace), "environment": environment(),
              "steps": len(samples), "samples": samples, "setup_samples": setup_times,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "error_rate": ledger.failed / ledger.attempted,
              "stages": stages, "values": values}
    return record, tracer


def metric_units(trace: bool) -> dict[str, str]:
    """Every metric a run emits, with its unit, in BENCHMARK.json order."""
    if not trace:
        return dict(END_TO_END)
    units = {f"{n}.{f}": FIELD_UNITS[f] for n, fields in LAYER_FIELDS for f in fields}
    units.update({k: "ratio" for k in RATIO_METRICS})
    units["trace_overhead"] = "ratio"
    units.update({f"stage.{k}": u for k, u in STAGES.items()})
    return units


def result_line(record: dict) -> str:
    units = metric_units(bool(record["trace"]))
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["values"][k], "unit": u} for k, u in units.items()},
    })


def print_table(record: dict) -> None:
    name = record["workload"]
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    rows = dict(record["values"]) if not record["trace"] else {}
    rows.update({k: v for k, v in record["stages"].items() if v})
    rows["error_rate"] = record["error_rate"]
    units = dict(END_TO_END, error_rate="ratio", **STAGES)
    for key, value in rows.items():
        print(f"{name:12s} {key:22s} {value:14.6g} {units[key]}")
    print(f"{name:12s} {'steps':22s} {record['steps']:14d} count")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if Path(artifactgen.__file__).resolve().parent.parent != src:
        print(f"error: artifactgen was imported from {artifactgen.__file__}, not {src}",
              file=sys.stderr)
        return 2

    record, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
    print_table(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
