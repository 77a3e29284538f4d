"""Command line and strict config: a tiny curate -> train -> sample -> evaluate
run, the all-defaults GAN pipeline, same-seed reproducibility of the training
and sampling outputs, one read of the checkpoint per `sample`, chunked WGAN
sampling that writes the bytes of one batch, the seed's precedence, and the
config rejections, refused samplings (bad arguments, a used --out, an old
checkpoint version or config key), refused evaluations and version-1
manifests that must exit with code 2, and the pinned bytes of curated
windows."""

import builtins
import hashlib
import io
import json
import os
import warnings
from pathlib import Path

import pytest
import yaml

from artifactgen import cli
from artifactgen.cli import main
from artifactgen.manifest import read_window_file, write_window_file
from artifactgen.nn import load_checkpoint, save_checkpoint

GAN = {"channels": [8, 8, 8, 8], "latent_dim": 8, "batch_size": 4, "n_critic": 2, "epochs": 1}
DDPM = {"widths": [8, 8, 8], "cond_dim": 8, "time_dim": 8, "batch_size": 4, "epochs": 1}
# each model trains on the normalization its `train` command requires
NORMALIZATION = {"gan": "minmax_window", "ddpm": "zscore_recording"}


def write_config(path, output_dir, normalization, gan=None, ddpm=None):
    doc = {"seed": 3, "output_dir": str(output_dir),
           "data": {"normalization": normalization},
           "model": {"gan": dict(GAN, **(gan or {})), "ddpm": dict(DDPM, **(ddpm or {}))}}
    path.write_text(yaml.safe_dump(doc))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def curated(tmp_path_factory):
    """One curated synthetic dataset per model: {model: (config, manifest)}."""
    root = tmp_path_factory.mktemp("curated")
    out = {}
    for model, norm in NORMALIZATION.items():
        config = write_config(root / f"{model}.yaml", root / model, norm)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # two subjects leave val and test empty
            assert run("curate", "--config", config, "--synthetic", "--n-per-class", 2) == 0
        out[model] = (config, root / model / "dataset" / "manifest.json")
    return out


def train(curated, model, out_dir) -> int:
    config, manifest = curated[model]
    return run("train", "--config", config, "--model", model, "--manifest", manifest,
               "--out", out_dir)


def test_end_to_end(curated, tmp_path):
    fakes = {"gan": ("wgan", ()), "ddpm": ("ddpm", ("--steps", 2))}
    for model, (name, sampler_args) in fakes.items():
        assert train(curated, model, tmp_path) == 0
        ckpt = tmp_path / model / f"{model}_best.ckpt"
        assert run("sample", "--checkpoint", ckpt, "--class", 0, "--num", 4,
                   "--out", tmp_path / name, *sampler_args) == 0
        # each fake set against the real windows on its own scale
        config, manifest = curated[model]
        assert run("evaluate", "--config", config, "--real", manifest,
                   "--fake", f"{name}={tmp_path / name}",
                   "--out", tmp_path / f"report_{name}.json") == 0
        assert (tmp_path / f"report_{name}.json").is_file()
    for record in [tmp_path / m / "run.json" for m in fakes] + \
            [tmp_path / n / "run.json" for n in ("wgan", "ddpm")]:
        fields = json.loads(record.read_text())
        assert fields["elapsed_s"] >= 0 and fields["peak_rss_mb"] > 0, record


@pytest.fixture(scope="module")
def checkpoints(curated, tmp_path_factory):
    """{model: best checkpoint} of each tiny trained model."""
    root = tmp_path_factory.mktemp("trained")
    for model in NORMALIZATION:
        assert train(curated, model, root) == 0
    return {model: root / model / f"{model}_best.ckpt" for model in NORMALIZATION}


@pytest.fixture(scope="module")
def sampled(checkpoints, tmp_path_factory):
    """Four windows from each tiny trained model: {fake name: sample directory}."""
    root = tmp_path_factory.mktemp("sampled")
    out = {}
    for model, name in (("gan", "wgan"), ("ddpm", "ddpm")):
        out[name] = root / name
        assert run("sample", "--checkpoint", checkpoints[model], "--class", 0,
                   "--num", 4, "--steps", 2, "--out", out[name]) == 0
    return out


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_same_seed_sampling_is_byte_identical(checkpoints, tmp_path, model):
    for out in ("a", "b"):
        assert run("sample", "--checkpoint", checkpoints[model], "--class", 2, "--num", 5,
                   "--steps", 3, "--seed", 8, "--out", tmp_path / out) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir() if p.name != "run.json")
    assert len(names) == 6
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("model", ["gan", "ddpm"])
@pytest.mark.parametrize("args, message", [
    (("--num", 0, "--class", 0), "--num must be at least 1, got 0"),
    (("--num", -3, "--class", 0), "--num must be at least 1, got -3"),
    (("--num", 2, "--class", 5), "class index 5 out of range [0, 5)"),
    (("--num", 2, "--class", -1), "class index -1 out of range [0, 5)"),
], ids=["num_0", "num_negative", "class_too_large", "class_negative"])
def test_sample_refuses_before_it_writes(checkpoints, tmp_path, capsys, model, args, message):
    out = tmp_path / "fake"
    assert run("sample", "--checkpoint", checkpoints[model], *args, "--steps", 2,
               "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_sample_refuses_a_version_1_checkpoint(checkpoints, tmp_path, capsys, model):
    """A checkpoint of the old fixed-section layout is refused by its version."""
    raw = bytearray(checkpoints[model].read_bytes())
    raw[4:8] = (1).to_bytes(4, "little")
    old = tmp_path / "v1.ckpt"
    old.write_bytes(bytes(raw))
    out = tmp_path / "fake"
    assert run("sample", "--checkpoint", old, "--class", 0, "--num", 2, "--steps", 2,
               "--out", out) == 2
    assert "unsupported checkpoint version 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_sample_refuses_a_config_key_it_does_not_know(checkpoints, tmp_path, capsys, model):
    """A checkpoint whose config has a key the config class lacks (a knob
    since removed) is refused, naming the key, rather than read without it."""
    ck = load_checkpoint(checkpoints[model])
    meta = {**ck.meta, "config": {**ck.meta["config"], "spectral_hop": 32}}
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, ck.arrays, step=ck.step, meta=meta)
    out = tmp_path / "fake"
    assert run("sample", "--checkpoint", old, "--class", 0, "--num", 2, "--steps", 2,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert "spectral_hop" in err and "train the model again" in err
    assert not out.exists()


@pytest.mark.parametrize("leftover", ["windows", "provenance"])
def test_sample_refuses_a_used_out_directory(checkpoints, tmp_path, capsys, leftover):
    """A second run into the same --out would leave the first run's extra
    windows beside its own, and `evaluate` would read them all."""
    out = tmp_path / "fake"
    assert run("sample", "--checkpoint", checkpoints["gan"], "--class", 1, "--num", 10,
               "--out", out) == 0
    for path in out.iterdir():
        if (path.suffix == ".agw") != (leftover == "windows"):
            path.unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run("sample", "--checkpoint", checkpoints["gan"], "--class", 3, "--num", 4,
               "--out", out) == 2
    assert "already holds sampled windows" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("change, message", [
    ("extra_window", "holds 5 windows, but its provenance.json records 4"),
    ("other_label", "has label 3, but its provenance.json records class 0"),
], ids=["extra_window", "other_label"])
def test_evaluate_refuses_windows_its_provenance_does_not_describe(curated, sampled, tmp_path,
                                                                   capsys, change, message):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for path in sampled["wgan"].iterdir():
        (mixed / path.name).write_bytes(path.read_bytes())
    data, label = read_window_file(mixed / "w000000.agw")
    if change == "extra_window":
        write_window_file(mixed / "w000004.agw", data, label)
    else:
        write_window_file(mixed / "w000000.agw", data, 3)
    config, manifest = curated["gan"]
    assert run("evaluate", "--config", config, "--real", manifest, "--fake", f"wgan={mixed}",
               "--out", tmp_path / "report.json") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("real, fake, message", [
    ("gan", "ddpm=ddpm", "--fake ddpm requires 'zscore_recording' windows"),
    ("ddpm", "wgan=wgan", "--fake wgan requires 'minmax_window' windows"),
    ("gan", "ddpm=wgan", "holds windows of model 'wgan'"),
    ("gan", "wgan=bare", "no provenance.json"),
], ids=["ddpm_on_minmax", "wgan_on_zscore", "name_differs", "no_provenance"])
def test_evaluate_refuses_what_it_cannot_compare(curated, sampled, tmp_path, capsys,
                                                  real, fake, message):
    bare = tmp_path / "bare"   # the WGAN windows without their provenance.json
    bare.mkdir()
    for path in sampled["wgan"].glob("*.agw"):
        (bare / path.name).write_bytes(path.read_bytes())
    name, _, source = fake.partition("=")
    fake_dir = bare if source == "bare" else sampled[source]
    config, manifest = curated[real]
    assert run("evaluate", "--config", config, "--real", manifest, "--fake", f"{name}={fake_dir}",
               "--out", tmp_path / "report.json") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("damage", ["all_windows", "one_window"])
def test_evaluate_refuses_windows_of_another_shape(curated, sampled, tmp_path, capsys, damage):
    short = tmp_path / "short"
    short.mkdir()
    for path in sampled["wgan"].iterdir():
        (short / path.name).write_bytes(path.read_bytes())
    for path in sorted(short.glob("*.agw"))[: 1 if damage == "one_window" else None]:
        data, label = read_window_file(path)
        write_window_file(path, data[:, :100], label)
    config, manifest = curated["gan"]
    assert run("evaluate", "--config", config, "--real", manifest, "--fake", f"wgan={short}",
               "--out", tmp_path / "report.json") == 2
    message = "window shapes differ" if damage == "all_windows" else "non-uniform"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_evaluate_refuses_a_repeated_fake_name(curated, sampled, tmp_path, capsys):
    """A second --fake of one NAME would replace the first; it is refused
    before any window directory or manifest is read."""
    config, manifest = curated["gan"]
    for real in (manifest, tmp_path / "missing" / "manifest.json"):
        assert run("evaluate", "--config", config, "--real", real,
                   "--fake", f"wgan={sampled['wgan']}", "--fake", f"wgan={tmp_path / 'absent'}",
                   "--out", tmp_path / "report.json") == 2
        assert "--fake wgan is given twice" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_version_1_manifest_is_refused(curated, sampled, tmp_path, capsys, command):
    """A version-1 manifest (the normalization repeated in every entry) is
    refused by its version, before anything is written."""
    config, manifest = curated["gan"]
    doc = json.loads(manifest.read_text())
    norm = doc.pop("normalization")
    doc["version"] = 1
    for e in doc["entries"]:
        e.update(L=250, norm=dict(norm, stats=e.pop("stats"), degenerate=False))
    v1 = tmp_path / "v1"
    v1.mkdir()
    for path in manifest.parent.glob("*.agw"):
        (v1 / path.name).write_bytes(path.read_bytes())
    (v1 / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "train":
        argv = ("train", "--config", config, "--model", "gan", "--out", out,
                "--manifest", v1 / "manifest.json")
    else:
        argv = ("evaluate", "--config", config, "--real", v1 / "manifest.json",
                "--fake", f"wgan={sampled['wgan']}", "--out", out / "report.json")
    assert run(*argv) == 2
    assert "unsupported manifest version 1" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the .agw files, concatenated in name order, that the `curated`
# fixture writes (`curate --synthetic --n-per-class 2`, seed 3): pins the
# curated window bits through any rework of curate
CURATED_AGW_SHA256 = {
    "gan": "1a0fee8b8fa273e34f50e2e3164b69725a656881031ec0531ca9a21958bec8da",
    "ddpm": "2f1bf304ae4c0ead7d9404e8549927b2979d4a46f0ba34c66f64d0f9a82044d7",
}


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_curate_writes_the_pinned_window_bytes(curated, model):
    files = sorted(curated[model][1].parent.glob("*.agw"))
    assert len(files) == 37
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
    assert digest == CURATED_AGW_SHA256[model]


@pytest.mark.parametrize("env, seed_args, want", [
    (None, (), 0), ("5", (), 5), ("5", ("--seed", 8), 8),
], ids=["default", "env", "flag_over_env"])
def test_sample_seed_precedence(checkpoints, tmp_path, monkeypatch, env, seed_args, want):
    """`sample --seed` wins over ARTIFACTGEN_SEED, which wins over seed 0."""
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.SEED_ENV, env)
    assert run("sample", "--checkpoint", checkpoints["gan"], "--class", 0, "--num", 1,
               *seed_args, "--out", tmp_path / "fake") == 0
    for name in ("provenance.json", "run.json"):
        assert json.loads((tmp_path / "fake" / name).read_text())["seed"] == want, name


@pytest.mark.parametrize("env, want", [(None, 3), ("7", 7)], ids=["config", "env"])
def test_curate_seed_precedence(tmp_path, monkeypatch, env, want):
    """ARTIFACTGEN_SEED wins over the config seed (3)."""
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.SEED_ENV, env)
    config = write_config(tmp_path / "c.yaml", tmp_path, NORMALIZATION["gan"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # two subjects leave val and test empty
        assert run("curate", "--config", config, "--synthetic", "--n-per-class", 1) == 0
    dataset = tmp_path / "dataset"
    assert json.loads((dataset / "run.json").read_text())["seed"] == want
    assert json.loads((dataset / "manifest.json").read_text())["seed"] == want


@pytest.mark.parametrize("command", ["curate", "sample"])
def test_non_integer_seed_env_exits_2(checkpoints, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv(cli.SEED_ENV, "seven")
    if command == "curate":
        config = write_config(tmp_path / "c.yaml", tmp_path, NORMALIZATION["gan"])
        argv = ("curate", "--config", config, "--synthetic", "--n-per-class", 1)
    else:
        argv = ("sample", "--checkpoint", checkpoints["gan"], "--class", 0, "--num", 1,
                "--out", tmp_path / "fake")
    assert run(*argv) == 2
    assert "ARTIFACTGEN_SEED must be an integer, got 'seven'" in capsys.readouterr().err
    assert not (tmp_path / "dataset").exists() and not (tmp_path / "fake").exists()


def test_default_pipeline_trains_the_gan(tmp_path, capsys):
    """The default corpus has 207 training windows, fewer than batch_size 64 x
    n_critic 5: the GAN batch shrinks so that one epoch still fills a step."""
    config = tmp_path / "defaults.yaml"
    config.write_text(yaml.safe_dump({"seed": 0, "output_dir": str(tmp_path),
                                      "model": {"gan": {"epochs": 1}}}))
    assert run("curate", "--config", config, "--synthetic") == 0
    assert run("train", "--config", config, "--model", "gan",
               "--manifest", tmp_path / "dataset" / "manifest.json") == 0
    assert "gan: 1 steps" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_same_seed_training_is_byte_identical(curated, tmp_path, model):
    assert train(curated, model, tmp_path / "a") == 0
    assert train(curated, model, tmp_path / "b") == 0
    names = [f"{model}_losses.csv", f"{model}_last.ckpt", f"{model}_best.ckpt"]
    for name in names:
        first = (tmp_path / "a" / model / name).read_bytes()
        assert first == (tmp_path / "b" / model / name).read_bytes(), name
    assert len((tmp_path / "a" / model / names[0]).read_text().splitlines()) > 1
    # a checkpoint says which dtype its nets trained in
    for name in names[1:]:
        assert load_checkpoint(tmp_path / "a" / model / name).meta["train_dtype"] == "float32"


@pytest.fixture(scope="module")
def default_width_gan(curated, tmp_path_factory):
    """A WGAN checkpoint with the default generator widths and latent size."""
    root = tmp_path_factory.mktemp("default_gan")
    config = write_config(root / "gan.yaml", root, NORMALIZATION["gan"],
                          gan={"channels": [128, 128, 64, 32], "latent_dim": 128})
    assert run("train", "--config", config, "--model", "gan", "--manifest", curated["gan"][1],
               "--out", root) == 0
    return root / "gan" / "gan_best.ckpt"


@pytest.mark.parametrize("num", [100, 33, 65])
def test_chunked_wgan_sampling_matches_one_batch(default_width_gan, tmp_path, monkeypatch, num):
    """`sample` runs the generator over chunks of about SAMPLE_CHUNK windows;
    its window files are byte-identical to those of one batch of `num`."""
    def sample(out):
        return run("sample", "--checkpoint", default_width_gan, "--class", 1, "--num", num,
                   "--seed", 5, "--out", tmp_path / out)

    assert sample("chunked") == 0
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", num)
    assert sample("whole") == 0
    files = sorted(p.name for p in (tmp_path / "whole").glob("*.agw"))
    assert len(files) == num
    for name in files:
        assert (tmp_path / "chunked" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes(), name


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_sample_reads_checkpoint_once(curated, tmp_path, monkeypatch, model):
    assert train(curated, model, tmp_path) == 0
    ckpt = tmp_path / model / f"{model}_best.ckpt"
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == ckpt:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert run("sample", "--checkpoint", ckpt, "--class", 0, "--num", 2, "--steps", 2,
               "--out", tmp_path / "fake") == 0
    monkeypatch.undo()
    assert len(opened) == 1
    provenance = json.loads((tmp_path / "fake" / "provenance.json").read_text())
    assert provenance["model_hash"] == hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert provenance["sampler"]["dtype"] == "float32"


@pytest.mark.parametrize("model", ["gan", "ddpm"])
def test_zero_epochs_reports_zero_steps(curated, tmp_path, capsys, model):
    _, manifest = curated[model]
    config = write_config(tmp_path / "zero.yaml", tmp_path, NORMALIZATION[model],
                          gan={"epochs": 0}, ddpm={"epochs": 0})
    assert run("train", "--config", config, "--model", model, "--manifest", manifest) == 0
    assert f"{model}: 0 steps" in capsys.readouterr().out
    lines = (tmp_path / model / f"{model}_losses.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("step,")
    assert (tmp_path / model / f"{model}_best.ckpt").is_file()


@pytest.mark.parametrize("doc, message", [
    ({"sed": 1}, "unknown top-level key"),
    ({"data": {"window_secs": 1.0}}, "unknown key"),
    ({"model": {"gan": {"seed": 1}}}, "model.gan.seed"),
    ({"data": {"filtering": "raw"}}, "filtering"),
    ({"model": {"gan": {"leaky_slope": 1.5}}}, "leaky_slope must be in [0, 1]"),
    ({"model": {"gan": {"leaky_slope": -0.2}}}, "leaky_slope must be in [0, 1]"),
    ({"model": {"gan": {"spectral_loss_weight": 0.5}}}, "spectral_loss_weight"),
])
def test_config_rejected_with_exit_code_2(tmp_path, capsys, doc, message):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert run("curate", "--config", config, "--synthetic", "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dataset").exists()
