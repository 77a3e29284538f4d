"""artifactgen: label-conditioned multi-channel 1D signal synthesis and evaluation.

Submodules:
    dsp         - Welch PSD, band power, ACF, channel covariance
    windowing   - recordings -> (N, C, L) arrays of fixed-length labeled windows
    normalize   - per-window min-max and per-recording z-score
    manifest    - AGW1 window files; version-3 JSON manifests (one normalization
                  scheme and one sampling rate per set, no per-window stats);
                  split/class-map CSVs; every JSON and CSV record written whole
    synthetic   - parametric labeled artifact corpus for oracle testing
    nn          - reverse-mode autodiff, layers, Adam (with weight decay), EMA, checkpoints
    gan         - conditional WGAN-GP with projection critic
    diffusion   - conditional DDPM with FiLM U-Net and guided DDIM sampling
    training    - what both models share: the training loop and what its checkpoints hold,
                  float32 twins, checkpoint reading
    metrics     - signal-level, distributional and specificity evaluation suite
    config, cli - strict YAML run configuration and command-line entry points
"""

__version__ = "0.1.0"
