"""Speech frontend: WAV ingestion, streaming log-mel features, dataset builds.

Features are 40-bin log-mel energies over 40 ms windows hopped every 20 ms at
16 kHz (49 frames per one-second clip), with per-bin mean/variance
normalization fitted on the training split.  A SHA-256 hash of the full
feature configuration, normalization included, is stored in model files so
an inference-side config drift is caught instead of silently skewing inputs.

Dataset directories follow the public keyword-spotting corpus layout: one
folder per word plus _background_noise_, file names "<speaker>_nohash_<take>
.wav", and the split is a pure hash of the speaker id so no speaker ever
straddles train/val/test.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import wave
import zipfile
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

MAX_WAVS_PER_SPEAKER = 2**27 - 1  # hash-bucket modulus for stable splits


class WavFormatError(ValueError):
    """Raised for non-PCM16 / non-mono / wrong-rate WAV input."""


class DatasetError(ValueError):
    """Raised when a dataset directory is missing required pieces."""


@dataclass(frozen=True)
class FeatureConfig:
    """The one frontend recipe, and the per-bin normalization fitted on the
    training split (None before ``materialize_features`` fits it).

    The recipe's values are constants.  ``fft_size`` must be a power of two:
    the kernel folds the power spectrum's 1/fft_size into the mel bank, which
    is exact only then (README, "The frontend kernel").
    """

    sample_rate: ClassVar[int] = 16000
    window_ms: ClassVar[int] = 40
    hop_ms: ClassVar[int] = 20
    mel_bins: ClassVar[int] = 40
    fft_size: ClassVar[int] = 1024
    log_floor: ClassVar[float] = 1e-6
    f_lo: ClassVar[float] = 20.0
    f_hi: ClassVar[float] = 7600.0
    window_samples: ClassVar[int] = sample_rate * window_ms // 1000
    hop_samples: ClassVar[int] = sample_rate * hop_ms // 1000
    frames_per_second_clip: ClassVar[int] = (sample_rate - window_samples) // hop_samples + 1
    norm_mean: tuple | None = None
    norm_std: tuple | None = None

    def config_hash(self) -> bytes:
        """SHA-256 digest of the recipe and the normalization; model files
        carry it, so a sidecar that does not match the model is caught.

        Normalization values hash as Python floats, the type a sidecar loads
        them as, so a config of numpy floats hashes like its own round trip.
        """
        def reprs(values):
            return None if values is None else [repr(float(v)) for v in values]

        parts = [
            f"sample_rate={self.sample_rate}",
            f"window_ms={self.window_ms}",
            f"hop_ms={self.hop_ms}",
            f"mel_bins={self.mel_bins}",
            f"fft_size={self.fft_size}",
            f"log_floor={self.log_floor!r}",
            f"f_lo={self.f_lo!r}",
            f"f_hi={self.f_hi!r}",
            f"norm_mean={reprs(self.norm_mean)}",
            f"norm_std={reprs(self.norm_std)}",
        ]
        return hashlib.sha256("\n".join(parts).encode()).digest()

    @cached_property
    def _kernel(self) -> tuple:
        """(window, scaled mel bank, norm mean, norm std) as arrays, built once
        per config; the bank carries the power spectrum's per-bin scale."""
        has_norm = self.norm_mean is not None
        return (
            _periodic_hann(self.window_samples),
            mel_filterbank(self) * power_scale(self.fft_size),
            np.asarray(self.norm_mean) if has_norm else None,
            np.asarray(self.norm_std) if has_norm else None,
        )


def save_feature_config(config: FeatureConfig, path) -> None:
    """Persist a config's normalization as an npz sidecar; the recipe is
    fixed, so the normalization is all a sidecar holds.

    Values round-trip exactly, so the loaded config's hash matches the digest
    a model trained with it carries.
    """
    has_norm = config.norm_mean is not None
    np.savez(
        path, has_norm=has_norm,
        norm_mean=np.asarray(config.norm_mean if has_norm else [], dtype=np.float64),
        norm_std=np.asarray(config.norm_std if has_norm else [], dtype=np.float64),
    )


def load_feature_config(path) -> FeatureConfig:
    """Read a ``save_feature_config`` sidecar; DatasetError unless it holds
    mel_bins finite means and as many finite, positive deviations.  Other
    keys (older sidecars also stored the recipe) are not read."""
    try:
        with np.load(path) as z:
            has_norm = bool(z["has_norm"])
            mean = tuple(float(v) for v in z["norm_mean"]) if has_norm else None
            std = tuple(float(v) for v in z["norm_std"]) if has_norm else None
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, TypeError) as e:
        raise DatasetError(f"{path}: not a frontend sidecar ({e})") from None
    if not has_norm:
        return FeatureConfig()
    bins = FeatureConfig.mel_bins
    if not len(mean) == len(std) == bins:
        raise DatasetError(f"{path}: normalization length is not mel_bins = {bins}")
    if not all(math.isfinite(v) for v in mean + std) or min(std) <= 0.0:
        raise DatasetError(f"{path}: normalization needs finite means and deviations > 0")
    return FeatureConfig(norm_mean=mean, norm_std=std)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular mel filters, (mel_bins, fft_size // 2 + 1)."""
    pts_hz = mel_to_hz(
        np.linspace(hz_to_mel(config.f_lo), hz_to_mel(config.f_hi), config.mel_bins + 2)
    )
    freqs = np.arange(config.fft_size // 2 + 1) * config.sample_rate / config.fft_size
    bank = np.zeros((config.mel_bins, freqs.size))
    for i in range(config.mel_bins):
        lo, ctr, hi = pts_hz[i], pts_hz[i + 1], pts_hz[i + 2]
        rising = (freqs - lo) / (ctr - lo)
        falling = (hi - freqs) / (hi - ctr)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def power_scale(fft_size: int) -> np.ndarray:
    """Per-bin factor turning |rfft|^2 into the one-sided power spectrum,
    scaled so a window's bins sum to the sum of its squared samples:
    1/fft_size, doubled for the bins whose negative frequency folds in."""
    scale = np.full(fft_size // 2 + 1, 1.0 / fft_size)
    scale[1 : (fft_size + 1) // 2] *= 2.0
    return scale


def log_mel_frames(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Normalized log-mel features of windows: (..., window) -> (..., mel_bins).

    Each output row depends on its own window only, bit for bit, so offline,
    streaming and multi-stream callers agree whatever the batch.  The mel
    projection is therefore one matrix-vector product per frame (numpy's
    stacked matmul with a trailing unit axis); a matrix product across frames
    (``power @ bank.T``) lets BLAS reorder the sums and changes the last bits.

    The power spectrum's scale is folded into the mel bank (README, "The
    frontend kernel", says why that is exact), and the projection writes
    straight into the output.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 0 or frames.shape[-1] != config.window_samples:
        raise ValueError(f"expected windows of {config.window_samples} samples, got {frames.shape}")
    window, bank, mean, std = config._kernel
    spec = np.fft.rfft(frames * window, n=config.fft_size)
    power = np.square(spec.real)
    power += np.square(spec.imag)
    feats = np.empty(frames.shape[:-1] + (config.mel_bins,))  # a fresh array, no base
    np.matmul(bank, power[..., None], out=feats[..., None])
    feats += config.log_floor
    np.log(feats, out=feats)
    if mean is not None:
        feats -= mean
        feats /= std
    return feats


def featurize_signal(samples: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """All complete frames of an arbitrary-length signal, normalized."""
    samples = np.asarray(samples, dtype=np.float64)
    w, hop = config.window_samples, config.hop_samples
    if samples.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {samples.shape}")
    if samples.size < w:
        raise ValueError(f"signal shorter than one window ({samples.size} < {w})")
    step = samples.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        samples, shape=((samples.size - w) // hop + 1, w),
        strides=(hop * step, step), writeable=False,
    )
    return log_mel_frames(windows, config)


def featurize_utterance(samples: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Feature sequence of a one-second clip (49 frames at the defaults)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size != config.sample_rate:
        raise ValueError(
            f"utterance must be exactly 1 s = {config.sample_rate} samples, got {samples.size}"
        )
    return featurize_signal(samples, config)


class StreamFeaturizer:
    """Hop-by-hop featurizer; output is bit-identical to offline framing.

    Single-owner: one audio stream per instance.  Samples are buffered until
    a full window exists, then one frame is emitted per hop.
    """

    def __init__(self, config: FeatureConfig):
        self.config = config
        self._pending = np.zeros(0)

    def push(self, chunk: np.ndarray) -> list:
        """Feed any number of samples; returns the frames completed by them."""
        pending = np.concatenate([self._pending, np.asarray(chunk, dtype=np.float64)])
        w, hop = self.config.window_samples, self.config.hop_samples
        n = (pending.size - w) // hop + 1 if pending.size >= w else 0
        self._pending = pending[n * hop :]
        return [log_mel_frames(pending[t * hop : t * hop + w], self.config) for t in range(n)]


# ---------------------------------------------------------------------------
# WAV I/O (PCM16 mono only; no silent resampling)
# ---------------------------------------------------------------------------

def load_wav(path) -> np.ndarray:
    """Read a PCM16 mono WAV at the frontend's rate into float64 in [-1, 1)."""
    rate = FeatureConfig.sample_rate
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise WavFormatError(f"{path}: expected mono, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise WavFormatError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            if f.getframerate() != rate:
                raise WavFormatError(f"{path}: expected {rate} Hz, got {f.getframerate()} Hz")
            raw = f.readframes(f.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends inside its header
        why = str(exc) or "it ends inside its header"
        raise WavFormatError(f"{path}: not a valid WAV file ({why})") from exc
    if len(raw) % 2:
        raise WavFormatError(f"{path}: sample data ends mid-sample ({len(raw)} bytes)")
    # k * 2^-15 is exact in float64: the same values as astype, then / 32768.
    # dtype= keeps float64 under numpy 1.x's value-based casting, too.
    return np.multiply(np.frombuffer(raw, dtype="<i2"), 2.0**-15, dtype=np.float64)


def write_wav(path, samples: np.ndarray, rate: int = 16000) -> None:
    pcm = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())


def pad_or_crop(samples: np.ndarray, length: int) -> np.ndarray:
    """Front-pad with zeros (keeps speech near the end) or crop to length."""
    if samples.size >= length:
        return samples[-length:]
    out = np.zeros(length)
    out[length - samples.size :] = samples
    return out


# ---------------------------------------------------------------------------
# Splits and dataset manifests
# ---------------------------------------------------------------------------

SILENCE_LABEL = 10
UNKNOWN_LABEL = 11
BACKGROUND_DIR = "_background_noise_"


def which_set(filename: str) -> str:
    """Stable 10/10/80 val/test/train split from the speaker id; all takes
    stay together."""
    base = os.path.basename(filename)
    if "_nohash_" not in base:
        raise ValueError(f"{filename!r} has no '_nohash_' speaker separator")
    pct = _speaker_pct(re.sub(r"_nohash_.*$", "", base))
    if pct < 10.0:
        return "val"
    if pct < 20.0:
        return "test"
    return "train"


@lru_cache(maxsize=1 << 14)
def _speaker_pct(speaker: str) -> float:
    """The speaker's hash bucket as a percentage; cached because every take
    of a speaker, in every word folder, shares it."""
    digest = hashlib.sha1(speaker.encode("utf-8")).hexdigest()
    return (int(digest, 16) % (MAX_WAVS_PER_SPEAKER + 1)) * (100.0 / MAX_WAVS_PER_SPEAKER)


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative to the dataset root
    label: int
    split: str


@dataclass
class Manifest:
    root: str
    label_names: list
    entries: list = field(default_factory=list)


def twelve_label_names(keywords) -> list:
    """10 keyword slots + silence + unknown; short keyword lists pad the tail."""
    keywords = list(keywords)
    if len(keywords) > 10:
        raise ValueError("at most 10 keywords")
    names = keywords + [f"(unused{i})" for i in range(len(keywords), 10)]
    return names + ["_silence_", "_unknown_"]


def build_dataset(root, keywords, seed: int = 0) -> Manifest:
    """Scan a dataset directory into a 12-label manifest.

    Keyword clips keep their hash split.  Unknown clips are drawn from
    non-keyword words (keeping their own hash split, so no speaker leaks);
    silence entries reference background-noise files and are spread across
    splits in an 80/10/10 pattern.  Each of the two is a tenth of the
    keyword clip count.
    """
    root = str(root)
    keywords = list(keywords)
    if not os.path.isdir(root):
        raise DatasetError(f"dataset root {root!r} does not exist")
    words = sorted(
        d for d in os.listdir(root)
        if os.path.isdir(os.path.join(root, d)) and d != BACKGROUND_DIR
    )
    missing = [k for k in keywords if k not in words]
    if missing:
        raise DatasetError(f"keyword folders missing under {root!r}: {missing}")
    bg_dir = os.path.join(root, BACKGROUND_DIR)
    if not os.path.isdir(bg_dir):
        raise DatasetError(f"missing {BACKGROUND_DIR} under {root!r}")
    bg_files = sorted(f for f in os.listdir(bg_dir) if f.endswith(".wav"))
    if not bg_files:
        raise DatasetError(f"no background noise files under {bg_dir!r}")

    entries = []
    n_keyword = 0
    for word in keywords:
        for fname in sorted(os.listdir(os.path.join(root, word))):
            if not fname.endswith(".wav"):
                continue
            entries.append(
                ManifestEntry(
                    path=f"{word}/{fname}", label=keywords.index(word), split=which_set(fname)
                )
            )
            n_keyword += 1

    rng = np.random.default_rng(seed)
    unknown_pool = []
    for word in words:
        if word in keywords:
            continue
        for fname in sorted(os.listdir(os.path.join(root, word))):
            if fname.endswith(".wav"):
                unknown_pool.append((f"{word}/{fname}", which_set(fname)))
    n_unknown = min(len(unknown_pool), int(round(0.1 * n_keyword)))
    if unknown_pool:
        picks = rng.choice(len(unknown_pool), size=n_unknown, replace=False)
        for i in sorted(picks):
            path, split = unknown_pool[i]
            entries.append(ManifestEntry(path=path, label=UNKNOWN_LABEL, split=split))

    n_silence = int(round(0.1 * n_keyword))
    split_cycle = ["train"] * 8 + ["val", "test"]
    for i in range(n_silence):
        entries.append(
            ManifestEntry(
                path=f"{BACKGROUND_DIR}/{bg_files[i % len(bg_files)]}",
                label=SILENCE_LABEL,
                split=split_cycle[i % 10],
            )
        )
    return Manifest(root=root, label_names=twelve_label_names(keywords), entries=entries)


def _silence_offset(entry_path: str, index: int, n_samples: int, clip_len: int) -> int:
    """Deterministic crop offset into a background file for a silence entry."""
    digest = hashlib.sha256(f"{entry_path}#{index}".encode()).digest()
    span = max(n_samples - clip_len, 1)
    return int.from_bytes(digest[:8], "little") % span


@dataclass
class FeatureDataset:
    """Materialized features for training: (N, T, mel_bins) per split."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    label_names: list
    config: FeatureConfig

    @property
    def frontend_hash(self) -> bytes:
        return self.config.config_hash()


def load_clip(manifest: Manifest, index: int) -> np.ndarray:
    """The one-second clip of ``manifest.entries[index]``; a silence crop's
    offset hashes the index in the whole manifest, not in the entry's split."""
    entry = manifest.entries[index]
    samples = load_wav(os.path.join(manifest.root, entry.path))
    rate = FeatureConfig.sample_rate
    if entry.label == SILENCE_LABEL:
        off = _silence_offset(entry.path, index, samples.size, rate)
        samples = samples[off : off + rate]
    return pad_or_crop(samples, rate)


def materialize_features(manifest: Manifest, config: FeatureConfig) -> FeatureDataset:
    """Load audio, featurize, and fit train-split normalization.

    The returned dataset's config carries the fitted per-bin mean/std, so its
    hash pins the complete train-time feature function.  ``config`` is not
    read (the recipe is fixed and the normalization is fitted here); it stays
    because perfbench's workloads pass ``FeatureConfig()``.
    """
    raw = {"train": [], "val": [], "test": []}
    labels = {"train": [], "val": [], "test": []}
    base, bins = FeatureConfig(), FeatureConfig.mel_bins
    for i, entry in enumerate(manifest.entries):
        raw[entry.split].append(featurize_utterance(load_clip(manifest, i), base))
        labels[entry.split].append(entry.label)
    if not raw["train"]:
        raise DatasetError("manifest has no training entries")
    train = np.stack(raw["train"])
    mean = train.reshape(-1, bins).mean(axis=0)
    std = train.reshape(-1, bins).std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    fitted = FeatureConfig(norm_mean=tuple(float(v) for v in mean),
                           norm_std=tuple(float(v) for v in std))

    def pack(split):
        if not raw[split]:
            return (np.zeros((0, train.shape[1], bins)), np.zeros(0, dtype=np.int64))
        x = (np.stack(raw[split]) - mean) / std
        return x, np.asarray(labels[split], dtype=np.int64)

    tx, ty = pack("train")
    vx, vy = pack("val")
    sx, sy = pack("test")
    return FeatureDataset(
        train_x=tx, train_y=ty, val_x=vx, val_y=vy, test_x=sx, test_y=sy,
        label_names=manifest.label_names, config=fitted,
    )


# ---------------------------------------------------------------------------
# Synthetic toy corpus (desk-scale stand-in for the real download)
# ---------------------------------------------------------------------------

TOY_WORD_TONES = {
    # word -> (fundamental Hz, formant Hz); far apart so classes separate
    "yes": (320.0, 2200.0),
    "no": (480.0, 900.0),
    "wow": (260.0, 1500.0),
    "zero": (600.0, 3000.0),
    "left": (380.0, 2600.0),
    "right": (540.0, 1200.0),
}


def _synth_word(rng, word: str, rate: int) -> np.ndarray:
    """One-second clip with a word-specific two-tone burst near the end."""
    f0, f1 = TOY_WORD_TONES[word]
    jitter = 1.0 + 0.03 * rng.standard_normal()
    n = rate
    t = np.arange(n) / rate
    start = 0.35 + 0.1 * rng.random()
    dur = 0.45
    env = np.exp(-0.5 * ((t - (start + dur / 2)) / (dur / 4)) ** 2)
    sweep = 1.0 + 0.05 * np.sin(2 * np.pi * 3.0 * t)
    sig = env * (
        np.sin(2 * np.pi * f0 * jitter * t)
        + 0.6 * np.sin(2 * np.pi * f1 * jitter * sweep * t)
    )
    sig += 0.01 * rng.standard_normal(n)
    return 0.4 * sig / np.max(np.abs(sig))


def generate_toy_dataset(
    root,
    keywords=("yes", "no"),
    unknown_words=("wow", "zero"),
    speakers: int = 40,
    takes: int = 3,
    seed: int = 0,
) -> None:
    """Write a small synthetic corpus in the real dataset's directory layout.

    Words are distinct tone bursts, speakers add pitch jitter, and file names
    carry synthetic speaker ids so which_set exercises the real split logic.
    """
    rate = 16000
    rng = np.random.default_rng(seed)
    for word in list(keywords) + list(unknown_words):
        if word not in TOY_WORD_TONES:
            raise ValueError(f"no synthetic recipe for word {word!r}")
        word_dir = os.path.join(str(root), word)
        os.makedirs(word_dir, exist_ok=True)
        for sid in range(speakers):
            for take in range(takes):
                name = f"spk{sid:04d}_nohash_{take}.wav"
                write_wav(os.path.join(word_dir, name), _synth_word(rng, word, rate), rate)
    bg_dir = os.path.join(str(root), BACKGROUND_DIR)
    os.makedirs(bg_dir, exist_ok=True)
    for i in range(3):
        noise = rng.standard_normal(10 * rate)
        # crude low-pass so the "room noise" is not white
        kernel = np.ones(8) / 8.0
        noise = np.convolve(noise, kernel, mode="same")
        write_wav(os.path.join(bg_dir, f"noise_{i}.wav"), 0.05 * noise, rate)
