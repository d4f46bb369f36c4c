"""Tests for WAV I/O, log-mel features, streaming equality, and datasets."""

import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lmukws.frontend import (
    BACKGROUND_DIR,
    MAX_WAVS_PER_SPEAKER,
    DatasetError,
    FeatureConfig,
    N_LABELS,
    SILENCE_LABEL,
    StreamFeaturizer,
    UNKNOWN_LABEL,
    WavFormatError,
    build_dataset,
    featurize_signal,
    featurize_utterance,
    generate_toy_dataset,
    hz_to_mel,
    load_clip,
    load_feature_config,
    load_wav,
    log_mel_frames,
    materialize_features,
    mel_filterbank,
    mel_to_hz,
    pad_or_crop,
    power_scale,
    save_feature_config,
    twelve_label_names,
    which_set,
    write_wav,
    _speaker_pct,
)

CFG = FeatureConfig()


def reference_frames(samples, config):
    """The per-frame loop the batched kernel replaced: one rfft and one
    filterbank product per window, normalized frame by frame."""
    w, hop = config.window_samples, config.hop_samples
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(w) / w))
    bank = mel_filterbank(config)
    frames = []
    for t in range((samples.size - w) // hop + 1):
        spec = np.fft.rfft(samples[t * hop : t * hop + w] * window, n=config.fft_size)
        power = (spec.real**2 + spec.imag**2) / config.fft_size
        power[1 : (config.fft_size + 1) // 2] *= 2.0
        frame = np.log(bank @ power + config.log_floor)
        if config.norm_mean is not None:
            frame = (frame - np.asarray(config.norm_mean)) / np.asarray(config.norm_std)
        frames.append(frame)
    return np.stack(frames)


class TestFeatureConfig:
    def test_defaults(self):
        assert CFG.window_samples == 640
        assert CFG.hop_samples == 320
        assert CFG.frames_per_second_clip == 49
        # The recipe is constants; only the fitted normalization is a field.
        assert [f.name for f in dataclasses.fields(FeatureConfig)] == ["norm_mean", "norm_std"]

    def test_hash_tracks_every_field(self):
        base = FeatureConfig()
        assert base.config_hash() == FeatureConfig().config_hash()
        normed = FeatureConfig(norm_mean=tuple([0.0] * 40), norm_std=tuple([1.0] * 40))
        assert base.config_hash() != normed.config_hash()
        wider = FeatureConfig(norm_mean=tuple([0.0] * 40), norm_std=tuple([2.0] * 40))
        assert normed.config_hash() != wider.config_hash()
        assert len(base.config_hash()) == 32
        # Model files store this digest: it must not drift between versions.
        assert base.config_hash().hex() == (
            "87a44df8266814ef7bf8e553c86549ede5e78357c8e31b6c251aa76db0e31a19")


class TestSidecar:
    NORMED = FeatureConfig(norm_mean=tuple(np.linspace(-3.0, 1.0, 40).tolist()),
                           norm_std=tuple(np.linspace(0.5, 2.0, 40).tolist()))

    def test_round_trip_keeps_the_hash(self, tmp_path):
        # The last config holds numpy floats, which the sidecar loads back
        # as Python floats.
        numpy_floats = FeatureConfig(norm_mean=tuple(np.linspace(-3.0, 1.0, 40)),
                                     norm_std=tuple(np.linspace(0.5, 2.0, 40)))
        for config in (CFG, self.NORMED, numpy_floats):
            save_feature_config(config, tmp_path / "frontend.npz")
            loaded = load_feature_config(tmp_path / "frontend.npz")
            assert loaded == config
            assert loaded.config_hash() == config.config_hash()
        assert numpy_floats.config_hash() == self.NORMED.config_hash()

    def test_truncated_or_not_an_archive_rejected(self, tmp_path):
        path = tmp_path / "frontend.npz"
        save_feature_config(self.NORMED, path)
        blob = path.read_bytes()
        for bad in (blob[: len(blob) // 2], blob[:-1], b"", b"not a sidecar\n"):
            path.write_bytes(bad)
            with pytest.raises(DatasetError, match="not a frontend sidecar"):
                load_feature_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "frontend.npz"
        save_feature_config(self.NORMED, path)
        with np.load(path) as z:
            fields = {k: z[k] for k in z.files if k != "norm_std"}
        np.savez(path, **fields)
        with pytest.raises(DatasetError, match="norm_std"):
            load_feature_config(path)

    def test_sidecar_that_also_stores_the_recipe_loads(self, tmp_path):
        # Earlier sidecars stored the recipe's values next to the
        # normalization; they load, and their hash still matches the model.
        path = tmp_path / "frontend.npz"
        np.savez(path, sample_rate=16000, window_ms=40, hop_ms=20, mel_bins=40,
                 fft_size=1024, log_floor=1e-6, f_lo=20.0, f_hi=7600.0, has_norm=True,
                 norm_mean=np.asarray(self.NORMED.norm_mean),
                 norm_std=np.asarray(self.NORMED.norm_std))
        assert load_feature_config(path).config_hash() == self.NORMED.config_hash()

    @pytest.mark.parametrize("key, index, value", [
        ("norm_mean", 3, np.nan),
        ("norm_mean", 0, -np.inf),
        ("norm_std", 5, 0.0),   # features divided by it became inf
        ("norm_std", 39, -1.0),
        ("norm_std", 0, np.nan),
        ("norm_std", 7, np.inf),
    ])
    def test_normalization_outside_its_range_rejected(self, tmp_path, key, index, value):
        # These loaded, and a model with a matching hash then exited 3 at
        # "cannot quantize non-finite values".
        path = tmp_path / "frontend.npz"
        save_feature_config(self.NORMED, path)
        with np.load(path) as z:
            fields = {k: z[k] for k in z.files}
        fields[key][index] = value
        np.savez(path, **fields)
        with pytest.raises(DatasetError, match="finite means and deviations > 0"):
            load_feature_config(path)

    @pytest.mark.parametrize("key", ["norm_mean", "norm_std"])
    def test_normalization_length_must_be_mel_bins(self, tmp_path, key):
        path = tmp_path / "frontend.npz"
        save_feature_config(self.NORMED, path)
        with np.load(path) as z:
            fields = {k: z[k] for k in z.files}
        fields[key] = fields[key][:-1]
        np.savez(path, **fields)
        with pytest.raises(DatasetError, match="mel_bins = 40"):
            load_feature_config(path)


class TestMelScale:
    def test_round_trip(self):
        f = np.array([20.0, 440.0, 1000.0, 7600.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_filterbank_shape_and_coverage(self):
        bank = mel_filterbank(CFG)
        assert bank.shape == (40, 513)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)
        peaks = bank.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)  # center frequencies increase


class TestLogMelFrame:
    def test_zero_input_hits_log_floor(self):
        frame = log_mel_frames(np.zeros(640), CFG)
        assert frame.shape == (40,)
        np.testing.assert_allclose(frame, np.log(CFG.log_floor), rtol=0, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 640))
        windowed = x * (0.5 * (1 - np.cos(2 * np.pi * np.arange(640) / 640)))
        power = np.abs(np.fft.rfft(windowed, n=1024)) ** 2 * power_scale(1024)
        assert power.shape == (5, 513)
        np.testing.assert_allclose(power.sum(axis=1), (windowed**2).sum(axis=1), rtol=1e-6)

    def test_pure_tone_lands_in_right_bin(self):
        # 1 kHz sits exactly on FFT bin 64; the hottest mel bin must be the
        # one whose triangle peaks there.
        t = np.arange(640) / 16000
        tone = np.sin(2 * np.pi * 1000.0 * t)
        frame = log_mel_frames(tone, CFG)
        bank = mel_filterbank(CFG)
        assert frame.argmax() == bank[:, 64].argmax()

    def test_wrong_length_rejected(self):
        for shape in [(641,), (3, 641), ()]:
            with pytest.raises(ValueError):
                log_mel_frames(np.zeros(shape), CFG)

    def test_rows_do_not_depend_on_the_batch(self):
        # Any batch shape gives each window exactly its 1-D result.
        rng = np.random.default_rng(4)
        windows = rng.uniform(-1.0, 1.0, (2, 3, 640))
        batched = log_mel_frames(windows, CFG)
        assert batched.shape == (2, 3, 40)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(batched[i, j], log_mel_frames(windows[i, j], CFG))


class TestFeaturize:
    def test_one_second_gives_49_frames(self):
        feats = featurize_utterance(np.zeros(16000), CFG)
        assert feats.shape == (49, 40)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            featurize_utterance(np.zeros(15999), CFG)

    def test_silence_is_flat_at_floor(self):
        feats = featurize_utterance(np.zeros(16000), CFG)
        np.testing.assert_allclose(feats, np.log(CFG.log_floor), atol=1e-9)

    def test_streaming_equals_offline_bit_exact(self):
        rng = np.random.default_rng(1)
        signal = rng.uniform(-0.5, 0.5, 16000)
        offline = featurize_signal(signal, CFG)
        for trial in range(8):
            srng = np.random.default_rng(100 + trial)
            stream = StreamFeaturizer(CFG)
            frames = []
            pos = 0
            while pos < signal.size:
                n = int(srng.integers(1, 700))
                frames.extend(stream.push(signal[pos : pos + n]))
                pos += n
            np.testing.assert_array_equal(np.stack(frames), offline)

    def test_streaming_with_normalization(self):
        cfg = FeatureConfig(
            norm_mean=tuple(float(i) / 40 for i in range(40)),
            norm_std=tuple(1.0 + i / 40 for i in range(40)),
        )
        rng = np.random.default_rng(2)
        signal = rng.uniform(-0.5, 0.5, 8000)
        stream = StreamFeaturizer(cfg)
        frames = stream.push(signal)
        np.testing.assert_array_equal(np.stack(frames), featurize_signal(signal, cfg))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(640, 6000),
    seed=st.integers(0, 2**32 - 1),
    normalized=st.booleans(),
    max_chunk=st.sampled_from([1, 320, 700, 5000]),
    pcm=st.sampled_from([None, np.float32, np.float64]),
)
def test_stream_offline_and_reference_agree(n, seed, normalized, max_chunk, pcm):
    rng = np.random.default_rng(seed)
    signal = rng.uniform(-1.0, 1.0, n) * rng.choice([1e-4, 0.1, 1.0])
    if pcm is not None:  # on the PCM16 grid, as load_wav returns it (float32) or as float64
        signal = (np.clip(np.rint(signal * 32768), -32768, 32767) / 32768).astype(pcm)
    cfg = FeatureConfig(
        norm_mean=tuple(float(v) for v in rng.standard_normal(40)),
        norm_std=tuple(float(v) for v in rng.uniform(0.5, 3.0, 40)),
    ) if normalized else CFG
    offline = featurize_signal(signal, cfg)
    assert np.array_equal(offline, reference_frames(signal, cfg))
    stream = StreamFeaturizer(cfg)
    frames, pos = [], 0
    while pos < n:
        k = int(rng.integers(1, max_chunk + 1))
        frames.extend(stream.push(signal[pos : pos + k]))
        pos += k
    assert np.array_equal(np.stack(frames), offline)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 193),  # past a 1 s clip's 49 windows and a 3 s signal's 149
    seed=st.integers(0, 2**32 - 1),
    normalized=st.booleans(),
    split=st.sampled_from(["flat", "one", "two"]),
)
def test_kernel_rows_exact_at_any_batch_size(n, seed, normalized, split):
    # Every window gets its own amplitude, so tiny and loud rows share a batch.
    rng = np.random.default_rng(seed)
    amps = rng.choice([0.0, 1e-160, 1e-4, 1.0], size=(n, 1))
    windows = rng.uniform(-1.0, 1.0, (n, 640)) * amps
    cfg = FeatureConfig(
        norm_mean=tuple(float(v) for v in rng.standard_normal(40)),
        norm_std=tuple(float(v) for v in rng.uniform(0.5, 3.0, 40)),
    ) if normalized else CFG
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    lead = {"flat": (n,), "one": (1, n),
            "two": (int(rng.choice(divisors)), -1)}[split]
    batched = log_mel_frames(windows.reshape(lead + (640,)), cfg).reshape(n, 40)
    for i in range(n):
        assert np.array_equal(batched[i], log_mel_frames(windows[i], cfg))
        assert np.array_equal(batched[i], reference_frames(windows[i], cfg)[0])


def test_three_second_signal_equals_reference():
    # 149 frames, three times the windows of the 1 s clips eval featurizes.
    rng = np.random.default_rng(7)
    signal = rng.uniform(-0.5, 0.5, 3 * 16000)
    feats = featurize_signal(signal, CFG)
    assert feats.shape == (149, 40)
    assert np.array_equal(feats, reference_frames(signal, CFG))


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.9, 0.9, 16)
        path = tmp_path / "clip.wav"
        write_wav(path, samples)
        back = load_wav(path)
        np.testing.assert_allclose(back, samples, atol=1.0 / 32768)

    def test_all_zero(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(path, np.zeros(100))
        np.testing.assert_array_equal(load_wav(path), np.zeros(100))

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "slow.wav"
        write_wav(path, np.zeros(100), rate=8000)
        with pytest.raises(WavFormatError, match="8000"):
            load_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_every_pcm_value_converts_exactly(self, tmp_path):
        pcm = np.arange(-32768, 32768, dtype=np.int16)
        path = tmp_path / "all.wav"
        write_wav(path, pcm / 32768.0)
        back = load_wav(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, pcm.astype(np.float64) / 32768)

    def test_header_cut_short_rejected(self, tmp_path):
        # Cuts at 0-7 and 20-35 bytes escaped as EOFError.
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros(100))
        blob = path.read_bytes()
        for n in range(44):  # the canonical PCM header is 44 bytes
            path.write_bytes(blob[:n])
            with pytest.raises(WavFormatError, match="not a valid WAV"):
                load_wav(path)

    def test_data_ending_mid_sample_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros(100))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(WavFormatError, match="mid-sample"):
            load_wav(path)

    def test_data_shorter_than_declared_rejected(self, tmp_path):
        # readframes returns only the bytes the file holds, without error, so
        # only the header's declared count shows the loss.
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros(1000))
        blob = path.read_bytes()
        path.write_bytes(blob[:44 + 200])
        with pytest.raises(WavFormatError, match="declares 1000 samples, the file holds 100"):
            load_wav(path)
        for n in range(44, len(blob)):  # every cut after the 44-byte header
            path.write_bytes(blob[:n])
            with pytest.raises(WavFormatError, match="mid-sample" if n % 2 else "declares"):
                load_wav(path)
        path.write_bytes(blob)
        np.testing.assert_array_equal(load_wav(path), np.zeros(1000))

    def test_pad_or_crop(self):
        short = np.ones(100)
        padded = pad_or_crop(short, 160)
        assert padded.size == 160
        np.testing.assert_array_equal(padded[:60], 0.0)  # front-padded
        np.testing.assert_array_equal(padded[60:], 1.0)
        np.testing.assert_array_equal(pad_or_crop(np.arange(10.0), 4), np.arange(6.0, 10.0))
        # load_wav's float32 stays float32, padded or cropped.
        padded = pad_or_crop(short.astype(np.float32), 160)
        assert padded.dtype == np.float32
        np.testing.assert_array_equal(padded, np.r_[np.zeros(60), np.ones(100)])
        cropped = pad_or_crop(np.arange(10, dtype=np.float32), 4)
        assert cropped.dtype == np.float32
        np.testing.assert_array_equal(cropped, np.arange(6.0, 10.0))


class TestWhichSet:
    def test_same_speaker_same_split(self):
        for sid in ("abc123", "spk0007", "deadbeef"):
            splits = {which_set(f"{sid}_nohash_{take}.wav") for take in range(5)}
            assert len(splits) == 1

    def test_deterministic(self):
        assert all(
            which_set("a1_nohash_0.wav") == which_set("word/a1_nohash_0.wav")
            for _ in range(100)
        )

    def test_malformed_name_rejected(self):
        with pytest.raises(ValueError):
            which_set("noseparator.wav")

    def test_fractions_near_80_10_10(self):
        counts = {"train": 0, "val": 0, "test": 0}
        n = 20000
        for i in range(n):
            counts[which_set(f"speaker{i:06d}_nohash_0.wav")] += 1
        assert abs(counts["train"] / n - 0.80) < 0.015
        assert abs(counts["val"] / n - 0.10) < 0.015
        assert abs(counts["test"] / n - 0.10) < 0.015


def speaker_pct_formula(filename):
    """The split rule's percentage, hashed on every call, as the cache must
    reproduce it."""
    speaker = re.sub(r"_nohash_.*$", "", os.path.basename(filename))
    digest = hashlib.sha1(speaker.encode("utf-8")).hexdigest()
    return (int(digest, 16) % (MAX_WAVS_PER_SPEAKER + 1)) * (100.0 / MAX_WAVS_PER_SPEAKER)


NAME_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
                    max_size=4)
SPEAKER_PIECES = st.sampled_from(
    [".", "*", "+", "?", "$", "^", "|", "\\", "(", ")", "[", "]", "{", "}",
     "_nohash_", "\n", "ü", "字", "🎤"]) | NAME_TEXT


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(SPEAKER_PIECES, max_size=6), take=NAME_TEXT)
# "." stops at a newline, so these two keep "_nohash_" in the speaker id.
@example(pieces=["a", "_nohash_", "\n", "b"], take="0")
@example(pieces=["spk"], take="\n")
def test_which_set_cache_equals_the_formula(pieces, take):
    name = f"word/{''.join(pieces)}_nohash_{take}.wav"
    pct = speaker_pct_formula(name)
    speaker = re.sub(r"_nohash_.*$", "", os.path.basename(name))
    for _ in range(2):  # the second round reads the cache
        assert _speaker_pct(speaker) == pct
        assert which_set(name) == ("val" if pct < 10.0 else "test" if pct < 20.0 else "train")


def test_which_set_cache_is_bounded():
    size = _speaker_pct.cache_info().maxsize
    assert size is not None
    for i in range(size + 10):
        which_set(f"bounded{i}_nohash_0.wav")
    assert _speaker_pct.cache_info().currsize == size


@pytest.fixture(scope="module")
def toy_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("toycorpus")
    generate_toy_dataset(root, keywords=("yes", "no"), unknown_words=("wow", "zero"),
                         speakers=30, takes=2, seed=0)
    return root


class TestBuildDataset:
    def test_twelve_labels(self, toy_root):
        manifest = build_dataset(toy_root, ["yes", "no"])
        assert len(manifest.label_names) == 12
        assert manifest.label_names[10] == "_silence_"
        assert manifest.label_names[11] == "_unknown_"
        labels = {e.label for e in manifest.entries}
        assert labels == {0, 1, SILENCE_LABEL, UNKNOWN_LABEL}

    def test_no_speaker_leakage(self, toy_root):
        manifest = build_dataset(toy_root, ["yes", "no"])
        speakers = {"train": set(), "val": set(), "test": set()}
        for e in manifest.entries:
            if e.label == SILENCE_LABEL:
                continue
            name = e.path.split("/")[-1]
            speakers[e.split].add(name.split("_nohash_")[0])
        assert not speakers["train"] & speakers["test"]
        assert not speakers["train"] & speakers["val"]

    def test_ratios(self, toy_root):
        manifest = build_dataset(toy_root, ["yes", "no"])
        n_kw = sum(1 for e in manifest.entries if e.label < 10)
        n_sil = sum(1 for e in manifest.entries if e.label == SILENCE_LABEL)
        n_unk = sum(1 for e in manifest.entries if e.label == UNKNOWN_LABEL)
        assert n_kw == 120  # 2 words x 30 speakers x 2 takes
        assert n_sil == 12 and n_unk == 12

    def test_missing_keyword_folder(self, toy_root):
        with pytest.raises(DatasetError, match="missing"):
            build_dataset(toy_root, ["yes", "backflip"])

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetError):
            build_dataset(tmp_path / "nope", ["yes"])

    def test_label_name_padding(self):
        names = twelve_label_names(["yes", "no"])
        assert len(names) == 12 and names[0] == "yes" and names[2] == "(unused2)"
        with pytest.raises(ValueError):
            twelve_label_names([str(i) for i in range(11)])
        for n in range(11):  # the label layout holds for every keyword count
            names = twelve_label_names([f"w{i}" for i in range(n)])
            assert len(names) == N_LABELS
            assert names[SILENCE_LABEL] == "_silence_" and names[UNKNOWN_LABEL] == "_unknown_"

    def test_repeated_keyword_rejected(self, toy_root):
        # The manifest listed every yes clip twice, under two labels named yes.
        with pytest.raises(ValueError, match="distinct"):
            build_dataset(toy_root, ["yes", "no", "yes"])

    def test_toy_word_without_a_recipe_writes_nothing(self, tmp_path):
        # Every yes/*.wav was written before "up" was refused.
        root = tmp_path / "toy"
        with pytest.raises(ValueError, match="no synthetic recipe for word 'up'"):
            generate_toy_dataset(root, keywords=("yes", "up"), speakers=1, takes=1)
        assert not root.exists()

    @pytest.mark.parametrize("keywords, unknown_words", [
        (("yes", "yes"), ("wow",)),
        (("yes", "no"), ("zero", "no")),
        (("yes",), ("wow", "wow")),
    ])
    def test_toy_word_listed_twice_writes_nothing(self, tmp_path, keywords, unknown_words):
        # The second pass over a word overwrote the first with later draws.
        root = tmp_path / "toy"
        with pytest.raises(ValueError, match="listed more than once"):
            generate_toy_dataset(root, keywords=keywords, unknown_words=unknown_words,
                                 speakers=1, takes=1)
        assert not root.exists()


class TestMaterializeFeatures:
    def test_shapes_and_normalization(self, toy_root):
        manifest = build_dataset(toy_root, ["yes", "no"])
        data = materialize_features(manifest, FeatureConfig())
        assert data.train_x.shape[1:] == (49, 40)
        assert data.train_x.shape[0] == data.train_y.shape[0]
        flat = data.train_x.reshape(-1, 40)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-6)
        assert data.config.norm_mean is not None
        assert len(data.frontend_hash) == 32

    def test_one_split_through_its_sidecar_equals_materialized(self, toy_root, tmp_path):
        # What `lmukws eval` does: each clip of one split on its own, with the
        # normalization read back from the sidecar, bit for bit.
        manifest = build_dataset(toy_root, ["yes", "no"])
        data = materialize_features(manifest, FeatureConfig())
        save_feature_config(data.config, tmp_path / "frontend.npz")
        config = load_feature_config(tmp_path / "frontend.npz")
        picked = [i for i, e in enumerate(manifest.entries) if e.split == "test"]
        assert any(manifest.entries[i].label == SILENCE_LABEL for i in picked)
        x = np.stack([featurize_utterance(load_clip(manifest, i), config)
                      for i in picked])
        assert np.array_equal(x, data.test_x)

    def test_deterministic(self, toy_root):
        manifest = build_dataset(toy_root, ["yes", "no"])
        a = materialize_features(manifest, FeatureConfig())
        b = materialize_features(manifest, FeatureConfig())
        np.testing.assert_array_equal(a.train_x, b.train_x)
        assert a.frontend_hash == b.frontend_hash
