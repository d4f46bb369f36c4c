"""The benchmark's three workloads.

Each workload calls only the public functions of the ``lmukws`` modules and
has four phases:

  prepare()     make the inputs from the seed (toy corpus, seeded weights)
                and write them to the work directory; runs in its own
                process, so the measured process holds none of its memory
  setup()       what a user pays before the first result: load or build
                the model; timed separately as ``setup_s``
  load_inputs() read what run() and check() need from the work directory
  run(seconds)  the timed section; returns a Timing
  check()       correctness checks on what run() produced, outside the
                timed section; returns a Check

Why each workload exists, and which layer metric should move which
end-to-end metric, is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import resource
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from lmukws import cli, configs, frontend, hwmodel, lmu, modelfile, qmodel, training

KEYWORDS = ("yes", "no")
UNKNOWN_WORDS = ("wow", "zero")

# cmd_stream's defaults: smoothing window, threshold, refractory hops, chunk.
SMOOTH, THRESHOLD, REFRACTORY, CHUNK = 5, 0.7, 10, 320
# Hop latency percentiles are taken per window of this many rounds (about
# 1,600 samples, so p99 has 16 beyond it), and the median over windows is
# reported: a brief stall of the machine then moves one window, not the result.
WINDOW_ROUNDS = 100

# Units of work and latencies are timed on the process's CPU clock
# (CLOCK_PROCESS_CPUTIME_ID).  On a shared VM that clock leaves out the time
# the hypervisor gives this vCPU to other guests (steal), which made one
# eval command 35% longer in wall time and the ten-run spread of wall-clock
# eval figures exceed the bounds.  The work is single-threaded, CPU-bound
# and reads only page-cached files, so on an uncontended machine the two
# clocks agree.  Run lengths and deadlines stay on the wall clock, and the
# wall time of the units is kept for the report.
clock = process_time


class BenchError(RuntimeError):
    """The benchmark's inputs or set-up are unusable."""


@dataclass
class Timing:
    audio_per_unit_s: float  # seconds of audio one unit of work serves or uses
    units_s: list  # CPU time of each unit of work: a round, a command, a train() call
    latency_windows: list  # latency samples (s), in windows of the timed section
    peak_rss_mb: float  # peak resident set once the first unit of work is done
    wall_s: float  # wall-clock time of all the units of work together


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def macs_from_shapes(qm: qmodel.QuantizedModel) -> int:
    """MACs per frame the integer engine executes, read off the tensor shapes."""
    total = qm.output_weight.q.size + qm.output_bias.q.size
    for layer in qm.layers:
        total += layer.input_encoder.q.size + layer.hidden_encoder.q.size
        total += sum(c.A.q.size + c.B.q.size for c in layer.cells)
        total += layer.input_kernel.q.size + layer.memory_kernel.q.size + layer.bias.q.size
    return total


def check_macs(check: Check, qm: qmodel.QuantizedModel) -> int:
    macs = hwmodel.profile_workload(qm).macs_per_frame
    check.expect(macs_from_shapes(qm) == macs,
                 f"MACs from tensor shapes {macs_from_shapes(qm)} != profile_workload {macs}")
    return macs


def toy_dataset(root: Path, seed: int, speakers: int, takes: int) -> frontend.FeatureDataset:
    frontend.generate_toy_dataset(root, keywords=KEYWORDS, unknown_words=UNKNOWN_WORDS,
                                  speakers=speakers, takes=takes, seed=seed)
    manifest = frontend.build_dataset(root, KEYWORDS, seed=seed)
    return frontend.materialize_features(manifest, frontend.FeatureConfig())


def freeze_random(preset: str, ds: frontend.FeatureDataset, rng, calibration: int):
    """A preset with seeded random weights, the feedback and bias paths
    nonzero, calibrated on the corpus and frozen; returns (model, scales, qm)."""
    cfg = dataclasses.replace(configs.reference_config(preset), label_names=tuple(ds.label_names))
    model = lmu.build_model(cfg, rng)
    for layer in model.layers:
        # build_model's uniform fan-in rule; a larger feedback gain makes the
        # float model diverge for some seeds and the frozen logits constant.
        bound = np.sqrt(3.0 / layer.hidden_dim)
        layer.hidden_encoder[:] = rng.uniform(-bound, bound, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
    scales = qmodel.calibrate_activation_scales(model, ds.train_x[:calibration])
    qm = qmodel.freeze(model, cfg.weight_bits, scales, frontend_hash=ds.frontend_hash)
    logits, _ = qmodel.quantized_forward(qm, ds.train_x[0])
    if np.unique(logits, axis=0).shape[0] < 2:
        raise BenchError(f"{preset} with seeded weights gives constant logits")
    return model, scales, qm


def peak_rss_mb() -> float:
    """Peak resident set of this process so far.

    Read after the first unit of work: repeating the same work only adds
    allocator fragmentation, which varies from run to run.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quiet_cli(argv) -> tuple:
    """Run the lmukws command line in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stream: many concurrent streams through the deployed path
# ---------------------------------------------------------------------------

class Detector:
    """Smoothing, threshold and refractory detector, as in ``lmukws stream``."""

    def __init__(self, qm: qmodel.QuantizedModel, hop_s: float):
        self.scale = 2.0 ** qm.logits_exp
        self.labels = qm.label_names
        self.hop_s = hop_s
        self.recent = deque(maxlen=SMOOTH)
        self.cooldown = 0
        self.hop = 0

    def step(self, logits: np.ndarray):
        """One hop's integer logits -> (smoothed posterior, detection or None)."""
        v = logits * self.scale
        e = np.exp(v - v.max())
        self.recent.append(e / e.sum())
        smoothed = np.mean(self.recent, axis=0)
        best = int(np.argmax(smoothed))
        detection = None
        if self.cooldown > 0:
            self.cooldown -= 1
        elif (best not in (frontend.SILENCE_LABEL, frontend.UNKNOWN_LABEL)
              and smoothed[best] >= THRESHOLD):
            detection = (self.hop * self.hop_s, self.labels[best], float(smoothed[best]))
            self.cooldown = REFRACTORY
        self.hop += 1
        return smoothed, detection


@dataclass
class StreamPass:
    """What one pass over the WAVs served.  Only the first pass of a process
    keeps frames, posteriors and detections, so memory does not grow with
    the number of passes a run fits in."""

    logits: np.ndarray  # (streams, frames, 12) int64
    hops: list  # hops served per stream
    frames: list | None = None  # per stream, list of frames
    smoothed: list | None = None  # per stream, list of smoothed posteriors
    detections: list | None = None  # per stream, list of (t, label, p)


class StreamWorkload:
    """16 streams of 10 s served hop by hop in lock-step rounds (closed loop)."""

    name = "stream"
    preset = "lmu2"
    streams = 16
    stream_clips = 10  # one-second pieces per stream

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.model_path = work / "model.lmuq"
        self.frontend_path = work / "frontend.npz"
        self.wavs = [work / f"stream{k:02d}.wav" for k in range(self.streams)]
        self.passes = []  # one StreamPass per pass over the WAVs

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        clips = self.work / "clips"
        ds = toy_dataset(clips, self.seed, speakers=8, takes=2)
        words = [frontend.load_wav(p) for p in sorted(clips.glob("*/*.wav"))
                 if p.parent.name != frontend.BACKGROUND_DIR]
        noise = [frontend.load_wav(p)
                 for p in sorted((clips / frontend.BACKGROUND_DIR).glob("*.wav"))]
        rate = ds.config.sample_rate
        for path in self.wavs:
            pieces = []
            for _ in range(self.stream_clips):
                if rng.random() < 0.25:  # a second of background noise
                    bg = noise[rng.integers(len(noise))]
                    off = int(rng.integers(0, bg.size - rate))
                    pieces.append(bg[off:off + rate])
                else:
                    pieces.append(words[rng.integers(len(words))])
            frontend.write_wav(path, np.concatenate(pieces), rate)
        _, _, qm = freeze_random(self.preset, ds, rng, calibration=16)
        modelfile.save_model(qm, self.model_path)
        frontend.save_feature_config(ds.config, self.frontend_path)

    def load_inputs(self) -> None:
        self.signals = [frontend.load_wav(p) for p in self.wavs]

    def setup(self) -> None:
        self.qm = modelfile.load_model(self.model_path)
        self.feat_cfg = frontend.load_feature_config(self.frontend_path)
        if self.feat_cfg.config_hash() != self.qm.frontend_hash:
            raise BenchError("frontend sidecar does not match the model")

    def run(self, seconds: float, tracer=None) -> Timing:
        qm, cfg, signals = self.qm, self.feat_cfg, self.signals
        hop_s = cfg.hop_samples / cfg.sample_rate
        n_rounds = -(-max(s.size for s in signals) // CHUNK)
        n_frames = (max(s.size for s in signals) - cfg.window_samples) // cfg.hop_samples + 1
        latencies, rounds, round_ends = [], [], []
        rss = wall = 0.0
        passes_before = len(self.passes)
        deadline = perf_counter() + seconds
        done = False
        while not done:  # the first pass always completes; later ones stop at the deadline
            featurizers = [frontend.StreamFeaturizer(cfg) for _ in signals]
            states = [qmodel.QuantStreamState(qm) for _ in signals]
            detectors = [Detector(qm, hop_s) for _ in signals]
            served = StreamPass(logits=np.zeros((len(signals), n_frames, 12), dtype=np.int64),
                                hops=[0] * len(signals))
            keep = not self.passes
            if keep:
                served.frames, served.smoothed, served.detections = (
                    [[] for _ in signals] for _ in range(3))
            self.passes.append(served)
            for r in range(n_rounds):
                lo = r * CHUNK
                w_round, t_round = perf_counter(), clock()
                for k, signal in enumerate(signals):
                    if tracer is not None:
                        tracer.new_op()
                    for frame in featurizers[k].push(signal[lo:lo + CHUNK]):
                        logits, states[k] = qmodel.quantized_forward(qm, frame[None, :], states[k])
                        smoothed, detection = detectors[k].step(logits[-1])
                        latencies.append(clock() - t_round)
                        served.logits[k, served.hops[k]] = logits[-1]
                        served.hops[k] += 1
                        if keep:
                            served.frames[k].append(frame)
                            served.smoothed[k].append(smoothed)
                            if detection is not None:
                                served.detections[k].append(detection)
                rounds.append(clock() - t_round)
                wall += perf_counter() - w_round
                round_ends.append(len(latencies))
                if len(self.passes) > passes_before + 1 and perf_counter() >= deadline:
                    done = True
                    break
            else:
                done = perf_counter() >= deadline
            rss = rss or peak_rss_mb()
        ends = round_ends[WINDOW_ROUNDS - 1::WINDOW_ROUNDS] or [len(latencies)]
        ends[-1] = len(latencies)  # a short tail joins the last window
        windows = [latencies[a:b] for a, b in zip([0] + ends[:-1], ends)]
        return Timing(audio_per_unit_s=len(signals) * CHUNK / cfg.sample_rate,
                      units_s=rounds, latency_windows=windows, peak_rss_mb=rss, wall_s=wall)

    def posteriors_csv(self, smoothed: list) -> bytes:
        hop_s = self.feat_cfg.hop_samples / self.feat_cfg.sample_rate
        rows = ["time_s," + ",".join(self.qm.label_names)]
        rows += [f"{j * hop_s:.2f}," + ",".join(f"{p:.4f}" for p in sm)
                 for j, sm in enumerate(smoothed)]
        return ("\n".join(rows) + "\n").encode()

    def check(self) -> Check:
        qm, cfg = self.qm, self.feat_cfg
        first = self.passes[0]
        chk = Check()
        self.macs_per_frame = check_macs(chk, qm)
        # Streamed frames == offline featurization of the whole WAV (first
        # pass), and every served hop's logits == one offline
        # quantized_forward over those frames (every pass).
        for k, signal in enumerate(self.signals):
            ref_frames = frontend.featurize_signal(signal, cfg)
            ref_logits, _ = qmodel.quantized_forward(qm, ref_frames)
            chk.expect(len(first.frames[k]) == len(ref_frames)
                       and np.array_equal(np.stack(first.frames[k]), ref_frames),
                       f"stream {k}: streamed frames differ from featurize_signal")
            for p, served in enumerate(self.passes):
                got = served.logits[k, :served.hops[k]]
                bad = np.flatnonzero((got != ref_logits[:len(got)]).any(axis=1))
                chk.attempted += len(got)
                chk.failed += len(bad)
                if len(bad) and len(chk.notes) < 10:
                    chk.notes.append(f"stream {k} pass {p}: {len(bad)} hops' logits differ "
                                     f"from offline, the first at hop {bad[0]}")
        # The bench's detector against what `lmukws stream` writes for stream 0.
        out = self.work / "cli-stream"
        rc, stdout = quiet_cli(["stream", "--model", str(self.model_path),
                                "--frontend", str(self.frontend_path),
                                "--wav", str(self.wavs[0]), "--out-dir", str(out)])
        lines = [f"t={t:.2f}s  {label}  p={p:.3f}" for t, label, p in first.detections[0]]
        lines = lines or ["no detections"]
        lines.append(f"processed {first.hops[0]} hops; wrote {out / 'posteriors.csv'}")
        chk.expect(rc == 0 and stdout == "\n".join(lines) + "\n"
                   and (out / "posteriors.csv").read_bytes() == self.posteriors_csv(first.smoothed[0]),
                   "detector output differs from `lmukws stream`")
        parts = [first.logits.astype("<i8").tobytes()]
        for k, found in enumerate(first.detections):
            parts += [f"{k},{t!r},{label},{p!r}\n".encode() for t, label, p in found]
        chk.digest = sha256(*parts)
        return chk


# ---------------------------------------------------------------------------
# eval: the `lmukws eval` command, streaming mode, on a ~860-clip corpus
# ---------------------------------------------------------------------------

class EvalWorkload:
    """In-process `lmukws eval --split test --mode streaming`, repeated."""

    name = "eval"
    preset = "toy"
    speakers, takes = 120, 3  # 720 keyword clips + 72 unknown + 72 silence

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.root = work / "corpus"
        self.model_path = work / "model.lmuq"
        self.frontend_path = work / "frontend.npz"
        self.out = work / "eval-out"
        self.check_data = work / "check.npz"
        self.reports = []  # (exit code, eval-report.txt bytes) per command

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        ds = toy_dataset(self.root, self.seed, self.speakers, self.takes)
        model, scales, qm = freeze_random(self.preset, ds, rng, calibration=32)
        modelfile.save_model(qm, self.model_path)
        frontend.save_feature_config(ds.config, self.frontend_path)
        # What check() needs: the float model and scales for the HAT graph,
        # and the test split the command evaluates.
        np.savez(self.check_data, clips=len(ds.train_y) + len(ds.val_y) + len(ds.test_y),
                 test_x=ds.test_x, test_y=ds.test_y, input_exp=scales.input_exp,
                 layer_exps=np.array(scales.layer_exps), **dict(model.trainable_tensors()))

    def load_inputs(self) -> None:
        with np.load(self.check_data) as z:
            self.clips = int(z["clips"])

    def setup(self) -> None:
        self.qm = modelfile.load_model(self.model_path)
        self.feat_cfg = frontend.load_feature_config(self.frontend_path)
        if self.feat_cfg.config_hash() != self.qm.frontend_hash:
            raise BenchError("frontend sidecar does not match the model")

    def run(self, seconds: float, tracer=None) -> Timing:
        argv = ["eval", "--model", str(self.model_path), "--data-root", str(self.root),
                "--keywords", ",".join(KEYWORDS), "--split", "test", "--mode", "streaming",
                "--seed", str(self.seed), "--out-dir", str(self.out)]
        latencies = []
        rss = wall = 0.0
        start = perf_counter()
        while not latencies or perf_counter() - start < seconds:
            if tracer is not None:
                tracer.new_op()
            w0, t0 = perf_counter(), clock()
            rc, _ = quiet_cli(argv)
            latencies.append(clock() - t0)
            wall += perf_counter() - w0
            self.reports.append((rc, (self.out / "eval-report.txt").read_bytes()))
            rss = rss or peak_rss_mb()
        return Timing(audio_per_unit_s=self.clips * 1.0, units_s=latencies,
                      latency_windows=[latencies], peak_rss_mb=rss, wall_s=wall)

    def check(self) -> Check:
        qm = self.qm
        cfg = dataclasses.replace(configs.reference_config(self.preset),
                                  label_names=tuple(qm.label_names))
        model = lmu.build_model(cfg, None)
        with np.load(self.check_data) as z:
            x, y = z["test_x"], z["test_y"]
            scales = qmodel.ActivationScales(
                input_exp=int(z["input_exp"]),
                layer_exps=tuple(tuple(int(e) for e in row) for row in z["layer_exps"]))
            for name, tensor in model.trainable_tensors():
                tensor[...] = z[name]
        chk = Check()
        self.macs_per_frame = check_macs(chk, qm)
        cache = training.hat_forward(model, x, quant_on=True, scales=scales,
                                     weight_bits=qm.weight_bits)
        chk.expect(cache.logits_exp == qm.logits_exp, "HAT logits grid != engine grid")
        hat = cache.logits / 2.0 ** cache.logits_exp
        hat_right = streamed_right = 0
        for i in range(x.shape[0]):
            offline, _ = qmodel.quantized_forward(qm, x[i])
            state = qmodel.QuantStreamState(qm)
            streamed = np.empty_like(offline)
            for t in range(x.shape[1]):
                hop, state = qmodel.quantized_forward(qm, x[i, t][None, :], state)
                streamed[t] = hop[-1]
            chk.expect(np.array_equal(offline, streamed), f"test clip {i}: streaming != offline")
            chk.expect(np.array_equal(hat[i], offline), f"test clip {i}: HAT graph != engine")
            hat_right += int(np.argmax(hat[i, -1]) == y[i])
            streamed_right += int(np.argmax(streamed[-1]) == y[i])
        n = x.shape[0]
        expected = "\n".join([
            f"split test: {n} utterances",
            f"offline accuracy  {hat_right / n:.4f}",
            f"streaming accuracy {streamed_right / n:.4f}",
            f"majority baseline {training.majority_baseline(y):.4f}",
        ]) + "\n"
        for j, (rc, report) in enumerate(self.reports):
            chk.expect(rc == 0 and report == expected.encode(),
                       f"eval command {j}: exit {rc} or report differs from the HAT graph's")
        chk.digest = sha256(self.reports[0][1])
        return chk


# ---------------------------------------------------------------------------
# train: HAT training of the pruned lmu3 preset
# ---------------------------------------------------------------------------

class TrainWorkload:
    """training.train() on lmu3 (80% pruned), B=32: float warm-up,
    calibration, HAT with the cubic pruning ramp, freeze."""

    name = "train"
    preset = "lmu3"
    steps, batch = 40, 32
    speakers, takes = 40, 3  # 288 clips

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.root = work / "corpus"
        self.outcomes = []  # (problem or None, digest) per train() call
        self.last = None  # the last successful TrainResult
        self.macs_per_frame = 0  # set by check() from the frozen model

    def prepare(self) -> None:
        frontend.generate_toy_dataset(self.root, keywords=KEYWORDS, unknown_words=UNKNOWN_WORDS,
                                      speakers=self.speakers, takes=self.takes, seed=self.seed)

    def load_inputs(self) -> None:
        pass  # setup() featurizes the corpus

    def setup(self) -> None:
        manifest = frontend.build_dataset(self.root, KEYWORDS, seed=self.seed)
        self.ds = frontend.materialize_features(manifest, frontend.FeatureConfig())
        cfg = dataclasses.replace(configs.reference_config(self.preset),
                                  label_names=tuple(self.ds.label_names))
        model = lmu.build_model(cfg, np.random.default_rng(self.seed))
        self.init = {name: t.copy() for name, t in model.trainable_tensors()}
        self.config = training.TrainConfig(
            model=cfg, batch_size=self.batch, steps=self.steps,
            quant_on_step=self.steps // 2,
            prune_start=self.steps // 4, prune_end=3 * self.steps // 4,
            target_sparsity=cfg.target_sparsity, seed=self.seed, log_every=1,
        )

    def run(self, seconds: float, tracer=None) -> Timing:
        latencies = []
        rss = wall = 0.0
        start = perf_counter()
        while not latencies or perf_counter() - start < seconds:
            if tracer is not None:
                tracer.new_op()
            w0, t0 = perf_counter(), clock()
            try:
                result = training.train(self.config, self.ds, init_tensors=self.init)
            except training.TrainingError as exc:
                latencies.append(clock() - t0)
                wall += perf_counter() - w0
                self.outcomes.append((repr(exc), ""))
                continue
            latencies.append(clock() - t0)
            wall += perf_counter() - w0
            rss = rss or peak_rss_mb()
            problem = self.problem(result)
            self.outcomes.append((problem, "" if problem else self.digest_of(result)))
            if not problem:
                self.last = result
        return Timing(audio_per_unit_s=self.steps * self.batch * 1.0, units_s=latencies,
                      latency_windows=[latencies], peak_rss_mb=rss or peak_rss_mb(),
                      wall_s=wall)

    @staticmethod
    def problem(result) -> str | None:
        if result.quantized is None:
            return "no frozen model"
        if not all(np.isfinite(row["loss"]) for row in result.log):
            return "non-finite loss"
        return None

    def digest_of(self, result) -> str:
        path = self.work / "trained.lmuq"
        modelfile.save_model(result.quantized, path)
        log = "".join(f"{row['step']} {row['loss']!r} {row['quant_on']} {row['sparsity']!r}\n"
                      for row in result.log)
        return sha256(path.read_bytes(), log.encode())

    def check(self) -> Check:
        chk = Check()
        for j, (problem, _) in enumerate(self.outcomes):
            chk.expect(problem is None, f"train call {j}: {problem}")
        digests = {digest for problem, digest in self.outcomes if problem is None}
        chk.expect(len(digests) == 1, "train calls with one seed gave different models")
        if self.last is None:
            return chk
        last = self.last
        qm = last.quantized
        self.macs_per_frame = check_macs(chk, qm)
        x = self.ds.val_x
        cache = training.hat_forward(last.model, x, quant_on=True, scales=last.scales,
                                     weight_bits=qm.weight_bits)
        hat = cache.logits / 2.0 ** cache.logits_exp
        for i in range(x.shape[0]):
            logits, _ = qmodel.quantized_forward(qm, x[i])
            chk.expect(np.array_equal(hat[i], logits), f"val sequence {i}: HAT graph != engine")
        chk.digest = min(digests)
        return chk


WORKLOADS = {w.name: w for w in (StreamWorkload, EvalWorkload, TrainWorkload)}


def _frames(args, kwargs, result):
    return np.shape(args[1] if len(args) > 1 else kwargs["features"])[0]


def _forward_name(args, kwargs):
    return "qmodel.forward_hop" if _frames(args, kwargs, None) == 1 else "qmodel.forward_utt"


def _step_name(args, kwargs):
    return "training.step_hat" if kwargs.get("quant_on") else "training.step_float"


def _hat_forward_name(args, kwargs):
    return "training.hat_forward" if kwargs.get("quant_on") else "training.float_forward"


def _clips(args, kwargs, result):
    return len(args[0].entries)


def _pushed(args, kwargs, result):
    return len(result)


# (owner, attribute its caller looks up, span name, work units per call)
HOOKS = (
    (cli, "main", "cli.main", None),
    (Detector, "step", "cli.detect", None),
    (cli, "build_dataset", "frontend.build_dataset", None),
    (frontend, "build_dataset", "frontend.build_dataset", None),
    (cli, "materialize_features", "frontend.materialize", _clips),
    (frontend, "materialize_features", "frontend.materialize", _clips),
    (frontend, "load_wav", "frontend.load_wav", None),
    (frontend, "featurize_utterance", "frontend.featurize", None),
    (frontend.StreamFeaturizer, "push", "frontend.push", _pushed),
    (frontend, "load_feature_config", "frontend.load_config", None),
    (cli, "load_model", "modelfile.load", None),
    (modelfile, "load_model", "modelfile.load", None),
    (qmodel, "quantized_forward", _forward_name, _frames),
    (cli, "quantized_forward", _forward_name, _frames),
    (training, "quantized_forward", _forward_name, _frames),
    (training, "calibrate_activation_scales", "qmodel.calibrate", None),
    (training, "freeze", "qmodel.freeze", None),
    (qmodel, "requantize", "fixedpoint.requantize", None),
    (qmodel, "quantize", "fixedpoint.quantize", None),
    (training, "fake_quant", "fixedpoint.fake_quant", None),
    (training, "prune_magnitude", "fixedpoint.prune", None),
    (training, "apply_mask", "fixedpoint.apply_mask", None),
    (training, "train", "training.train", None),
    (training, "forward_backward", _step_name, None),
    (training, "hat_forward", _hat_forward_name, None),
    (training.Adam, "step", "training.adam", None),
    (cli, "evaluate", "training.evaluate", None),
    (lmu, "build_model", "lmu.build_model", None),
    (training, "build_model", "lmu.build_model", None),
)
