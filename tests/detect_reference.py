"""The detection loop ``lmukws stream`` wrote inline before ``detect.Detector``:
the reference the detector tests compare against.

``stream_logits`` is the command's read loop, one hop of samples at a time
through the streaming featurizer and the engine.  ``inline_detect`` is its
detection loop, verbatim but for two changes: it takes each hop's logits as
given, and it also counts the hops its cooldown kept from a detection.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np

from lmukws.frontend import SILENCE_LABEL, UNKNOWN_LABEL, StreamFeaturizer
from lmukws.qmodel import QuantStreamState, quantized_forward


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def stream_logits(qm, feat_cfg, samples):
    """Each hop's (1, 12) logits, the WAV read one hop at a time."""
    featurizer = StreamFeaturizer(feat_cfg)
    state = QuantStreamState(qm)
    hop = feat_cfg.hop_samples
    for start in range(0, len(samples), hop):
        for frame in featurizer.push(samples[start:start + hop]):
            logits, state = quantized_forward(qm, frame[None, :], state)
            yield logits


def inline_detect(qm, hop_s, hop_logits, smooth, threshold, refractory):
    """The posteriors.csv rows, the smoothed posteriors, the detections, the
    hop count and the suppressed hops of the inline loop over ``hop_logits``."""
    recent = deque(maxlen=smooth)
    hop_index = 0
    cooldown = 0
    detections = []
    rows = ["time_s," + ",".join(qm.label_names)]
    all_smoothed, suppressed = [], 0
    for logits in hop_logits:
        posterior = _softmax(logits[-1] * 2.0 ** qm.logits_exp)
        recent.append(posterior)
        smoothed = np.mean(recent, axis=0)
        t = hop_index * hop_s
        rows.append(f"{t:.2f}," + ",".join(f"{p:.4f}" for p in smoothed))
        best = int(np.argmax(smoothed))
        if cooldown > 0:
            cooldown -= 1
            suppressed += best not in (SILENCE_LABEL, UNKNOWN_LABEL) and smoothed[best] >= threshold
        elif best not in (SILENCE_LABEL, UNKNOWN_LABEL) and smoothed[best] >= threshold:
            detections.append((t, qm.label_names[best], float(smoothed[best])))
            cooldown = refractory
        hop_index += 1
        all_smoothed.append(smoothed)
    return SimpleNamespace(rows=rows, smoothed=all_smoothed, detections=detections,
                           hops=hop_index, suppressed=suppressed)
