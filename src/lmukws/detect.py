"""Keyword detection over a stream of integer logits, one 20 ms hop at a time.

Each hop's logits become a softmax posterior, averaged with the posteriors
of the last ``smooth - 1`` hops.  A hop whose smoothed posterior puts its
largest probability, at least ``threshold``, on a keyword (not silence or
unknown) is a detection, and the ``refractory`` hops after it are not
tested.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .frontend import SILENCE_LABEL, UNKNOWN_LABEL, FeatureConfig


class Detector:
    """The detection state of one stream of ``qm``'s logits."""

    def __init__(self, qm, smooth: int, threshold: float, refractory: int):
        self.scale = 2.0 ** qm.logits_exp
        self.labels = qm.label_names
        self.threshold = threshold
        self.refractory = refractory
        self.recent = deque(maxlen=smooth)
        self.cooldown = 0
        self.hops = 0  # hops stepped so far

    @property
    def t(self) -> float:
        """Start of the latest hop stepped, in seconds."""
        return (self.hops - 1) * FeatureConfig.hop_s

    def step(self, logits: np.ndarray):
        """One hop's int64 logits (12,) -> (smoothed posterior, detection
        ``(t, label, p)`` or None)."""
        self.hops += 1
        v = logits * self.scale
        e = np.exp(v - v.max())
        self.recent.append(e / e.sum())
        # the rows added in order, as np.mean(recent, axis=0) adds them
        smoothed = sum(self.recent) / len(self.recent)
        best = int(np.argmax(smoothed))
        detection = None
        if self.cooldown > 0:
            self.cooldown -= 1
        elif best not in (SILENCE_LABEL, UNKNOWN_LABEL) and smoothed[best] >= self.threshold:
            detection = (self.t, self.labels[best], float(smoothed[best]))
            self.cooldown = self.refractory
        return smoothed, detection
