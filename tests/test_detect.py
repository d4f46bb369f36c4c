"""The library detector against the loop ``lmukws stream`` ran inline."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from detect_reference import inline_detect
from lmukws.detect import Detector
from lmukws.frontend import FeatureConfig

HOP_S = FeatureConfig.hop_samples / FeatureConfig.sample_rate  # as cmd_stream derived it


@st.composite
def logit_streams(draw):
    """A model's logits grid and labels, and (hops, 12) int64 logits on it,
    from a narrow range (ties, flat posteriors) up to 2^40."""
    bound = 2 ** draw(st.integers(0, 40))
    hops = draw(st.integers(1, 80))
    logits = draw(arrays(np.int64, (hops, 12), elements=st.integers(-bound, bound)))
    qm = SimpleNamespace(logits_exp=draw(st.integers(-40, 4)),
                         label_names=[f"word{i}" for i in range(12)])
    return qm, logits


@settings(max_examples=300, deadline=None)
@given(stream=logit_streams(), smooth=st.integers(1, 16), refractory=st.integers(0, 12),
       threshold=st.floats(0.0, 1.0, exclude_min=True), data=st.data())
def test_detector_equals_the_inline_loop(stream, smooth, refractory, threshold, data):
    qm, logits = stream
    hops = [row[None, :] for row in logits]  # the engine's (1, 12) per hop
    ref = inline_detect(qm, HOP_S, hops, smooth, threshold, refractory)
    # One threshold exactly equal to a hop's largest smoothed posterior.
    hop = data.draw(st.integers(0, len(hops) - 1), label="hop")
    exact = float(ref.smoothed[hop].max())
    for thr in (threshold, exact):
        ref = inline_detect(qm, HOP_S, hops, smooth, thr, refractory)
        detector = Detector(qm, smooth, thr, refractory)
        detections = []
        for k, row in enumerate(hops):
            smoothed, detection = detector.step(row[-1])
            assert np.array_equal(smoothed, ref.smoothed[k])
            assert detector.t == k * HOP_S
            if detection is not None:
                detections.append(detection)
        assert detections == ref.detections
        assert detector.hops == ref.hops
