"""Softmax cross-entropy: the loss of the encoder's speaker-classification pre-training."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy for ``(N, num_classes)`` logits and int labels."""
    labels = np.asarray(labels, dtype=np.int64)
    probs = logits.softmax(axis=-1)
    batch = logits.shape[0]
    picked = probs[np.arange(batch), labels]
    return -(picked.log().mean())

