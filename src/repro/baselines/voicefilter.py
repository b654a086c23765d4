"""A VoiceFilter-style separation network (Wang et al., Interspeech 2019).

VoiceFilter is the paper's reference point for model efficiency (Table II):
it uses a deeper CNN stack than the NEC Selector plus an LSTM layer, which is
precisely the module the NEC authors argue is unnecessary for their task.
This implementation mirrors that structure at the geometry of an
:class:`~repro.core.config.NECConfig` so that the running-time comparison is
apples-to-apples on the same numpy substrate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import NECConfig
from repro.nn import Conv2d, Dense, LSTM, Module, Tensor, no_grad


class VoiceFilterModel(Module):
    """CNN (8 layers) + LSTM + 2 FC mask predictor conditioned on a d-vector."""

    def __init__(self, config: NECConfig, seed: int = 0) -> None:
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        channels = config.selector_channels
        freq_bins = config.frequency_bins

        # VoiceFilter's published CNN stack: 1x7, 7x1, five dilated 5x5, 1x1.
        dilations = [1, 2, 4, 8, 16][: max(len(config.selector_dilations) + 1, 2)]
        self.conv_freq = Conv2d(1, channels, (1, 7), padding=(0, 3), rng=rng)
        self.conv_time = Conv2d(channels, channels, (7, 1), padding=(3, 0), rng=rng)
        self.dilated = [
            Conv2d(
                channels,
                channels,
                (5, 5),
                padding=(2 * dilation, 2),
                dilation=(dilation, 1),
                rng=rng,
            )
            for dilation in dilations
        ]
        self.conv_out = Conv2d(channels, 8, (1, 1), rng=rng)

        lstm_input = 8 * freq_bins + config.embedding_dim
        # VoiceFilter's published LSTM is 400 units wide — substantially wider
        # than NEC's fully connected head; keep the same proportion here.
        self.lstm_hidden = max(2 * config.fc_hidden, 64)
        self.lstm = LSTM(lstm_input, self.lstm_hidden, rng=rng)
        self.fc1 = Dense(self.lstm_hidden, config.fc_hidden, rng=rng)
        self.fc2 = Dense(config.fc_hidden, freq_bins, rng=rng)

    def num_conv_layers(self) -> int:
        return 3 + len(self.dilated)

    def forward(self, mixed_spectrogram, d_vector) -> Tensor:
        """Predict a soft mask of shape ``(T, F)`` for the target speaker.

        The baseline is never trained, so its convolutions run gradient-free
        through :meth:`Conv2d.infer`; the LSTM and the FC head are the
        autograd layers.
        """
        mixed, d_vector = (
            value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
            for value in (mixed_spectrogram, d_vector)
        )
        freq_bins, frames = mixed.shape
        # The Selector's compression: the 1e-6 offset plus Tensor.log's 1e-12.
        compressed = np.log(mixed + 1e-6 + 1e-12)
        hidden = compressed.T.reshape(1, 1, frames, freq_bins)
        for layer in (self.conv_freq, self.conv_time, *self.dilated, self.conv_out):
            hidden = layer.infer(hidden, activation="relu")
        features = hidden.transpose(0, 2, 1, 3).reshape(frames, 8 * freq_bins)

        tiled = np.tile(d_vector.reshape(1, -1), (frames, 1))
        sequence = Tensor(np.concatenate([features, tiled], axis=1)[None])
        recurrent = self.lstm(sequence).reshape(frames, self.lstm_hidden)
        hidden = self.fc1(recurrent).relu()
        return self.fc2(hidden).sigmoid()                 # (T, F)

    def separate(self, mixed_spectrogram: np.ndarray, d_vector: np.ndarray) -> np.ndarray:
        """Target-speaker magnitude estimate ``mask * S_mixed`` of shape ``(F, T)``."""
        mixed = np.asarray(mixed_spectrogram, dtype=np.float64)
        with no_grad():
            mask = self.forward(mixed, d_vector).data.T
        return mask * mixed
