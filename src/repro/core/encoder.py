"""Speaker encoders producing d-vector reference embeddings.

The paper re-uses a pre-trained d-vector encoder (Wan et al. 2018 / the
VoiceFilter encoder) and keeps it frozen while training the Selector.  Two
encoders are provided here:

* :class:`SpectralEncoder` — a training-free encoder built on the LAS / log-mel
  statistics the paper's Sec. III identifies as speaker-specific and
  utterance-independent.  It needs no pre-training and is the default for the
  end-to-end pipeline.
* :class:`NeuralEncoder` — a small MLP over pooled log-mel statistics trained
  with a speaker-classification loss on the synthetic corpus, standing in for
  the pre-trained d-vector network.  It demonstrates the full "pre-train the
  encoder, freeze it, train the Selector" procedure of the paper.

Both produce unit-norm embeddings of ``config.embedding_dim`` dimensions and
share the :class:`SpeakerEncoder` interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig, TrainingConfig
from repro.dsp.features import log_mel_spectrogram
from repro.dsp.las import long_time_average_spectrum
from repro.nn import Adam, Dense, Module, ReLU, Sequential, Tensor, cross_entropy_loss


def _as_audio(audio: AudioSignal | np.ndarray, sample_rate: int) -> AudioSignal:
    if isinstance(audio, AudioSignal):
        return audio
    return AudioSignal(np.asarray(audio, dtype=np.float64), sample_rate)


class SpeakerEncoder:
    """Interface: map reference audio(s) to a unit-norm speaker embedding."""

    def __init__(self, config: NECConfig) -> None:
        self.config = config

    # -- shared feature extraction ------------------------------------------------
    def _utterance_features(self, audio: AudioSignal) -> np.ndarray:
        """Utterance-level feature vector: LAS + pooled log-mel statistics."""
        config = self.config
        las = long_time_average_spectrum(
            audio.data, config.sample_rate, frame_duration=0.02, max_frequency=None
        )
        # Resample the LAS to a fixed number of points independent of geometry.
        las_points = 48
        las_fixed = np.interp(
            np.linspace(0, las.size - 1, las_points), np.arange(las.size), las
        )
        mel = log_mel_spectrogram(
            audio.data,
            config.sample_rate,
            num_filters=config.mel_filters,
            n_fft=min(512, config.n_fft if config.n_fft >= 64 else 512),
            win_length=min(400, config.win_length),
            hop_length=config.hop_length,
        )
        mel_mean = mel.mean(axis=0)
        mel_std = mel.std(axis=0)
        features = np.concatenate([las_fixed, mel_mean, mel_std])
        return features

    def _pooled_features(self, references: Sequence[AudioSignal | np.ndarray]) -> np.ndarray:
        audios = [_as_audio(reference, self.config.sample_rate) for reference in references]
        if not audios:
            raise ValueError("at least one reference audio is required")
        stacked = np.stack([self._utterance_features(audio) for audio in audios])
        return stacked.mean(axis=0)

    @property
    def feature_dim(self) -> int:
        return 48 + 2 * self.config.mel_filters

    # -- interface ------------------------------------------------------------------
    def embed(self, references: Sequence[AudioSignal | np.ndarray]) -> np.ndarray:
        """Embed one speaker from reference audios; returns a unit-norm vector."""
        raise NotImplementedError


class SpectralEncoder(SpeakerEncoder, Module):
    """Training-free d-vector substitute based on LAS / log-mel statistics.

    The utterance features are projected through a fixed random (but
    seed-deterministic) orthogonal-ish matrix and L2-normalised.  Because the
    features themselves are utterance-independent but speaker-specific
    (Sec. III), the embedding inherits those properties without training.

    The projection matrix is the encoder's only state and is registered as a
    :class:`~repro.nn.layers.Module` buffer, so
    :func:`repro.nn.serialization.save_model` / ``load_model`` round-trip the
    encoder bit-identically — the enrollment registry's persistence path for
    re-embedding after a process restart.
    """

    def __init__(self, config: NECConfig, seed: int = 0) -> None:
        SpeakerEncoder.__init__(self, config)
        Module.__init__(self)
        rng = np.random.default_rng(seed)
        projection = rng.normal(size=(self.feature_dim, config.embedding_dim))
        # Orthonormalise for a well-conditioned projection.  QR only yields
        # min(m, n) orthonormal columns, so when the embedding is wider than
        # the feature vector (the paper preset: 128 features -> 256 dims) the
        # factorisation must run on the transpose — orthonormal rows — or the
        # projection silently truncates to feature_dim columns and the
        # embedding no longer matches ``config.embedding_dim``.
        if config.embedding_dim <= self.feature_dim:
            q, _ = np.linalg.qr(projection)
            self._projection = q[:, : config.embedding_dim]
        else:
            q, _ = np.linalg.qr(projection.T)
            self._projection = q[:, : self.feature_dim].T
        self._buffers = ("_projection",)

    def embed(self, references: Sequence[AudioSignal | np.ndarray]) -> np.ndarray:
        features = self._pooled_features(references)
        features = (features - features.mean()) / (features.std() + 1e-8)
        embedding = features @ self._projection
        norm = np.linalg.norm(embedding)
        return embedding / (norm + 1e-12)


class _EncoderNetwork(Module):
    """MLP trunk + classification head used by :class:`NeuralEncoder`."""

    def __init__(self, feature_dim: int, embedding_dim: int, num_speakers: int, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        hidden = max(2 * embedding_dim, 32)
        self.trunk = Sequential(
            Dense(feature_dim, hidden, rng=rng),
            ReLU(),
            Dense(hidden, embedding_dim, rng=rng),
        )
        self.head = Dense(embedding_dim, num_speakers, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.embed(x))

    def embed(self, x: Tensor) -> Tensor:
        return self.trunk(x)


class NeuralEncoder(SpeakerEncoder):
    """A small trainable d-vector encoder (classification pre-training)."""

    def __init__(self, config: NECConfig, seed: int = 0) -> None:
        super().__init__(config)
        self.seed = seed
        self._network: Optional[_EncoderNetwork] = None
        self._feature_stats: Optional[tuple] = None

    # -- pre-training -----------------------------------------------------------
    def pretrain(
        self,
        utterances_by_speaker: Dict[str, Sequence[AudioSignal | np.ndarray]],
        epochs: int = 30,
        learning_rate: Optional[float] = None,
        config: Optional[TrainingConfig] = None,
    ) -> List[float]:
        """Train the encoder to classify speakers; returns the loss history.

        ``utterances_by_speaker`` maps speaker ids to lists of utterances.  The
        classification head is discarded after training; only the trunk is used
        for embedding (the standard d-vector recipe).  The learning rate comes
        from ``config`` (a :class:`TrainingConfig`, defaulting to the repo-wide
        :data:`~repro.core.config.DEFAULT_LEARNING_RATE`) unless the explicit
        ``learning_rate`` keyword overrides it — the encoder used to carry its
        own third default (1e-2) next to the trainer's two.
        """
        if learning_rate is None:
            learning_rate = (config or TrainingConfig()).validate().learning_rate
        speaker_ids = sorted(utterances_by_speaker)
        if len(speaker_ids) < 2:
            raise ValueError("encoder pre-training needs at least two speakers")
        features = []
        labels = []
        for label, speaker_id in enumerate(speaker_ids):
            for utterance in utterances_by_speaker[speaker_id]:
                audio = _as_audio(utterance, self.config.sample_rate)
                features.append(self._utterance_features(audio))
                labels.append(label)
        matrix = np.stack(features)
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0) + 1e-8
        matrix = (matrix - mean) / std
        self._feature_stats = (mean, std)
        labels_array = np.asarray(labels)

        network = _EncoderNetwork(
            self.feature_dim, self.config.embedding_dim, len(speaker_ids), self.seed
        )
        optimizer = Adam(network.parameters(), lr=learning_rate)
        history: List[float] = []
        for _ in range(epochs):
            optimizer.zero_grad()
            logits = network(Tensor(matrix))
            loss = cross_entropy_loss(logits, labels_array)
            loss.backward()
            optimizer.step()
            history.append(float(loss.data))
        self._network = network
        return history

    @property
    def is_trained(self) -> bool:
        return self._network is not None

    # -- embedding ------------------------------------------------------------
    def embed(self, references: Sequence[AudioSignal | np.ndarray]) -> np.ndarray:
        if self._network is None or self._feature_stats is None:
            raise RuntimeError("NeuralEncoder.embed called before pretrain()")
        mean, std = self._feature_stats
        features = (self._pooled_features(references) - mean) / std
        embedding = self._network.embed(Tensor(features[None, :])).data[0]
        norm = np.linalg.norm(embedding)
        return embedding / (norm + 1e-12)
