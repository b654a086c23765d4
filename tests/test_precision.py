"""The float32 serving mode: tolerance-gated equivalence suite.

``NECConfig.inference_dtype`` is the one dtype setting of the protection
path.  ``NECSystem.protect_segment_matrix`` casts its segment matrix to it
once and the streaming transforms are built with it; every kernel after that
computes in the dtype of its input.  The deployment preset,
``NECConfig.default()``, serves float32; ``tiny()``, ``paper()`` and the
evaluation studies run float64.  This suite is the gate that makes the
float32 mode safe to serve: each metric is compared between a float64 and a
float32 system sharing one Selector, at ``tiny()`` and at the deployment
geometry, against an explicit tolerance.

Documented tolerances (measured deviation of this suite's clips, the same
with one or two OpenBLAS threads; every gate carries at least two orders of
magnitude of margin):

==========================  ============  ============  ============
metric                      tiny()        default()     gate
==========================  ============  ============  ============
suppression (dB)            3.1e-7 dB     2.7e-7 dB     1e-4 dB
SoNR (dB)                   2.7e-8 dB     1.9e-7 dB     1e-4 dB
shadow waveform (relative)  7.0e-7        5.9e-7        1e-4
URS reviewer scores         identical     identical     exact
DTW distance (relative)     ~5e-9 (no geometry)         1e-6
==========================  ============  ============  ============

The other half of the contract: float64 stays bit-identical whatever float32
passes ran before on the same layers, and training is float64 by
construction (``Tensor`` data is always float64).
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from oracles import conv2d_reference

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem, ProtectionResult
from repro.core.selector import Selector
from repro.core.training import SelectorTrainer, TrainingExample
from repro.nn import Tensor
from repro.nn.conv import Conv2d
from repro.nn.layers import CastCache
from repro.serving import EnrollmentRegistry, ProtectionService

SUPPRESSION_DB_ATOL = 1e-4
DTW_RTOL = 1e-6
SONR_DB_ATOL = 1e-4
WAVE_RTOL = 1e-4

#: The geometries every gate runs at: the unit-test one and the deployment one.
GEOMETRIES = {"tiny": NECConfig.tiny, "default": NECConfig.default}


@dataclass
class ProtectedPair:
    """One clip protected by a float64 and a float32 system sharing a Selector."""

    system64: NECSystem
    system32: NECSystem
    clip: AudioSignal
    result64: ProtectionResult
    result32: ProtectionResult


def _protected_pair(config: NECConfig) -> ProtectedPair:
    config64 = replace(config, inference_dtype="float64")
    rng = np.random.default_rng(5)
    system64 = NECSystem(config64, seed=0)
    system64.enroll(
        [AudioSignal(rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate)]
    )
    system32 = NECSystem(
        replace(config, inference_dtype="float32"),
        encoder=system64.encoder,
        selector=system64.selector,
    )
    system32.set_embedding(system64.embedding)
    clip = AudioSignal(rng.normal(scale=0.1, size=2 * config.segment_samples), config.sample_rate)
    return ProtectedPair(system64, system32, clip, system64.protect(clip), system32.protect(clip))


@pytest.fixture(scope="module")
def protected_pairs():
    """:class:`ProtectedPair` per geometry of :data:`GEOMETRIES`."""
    return {name: _protected_pair(preset()) for name, preset in GEOMETRIES.items()}


def _relative_wave_drift(expected: np.ndarray, actual: np.ndarray) -> float:
    scale = max(float(np.abs(expected).max()), 1e-12)
    return float(np.abs(expected - actual).max()) / scale


# ---------------------------------------------------------------------------
# The setting
# ---------------------------------------------------------------------------
def test_config_validates_inference_dtype():
    """``validate`` accepts the two dtypes and nothing else."""
    for name in ("float64", "float32"):
        assert NECConfig(inference_dtype=name).validate().inference_dtype == name
    for bad in ("float16", "double", np.float32):
        with pytest.raises(ValueError, match="inference_dtype"):
            NECConfig(inference_dtype=bad).validate()


def test_default_policy_is_float64():
    """The field defaults to float64; only the deployment preset serves float32."""
    assert NECConfig().inference_dtype == "float64"
    assert NECConfig.tiny().inference_dtype == "float64"
    assert NECConfig.paper().inference_dtype == "float64"
    assert NECConfig.default().inference_dtype == "float32"


def test_policy_casts_are_no_copy_when_already_right():
    """The inference weight casts: one per dtype, none for an already-float64 array."""
    weight = np.arange(6.0).reshape(2, 3)
    derived = []

    def derive(array):
        derived.append(array)
        return (array, None)

    cache = CastCache()
    as64, missing = cache.get((weight,), np.float64, derive)
    assert as64 is weight and missing is None
    as32 = cache.get((weight,), np.float32, derive)[0]
    assert as32.dtype == np.float32
    assert cache.get((weight,), np.float32, derive)[0] is as32
    assert len(derived) == 2
    # A rebound source drops every cast.
    rebound = weight * 2.0
    assert cache.get((rebound,), np.float32, derive)[0] is not as32
    assert len(derived) == 3


# ---------------------------------------------------------------------------
# float64 stays bit-identical
# ---------------------------------------------------------------------------
def test_float64_policy_context_is_bit_identical_to_plain(protected_pairs):
    """A float32 pass on the shared layers leaves float64 protection unchanged."""
    for pair in protected_pairs.values():
        again = pair.system64.protect(pair.clip)
        assert np.array_equal(again.shadow_wave.data, pair.result64.shadow_wave.data)
        assert np.array_equal(again.shadow_spectrogram, pair.result64.shadow_spectrogram)
        assert np.array_equal(again.record_spectrogram, pair.result64.record_spectrogram)


# ---------------------------------------------------------------------------
# Internal dtypes of the float32 mode
# ---------------------------------------------------------------------------
def test_float32_mode_runs_kernels_in_float32(protected_pairs):
    for pair in protected_pairs.values():
        assert pair.result64.shadow_spectrogram.dtype == np.float64
        assert pair.result32.shadow_spectrogram.dtype == np.float32
        assert pair.result32.record_spectrogram.dtype == np.float32
        # AudioSignal is the interchange boundary: the mixed audio and the
        # emitted waves are float64 in both modes, and the mixed audio is
        # the caller's samples, not their float32 rounding.
        assert pair.result64.shadow_wave.data.dtype == np.float64
        assert pair.result32.shadow_wave.data.dtype == np.float64
        assert np.array_equal(pair.result32.mixed_audio.data, pair.clip.data)


def test_stft_istft_preserve_policy_dtypes(rng):
    """The transforms compute in the dtype of their input."""
    from repro.dsp.stft import batch_istft, batch_stft, istft, stft

    signal = rng.normal(scale=0.1, size=4000)
    spectrum64 = stft(signal, n_fft=512, win_length=320, hop_length=160)
    assert spectrum64.dtype == np.complex128
    spectrum32 = stft(signal.astype(np.float32), n_fft=512, win_length=320, hop_length=160)
    assert spectrum32.dtype == np.complex64
    wave32 = istft(spectrum32, win_length=320, hop_length=160, length=4000)
    assert wave32.dtype == np.float32
    batch32 = batch_stft(
        signal[None, :].astype(np.float32), n_fft=512, win_length=320, hop_length=160
    )
    assert batch32.dtype == np.complex64
    waves32 = batch_istft(batch32, win_length=320, hop_length=160, length=4000)
    assert waves32.dtype == np.float32
    wave64 = istft(spectrum64, win_length=320, hop_length=160, length=4000)
    assert wave64.dtype == np.float64
    # The roundtrips agree to float32 precision.
    assert np.abs(wave32 - wave64).max() <= WAVE_RTOL * max(np.abs(wave64).max(), 1e-12)


#: ``(n_fft, win_length, hop_length)`` of ``tiny()``, ``default()`` and ``paper()``.
FFT_GEOMETRIES = {"tiny": (128, 128, 64), "default": (320, 320, 160), "paper": (1200, 400, 160)}


@pytest.mark.parametrize("geometry", sorted(FFT_GEOMETRIES))
def test_numpy_fft_matches_scipy_bit_for_bit_in_float64(rng, geometry):
    """The STFT runs ``numpy.fft``; in float64 it is ``scipy.fft`` bit for bit.

    Training, the studies and ``BENCH_scenarios.json`` are float64, so this is
    the pin that none of them moved when the transforms left scipy.
    """
    from scipy import fft as scipy_fft

    from repro.dsp.stft import stft

    n_fft, win_length, hop_length = FFT_GEOMETRIES[geometry]
    signal = rng.normal(scale=0.1, size=4000)
    spectrum = stft(signal, n_fft=n_fft, win_length=win_length, hop_length=hop_length)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win_length) / win_length)
    starts = np.arange(1 + (4000 - win_length) // hop_length) * hop_length
    frames = signal[starts[:, None] + np.arange(win_length)[None, :]] * win
    assert np.array_equal(scipy_fft.rfft(frames, n=n_fft, axis=1).T, spectrum)
    assert np.array_equal(
        scipy_fft.irfft(spectrum.T, n=n_fft, axis=1), np.fft.irfft(spectrum.T, n=n_fft, axis=1)
    )


@pytest.mark.parametrize("rows", [1, 10, 99, 1584])
def test_float32_stft_rows_are_batch_invariant(rng, rows):
    """A float32 frame's spectrum is the same bits alone or among ``rows`` frames.

    1, 10, 99 and 1,584 frames stand for a streaming feed, a short chunk, one
    ``default()`` segment and the 16-segment ``offline`` batch.  Streaming
    equals ``protect`` bit for bit only because this holds.
    """
    from repro.dsp.stft import batch_stft, stft

    n_fft, win_length, hop_length = FFT_GEOMETRIES["default"]
    signal = rng.normal(scale=0.1, size=win_length + (rows - 1) * hop_length)
    signal = signal.astype(np.float32)
    frames = np.stack([signal[t * hop_length : t * hop_length + win_length] for t in range(rows)])
    spectrum = stft(signal, n_fft=n_fft, win_length=win_length, hop_length=hop_length)
    batch = batch_stft(frames, n_fft=n_fft, win_length=win_length, hop_length=hop_length)
    assert spectrum.dtype == batch.dtype == np.complex64
    assert spectrum.shape == (n_fft // 2 + 1, rows)
    assert batch.shape == (rows, n_fft // 2 + 1, 1)
    for t, frame in enumerate(frames):
        alone = stft(frame, n_fft=n_fft, win_length=win_length, hop_length=hop_length)[:, 0]
        assert np.array_equal(spectrum[:, t], alone), t
        assert np.array_equal(batch[t, :, 0], alone), t


# ---------------------------------------------------------------------------
# Per-metric tolerances, at tiny() and at the deployment geometry
# ---------------------------------------------------------------------------
def test_suppression_db_within_tolerance(protected_pairs):
    for name, pair in protected_pairs.items():
        delta = abs(
            pair.result64.predicted_suppression_db - pair.result32.predicted_suppression_db
        )
        assert delta <= SUPPRESSION_DB_ATOL, f"{name}: suppression dB drifted by {delta:.2e}"


def test_shadow_wave_within_tolerance(protected_pairs):
    for name, pair in protected_pairs.items():
        drift = _relative_wave_drift(pair.result64.shadow_wave.data, pair.result32.shadow_wave.data)
        assert drift <= WAVE_RTOL, f"{name}: shadow wave drifted by {drift:.2e} relative"


def test_dtw_distance_within_tolerance(rng):
    from repro.asr.dtw import dtw_distance_many

    features = rng.normal(size=(40, 26))
    bank = [rng.normal(size=(int(n), 26)) for n in rng.integers(15, 60, size=30)]
    reference = dtw_distance_many(features, bank)
    reduced = dtw_distance_many(
        features.astype(np.float32), [template.astype(np.float32) for template in bank]
    )
    relative = np.abs(reference - reduced) / np.maximum(np.abs(reference), 1e-12)
    assert float(relative.max()) <= DTW_RTOL
    # Rankings (what the recogniser consumes) must agree exactly.
    assert int(np.argmin(reference)) == int(np.argmin(reduced))


def test_urs_scores_identical(protected_pairs):
    from repro.metrics.urs import user_rating_scores

    for name, pair in protected_pairs.items():
        recorded64 = pair.system64.superpose(pair.clip, pair.result64)
        recorded32 = pair.system32.superpose(pair.clip, pair.result32)
        scores64 = user_rating_scores(recorded64.data, pair.clip.data, seed=0)
        scores32 = user_rating_scores(recorded32.data, pair.clip.data, seed=0)
        # Integer reviewer scores pass through a sigmoid + rounding; float32
        # residual jitter is orders of magnitude below the rounding granularity.
        assert np.array_equal(scores64, scores32), name


def test_sonr_within_tolerance(protected_pairs):
    from repro.metrics.sonr import sonr

    for name, pair in protected_pairs.items():
        recorded64 = pair.system64.superpose(pair.clip, pair.result64)
        recorded32 = pair.system32.superpose(pair.clip, pair.result32)
        delta = abs(sonr(recorded64.data, pair.clip.data) - sonr(recorded32.data, pair.clip.data))
        assert delta <= SONR_DB_ATOL, f"{name}: SoNR drifted by {delta:.2e} dB"


def test_float32_service_session_matches_protect_at_deployment(protected_pairs):
    """What the service serves at ``default()``: float32 ``protect`` bit for bit,
    and float64 ``protect`` within the shadow-wave gate."""
    pair = protected_pairs["default"]
    config = pair.system32.config
    registry = EnrollmentRegistry(None, config=config)
    registry.register("alice", pair.system32.embedding)
    chunk = config.segment_samples // 3
    with ProtectionService(registry, system=pair.system32) as service:
        session = service.open_session("alice")
        waves = []
        for start in range(0, pair.clip.num_samples, chunk):
            session.feed(pair.clip.data[start : start + chunk])
            waves += [result.shadow_wave.data for result in session.collect()]
        waves += [result.shadow_wave.data for result in session.close(timeout=60.0)]
    served = np.concatenate(waves)
    assert served.dtype == np.float64
    np.testing.assert_array_equal(served, pair.result32.shadow_wave.data)
    assert _relative_wave_drift(pair.result64.shadow_wave.data, served) <= WAVE_RTOL


# ---------------------------------------------------------------------------
# Training stays float64
# ---------------------------------------------------------------------------
def test_gradient_tensors_refuse_reduced_precision():
    """``Tensor`` data is float64 whatever dtype it is given."""
    tensor = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    assert tensor.data.dtype == np.float64
    (tensor * tensor).sum().backward()
    assert tensor.grad.dtype == np.float64


def test_float32_config_selector_trains_with_float64_gradients():
    config = replace(NECConfig.tiny(), inference_dtype="float32")
    selector = Selector(config, seed=0)
    rng = np.random.default_rng(4)
    examples = [
        TrainingExample(
            mixed_spectrogram=np.abs(rng.normal(size=config.spectrogram_shape)),
            background_spectrogram=np.abs(rng.normal(size=config.spectrogram_shape)),
            d_vector=rng.normal(size=config.embedding_dim),
        )
        for _ in range(2)
    ]
    # A float32 inference pass first: it must not leak into training.
    mixed32 = np.stack([e.mixed_spectrogram for e in examples]).astype(np.float32)
    assert selector.forward_batch(mixed32, examples[0].d_vector).dtype == np.float32
    trainer = SelectorTrainer(selector)
    trainer.optimizer.zero_grad()
    trainer.batch_loss(examples).backward()
    for parameter in selector.parameters():
        assert parameter.data.dtype == np.float64
        assert parameter.grad is not None and parameter.grad.dtype == np.float64
    trainer.optimizer.step()
    # evaluate runs the gradient-free pass on float64 examples: float64.
    assert np.isfinite(trainer.evaluate(examples))


def test_gradients_flow_in_float64_after_float32_inference(rng):
    """A float32 inference pass must not poison subsequent float64 training."""
    conv = Conv2d(1, 2, (3, 3), padding=(1, 1), rng=np.random.default_rng(0))
    x = rng.normal(size=(1, 1, 6, 6))
    assert conv.infer(x.astype(np.float32)).dtype == np.float32
    out = conv.forward(Tensor(x))
    out.sum().backward()
    assert conv.weight.grad is not None
    assert conv.weight.grad.dtype == np.float64
    assert np.isfinite(conv.weight.grad).all()


def test_infer_cache_invalidates_when_optimizer_rebinds_weights(rng):
    """The per-dtype weight cache keys on array identity, which the
    optimisers refresh by rebinding ``.data`` — a post-step ``infer`` must
    see the new weights in every dtype."""
    conv = Conv2d(1, 2, (3, 3), padding=(1, 1), rng=np.random.default_rng(0))
    x = rng.normal(size=(1, 1, 6, 6))
    before64 = conv.infer(x)
    before32 = conv.infer(x.astype(np.float32))
    # An optimiser step: rebind, never mutate in place.
    conv.weight.data = conv.weight.data * 1.5
    after64 = conv.infer(x)
    after32 = conv.infer(x.astype(np.float32))
    assert not np.allclose(before64, after64)
    assert not np.allclose(before32, after32)
    # And the refreshed float64 cache matches a fresh layer holding the
    # same weights bit for bit.
    fresh = Conv2d(1, 2, (3, 3), padding=(1, 1))
    fresh.weight.data = conv.weight.data
    fresh.bias.data = conv.bias.data
    assert np.array_equal(fresh.infer(x), after64)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_infer_cache_never_serves_a_rebound_weight(precision):
    """The weight cache compares the parameter arrays themselves, not their
    ``id``s: once an old array is freed its successor may reuse its ``id``,
    and an ``id``-keyed cache would then serve the stale slabs."""
    rng = np.random.default_rng(3)
    conv = Conv2d(2, 3, (3, 5), padding=(1, 2), dilation=(2, 1), rng=rng)
    x = rng.normal(size=(1, 2, 9, 11))
    tolerance = 1e-12 if precision == "float64" else WAVE_RTOL
    for _ in range(3):
        for parameter in (conv.weight, conv.bias):
            # An optimiser step that drops the old array before allocating
            # its successor, so the new array object tends to take its id.
            values = rng.normal(size=parameter.data.shape)
            parameter.data = None
            parameter.data = values.copy()
            del values
            actual = conv.infer(x.astype(precision))
            expected = conv2d_reference(conv, Tensor(x)).data
            assert np.abs(actual - expected).max() <= tolerance * np.abs(expected).max()
