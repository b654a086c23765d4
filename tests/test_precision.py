"""The float32 evaluation fast path: tolerance-gated equivalence suite.

The dtype policy (:mod:`repro.nn.precision`) lets the gradient-free inference
kernels run in float32.  This suite is the gate that makes that mode safe to
use: each evaluation metric is compared between the float64 reference and the
float32 fast path against an explicit tolerance.

Documented tolerances (measured deviation on the tiny geometry; every gate
carries at least two orders of magnitude of margin):

==========================  ================  ============
metric                      measured           gate
==========================  ================  ============
suppression (dB)            ~2e-8 dB          1e-4 dB
DTW distance (relative)     ~5e-9             1e-6
URS reviewer scores         identical         exact
SoNR (dB)                   ~3e-7 dB          1e-4 dB
shadow waveform (relative)  ~8e-7             1e-4
==========================  ================  ============

The other half of the contract: the **default float64 policy stays
bit-identical** to the pre-policy code base, and **training is float64-only**
(gradient-tracking tensors refuse to exist under a reduced-precision policy).
"""

import numpy as np
import pytest
from oracles import conv2d_reference

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem
from repro.nn import Tensor
from repro.nn.conv import Conv2d
from repro.nn.precision import (
    FLOAT32,
    FLOAT64,
    active_policy,
    inference_precision,
    resolve_policy,
)

SUPPRESSION_DB_ATOL = 1e-4
DTW_RTOL = 1e-6
SONR_DB_ATOL = 1e-4
WAVE_RTOL = 1e-4


@pytest.fixture(scope="module")
def protected_pair(tiny_config):
    """One clip protected under float64 and float32 by the same system."""
    config = tiny_config
    rng = np.random.default_rng(5)
    system = NECSystem(config, seed=0)
    system.enroll(
        [AudioSignal(rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate)]
    )
    clip = AudioSignal(
        rng.normal(scale=0.1, size=2 * config.segment_samples), config.sample_rate
    )
    result64 = system.protect(clip)
    with inference_precision("float32"):
        result32 = system.protect(clip)
    return system, clip, result64, result32


# ---------------------------------------------------------------------------
# The policy object itself
# ---------------------------------------------------------------------------
def test_policy_resolution_accepts_names_dtypes_and_policies():
    assert resolve_policy("float32") is FLOAT32
    assert resolve_policy("float64") is FLOAT64
    assert resolve_policy(np.float32) is FLOAT32
    assert resolve_policy(np.dtype(np.complex128)) is FLOAT64
    assert resolve_policy(FLOAT32) is FLOAT32
    with pytest.raises(ValueError):
        resolve_policy("float16")


def test_default_policy_is_float64():
    assert active_policy() is FLOAT64
    assert active_policy().is_double


def test_inference_precision_restores_on_exit_and_exception():
    with inference_precision("float32") as policy:
        assert policy is FLOAT32
        assert active_policy() is FLOAT32
        with inference_precision("float64"):
            assert active_policy() is FLOAT64
        assert active_policy() is FLOAT32
    assert active_policy() is FLOAT64
    with pytest.raises(RuntimeError):
        with inference_precision("float32"):
            raise RuntimeError("boom")
    assert active_policy() is FLOAT64


def test_policy_casts_are_no_copy_when_already_right():
    array = np.zeros(4, dtype=np.float32)
    assert FLOAT32.real(array) is array
    assert FLOAT64.real(array) is not array
    assert FLOAT64.real(array).dtype == np.float64


# ---------------------------------------------------------------------------
# float64 default: bit-identical to the seed
# ---------------------------------------------------------------------------
def test_float64_policy_context_is_bit_identical_to_plain(protected_pair):
    system, clip, result64, _ = protected_pair
    with inference_precision(FLOAT64):
        explicit = system.protect(clip)
    assert np.array_equal(explicit.shadow_wave.data, result64.shadow_wave.data)
    assert np.array_equal(explicit.shadow_spectrogram, result64.shadow_spectrogram)
    assert np.array_equal(explicit.record_spectrogram, result64.record_spectrogram)


# ---------------------------------------------------------------------------
# Internal dtypes of the fast path
# ---------------------------------------------------------------------------
def test_float32_mode_runs_kernels_in_float32(protected_pair):
    _, _, result64, result32 = protected_pair
    assert result64.shadow_spectrogram.dtype == np.float64
    assert result32.shadow_spectrogram.dtype == np.float32
    assert result32.record_spectrogram.dtype == np.float32
    # The AudioSignal container normalises emitted waves to float64 at the
    # API boundary under *both* policies (float32 is a compute dtype, not an
    # interchange dtype).
    assert result64.shadow_wave.data.dtype == np.float64
    assert result32.shadow_wave.data.dtype == np.float64


def test_stft_istft_preserve_policy_dtypes(rng):
    from repro.dsp.stft import batch_istft, batch_stft, istft, stft

    signal = rng.normal(scale=0.1, size=4000)
    spectrum64 = stft(signal, n_fft=512, win_length=320, hop_length=160)
    assert spectrum64.dtype == np.complex128
    with inference_precision("float32"):
        spectrum32 = stft(signal, n_fft=512, win_length=320, hop_length=160)
        assert spectrum32.dtype == np.complex64
        wave32 = istft(spectrum32, win_length=320, hop_length=160, length=4000)
        assert wave32.dtype == np.float32
        batch32 = batch_stft(signal[None, :], n_fft=512, win_length=320, hop_length=160)
        assert batch32.dtype == np.complex64
        waves32 = batch_istft(batch32, win_length=320, hop_length=160, length=4000)
        assert waves32.dtype == np.float32
    wave64 = istft(spectrum64, win_length=320, hop_length=160, length=4000)
    assert wave64.dtype == np.float64
    # The roundtrips agree to float32 precision.
    assert np.abs(wave32 - wave64).max() <= WAVE_RTOL * max(np.abs(wave64).max(), 1e-12)


def test_scipy_rfft_is_bit_identical_to_numpy_in_float64(rng):
    # stft switched to scipy's pocketfft to preserve float32; in float64 the
    # two libraries must (and do) produce bit-identical transforms.
    from repro.dsp.stft import stft

    signal = rng.normal(scale=0.1, size=4000)
    spectrum = stft(signal, n_fft=512, win_length=320, hop_length=160)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(320) / 320)
    starts = np.arange(1 + (4000 - 320) // 160) * 160
    frames = signal[starts[:, None] + np.arange(320)[None, :]] * win
    assert np.array_equal(np.fft.rfft(frames, n=512, axis=1).T, spectrum)


# ---------------------------------------------------------------------------
# Per-metric tolerances
# ---------------------------------------------------------------------------
def test_suppression_db_within_tolerance(protected_pair):
    _, _, result64, result32 = protected_pair
    delta = abs(result64.predicted_suppression_db - result32.predicted_suppression_db)
    assert delta <= SUPPRESSION_DB_ATOL, f"suppression dB drifted by {delta:.2e}"


def test_shadow_wave_within_tolerance(protected_pair):
    _, _, result64, result32 = protected_pair
    scale = max(float(np.abs(result64.shadow_wave.data).max()), 1e-12)
    delta = float(np.abs(result64.shadow_wave.data - result32.shadow_wave.data).max())
    assert delta / scale <= WAVE_RTOL, f"shadow wave drifted by {delta / scale:.2e} relative"


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


def test_urs_scores_identical(protected_pair):
    from repro.metrics.urs import user_rating_scores

    system, clip, result64, result32 = protected_pair
    recorded64 = system.superpose(clip, result64)
    recorded32 = system.superpose(clip, result32)
    scores64 = user_rating_scores(recorded64.data, clip.data, seed=0)
    scores32 = user_rating_scores(recorded32.data, clip.data, seed=0)
    # Integer reviewer scores pass through a sigmoid + rounding; float32
    # residual jitter is orders of magnitude below the rounding granularity.
    assert np.array_equal(scores64, scores32)


def test_sonr_within_tolerance(protected_pair):
    from repro.metrics.sonr import sonr

    system, clip, result64, result32 = protected_pair
    recorded64 = system.superpose(clip, result64)
    recorded32 = system.superpose(clip, result32)
    value64 = sonr(recorded64.data, clip.data)
    value32 = sonr(recorded32.data, clip.data)
    assert abs(value64 - value32) <= SONR_DB_ATOL


# ---------------------------------------------------------------------------
# Training stays float64-only
# ---------------------------------------------------------------------------
def test_gradient_tensors_refuse_reduced_precision():
    with inference_precision("float32"):
        with pytest.raises(RuntimeError, match="float64-only"):
            Tensor(np.ones(3), requires_grad=True)
        # Plain inference tensors are fine.
        Tensor(np.ones(3))
    # Outside the context, gradient tensors work again.
    tensor = Tensor(np.ones(3), requires_grad=True)
    assert tensor.requires_grad


def test_modules_cannot_be_built_under_reduced_precision():
    with inference_precision("float32"):
        with pytest.raises(RuntimeError, match="float64-only"):
            Conv2d(1, 2, (3, 3), rng=np.random.default_rng(0))


def test_gradients_flow_in_float64_after_float32_inference(rng):
    """A float32 inference pass must not poison subsequent float64 training."""
    conv = Conv2d(1, 2, (3, 3), padding=(1, 1), rng=np.random.default_rng(0))
    x = rng.normal(size=(1, 1, 6, 6))
    with inference_precision("float32"):
        out32 = conv.infer(x)
        assert out32.dtype == np.float32
    out = conv.forward(Tensor(x))
    out.sum().backward()
    assert conv.weight.grad is not None
    assert conv.weight.grad.dtype == np.float64
    assert np.isfinite(conv.weight.grad).all()


def test_infer_cache_invalidates_when_optimizer_rebinds_weights(rng):
    """The per-policy weight cache keys on array identity, which the
    optimisers refresh by rebinding ``.data`` — a post-step ``infer`` must
    see the new weights under every policy."""
    conv = Conv2d(1, 2, (3, 3), padding=(1, 1), rng=np.random.default_rng(0))
    x = rng.normal(size=(1, 1, 6, 6))
    before64 = conv.infer(x)
    with inference_precision("float32"):
        before32 = conv.infer(x)
    # An optimiser step: rebind, never mutate in place.
    conv.weight.data = conv.weight.data * 1.5
    after64 = conv.infer(x)
    with inference_precision("float32"):
        after32 = conv.infer(x)
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
            with inference_precision(precision):
                actual = conv.infer(x)
            expected = conv2d_reference(conv, Tensor(x)).data
            assert np.abs(actual - expected).max() <= tolerance * np.abs(expected).max()
