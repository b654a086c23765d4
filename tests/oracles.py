"""Equivalence oracles: the slow, one-at-a-time versions of library kernels.

The library keeps one implementation per operation.  The straightforward
loops it replaced live here, used only by the tests that pin each fast path
against them:

- :func:`protect_segment`, :func:`protect_looped` — ``NECSystem.protect``,
  ``protect_batch``, ``StreamingProtector`` (``test_pipeline_batch.py``,
  ``test_streaming.py``);
- :func:`istft_reference`, :func:`batch_istft_reference` — ``istft`` and
  ``batch_istft`` (``test_fastpath.py``);
- :func:`dtw_distance_reference`, :func:`classify_segment_reference` —
  ``dtw_distance``, ``dtw_distance_many`` and the recogniser's batched
  classification (``test_fastpath.py``);
- :func:`run_scenario_grid_looped` — ``run_scenario_grid``
  (``test_scenario_grid.py``);
- :func:`conv2d_reference` — ``Conv2d.forward`` and ``Conv2d.infer`` (the
  tap-wise kernel's two entry points) (``test_training_batch.py``,
  ``test_pipeline_batch.py``);
- :func:`selector_reference` — ``Selector.forward`` and
  ``Selector.forward_batch`` (``test_training_batch.py``,
  ``test_pipeline_batch.py``);
- :func:`example_loss`, :func:`fit_looped`, :func:`evaluate_looped` —
  ``SelectorTrainer.batch_loss``, ``fit`` and ``evaluate``
  (``test_training_batch.py``);
- :func:`check_gradients` (with :func:`numerical_gradient`) — every autograd
  op and layer against central differences (``test_nn_tensor.py``,
  ``test_nn_layers.py``); :func:`check_batched_gradients` — one batched
  backward against the accumulated per-example backwards, the minibatch
  contract of ``Selector.forward`` (``test_training_batch.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.asr.dtw import _as_sequence, _local_cost
from repro.audio.signal import AudioSignal
from repro.core.overshadow import complex_shadow
from repro.core.pipeline import NECSystem, ProtectionResult
from repro.core.seeding import derive_seed
from repro.core.training import SelectorTrainer, TrainingExample, TrainingHistory
from repro.dsp.stft import istft, magnitude, stft
from repro.dsp.windows import get_window
from repro.eval.scenarios import (
    ClaimThresholds,
    ScenarioGridResult,
    _build_recognizer,
    _measure_cell,
    _prepare_scene,
)
from repro.nn import Conv2d, Tensor


# -- convolution and Selector ----------------------------------------------------
def conv2d_reference(layer: Conv2d, x: Tensor) -> Tensor:
    """``layer`` on ``(N, C, H, W)`` ``x`` as a sum over kernel taps, with autograd.

    Tap ``(ky, kx)`` multiplies ``weight[:, :, ky, kx]`` into the padded input
    shifted by ``(ky * dil_h, kx * dil_w)``; only ``Tensor.pad``, slicing,
    ``@`` and ``+`` are used.
    """
    num, channels, height, width = x.shape
    out_channels, _, kernel_h, kernel_w = layer.weight.shape
    (pad_h, pad_w), (dil_h, dil_w) = layer.padding, layer.dilation
    out_h, out_w = layer.output_size(height, width)
    padded = x.pad(((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    out = None
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            rows, cols = ky * dil_h, kx * dil_w
            window = padded[:, :, rows : rows + out_h, cols : cols + out_w]
            term = layer.weight[:, :, ky, kx] @ window.reshape(num, channels, out_h * out_w)
            out = term if out is None else out + term
    if layer.bias is not None:
        out = out + layer.bias.reshape(1, out_channels, 1)
    return out.reshape(num, out_channels, out_h, out_w)


def selector_reference(selector, mixed_spectrogram: np.ndarray, d_vector: np.ndarray) -> Tensor:
    """The Selector on one ``(F, T)`` segment through :func:`conv2d_reference`.

    Returns the ``(T, F)`` head output as an autograd graph over the
    Selector's parameters.
    """
    freq_bins, frames = mixed_spectrogram.shape
    compressed = (Tensor(mixed_spectrogram) + 1e-6).log()
    # (F, T) -> (1, 1, T, F): time as "height", frequency as "width".
    hidden = compressed.transpose(1, 0).reshape(1, 1, frames, freq_bins)
    for layer in (selector.conv_freq, selector.conv_time, *selector.dilated, selector.conv_out):
        hidden = conv2d_reference(layer, hidden).relu()
    # (1, 2, T, F) -> (T, 2F), then the d-vector on every frame.
    features = hidden.transpose(0, 2, 1, 3).reshape(frames, 2 * freq_bins)
    tiled = Tensor(np.tile(np.asarray(d_vector).reshape(1, -1), (frames, 1)))
    fused = Tensor.concatenate([features, tiled], axis=1)
    output = selector.fc2(selector.fc1(fused).relu())
    if selector.config.output_mode == "mask":
        output = output.sigmoid()
    return output


# -- protection ---------------------------------------------------------------
def protect_segment(system: NECSystem, mixed_segment: AudioSignal) -> ProtectionResult:
    """One segment through the Selector on its own and a single-clip iSTFT,
    in the system's ``inference_dtype``."""
    system._check_sample_rate(mixed_segment)
    config = system.config
    mixed_stft = stft(
        mixed_segment.data.astype(config.inference_dtype),
        config.n_fft,
        config.win_length,
        config.hop_length,
    )
    mixed_spec = magnitude(mixed_stft)
    shadow_spec = system.selector.shadow_spectrogram_batch(mixed_spec[None], system.embedding)[0]
    wave = istft(
        complex_shadow(mixed_stft, mixed_spec, shadow_spec),
        config.win_length,
        config.hop_length,
        length=mixed_segment.num_samples,
    )
    return ProtectionResult(
        mixed_spectrogram=mixed_spec,
        shadow_spectrogram=shadow_spec,
        shadow_wave=AudioSignal(wave, config.sample_rate),
    )


def protect_looped(system: NECSystem, mixed_audio: AudioSignal) -> ProtectionResult:
    """``NECSystem.protect`` one segment at a time.

    The clip is cut into ``segment_samples`` pieces, the last one zero-padded
    (an empty clip is one all-zero piece); each piece goes through
    :func:`protect_segment`, and the pieces' spectrograms and waves are
    joined, the wave cut back to the clip's length.
    """
    segment = system.config.segment_samples
    data = mixed_audio.data
    pieces = []
    for start in range(0, max(data.size, 1), segment):
        piece = np.zeros(segment, dtype=data.dtype)
        chunk = data[start : start + segment]
        piece[: chunk.size] = chunk
        pieces.append(protect_segment(system, AudioSignal(piece, mixed_audio.sample_rate)))
    return ProtectionResult(
        mixed_spectrogram=np.concatenate([p.mixed_spectrogram for p in pieces], axis=1),
        shadow_spectrogram=np.concatenate([p.shadow_spectrogram for p in pieces], axis=1),
        shadow_wave=AudioSignal(
            np.concatenate([p.shadow_wave.data for p in pieces])[: data.size],
            mixed_audio.sample_rate,
        ),
    )


# -- inverse STFT ---------------------------------------------------------------
def istft_reference(
    spectrum: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """Sequential per-frame overlap-add, the envelope re-accumulated per call."""
    spectrum = np.asarray(spectrum)
    if spectrum.ndim != 2:
        raise ValueError("istft expects a (F, T) spectrum")
    n_fft = (spectrum.shape[0] - 1) * 2
    frames = np.fft.irfft(spectrum.T, n=n_fft, axis=1)[:, :win_length]
    win = get_window(window, win_length)
    num_frames = frames.shape[0]
    expected = win_length + hop_length * (num_frames - 1)
    output = np.zeros(expected)
    norm = np.zeros(expected)
    for index in range(num_frames):
        start = index * hop_length
        output[start : start + win_length] += frames[index] * win
        norm[start : start + win_length] += win ** 2
    # Normalise only where the window sum carries real weight.
    safe = norm > max(norm.max() * 1e-2, 1e-10)
    output[safe] /= norm[safe]
    if length is not None:
        if length <= expected:
            output = output[:length]
        else:
            output = np.pad(output, (0, length - expected))
    return output


def batch_istft_reference(
    spectra: np.ndarray,
    win_length: int = 400,
    hop_length: int = 160,
    window: str = "hann",
    length: Optional[int] = None,
) -> np.ndarray:
    """One :func:`istft_reference` per clip."""
    spectra = np.asarray(spectra)
    if spectra.ndim != 3:
        raise ValueError("batch_istft expects a (N, F, T) batch of spectra")
    waves = [
        istft_reference(spectrum, win_length, hop_length, window, length=length)
        for spectrum in spectra
    ]
    return np.stack(waves) if waves else np.zeros((0, length or 0))


# -- recognition --------------------------------------------------------------
def dtw_distance_reference(sequence_a: np.ndarray, sequence_b: np.ndarray) -> float:
    """Normalised DTW distance by a pure-Python double loop."""
    a = _as_sequence(sequence_a)
    b = _as_sequence(sequence_b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("feature dimensionality mismatch")
    local = _local_cost(a, b)
    rows, cols = local.shape
    accumulated = np.full((rows + 1, cols + 1), np.inf)
    accumulated[0, 0] = 0.0
    for i in range(1, rows + 1):
        row_cost = local[i - 1]
        for j in range(1, cols + 1):
            best_previous = min(
                accumulated[i - 1, j], accumulated[i, j - 1], accumulated[i - 1, j - 1]
            )
            accumulated[i, j] = row_cost[j - 1] + best_previous
    return float(accumulated[rows, cols] / (rows + cols))


def classify_segment_reference(recognizer, features: np.ndarray) -> tuple:
    """``TemplateRecognizer._classify_segment`` as a per-template loop."""
    best_word = recognizer.OOV_TOKEN
    best_distance = np.inf
    for word, templates in recognizer._templates.items():
        for template in templates:
            distance = dtw_distance_reference(features, template)
            if distance < best_distance:
                best_distance = distance
                best_word = word
    if best_distance > recognizer.rejection_threshold:
        return recognizer.OOV_TOKEN, best_distance
    return best_word, best_distance


# -- scenario grid --------------------------------------------------------------
def run_scenario_grid_looped(
    context,
    grid,
    distance_m: float = 0.5,
    device: str = "Moto Z4",
    snr_db: float = 0.0,
    thresholds: Optional[ClaimThresholds] = None,
    wer_mode: str = "none",
    seed: int = 0,
) -> ScenarioGridResult:
    """``run_scenario_grid`` with one ``protect`` per scene, cells in order."""
    thresholds = thresholds if thresholds is not None else ClaimThresholds()
    cells = grid.cells()
    scenes = {}
    for scene_index, crowd in enumerate(sorted({cell.crowd_size for cell in cells})):
        scene = _prepare_scene(context, crowd, scene_index, seed, snr_db)
        scene.protection = context.system_for(scene.target_speaker).protect(scene.mixed)
        scenes[crowd] = scene
    recognizer = _build_recognizer(device, wer_mode, seed)
    results = [
        _measure_cell(
            cell,
            scenes[cell.crowd_size],
            derive_seed(seed, index),
            context.config,
            distance_m,
            device,
            thresholds,
            recognizer,
            wer_mode,
        )
        for index, cell in enumerate(cells)
    ]
    return ScenarioGridResult(grid=grid, thresholds=thresholds, cells=results)


# -- training -------------------------------------------------------------------
def example_loss(trainer: SelectorTrainer, example: TrainingExample) -> Tensor:
    """Eq. (6) for one example through :func:`selector_reference`."""
    mixed_t = Tensor(example.mixed_spectrogram.T)          # (T, F), constant
    background_t = Tensor(example.background_spectrogram.T)
    output = selector_reference(
        trainer.selector, example.mixed_spectrogram, example.d_vector
    )  # (T, F)
    if trainer.config.output_mode == "mask":
        record = mixed_t * (1.0 - output)
    else:
        record = mixed_t + output
    diff = record - background_t
    return (diff * diff).mean()


def step(trainer: SelectorTrainer, example: TrainingExample) -> float:
    """One optimisation step on a single example; returns the loss value."""
    trainer.optimizer.zero_grad()
    loss = example_loss(trainer, example)
    loss.backward()
    trainer.optimizer.step()
    return float(loss.data)


def fit_looped(
    trainer: SelectorTrainer,
    examples: Sequence[TrainingExample],
    epochs: Optional[int] = None,
    shuffle: Optional[bool] = None,
    seed: Optional[int] = None,
) -> TrainingHistory:
    """One :func:`step` per example at the configured learning rate.

    ``fit(batch_size=1)`` visits the same examples in the same order.
    """
    config = trainer.train_config
    epochs = config.epochs if epochs is None else int(epochs)
    shuffle = config.shuffle if shuffle is None else bool(shuffle)
    seed = config.seed if seed is None else int(seed)
    if not examples:
        raise ValueError("fit_looped() needs at least one training example")
    examples = list(examples)
    history = TrainingHistory(epochs=epochs, batch_size=1)
    trainer.optimizer.lr = config.learning_rate
    rng = np.random.default_rng(seed)
    order = np.arange(len(examples))
    for _ in range(epochs):
        if shuffle:
            rng.shuffle(order)
        for index in order:
            history.losses.append(step(trainer, examples[index]))
    return history


def evaluate_looped(trainer: SelectorTrainer, examples: Sequence[TrainingExample]) -> float:
    """Mean of the per-example :func:`example_loss` values."""
    if not examples:
        raise ValueError("evaluate_looped() needs at least one example")
    total = sum(float(example_loss(trainer, example).data) for example in examples)
    return total / len(examples)


# -- gradients ------------------------------------------------------------------
def numerical_gradient(
    func: Callable[[], Tensor], tensor: Tensor, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``func()`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = float(func().data)
        flat[index] = original - eps
        minus = float(func().data)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-6,
    tolerance: float = 1e-4,
) -> bool:
    """Compare autograd gradients against numerical ones for each tensor.

    Returns ``True`` when every gradient matches within ``tolerance`` (relative
    on the larger scales, absolute near zero).  Raises ``AssertionError`` with
    a diagnostic message otherwise.
    """
    for tensor in tensors:
        tensor.zero_grad()
    loss = func()
    loss.backward()
    for position, tensor in enumerate(tensors):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(func, tensor, eps=eps)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        error = np.max(np.abs(analytic - numeric) / denom)
        if error > tolerance:
            raise AssertionError(
                f"Gradient mismatch for tensor #{position}: max relative error {error:.3e}"
            )
    return True


def _collect_grads(tensors: Sequence[Tensor]) -> Dict[int, np.ndarray]:
    return {
        position: np.array(tensor.grad, copy=True)
        for position, tensor in enumerate(tensors)
        if tensor.grad is not None
    }


def check_batched_gradients(
    batched_func: Callable[[], Tensor],
    example_funcs: Sequence[Callable[[], Tensor]],
    tensors: Sequence[Tensor],
    reduction: str = "mean",
    tolerance: float = 1e-9,
) -> float:
    """Verify that one batched backward equals the per-example accumulation.

    ``batched_func`` computes the scalar minibatch loss over the whole batch;
    ``example_funcs`` compute each example's scalar loss individually.  With
    ``reduction='mean'`` (the trainer's convention — the batch loss is the
    mean of per-example losses) the accumulated per-example gradients are
    divided by the batch size before comparison; ``'sum'`` compares them
    directly.  Returns the max relative error and raises ``AssertionError``
    when it exceeds ``tolerance`` (tight: float64 accumulation-order noise
    only — measured ~1e-14 on the Selector graph, gated at 1e-9).
    """
    if reduction not in ("mean", "sum"):
        raise ValueError("reduction must be 'mean' or 'sum'")
    if not example_funcs:
        raise ValueError("check_batched_gradients needs at least one example")

    for tensor in tensors:
        tensor.zero_grad()
    batched_func().backward()
    batched = _collect_grads(tensors)

    for tensor in tensors:
        tensor.zero_grad()
    for func in example_funcs:
        func().backward()  # grads accumulate across examples
    looped = _collect_grads(tensors)
    if reduction == "mean":
        looped = {k: v / len(example_funcs) for k, v in looped.items()}

    if set(batched) != set(looped):
        raise AssertionError(
            f"batched and looped passes reached different parameters: "
            f"{sorted(set(batched) ^ set(looped))}"
        )
    worst = 0.0
    for position in batched:
        a, b = batched[position], looped[position]
        denom = np.maximum(np.abs(a) + np.abs(b), 1.0)
        error = float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
        worst = max(worst, error)
        if error > tolerance:
            raise AssertionError(
                f"Batched gradient mismatch for tensor #{position}: "
                f"max relative error {error:.3e} (tolerance {tolerance:.1e})"
            )
    return worst
