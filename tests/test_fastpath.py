"""Equivalence suites for the evaluation fast path.

Every vectorised kernel introduced by the fast path is checked against its
seed implementation, kept as a ``*_reference`` oracle in
``tests/oracles.py``; these tests pin the pairs together — bit-identical where the reordering is exactness-preserving (DTW
min/add, STFT framing, the batched driver) and ``<= 1e-10`` where summation
order changes (overlap-add accumulation).
"""

import numpy as np
import pytest
from oracles import (
    batch_istft_reference,
    classify_segment_reference,
    dtw_distance_reference,
    istft_reference,
)

from repro.asr.dtw import dtw_distance, dtw_distance_many
from repro.asr.recognizer import TemplateRecognizer, _TEMPLATE_CACHE
from repro.dsp.filters import (
    bandpass_filter,
    butter_sos,
    filter_design_cache_info,
    lowpass_filter,
)
from repro.dsp.stft import batch_istft, batch_stft, istft, stft
from repro.dsp.windows import get_window

SR = 16000


# ---------------------------------------------------------------------------
# DTW kernels
# ---------------------------------------------------------------------------
class TestDTWEquivalence:
    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [
            ((20, 5), (30, 5)),
            ((1, 3), (7, 3)),     # degenerate: single-frame query
            ((9, 4), (1, 4)),     # degenerate: single-frame template
            ((1, 2), (1, 2)),     # both single-frame
            ((40, 26), (55, 26)),  # mismatched lengths, MFCC-sized
        ],
    )
    def test_vectorized_dtw_bit_identical_to_reference(self, shape_a, shape_b):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        assert dtw_distance(a, b) == dtw_distance_reference(a, b)

    def test_one_dimensional_inputs(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=17), rng.normal(size=29)
        assert dtw_distance(a, b) == dtw_distance_reference(a, b)

    def test_identical_sequences_zero(self):
        sequence = np.random.default_rng(2).normal(size=(12, 6))
        assert dtw_distance(sequence, sequence) == pytest.approx(0.0, abs=1e-6)

    def test_errors_match_reference(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros((5, 3)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            dtw_distance(np.zeros((0, 3)), np.zeros((5, 3)))

    def test_many_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(33, 8))
        bank = [rng.normal(size=(int(n), 8)) for n in rng.integers(1, 50, size=25)]
        reference = np.array([dtw_distance_reference(features, t) for t in bank])
        many = dtw_distance_many(features, bank)
        # The shared Gram reassociates BLAS blocks (~1e-15); the DP itself is
        # exactness-preserving.
        np.testing.assert_allclose(many, reference, atol=1e-10)

    def test_many_single_frame_query(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(1, 8))
        bank = [rng.normal(size=(n, 8)) for n in (1, 2, 13)]
        reference = np.array([dtw_distance_reference(features, t) for t in bank])
        np.testing.assert_allclose(dtw_distance_many(features, bank), reference, atol=1e-10)

    def test_many_empty_bank(self):
        assert dtw_distance_many(np.zeros((4, 2)), []).size == 0

    def test_many_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dtw_distance_many(np.zeros((4, 2)), [np.zeros((3, 5))])

    def test_early_abandon_preserves_min_and_argmin(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(28, 10))
        bank = [rng.normal(size=(int(n), 10)) for n in rng.integers(5, 60, size=40)]
        exact = dtw_distance_many(features, bank)
        abandoned = dtw_distance_many(features, bank, early_abandon=True)
        assert abandoned.min() == exact.min()
        assert np.argmin(abandoned) == np.argmin(exact)
        # Non-minimal entries are either exact or +inf (abandoned).
        finite = np.isfinite(abandoned)
        np.testing.assert_array_equal(abandoned[finite], exact[finite])


# ---------------------------------------------------------------------------
# iSTFT kernels
# ---------------------------------------------------------------------------
class TestISTFTEquivalence:
    @pytest.mark.parametrize(
        "n_fft,win,hop",
        [
            (320, 320, 160),  # eval geometry: hop divides win (tile branch)
            (1200, 400, 160),  # paper geometry: hop does not divide win
            (512, 400, 100),
        ],
    )
    @pytest.mark.parametrize("length_mode", ["none", "exact", "trim", "pad"])
    def test_istft_matches_reference(self, n_fft, win, hop, length_mode):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=9000)
        spectrum = stft(signal, n_fft, win, hop)
        length = {
            "none": None,
            "exact": signal.size,
            "trim": signal.size // 2,
            "pad": signal.size + 321,
        }[length_mode]
        fast = istft(spectrum, win, hop, length=length)
        reference = istft_reference(spectrum, win, hop, length=length)
        assert fast.shape == reference.shape
        np.testing.assert_allclose(fast, reference, atol=1e-10)

    def test_edge_normalisation_guard(self):
        """Samples where the window-sum is negligible stay unnormalised."""
        rng = np.random.default_rng(1)
        signal = rng.normal(size=4000)
        spectrum = stft(signal, 512, 400, 100)
        fast = istft(spectrum, 400, 100)
        reference = istft_reference(spectrum, 400, 100)
        win = get_window("hann", 400)
        # The Hann window vanishes at its first sample, so the very first
        # output sample is outside the "safe" normalisation region for both
        # implementations — the guard must agree at the edges too.
        norm = np.zeros(fast.size)
        for index in range(spectrum.shape[1]):
            norm[index * 100 : index * 100 + 400] += win**2
        unsafe = norm <= max(norm.max() * 1e-2, 1e-10)
        assert unsafe.any()
        np.testing.assert_allclose(fast[unsafe], reference[unsafe], atol=1e-12)

    def test_single_frame_spectrum(self):
        rng = np.random.default_rng(2)
        signal = rng.normal(size=300)  # shorter than the window
        spectrum = stft(signal, 512, 400, 160)
        assert spectrum.shape[1] == 1
        np.testing.assert_allclose(
            istft(spectrum, 400, 160, length=300),
            istft_reference(spectrum, 400, 160, length=300),
            atol=1e-10,
        )

    def test_batch_matches_reference_and_rows_match_single(self):
        rng = np.random.default_rng(3)
        signals = rng.normal(size=(5, SR))
        batch = batch_stft(signals, 320, 320, 160)
        fast = batch_istft(batch, 320, 160, length=SR)
        reference = batch_istft_reference(batch, 320, 160, length=SR)
        np.testing.assert_allclose(fast, reference, atol=1e-10)
        for row in range(signals.shape[0]):
            np.testing.assert_array_equal(
                istft(batch[row], 320, 160, length=SR), fast[row]
            )

    def test_batch_length_branches(self):
        rng = np.random.default_rng(4)
        signals = rng.normal(size=(3, 6000))
        batch = batch_stft(signals, 512, 400, 160)
        for length in (None, 6000, 2500, 7777):
            fast = batch_istft(batch, 400, 160, length=length)
            reference = batch_istft_reference(batch, 400, 160, length=length)
            assert fast.shape == reference.shape
            np.testing.assert_allclose(fast, reference, atol=1e-10)

    def test_batch_rejects_non_3d_and_empty(self):
        with pytest.raises(ValueError):
            batch_istft(np.zeros((5, 4)))
        empty = batch_istft(np.zeros((0, 5, 4)), 8, 4, length=16)
        assert empty.shape == batch_istft_reference(np.zeros((0, 5, 4)), 8, 4, length=16).shape

    def test_ola_plan_cache_clearable(self):
        from repro.dsp.stft import _OLA_PLAN_CACHE, clear_ola_plan_cache

        rng = np.random.default_rng(6)
        spectrum = stft(rng.normal(size=3000), 512, 400, 160)
        before = istft(spectrum, 400, 160)
        assert _OLA_PLAN_CACHE
        clear_ola_plan_cache()
        assert not _OLA_PLAN_CACHE
        np.testing.assert_array_equal(istft(spectrum, 400, 160), before)

    def test_stft_gather_matches_seed_framing(self):
        """The one-shot frame gather equals the seed's per-frame loop exactly."""
        rng = np.random.default_rng(5)
        for size in (100, 399, 400, 8000, 8123):
            signal = rng.normal(size=size)
            win = get_window("hann", 400)
            if size < 400:
                starts = np.array([0])
            else:
                starts = np.arange(1 + (size - 400) // 160) * 160
            frames = np.zeros((starts.size, 400))
            for index, start in enumerate(starts):
                chunk = signal[start : start + 400]
                frames[index, : chunk.size] = chunk
            seed_spectrum = np.fft.rfft(frames * win, n=512, axis=1).T
            np.testing.assert_array_equal(stft(signal, 512, 400, 160), seed_spectrum)


# ---------------------------------------------------------------------------
# Filter-design cache
# ---------------------------------------------------------------------------
class TestFilterDesignCache:
    def test_repeated_designs_hit_cache(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=2000)
        first = lowpass_filter(signal, 7600.0, 192_000)
        hits_before = filter_design_cache_info().hits
        second = lowpass_filter(signal, 7600.0, 192_000)
        assert filter_design_cache_info().hits > hits_before
        np.testing.assert_array_equal(first, second)

    def test_cached_design_matches_direct_scipy(self):
        from scipy import signal as sps

        rng = np.random.default_rng(1)
        signal = rng.normal(size=1500)
        direct = sps.sosfiltfilt(
            sps.butter(4, [500 / (SR / 2), 2000 / (SR / 2)], btype="band", output="sos"),
            signal,
        )
        np.testing.assert_array_equal(bandpass_filter(signal, 500, 2000, SR, order=4), direct)
        # The 192 kHz microphone anti-aliasing low-pass of the channel model.
        rate = 192_000
        wide = rng.normal(size=rate // 10)
        direct = sps.sosfiltfilt(
            sps.butter(6, 7600.0 / (rate / 2.0), btype="low", output="sos"), wide
        )
        np.testing.assert_array_equal(lowpass_filter(wide, 7600.0, rate, order=6), direct)

    def test_synthesis_bands_share_cached_designs(self, monkeypatch):
        """The synthesiser's fricative and stop bands go through the design
        cache: a fricative-heavy word synthesised twice hits it, and both
        renderings are bitwise what a fresh ``scipy.signal.butter`` design
        per phoneme gives."""
        from scipy import signal as sps

        import repro.audio.voice as voice

        synthesizer = voice.VoiceSynthesizer(sample_rate=SR)
        profile = voice.random_speaker_profile("spk", np.random.default_rng(3))
        word = "six"  # S, IH, K, S: two fricatives and a stop
        first = synthesizer.synthesize_word(word, profile, np.random.default_rng(4))
        hits_before = filter_design_cache_info().hits
        second = synthesizer.synthesize_word(word, profile, np.random.default_rng(4))
        assert filter_design_cache_info().hits >= hits_before + 3

        def fresh_design(order, cutoffs_hz, sample_rate, btype):
            nyquist = sample_rate / 2.0
            critical = [cutoff / nyquist for cutoff in cutoffs_hz]
            return sps.butter(order, critical, btype=btype, output="sos")

        monkeypatch.setattr(voice, "butter_sos", fresh_design)
        direct = synthesizer.synthesize_word(word, profile, np.random.default_rng(4))
        np.testing.assert_array_equal(first, direct)
        np.testing.assert_array_equal(second, direct)

    def test_returned_design_is_writable_copy(self):
        sos = butter_sos(6, (1000.0,), SR, "low")
        assert sos.flags.writeable
        sos[0, 0] = 123.0  # must not poison the cache
        np.testing.assert_array_equal(butter_sos(6, (1000.0,), SR, "low")[0], butter_sos(6, (1000.0,), SR, "low")[0])
        assert butter_sos(6, (1000.0,), SR, "low")[0, 0] != 123.0

    def test_distinct_parameters_distinct_designs(self):
        assert not np.array_equal(
            butter_sos(6, (1000.0,), SR, "low"), butter_sos(6, (2000.0,), SR, "low")
        )


# ---------------------------------------------------------------------------
# Recogniser: batched classification + template-enrollment cache
# ---------------------------------------------------------------------------
class TestRecognizerFastpath:
    VOCAB = ["hot", "coffee", "me", "bring", "water", "cold"]

    def test_enrollment_cache_shared_between_instances(self):
        first = TemplateRecognizer(sample_rate=SR, vocabulary=self.VOCAB, seed=0)
        second = TemplateRecognizer(sample_rate=SR, vocabulary=self.VOCAB, seed=0)
        assert first._templates is second._templates  # one enrollment, shared bank
        different_seed = TemplateRecognizer(sample_rate=SR, vocabulary=self.VOCAB, seed=1)
        assert different_seed._templates is not first._templates
        assert (SR, tuple(sorted(self.VOCAB)), 2, 13, 0) in _TEMPLATE_CACHE

    def test_batched_classification_matches_reference_loop(self):
        recognizer = TemplateRecognizer(sample_rate=SR, vocabulary=self.VOCAB, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            features = rng.normal(size=(rng.integers(2, 40), 26))
            word, distance = recognizer._classify_segment(features)
            ref_word, ref_distance = classify_segment_reference(recognizer, features)
            assert word == ref_word
            assert distance == pytest.approx(ref_distance, abs=1e-10)

    def test_empty_template_bank_rejects_like_reference(self):
        recognizer = TemplateRecognizer(sample_rate=SR, vocabulary=self.VOCAB, seed=0)
        recognizer._template_bank = []
        recognizer._template_words = []
        recognizer._templates = {}
        features = np.random.default_rng(0).normal(size=(10, 26))
        assert recognizer._classify_segment(features) == (
            classify_segment_reference(recognizer, features)
        )

    def test_transcription_unchanged_by_fast_kernel(self):
        from repro.audio import SyntheticCorpus

        recognizer = TemplateRecognizer(sample_rate=SR, vocabulary=self.VOCAB, seed=0)
        corpus = SyntheticCorpus(num_speakers=2, seed=7)
        audio = corpus.utterance("spk000", text="bring me hot coffee").audio
        result = recognizer.transcribe(audio)
        segments_checked = 0
        from repro.asr.segmentation import segment_words

        for start, end in segment_words(audio.data, SR):
            features = recognizer._features(audio.data[start:end])
            if features.shape[0] < 2:
                continue
            assert recognizer._classify_segment(features)[0] == (
                classify_segment_reference(recognizer, features)[0]
            )
            segments_checked += 1
        assert segments_checked == len(result.words)


# ---------------------------------------------------------------------------
# Batched eval driver + summary single pass
# ---------------------------------------------------------------------------
class TestBatchedDriver:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.eval.common import prepare_context

        return prepare_context(num_speakers=4, num_targets=2, train=False, seed=0)

    def test_driver_bit_identical_to_per_instance_protect(self, context):
        from repro.eval.common import batched_protections

        rng = np.random.default_rng(0)
        duration = 2.0 * context.config.segment_seconds
        # Interleave the two speakers to exercise grouping + order restoration.
        jobs = []
        for index in range(4):
            speaker = context.target_speakers[index % 2]
            jobs.append((speaker, context.corpus.utterance(speaker, seed=index, duration=duration).audio))
        batched = batched_protections(context, jobs)
        for (speaker, audio), result in zip(jobs, batched):
            reference = context.system_for(speaker).protect(audio)
            np.testing.assert_array_equal(reference.shadow_wave.data, result.shadow_wave.data)
            np.testing.assert_array_equal(reference.shadow_spectrogram, result.shadow_spectrogram)
            np.testing.assert_array_equal(reference.record_spectrogram, result.record_spectrogram)

    def test_overall_benchmark_matches_per_instance_path(self, context):
        """The refactored benchmark equals the seed's per-instance loop."""
        from repro.eval.datasets import compile_benchmark_dataset
        from repro.eval.overall import run_overall_benchmark
        from repro.metrics.sdr import sdr

        dataset = compile_benchmark_dataset(
            context.corpus,
            context.target_speakers,
            context.other_speakers,
            instances_per_scenario=2,
            scenarios=("joint", "babble"),
            duration=context.config.segment_seconds,
            seed=0,
        )
        result = run_overall_benchmark(context, dataset=dataset)
        assert len(result.measurements) == len(dataset.instances)
        for instance, measurement in zip(dataset.instances, result.measurements):
            system = context.system_for(instance.target_speaker)
            protection = system.protect(instance.mixed)  # the pre-refactor path
            recorded = system.superpose(instance.mixed, protection)
            assert measurement.sdr_target_mixed == sdr(
                instance.target_component.data, instance.mixed.data
            )
            assert measurement.sdr_target_recorded == sdr(
                instance.target_component.data, recorded.data
            )
            assert measurement.sdr_background_recorded == sdr(
                instance.background_component.data, recorded.data
            )

    def test_overall_benchmark_with_wer_matches_seed_path(self, context, monkeypatch):
        """The acceptance pin: `run_overall_benchmark(compute_wer=True)` equals
        the pre-refactor path within 1e-8 on every SDR/WER value.

        The seed path is reconstructed in-process from the kept reference
        kernels: per-instance ``protect`` instead of the batched driver, the
        sequential ``istft_reference`` inside shadow reconstruction, and the
        per-template DTW loop inside the recogniser — so both paths see the
        exact same context, dataset and template bank.
        """
        import repro.core.overshadow as overshadow
        import repro.eval.overall as overall
        from repro.eval.datasets import compile_benchmark_dataset
        from repro.eval.overall import run_overall_benchmark

        vocab = ["hot", "coffee", "me", "bring", "water", "cold", "the", "a"]
        recognizer = TemplateRecognizer(
            sample_rate=context.config.sample_rate, vocabulary=vocab, seed=0
        )
        dataset = compile_benchmark_dataset(
            context.corpus,
            context.target_speakers,
            context.other_speakers,
            instances_per_scenario=1,
            scenarios=("joint", "babble"),
            duration=context.config.segment_seconds,
            seed=0,
        )

        fast = run_overall_benchmark(
            context, dataset=dataset, compute_wer=True, recognizer=recognizer
        )

        monkeypatch.setattr(overshadow, "istft", istft_reference)
        monkeypatch.setattr(
            overall,
            "batched_protections",
            lambda ctx, jobs: [ctx.system_for(s).protect(a) for s, a in jobs],
        )
        monkeypatch.setattr(TemplateRecognizer, "_classify_segment", classify_segment_reference)
        reference = run_overall_benchmark(
            context, dataset=dataset, compute_wer=True, recognizer=recognizer
        )

        attributes = [
            "sdr_target_mixed",
            "sdr_target_recorded",
            "sdr_background_mixed",
            "sdr_background_recorded",
            "wer_target_mixed",
            "wer_target_recorded",
            "wer_background_mixed",
            "wer_background_recorded",
        ]
        for fast_m, ref_m in zip(fast.measurements, reference.measurements):
            for name in attributes:
                fast_value = getattr(fast_m, name)
                ref_value = getattr(ref_m, name)
                if fast_value is None and ref_value is None:
                    continue
                assert abs(fast_value - ref_value) <= 1e-8, (name, fast_value, ref_value)

    def test_summary_evaluates_each_series_once(self):
        from repro.eval.overall import InstanceMeasurement, OverallResult

        calls = []

        class CountingResult(OverallResult):
            def _series(self, attribute):
                calls.append(attribute)
                return super()._series(attribute)

        result = CountingResult(
            measurements=[
                InstanceMeasurement(
                    scenario="joint",
                    target_speaker="spk000",
                    sdr_target_mixed=1.0,
                    sdr_target_recorded=-2.0,
                    sdr_background_mixed=0.5,
                    sdr_background_recorded=0.4,
                )
            ]
        )
        summary = result.summary()
        assert "sdr_target_mixed" in summary
        assert len(calls) == len(set(calls)), "summary() recomputed a series"
