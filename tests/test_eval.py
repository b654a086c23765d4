"""Integration tests for the experiment harness (one per paper artefact)."""

import numpy as np
import pytest

import repro.eval as E
from repro.core.config import TrainingConfig
from repro.eval import prepare_context
from repro.eval.common import EVAL_TRAINING
from repro.eval.datasets import PAPER_TABLE1_COUNTS, compile_benchmark_dataset
from repro.eval.reporting import format_table, summarize


@pytest.fixture(scope="module")
def context():
    """One trained tiny-scale context shared by all harness tests."""
    return prepare_context(
        num_speakers=6,
        num_targets=2,
        seed=0,
        training=EVAL_TRAINING.replace(epochs=4, num_examples_per_target=3),
    )


class TestReporting:
    def test_format_table_contains_cells(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", "y"]])
        assert "2.500" in table and "x" in table

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["median"] == 2.0
        assert stats["min"] == 1.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestContext:
    def test_training_improved(self, context):
        assert context.training_history is not None
        assert context.training_history.improved()

    def test_given_training_config_is_used_whole(self):
        """A passed recipe trains as given; only ``seed`` is applied on top."""
        recipe = TrainingConfig(epochs=1, num_examples_per_target=2, batch_size=2)
        context = prepare_context(num_speakers=4, num_targets=1, seed=3, training=recipe)
        assert context.trainer.train_config == recipe.replace(seed=3)
        # One target x 2 examples in batches of 2, for one epoch.
        assert context.training_history.steps == 1

    def test_system_cache(self, context):
        a = context.system_for(context.target_speakers[0])
        b = context.system_for(context.target_speakers[0])
        assert a is b
        assert a.is_enrolled


class TestDatasets:
    def test_structure_matches_table1(self, context):
        dataset = compile_benchmark_dataset(
            context.corpus,
            context.target_speakers,
            context.other_speakers,
            instances_per_scenario=2,
            duration=context.config.segment_seconds,
        )
        assert set(dataset.scenarios) == {"joint", "babble", "factory", "vehicle"}
        assert all(count == 2 for count in dataset.counts().values())
        assert set(PAPER_TABLE1_COUNTS) == {"joint", "babble", "factory", "vehicle"}
        assert "Scenario" in dataset.table()

    def test_components_sum_to_mixture(self, context):
        dataset = compile_benchmark_dataset(
            context.corpus,
            context.target_speakers,
            context.other_speakers,
            instances_per_scenario=1,
            scenarios=("joint",),
            duration=context.config.segment_seconds,
        )
        instance = dataset.instances[0]
        np.testing.assert_allclose(
            instance.mixed.data,
            instance.target_component.data + instance.background_component.data,
            atol=1e-9,
        )


class TestObservationStudies:
    def test_las_correlation_same_exceeds_cross(self, context):
        result = E.run_las_correlation(
            corpus=context.corpus, speakers=context.corpus.speaker_ids[:3], utterances_per_speaker=3
        )
        assert result.mean_same_speaker > result.mean_cross_speaker
        assert result.mean_same_speaker > 0.85

    def test_las_curves_differ_across_speakers(self, context):
        result = E.run_las_curves(corpus=context.corpus, speakers=context.corpus.speaker_ids[:3])
        ids = context.corpus.speaker_ids
        assert result.pairwise_distance(ids[0], ids[1]) > 0.0

    def test_formant_observation_is_consistent_per_speaker(self, context):
        result = E.run_formant_observation(
            corpus=context.corpus, speakers=context.corpus.speaker_ids[:2]
        )
        assert len(result.observations) == 4
        assert "Speaker" in result.table()


class TestOffsetStudy:
    def test_oracle_shadow_beats_mixed_reference(self, context):
        result = E.run_offset_study(
            context,
            time_offsets_ms=(0, 300),
            power_coefficients=(1.0,),
            use_oracle_shadow=True,
        )
        aligned = result.at(1.0)[0]
        assert aligned.cosine_distance <= result.mixed_reference.cosine_distance
        assert "cosine" in result.table()


class TestOverallBenchmark:
    def test_nec_hides_target(self, context):
        result = E.run_overall_benchmark(context, instances_per_scenario=1, scenarios=("joint", "vehicle"))
        assert result.hide_target_effective()
        summary = result.summary()
        assert summary["sdr_target_recorded"]["median"] < summary["sdr_target_mixed"]["median"]


class TestUserStudy:
    def test_urs_higher_for_protected_recordings(self, context):
        result = E.run_user_study(context, num_volunteers=1, instances_per_volunteer=1, scenarios=("joint",))
        urs = result.mean_urs()
        assert urs["recorded"] >= urs["mixed"]
        sdrs = result.median_sdr()
        assert sdrs["recorded"] < sdrs["mixed"]
        assert result.per_reviewer_mean()["recorded"].shape == (10,)


class TestDistanceStudies:
    def test_waveform_share_decreases_with_distance(self, context):
        result = E.run_waveform_distance_study(context, distances_m=(0.5, 3.0))
        assert result.points[0].target_share > result.points[-1].target_share
        assert "Bob share" in result.table()

    def test_loudness_follows_spreading_law(self):
        result = E.run_loudness_study(distances_m=(0.05, 5.0))
        assert result.points[0].target_spl == pytest.approx(77.0)
        assert result.points[-1].target_spl < 45.0

    def test_sonr_gain_at_close_range(self, context):
        result = E.run_sonr_study(context, distances_m=(0.5,))
        assert result.nec_gain_at(0.5) > 3.0


class TestComparisonStudy:
    def test_nec_selectively_hides(self, context):
        result = E.run_comparison_study(context, num_audios=2)
        # Every jamming system lowers Bob's SDR vs the raw mixture.
        for system in ("nec", "white_noise", "patronus"):
            assert result.median_target_sdr(system) < result.median_target_sdr("mixed")
        # NEC keeps Alice better than indiscriminate white-noise jamming.
        assert result.median_background_sdr("nec") > result.median_background_sdr("white_noise")


class TestRuntime:
    def test_runtime_structure_and_speedup(self):
        from repro.core import NECConfig

        result = E.run_runtime_analysis(config=NECConfig.tiny(), repetitions=1)
        assert result.nec.total_ms > 0
        assert result.voicefilter.selector_ms > 0
        assert result.pi_estimate(result.nec).selector_ms > result.nec.selector_ms
        assert "platform" in result.table()


class TestDeviceStudy:
    def test_measured_ranges_overlap_reference(self):
        result = E.run_device_study(
            devices=["Moto Z4", "iPhone X"],
            carrier_grid_khz=[22.0, 25.0, 28.0, 31.0],
            distance_grid_m=(0.5, 2.0),
            probe_seconds=0.2,
        )
        assert len(result.devices) == 2
        for device in result.devices:
            assert device.measured_low_khz >= 20.0
            assert device.measured_best_khz >= device.measured_low_khz
            assert device.measured_max_distance_m > 0
        assert "Model" in result.table()


class TestMultiRecorder:
    def test_counts_are_monotone(self, context):
        result = E.run_multi_recorder_study(context, carriers_khz=(27.2,), num_audios=2)
        counts = result.counts_for(27.2)
        one_plus = int(counts["1+"].split("/")[0])
        three_plus = int(counts["3+"].split("/")[0])
        assert one_plus >= three_plus
        assert "fc (kHz)" in result.table()


class TestAblations:
    def test_output_mode_ablation_produces_two_arms(self):
        result = E.run_output_mode_ablation(
            training=EVAL_TRAINING.replace(epochs=2, num_examples_per_target=2)
        )
        assert {arm.name for arm in result.arms} == {"output=mask", "output=spectrogram"}
        assert result.best_arm() in result.arms

    def test_dilation_ablation_orders_parameter_counts(self):
        result = E.run_dilation_ablation(
            dilation_sets=((1,), (1, 2)),
            training=EVAL_TRAINING.replace(epochs=2, num_examples_per_target=2),
        )
        assert result.arms[0].num_parameters < result.arms[1].num_parameters
        assert "variant" in result.table()
