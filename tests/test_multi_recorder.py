"""Multi-recorder study (Table IV): determinism, the recorder-angle axis.

The study gained a ``recorder_angle_deg`` parameter for the scenario grid's
angle axis.  Pinned here: the refactored off-recording is bit-identical to the
legacy ``record_over_the_air(enabled=False)`` path at angle 0, the 2-recorder
table is seed-stable run to run, moving the recorders off axis can only
lose affected devices (the ultrasonic beam is narrower than speech), and the
carrier sweep leaves the context's cached systems on their own carrier.
"""

import dataclasses

import numpy as np
import pytest

from repro.audio.mixing import joint_conversation
from repro.channel.recorder import Recorder, SceneSource, record_over_the_air
from repro.eval.common import prepare_context
from repro.eval.multi_recorder import run_multi_recorder_study


@pytest.fixture(scope="module")
def context():
    return prepare_context(num_speakers=4, num_targets=1, train=False, seed=0)


def _run(context, angle_deg=0.0, recorders=("Moto Z4", "Galaxy S9")):
    return run_multi_recorder_study(
        context,
        carriers_khz=(26.3,),
        recorders=recorders,
        num_audios=1,
        recorder_angle_deg=angle_deg,
        seed=0,
    )


def _trial_tuples(result):
    return [
        (
            trial.audio_id,
            trial.carrier_khz,
            tuple(trial.affected_devices),
            tuple(sorted(trial.sdr_with_nec.items())),
            tuple(sorted(trial.sdr_without_nec.items())),
        )
        for trial in result.trials
    ]


def test_two_recorder_table_is_seed_stable(context):
    """The same seed reproduces the 2-recorder table bit for bit."""
    first = _run(context)
    again = _run(context)
    assert _trial_tuples(first) == _trial_tuples(again)
    assert first.recorders == ["Moto Z4", "Galaxy S9"]


def test_off_recording_matches_legacy_over_the_air_path(context):
    """At angle 0 the study's direct scene construction is bit-identical to
    the pipeline's ``record_over_the_air(enabled=False)`` it replaced."""
    config = context.config
    target = context.target_speakers[0]
    other = context.other_speakers[0]
    _, bob, alice, _tu, _ou = joint_conversation(
        context.corpus, target, other, duration=config.segment_seconds, seed=0
    )
    system = context.system_for(target)
    direct = Recorder("Moto Z4", seed=0).record_scene(
        [
            SceneSource(bob, 0.5, angle_deg=0.0, label="target"),
            SceneSource(alice, 0.05, label="background"),
        ]
    )
    legacy = record_over_the_air(
        system, bob, alice, Recorder("Moto Z4", seed=0), distance_m=0.5, enabled=False
    )
    np.testing.assert_array_equal(direct.data, legacy.data)


def test_angle_changes_the_recordings(context):
    """60 degrees off axis is a different channel: the SDR table moves."""
    on_axis = _run(context)
    off_axis = _run(context, angle_deg=60.0)
    assert _trial_tuples(on_axis) != _trial_tuples(off_axis)


def test_off_axis_never_gains_affected_devices(context):
    """The ultrasonic beam falls off much faster than speech, so going off
    axis can only shrink the set of affected recorders."""
    on_axis = _run(context)
    off_axis = _run(context, angle_deg=60.0)
    for trial_on, trial_off in zip(on_axis.trials, off_axis.trials):
        assert trial_off.num_affected <= trial_on.num_affected
        assert set(trial_off.affected_devices) <= set(trial_on.affected_devices)


def test_counts_and_table_render(context):
    result = _run(context)
    counts = result.counts_for(26.3)
    assert set(counts) == {"1+", "2+", "3+"}
    assert all(ratio.endswith("/1") for ratio in counts.values())
    assert "fc (kHz)" in result.table()


def test_trials_are_plain_dataclasses(context):
    """The study result must stay serialisable for the benchmark reports."""
    result = _run(context)
    for trial in result.trials:
        assert dataclasses.asdict(trial)


def test_carrier_sweep_leaves_the_context_systems_alone():
    """A later over-the-air recording through the context's cached system
    still broadcasts on ``config.carrier_khz`` after the study swept another
    carrier: the sweep builds a speaker per carrier and changes nothing on
    the system.  A fresh context, so no earlier test has swept this one."""
    context = prepare_context(num_speakers=4, num_targets=1, train=False, seed=0)
    target = context.target_speakers[0]
    _, bob, alice, _tu, _ou = joint_conversation(
        context.corpus, target, context.other_speakers[0],
        duration=context.config.segment_seconds, seed=0,
    )
    system = context.system_for(target)

    def record():
        return record_over_the_air(
            system, bob, alice, Recorder("Moto Z4", seed=0), distance_m=0.5
        ).data

    before = record()
    assert context.config.carrier_khz != 26.3
    run_multi_recorder_study(
        context, carriers_khz=(26.3,), recorders=("Moto Z4",), num_audios=1, seed=0
    )
    np.testing.assert_array_equal(record(), before)
