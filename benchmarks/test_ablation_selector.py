"""Ablation benches (E14): selector output head and dilation depth."""

from repro.eval.ablation import run_dilation_ablation, run_output_mode_ablation
from repro.eval.common import EVAL_TRAINING


def test_ablation_output_mode(benchmark):
    result = benchmark.pedantic(
        lambda: run_output_mode_ablation(
            training=EVAL_TRAINING.replace(epochs=4, num_examples_per_target=3)
        ),
        rounds=1,
        iterations=1,
    )
    print("\n[Ablation] Selector output head (mask vs paper-literal spectrogram):")
    print(result.table())
    # Both heads must train (loss decreases); the table records which one wins.
    for arm in result.arms:
        assert arm.final_loss < arm.initial_loss


def test_ablation_dilations(benchmark):
    result = benchmark.pedantic(
        lambda: run_dilation_ablation(
            dilation_sets=((1,), (1, 2)),
            training=EVAL_TRAINING.replace(epochs=3, num_examples_per_target=3),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n[Ablation] Dilated time-context depth:")
    print(result.table())
    assert len(result.arms) == 2
    for arm in result.arms:
        assert arm.final_loss < arm.initial_loss
