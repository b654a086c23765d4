"""Ablations of the Selector design choices (``docs/architecture.md``,
"The Selector's two output heads" and the figure/table map)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import NECConfig, TrainingConfig
from repro.core.selector import Selector
from repro.eval.common import EVAL_TRAINING, prepare_context
from repro.eval.reporting import format_table


@dataclass
class AblationArm:
    """Training outcome of one configuration variant."""

    name: str
    initial_loss: float
    final_loss: float
    num_parameters: int

    @property
    def improvement(self) -> float:
        if self.initial_loss <= 0:
            return 0.0
        return 1.0 - self.final_loss / self.initial_loss


@dataclass
class AblationResult:
    arms: List[AblationArm] = field(default_factory=list)

    def best_arm(self) -> AblationArm:
        return min(self.arms, key=lambda arm: arm.final_loss)

    def table(self) -> str:
        rows = [
            [arm.name, arm.num_parameters, arm.initial_loss, arm.final_loss, arm.improvement]
            for arm in self.arms
        ]
        return format_table(["variant", "params", "initial loss", "final loss", "improvement"], rows)


def _train_variant(
    name: str, config: NECConfig, training: Optional[TrainingConfig], seed: int
) -> AblationArm:
    # Without a recipe, a shorter run than the evaluation's.
    training = training or EVAL_TRAINING.replace(epochs=4, num_examples_per_target=3)
    context = prepare_context(config=config, seed=seed, training=training)
    history = context.training_history
    return AblationArm(
        name=name,
        initial_loss=history.initial_loss,
        final_loss=history.final_loss,
        num_parameters=context.selector.num_parameters(),
    )


def run_output_mode_ablation(
    base_config: Optional[NECConfig] = None,
    training: Optional[TrainingConfig] = None,
    seed: int = 0,
) -> AblationResult:
    """Mask head (this reproduction's default) vs the paper-literal linear head.

    Each arm trains under ``training`` (default: :data:`EVAL_TRAINING` at 4
    epochs of 3 examples per target).
    """
    base_config = (base_config or NECConfig.tiny()).validate()
    result = AblationResult()
    for mode in ("mask", "spectrogram"):
        config = base_config.with_output_mode(mode)
        result.arms.append(_train_variant(f"output={mode}", config, training, seed))
    return result


def run_dilation_ablation(
    base_config: Optional[NECConfig] = None,
    dilation_sets: Sequence[Sequence[int]] = ((1,), (1, 2), (1, 2, 4)),
    training: Optional[TrainingConfig] = None,
    seed: int = 0,
) -> AblationResult:
    """How much do the dilated time-context layers matter? (Sec. IV-B1).

    Each arm trains under ``training``, with the same default as
    :func:`run_output_mode_ablation`.
    """
    from dataclasses import replace

    base_config = (base_config or NECConfig.tiny()).validate()
    result = AblationResult()
    for dilations in dilation_sets:
        config = replace(base_config, selector_dilations=tuple(dilations)).validate()
        result.arms.append(
            _train_variant(f"dilations={tuple(dilations)}", config, training, seed)
        )
    return result
