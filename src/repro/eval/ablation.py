"""Ablations of the Selector design choices (``docs/architecture.md``,
"The Selector's two output heads" and the figure/table map)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import NECConfig
from repro.core.selector import Selector
from repro.core.training import SelectorTrainer, build_training_examples
from repro.eval.common import prepare_context
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
    name: str,
    config: NECConfig,
    epochs: int,
    examples_per_target: int,
    seed: int,
) -> AblationArm:
    context = prepare_context(
        config=config,
        examples_per_target=examples_per_target,
        training_epochs=epochs,
        seed=seed,
    )
    history = context.training_history
    return AblationArm(
        name=name,
        initial_loss=history.initial_loss,
        final_loss=history.final_loss,
        num_parameters=context.selector.num_parameters(),
    )


def run_output_mode_ablation(
    base_config: Optional[NECConfig] = None,
    epochs: int = 4,
    examples_per_target: int = 3,
    seed: int = 0,
) -> AblationResult:
    """Mask head (this reproduction's default) vs the paper-literal linear head."""
    base_config = (base_config or NECConfig.tiny()).validate()
    result = AblationResult()
    for mode in ("mask", "spectrogram"):
        config = base_config.with_output_mode(mode)
        result.arms.append(
            _train_variant(f"output={mode}", config, epochs, examples_per_target, seed)
        )
    return result


def run_dilation_ablation(
    base_config: Optional[NECConfig] = None,
    dilation_sets: Sequence[Sequence[int]] = ((1,), (1, 2), (1, 2, 4)),
    epochs: int = 4,
    examples_per_target: int = 3,
    seed: int = 0,
) -> AblationResult:
    """How much do the dilated time-context layers matter? (Sec. IV-B1)."""
    from dataclasses import replace

    base_config = (base_config or NECConfig.tiny()).validate()
    result = AblationResult()
    for dilations in dilation_sets:
        config = replace(base_config, selector_dilations=tuple(dilations)).validate()
        result.arms.append(
            _train_variant(
                f"dilations={tuple(dilations)}", config, epochs, examples_per_target, seed
            )
        )
    return result
