"""Experiment harness: one module per table/figure of the paper's evaluation.

Every experiment exposes a ``run_*`` function returning a result dataclass and
a ``format_*`` helper that prints the same rows/series the paper reports.  The
mapping between experiments, benchmarks and paper artefacts is the
figure/table map in ``docs/architecture.md``.
"""

from repro.eval.common import (
    ExperimentContext,
    batched_protections,
    prepare_context,
    probe_broadcasts,
)
from repro.eval.reporting import format_table, summarize
from repro.eval.datasets import BenchmarkDataset, compile_benchmark_dataset
from repro.eval.las_study import (
    run_formant_observation,
    run_las_curves,
    run_las_correlation,
)
from repro.eval.offsets import run_offset_study
from repro.eval.overall import run_overall_benchmark, OverallResult
from repro.eval.user_study import run_user_study, UserStudyResult
from repro.eval.distance import run_waveform_distance_study, run_loudness_study, run_sonr_study
from repro.eval.comparison import run_comparison_study, ComparisonResult
from repro.eval.runtime import run_runtime_analysis, RuntimeResult
from repro.eval.device_study import run_device_study, DeviceStudyResult
from repro.eval.multi_recorder import run_multi_recorder_study, MultiRecorderResult
from repro.eval.ablation import run_output_mode_ablation, run_dilation_ablation
from repro.eval.adversary import (
    ADVERSARY_TABLE,
    Adversary,
    NotchFilterAdversary,
    RerecordAdversary,
    adversary_names,
    get_adversary,
)
from repro.eval.scenarios import (
    CellResult,
    ClaimThresholds,
    ScenarioCell,
    ScenarioGrid,
    ScenarioGridResult,
    run_scenario_grid,
)

__all__ = [
    "ExperimentContext",
    "batched_protections",
    "prepare_context",
    "probe_broadcasts",
    "format_table",
    "summarize",
    "BenchmarkDataset",
    "compile_benchmark_dataset",
    "run_formant_observation",
    "run_las_curves",
    "run_las_correlation",
    "run_offset_study",
    "run_overall_benchmark",
    "OverallResult",
    "run_user_study",
    "UserStudyResult",
    "run_waveform_distance_study",
    "run_loudness_study",
    "run_sonr_study",
    "run_comparison_study",
    "ComparisonResult",
    "run_runtime_analysis",
    "RuntimeResult",
    "run_device_study",
    "DeviceStudyResult",
    "run_multi_recorder_study",
    "MultiRecorderResult",
    "run_output_mode_ablation",
    "run_dilation_ablation",
    "ADVERSARY_TABLE",
    "Adversary",
    "NotchFilterAdversary",
    "RerecordAdversary",
    "adversary_names",
    "get_adversary",
    "CellResult",
    "ClaimThresholds",
    "ScenarioCell",
    "ScenarioGrid",
    "ScenarioGridResult",
    "run_scenario_grid",
]
