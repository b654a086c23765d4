"""Scenario-matrix robustness grid: where does the paper's claim stop holding?

The paper evaluates NEC with two speakers at fixed positions over a direct
acoustic path.  This module declares a grid of scenario cells —

    room x motion x crowd-size x recorder-angle x carrier x adversary

— and measures, per cell, whether switching NEC on still suppresses the
protected speaker (Bob) the way the paper claims.  A cell's verdict is
**holds** when the recording's SONR rises by at least
``ClaimThresholds.min_sonr_gain_db`` (the same 3 dB margin Table IV uses for
"affected") *and* Bob's SDR inside the recording drops by at least
``min_target_sdr_drop_db``; otherwise the cell **breaks** the claim.

Execution shape (the repo's standard eval fast path): one audible mixture per
crowd size is built serially, every protection goes through the batched driver
(:func:`repro.eval.common.batched_protections`), and the per-cell channel
simulation + metrics run as pure ``(index, cell)`` functions under
:func:`repro.eval.common.run_sharded` — so a full grid is one invocation,
bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.audio.mixing import mix_at_snr, mix_signals
from repro.audio.signal import AudioSignal
from repro.channel.motion import MOTION_TABLE, get_motion
from repro.channel.recorder import Recorder, SceneSource
from repro.channel.rir import ROOM_TABLE, get_room
from repro.channel.ultrasound import nec_speaker
from repro.core.pipeline import ProtectionResult
from repro.dsp.resample import resample
from repro.eval.adversary import ADVERSARY_TABLE, get_adversary
from repro.eval.common import (
    ExperimentContext,
    batched_protections,
    derive_seed,
    prepare_context,
    run_sharded,
)
from repro.eval.reporting import format_table
from repro.metrics.sdr import sdr
from repro.metrics.sonr import sonr
from repro.metrics.urs import user_rating_scores


@dataclass(frozen=True)
class ScenarioCell:
    """One cell of the grid: a complete scenario specification.

    Every axis defaults to the paper's setup, so ``ScenarioCell()`` *is* the
    paper's evaluation scenario.  ``carrier_khz=None`` means the system's
    configured carrier (a non-``None`` value models carrier mismatch between
    the transmitter and what the recorder demodulates best).
    """

    room: str = "anechoic"
    motion: str = "static"
    crowd_size: int = 2
    recorder_angle_deg: float = 0.0
    carrier_khz: Optional[float] = None
    adversary: str = "none"

    def __post_init__(self) -> None:
        if self.crowd_size < 2:
            raise ValueError("crowd_size counts all speakers incl. the target (>= 2)")
        if self.room not in ROOM_TABLE:
            raise KeyError(f"unknown room '{self.room}'; choose from {sorted(ROOM_TABLE)}")
        if self.motion not in MOTION_TABLE:
            raise KeyError(f"unknown motion '{self.motion}'; choose from {sorted(MOTION_TABLE)}")
        if self.adversary not in ADVERSARY_TABLE:
            raise KeyError(
                f"unknown adversary '{self.adversary}'; choose from {sorted(ADVERSARY_TABLE)}"
            )

    @property
    def carrier_label(self) -> str:
        return "default" if self.carrier_khz is None else f"{self.carrier_khz:g}"

    @property
    def cell_id(self) -> str:
        return (
            f"room={self.room}|motion={self.motion}|crowd={self.crowd_size}"
            f"|angle={self.recorder_angle_deg:g}|carrier={self.carrier_label}"
            f"|adversary={self.adversary}"
        )

    @property
    def is_direct_path(self) -> bool:
        """The channel geometry the paper evaluates: anechoic, static, on-axis."""
        return (
            self.room == "anechoic"
            and self.motion == "static"
            and self.recorder_angle_deg == 0.0
        )

    @property
    def is_paper_setup(self) -> bool:
        """Direct path *and* matched carrier *and* passive eavesdropper.

        These are the cells whose verdict must be **holds** for the
        reproduction to match the paper's suppression claims
        (``benchmarks/test_scenarios.py`` gates them).
        """
        return self.is_direct_path and self.carrier_khz is None and self.adversary == "none"


@dataclass(frozen=True)
class ScenarioGrid:
    """A declarative grid: the cartesian product of per-axis value tuples."""

    rooms: Tuple[str, ...] = ("anechoic",)
    motions: Tuple[str, ...] = ("static",)
    crowd_sizes: Tuple[int, ...] = (2,)
    recorder_angles_deg: Tuple[float, ...] = (0.0,)
    carriers_khz: Tuple[Optional[float], ...] = (None,)
    adversaries: Tuple[str, ...] = ("none",)

    def cells(self) -> List[ScenarioCell]:
        """Expand the grid in a fixed, documented order.

        The order (rooms outermost, adversaries innermost) is part of the
        contract: per-cell seeds derive from the cell *index*, so a stable
        expansion keeps every cell's randomness stable when other axes grow.
        """
        return [
            ScenarioCell(room, motion, crowd, angle, carrier, adversary)
            for room, motion, crowd, angle, carrier, adversary in itertools.product(
                self.rooms,
                self.motions,
                self.crowd_sizes,
                self.recorder_angles_deg,
                self.carriers_khz,
                self.adversaries,
            )
        ]

    @property
    def num_cells(self) -> int:
        return (
            len(self.rooms)
            * len(self.motions)
            * len(self.crowd_sizes)
            * len(self.recorder_angles_deg)
            * len(self.carriers_khz)
            * len(self.adversaries)
        )

    @classmethod
    def smoke(cls) -> "ScenarioGrid":
        """An 8-cell grid for CI's test job: one stress value per cheap axis."""
        return cls(
            rooms=("anechoic", "small_office"),
            motions=("static", "walk_away"),
            adversaries=("none", "notch"),
        )

    @classmethod
    def full(cls) -> "ScenarioGrid":
        """The 144-cell robustness matrix of the benchmark run."""
        return cls(
            rooms=("anechoic", "small_office", "concrete_lobby"),
            motions=("static", "walk_away"),
            crowd_sizes=(2, 3),
            recorder_angles_deg=(0.0, 60.0),
            carriers_khz=(None, 33.0),
            adversaries=("none", "notch", "rerecord"),
        )


@dataclass(frozen=True)
class ClaimThresholds:
    """What "the paper's claim holds" means, numerically, for one cell.

    ``min_sonr_gain_db`` reuses Table IV's 3 dB "affected" margin: switching
    NEC on must raise the recording's SONR against Bob's received speech by at
    least this much.  ``min_target_sdr_drop_db`` additionally requires Bob's
    SDR inside the recording to fall (Fig. 11's suppression direction).
    """

    min_sonr_gain_db: float = 3.0
    min_target_sdr_drop_db: float = 1.0


@dataclass
class CellResult:
    """Measured metrics and the claim verdict for one scenario cell."""

    cell: ScenarioCell
    sonr_off_db: float
    sonr_on_db: float
    target_sdr_off_db: float
    target_sdr_on_db: float
    urs_off: float
    urs_on: float
    holds: bool
    wer_off: Optional[float] = None
    wer_on: Optional[float] = None

    @property
    def sonr_gain_db(self) -> float:
        return self.sonr_on_db - self.sonr_off_db

    @property
    def target_sdr_drop_db(self) -> float:
        return self.target_sdr_off_db - self.target_sdr_on_db

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "breaks"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell_id": self.cell.cell_id,
            "room": self.cell.room,
            "motion": self.cell.motion,
            "crowd_size": self.cell.crowd_size,
            "recorder_angle_deg": self.cell.recorder_angle_deg,
            "carrier_khz": self.cell.carrier_khz,
            "adversary": self.cell.adversary,
            "is_paper_setup": self.cell.is_paper_setup,
            "sonr_off_db": self.sonr_off_db,
            "sonr_on_db": self.sonr_on_db,
            "sonr_gain_db": self.sonr_gain_db,
            "target_sdr_off_db": self.target_sdr_off_db,
            "target_sdr_on_db": self.target_sdr_on_db,
            "target_sdr_drop_db": self.target_sdr_drop_db,
            "urs_off": self.urs_off,
            "urs_on": self.urs_on,
            "wer_off": self.wer_off,
            "wer_on": self.wer_on,
            "verdict": self.verdict,
        }


_AXES = ("room", "motion", "crowd_size", "recorder_angle_deg", "carrier_khz", "adversary")


@dataclass
class ScenarioGridResult:
    """All cell results of one grid run, plus summaries and the JSON report."""

    grid: ScenarioGrid
    thresholds: ClaimThresholds
    cells: List[CellResult] = field(default_factory=list)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_holds(self) -> int:
        return sum(1 for cell in self.cells if cell.holds)

    @property
    def num_breaks(self) -> int:
        return self.num_cells - self.num_holds

    def paper_setup_cells(self) -> List[CellResult]:
        return [result for result in self.cells if result.cell.is_paper_setup]

    def paper_setup_holds(self) -> bool:
        """Do all paper-setup cells (direct path, matched carrier, no adversary) hold?"""
        paper_cells = self.paper_setup_cells()
        return bool(paper_cells) and all(result.holds for result in paper_cells)

    def table(self) -> str:
        rows = []
        for result in self.cells:
            cell = result.cell
            rows.append(
                [
                    cell.room,
                    cell.motion,
                    cell.crowd_size,
                    f"{cell.recorder_angle_deg:g}",
                    cell.carrier_label,
                    cell.adversary,
                    f"{result.sonr_gain_db:+.1f}",
                    f"{result.target_sdr_drop_db:+.1f}",
                    f"{result.urs_on:.1f}",
                    result.verdict,
                ]
            )
        return format_table(
            [
                "room",
                "motion",
                "crowd",
                "angle",
                "fc (kHz)",
                "adversary",
                "SONR gain",
                "SDR drop",
                "URS on",
                "verdict",
            ],
            rows,
        )

    def breakage_by_axis(self) -> Dict[str, Dict[str, str]]:
        """Per axis value: "holds/total" over every cell carrying that value."""
        summary: Dict[str, Dict[str, str]] = {}
        for axis in _AXES:
            counts: Dict[str, List[int]] = {}
            for result in self.cells:
                value = getattr(result.cell, axis)
                key = "default" if value is None else f"{value:g}" if isinstance(value, float) else str(value)
                holds, total = counts.setdefault(key, [0, 0])
                counts[key] = [holds + int(result.holds), total + 1]
            summary[axis] = {key: f"{holds}/{total}" for key, (holds, total) in sorted(counts.items())}
        return summary

    def breakage_table(self) -> str:
        rows = []
        for axis, values in self.breakage_by_axis().items():
            for value, ratio in values.items():
                rows.append([axis, value, ratio])
        return format_table(["axis", "value", "holds/total"], rows)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "grid": {
                "rooms": list(self.grid.rooms),
                "motions": list(self.grid.motions),
                "crowd_sizes": list(self.grid.crowd_sizes),
                "recorder_angles_deg": list(self.grid.recorder_angles_deg),
                "carriers_khz": list(self.grid.carriers_khz),
                "adversaries": list(self.grid.adversaries),
            },
            "thresholds": {
                "min_sonr_gain_db": self.thresholds.min_sonr_gain_db,
                "min_target_sdr_drop_db": self.thresholds.min_target_sdr_drop_db,
            },
            "summary": {
                "num_cells": self.num_cells,
                "num_holds": self.num_holds,
                "num_breaks": self.num_breaks,
                "paper_setup_holds": self.paper_setup_holds(),
                "breakage_by_axis": self.breakage_by_axis(),
            },
            "cells": [result.to_dict() for result in self.cells],
        }

    def write_json(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))
        return path


def _aligned_reference(reference: np.ndarray, recording: np.ndarray) -> np.ndarray:
    """Shift the clean reference to its best lag against a recording.

    The channel delays Bob by the propagation time (plus any room's early
    reflections); measuring SDR against the undelayed reference would measure
    the delay, not intelligibility.  An eavesdropper can trivially align, so
    the reference is slid to the lag maximising cross-correlation with the
    *no-NEC* recording — the same lag is then used for the protected one,
    keeping the on/off comparison honest.  Purely deterministic.
    """
    from scipy import signal as sps

    reference = np.asarray(reference, dtype=np.float64).reshape(-1)
    recording = np.asarray(recording, dtype=np.float64).reshape(-1)
    correlation = sps.correlate(recording, reference, mode="full")
    # Lags run from -(len(reference) - 1); the channel only ever delays, so
    # restrict the search to non-negative lags.
    zero_index = reference.size - 1
    lag = int(np.argmax(correlation[zero_index:]))
    aligned = np.zeros(recording.size)
    span = min(reference.size, recording.size - lag)
    if span > 0:
        aligned[lag : lag + span] = reference[:span]
    return aligned


@dataclass
class _PreparedScene:
    """Channel-independent ingredients of a cell: speech, mixture, protection."""

    target_speaker: str
    target_text: str
    bob: AudioSignal
    others: List[AudioSignal]
    mixed: AudioSignal
    protection: Optional[ProtectionResult] = None


def _prepare_scene(
    context: ExperimentContext, crowd_size: int, scene_index: int, seed: int, snr_db: float
) -> _PreparedScene:
    """Build the audible scene for one crowd size (shared by all its cells).

    The mixture depends only on the crowd size — never on room, motion, angle,
    carrier or adversary — so one protection per crowd size covers the whole
    grid and every channel axis re-records the *same* shadow.
    """
    config = context.config
    corpus = context.corpus
    duration = config.segment_seconds
    target = context.target_speakers[scene_index % len(context.target_speakers)]
    target_utterance = corpus.utterance(target, seed=seed, duration=duration)
    bob = target_utterance.audio.fit_to_duration(duration)
    others: List[AudioSignal] = []
    for position in range(crowd_size - 1):
        other = context.other_speakers[position % len(context.other_speakers)]
        utterance = corpus.utterance(other, seed=seed + 7 + 13 * position, duration=duration)
        _, scaled = mix_at_snr(bob, utterance.audio.fit_to_duration(duration), snr_db)
        others.append(scaled.fit_to(bob.num_samples))
    mixed = mix_signals([bob] + others) if others else bob.copy()
    return _PreparedScene(
        target_speaker=target,
        target_text=target_utterance.text,
        bob=bob,
        others=others,
        mixed=mixed,
    )


def _measure_cell(
    cell: ScenarioCell,
    scene: _PreparedScene,
    cell_seed: int,
    config,
    distance_m: float,
    device: str,
    thresholds: ClaimThresholds,
    recognizer,
    wer_mode: str,
) -> CellResult:
    """Simulate one cell's channel and score the claim — pure in ``cell_seed``.

    Shared verbatim by the sharded grid runner and the looped grid oracle in
    ``tests/oracles.py``, so the two are bit-identical by construction.
    """
    room = get_room(cell.room)
    motion = get_motion(cell.motion)
    adversary = get_adversary(cell.adversary)
    carrier_khz = cell.carrier_khz if cell.carrier_khz is not None else config.carrier_khz
    assert scene.protection is not None
    broadcast = nec_speaker(config, carrier_khz).broadcast(scene.protection.shadow_wave)

    # Bob and the NEC transmitter are co-located (Bob carries the device),
    # so they share the motion trajectory and the off-axis angle; the
    # other speakers sit next to the recorder (they record themselves).
    def scene_sources(with_nec: bool) -> List[SceneSource]:
        sources = [
            SceneSource(
                scene.bob,
                distance_m,
                motion=motion,
                angle_deg=cell.recorder_angle_deg,
                label="target",
            )
        ]
        for position, other in enumerate(scene.others):
            sources.append(SceneSource(other, 0.05, label=f"background{position}"))
        if with_nec:
            sources.append(
                SceneSource(
                    broadcast,
                    distance_m,
                    is_ultrasound=True,
                    carrier_khz=carrier_khz,
                    motion=motion,
                    angle_deg=cell.recorder_angle_deg,
                    label="nec",
                )
            )
        return sources

    recorded_off = Recorder(device, seed=cell_seed).record_scene(scene_sources(False), room=room)
    recorded_on = Recorder(device, seed=cell_seed).record_scene(scene_sources(True), room=room)
    bob_received = Recorder(device, seed=cell_seed).record_scene(
        scene_sources(False)[:1], room=room
    )

    # The adversary processes whatever it would capture; Bob's received
    # component goes through the same processing so SONR compares the
    # adversary's view of the mixture against its view of Bob.  SDR and
    # URS use Bob's *clean* speech as reference (the Fig. 11/13
    # convention): under motion or reverberation the channel decorrelates
    # the recording from the clean reference, which is exactly the
    # intelligibility loss — and alignment gain — those cells probe.
    attack_seed = derive_seed(cell_seed, 1)
    attacked_off = adversary.apply(recorded_off, seed=attack_seed)
    attacked_on = adversary.apply(recorded_on, seed=attack_seed)
    attacked_bob = adversary.apply(bob_received, seed=attack_seed)

    reference = _aligned_reference(
        resample(scene.bob.data, scene.bob.sample_rate, attacked_on.sample_rate),
        attacked_off.data,
    )
    urs_seed = derive_seed(cell_seed, 2)
    wer_off = wer_on = None
    if recognizer is not None and (wer_mode == "all" or cell.is_direct_path):
        wer_off = recognizer.wer(attacked_off, scene.target_text)
        wer_on = recognizer.wer(attacked_on, scene.target_text)
    sonr_off = sonr(attacked_off.data, attacked_bob.data)
    sonr_on = sonr(attacked_on.data, attacked_bob.data)
    sdr_off = sdr(reference, attacked_off.data)
    sdr_on = sdr(reference, attacked_on.data)
    holds = (
        sonr_on - sonr_off >= thresholds.min_sonr_gain_db
        and sdr_off - sdr_on >= thresholds.min_target_sdr_drop_db
    )
    return CellResult(
        cell=cell,
        sonr_off_db=sonr_off,
        sonr_on_db=sonr_on,
        target_sdr_off_db=sdr_off,
        target_sdr_on_db=sdr_on,
        urs_off=float(np.mean(user_rating_scores(attacked_off.data, reference, seed=urs_seed))),
        urs_on=float(np.mean(user_rating_scores(attacked_on.data, reference, seed=urs_seed))),
        holds=holds,
        wer_off=wer_off,
        wer_on=wer_on,
    )


def _build_recognizer(device: str, wer_mode: str, seed: int):
    if wer_mode == "none":
        return None
    # Built before any worker pool forks so the template enrollment is
    # inherited by every worker instead of being redone per process.
    from repro.asr.recognizer import TemplateRecognizer

    recording_rate = Recorder(device).microphone.recording_rate
    return TemplateRecognizer(sample_rate=recording_rate, seed=seed)


def _prepare_scenes(
    context: ExperimentContext,
    cells: List[ScenarioCell],
    seed: int,
    snr_db: float,
) -> Dict[int, _PreparedScene]:
    """One scene per crowd size, all protected through :func:`batched_protections`.

    The batched engine pins this bit-identical to one ``protect`` per scene
    (the looped grid oracle in ``tests/oracles.py``).
    """
    crowd_sizes = sorted({cell.crowd_size for cell in cells})
    scenes = {
        crowd: _prepare_scene(context, crowd, scene_index, seed, snr_db)
        for scene_index, crowd in enumerate(crowd_sizes)
    }
    protections = batched_protections(
        context,
        [(scenes[crowd].target_speaker, scenes[crowd].mixed) for crowd in crowd_sizes],
    )
    for crowd, protection in zip(crowd_sizes, protections):
        scenes[crowd].protection = protection
    return scenes


def run_scenario_grid(
    context: Optional[ExperimentContext] = None,
    grid: Optional[ScenarioGrid] = None,
    distance_m: float = 0.5,
    device: str = "Moto Z4",
    snr_db: float = 0.0,
    thresholds: Optional[ClaimThresholds] = None,
    wer_mode: str = "none",
    seed: int = 0,
    num_workers: Optional[int] = None,
) -> ScenarioGridResult:
    """Run every cell of a :class:`ScenarioGrid` in one invocation.

    Serial phase: one audible mixture per crowd size, all protections through
    :func:`batched_protections` (one ``protect_batch`` per target speaker).
    Sharded phase: each cell's channel simulation, adversary and metrics run
    as a pure function of ``(cell index, cell)`` with
    :func:`derive_seed`-derived randomness, so results are bit-identical for
    any ``num_workers`` (including the inline default).

    ``wer_mode`` selects where the (expensive) template-recogniser WER is
    computed: ``"none"``, ``"direct"`` (direct-path cells only) or ``"all"``.
    """
    if wer_mode not in ("none", "direct", "all"):
        raise ValueError("wer_mode must be 'none', 'direct' or 'all'")
    context = context if context is not None else prepare_context(seed=seed)
    grid = grid if grid is not None else ScenarioGrid.smoke()
    thresholds = thresholds if thresholds is not None else ClaimThresholds()
    config = context.config
    cells = grid.cells()
    scenes = _prepare_scenes(context, cells, seed, snr_db)
    recognizer = _build_recognizer(device, wer_mode, seed)

    def measure(index: int, cell: ScenarioCell) -> CellResult:
        return _measure_cell(
            cell,
            scenes[cell.crowd_size],
            derive_seed(seed, index),
            config,
            distance_m,
            device,
            thresholds,
            recognizer,
            wer_mode,
        )

    results = run_sharded(measure, cells, num_workers=num_workers)
    return ScenarioGridResult(grid=grid, thresholds=thresholds, cells=results)
