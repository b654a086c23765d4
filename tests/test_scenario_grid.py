"""Scenario-matrix grid: expansion contract, adversaries, bit-stability, JSON.

The expensive paper-level gates (full 144-cell grid, paper suppression
numbers) live in ``benchmarks/test_scenarios.py``; this module pins the
mechanics on an untrained context so it stays test-suite cheap:

* the declarative grid expands in the documented fixed order (seed contract);
* cell validation rejects unknown axis values up front;
* adversaries are pure, seedable transforms;
* the grid runner is bit-identical across worker counts and equal to the
  looped oracle in ``tests/oracles.py``;
* the JSON report round-trips with a consistent summary.
"""

import json

import numpy as np
import pytest
from oracles import run_scenario_grid_looped

from repro.audio.signal import AudioSignal
from repro.eval.adversary import (
    ADVERSARY_TABLE,
    NotchFilterAdversary,
    adversary_names,
    get_adversary,
)
from repro.eval.common import prepare_context
from repro.eval.scenarios import (
    ScenarioCell,
    ScenarioGrid,
    run_scenario_grid,
)


@pytest.fixture(scope="module")
def context():
    return prepare_context(num_speakers=4, num_targets=1, train=False, seed=0)


@pytest.fixture(scope="module")
def small_grid():
    return ScenarioGrid(rooms=("anechoic", "small_office"), motions=("static", "walk_away"))


@pytest.fixture(scope="module")
def grid_result(context, small_grid):
    return run_scenario_grid(context, small_grid, num_workers=1, seed=0)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------
class TestGrid:
    def test_default_cell_is_the_papers_setup(self):
        cell = ScenarioCell()
        assert cell.is_direct_path
        assert cell.is_paper_setup
        assert cell.carrier_label == "default"

    def test_smoke_and_full_sizes(self):
        assert ScenarioGrid.smoke().num_cells == 8
        assert len(ScenarioGrid.smoke().cells()) == 8
        assert ScenarioGrid.full().num_cells == 144
        assert len(ScenarioGrid.full().cells()) == 144

    def test_expansion_order_is_fixed(self):
        """Rooms outermost, adversaries innermost — per-cell seeds derive from
        the index, so this order is a compatibility contract."""
        cells = ScenarioGrid.smoke().cells()
        assert cells[0] == ScenarioCell("anechoic", "static", 2, 0.0, None, "none")
        assert cells[1] == ScenarioCell("anechoic", "static", 2, 0.0, None, "notch")
        assert cells[2] == ScenarioCell("anechoic", "walk_away", 2, 0.0, None, "none")
        assert cells[-1] == ScenarioCell("small_office", "walk_away", 2, 0.0, None, "notch")

    def test_cell_id_mentions_every_axis(self):
        cell = ScenarioCell(carrier_khz=33.0, adversary="notch")
        for fragment in ("room=anechoic", "crowd=2", "carrier=33", "adversary=notch"):
            assert fragment in cell.cell_id

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(KeyError, match="unknown room"):
            ScenarioCell(room="bathroom")
        with pytest.raises(KeyError, match="unknown motion"):
            ScenarioCell(motion="sprint")
        with pytest.raises(KeyError, match="unknown adversary"):
            ScenarioCell(adversary="jammer")
        with pytest.raises(ValueError, match="crowd_size"):
            ScenarioCell(crowd_size=1)

    def test_off_paper_cells_are_not_paper_setup(self):
        assert not ScenarioCell(room="small_office").is_paper_setup
        assert not ScenarioCell(carrier_khz=33.0).is_paper_setup
        assert not ScenarioCell(adversary="notch").is_paper_setup
        # An off-carrier direct-path cell is still direct-path geometry.
        assert ScenarioCell(carrier_khz=33.0).is_direct_path


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------
def _noise(seed=0, sample_rate=16000, num_samples=8000):
    rng = np.random.default_rng(seed)
    return AudioSignal(0.1 * rng.standard_normal(num_samples), sample_rate)


def _band_energy(data, sample_rate, low_hz, high_hz):
    spectrum = np.abs(np.fft.rfft(data)) ** 2
    freqs = np.fft.rfftfreq(data.size, 1.0 / sample_rate)
    return float(spectrum[(freqs >= low_hz) & (freqs <= high_hz)].sum())


class TestAdversaries:
    def test_table_and_lookup(self):
        assert set(ADVERSARY_TABLE) == {"none", "notch", "rerecord"}
        assert adversary_names() == tuple(sorted(ADVERSARY_TABLE))
        assert get_adversary("notch") is ADVERSARY_TABLE["notch"]
        assert get_adversary(ADVERSARY_TABLE["none"]) is ADVERSARY_TABLE["none"]
        with pytest.raises(KeyError, match="unknown adversary"):
            get_adversary("jammer")

    def test_passive_adversary_is_identity(self):
        recording = _noise()
        assert get_adversary("none").apply(recording, seed=5) is recording

    def test_notch_removes_the_stop_band_and_keeps_the_rest(self):
        recording = _noise()
        attacked = get_adversary("notch").apply(recording)
        in_band_before = _band_energy(recording.data, 16000, 1200, 3000)
        in_band_after = _band_energy(attacked.data, 16000, 1200, 3000)
        out_band_before = _band_energy(recording.data, 16000, 4500, 7500)
        out_band_after = _band_energy(attacked.data, 16000, 4500, 7500)
        assert in_band_after < 0.01 * in_band_before
        assert out_band_after > 0.5 * out_band_before

    def test_notch_degenerate_band_passes_through(self):
        recording = AudioSignal(_noise().data, 1000)  # nyquist below the stop band
        assert NotchFilterAdversary().apply(recording) is recording

    def test_rerecord_is_seed_deterministic(self):
        recording = _noise()
        adversary = get_adversary("rerecord")
        first = adversary.apply(recording, seed=3)
        again = adversary.apply(recording, seed=3)
        other = adversary.apply(recording, seed=4)
        assert first.sample_rate == 16000
        np.testing.assert_array_equal(first.data, again.data)
        assert not np.array_equal(first.data, other.data)


# ---------------------------------------------------------------------------
# The grid runner
# ---------------------------------------------------------------------------
class TestRunner:
    def test_wer_mode_validated(self, context, small_grid):
        with pytest.raises(ValueError, match="wer_mode"):
            run_scenario_grid(context, small_grid, wer_mode="sometimes")

    def test_bit_identical_across_worker_counts(self, context, small_grid, grid_result):
        sharded = run_scenario_grid(context, small_grid, num_workers=2, seed=0)
        assert [r.to_dict() for r in sharded.cells] == [
            r.to_dict() for r in grid_result.cells
        ]

    def test_looped_reference_matches_batched_runner(self, context, small_grid, grid_result):
        looped = run_scenario_grid_looped(context, small_grid, seed=0)
        assert [r.to_dict() for r in looped.cells] == [
            r.to_dict() for r in grid_result.cells
        ]

    def test_result_covers_every_cell_in_order(self, small_grid, grid_result):
        assert [r.cell for r in grid_result.cells] == small_grid.cells()
        assert grid_result.num_holds + grid_result.num_breaks == grid_result.num_cells
        assert all(r.verdict in ("holds", "breaks") for r in grid_result.cells)
        # wer_mode defaults to "none": no recogniser was built.
        assert all(r.wer_off is None and r.wer_on is None for r in grid_result.cells)

    def test_breakage_by_axis_totals_are_consistent(self, grid_result):
        summary = grid_result.breakage_by_axis()
        for axis_counts in summary.values():
            total = sum(int(ratio.split("/")[1]) for ratio in axis_counts.values())
            assert total == grid_result.num_cells
        assert set(summary["room"]) == {"anechoic", "small_office"}

    def test_tables_render(self, grid_result):
        assert "verdict" in grid_result.table()
        assert "holds/total" in grid_result.breakage_table()

    def test_json_report_round_trips(self, grid_result, tmp_path):
        path = grid_result.write_json(tmp_path / "BENCH_scenarios.json")
        loaded = json.loads(path.read_text())
        assert loaded["summary"]["num_cells"] == grid_result.num_cells
        assert loaded["summary"]["num_holds"] == grid_result.num_holds
        assert loaded["grid"]["rooms"] == ["anechoic", "small_office"]
        assert len(loaded["cells"]) == grid_result.num_cells
        for cell in loaded["cells"]:
            assert cell["verdict"] in ("holds", "breaks")
            assert cell["sonr_gain_db"] == pytest.approx(
                cell["sonr_on_db"] - cell["sonr_off_db"]
            )
