"""The benchmark scripts under scripts/, run on one small case each."""

import random
import sys
from pathlib import Path

import pytest

import gapedit.harness  # run_cell reads gapedit.harness, .metering and .testers
import gapedit.metering
import gapedit.testers
from gapedit.strings import ed_exact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import ladder_wall  # noqa: E402
import leaf_grid  # noqa: E402


@pytest.mark.parametrize("side", ["yes", "no"])
def test_ladder_wall_times_one_small_cell(side):
    # run_cell asserts that read-all met every certified truth
    config = gapedit.harness.parse_config_text(ladder_wall.LADDER.read_text())
    row = ladder_wall.run_cell(gapedit, config, 0, 1 << 10, 16, 2, side)
    assert (row["n"], row["k"], row["c"], row["side"]) == (1 << 10, 16, 2, side)
    assert len(row["truths"]) == ladder_wall.TRIALS
    assert row["tier"] != "UNSUPPORTED" and row["main_errors"] == 0
    assert row["readall_ms"] > 0 and row["main_reads_per_2n"] > 0


@pytest.mark.parametrize("kind", ["sub", "indel"])
def test_leaf_grid_instance_plants_its_edits(kind):
    edits = 5
    x, y = leaf_grid.instance(random.Random(leaf_grid.SEED), 64, kind, edits)
    assert len(x) == 64
    distance = ed_exact(x, y)
    assert distance == edits if kind == "sub" else edits <= distance <= 2 * edits
