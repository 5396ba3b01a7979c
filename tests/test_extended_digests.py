"""The extended grid's report, pinned instance by instance.

Each entry of extended_grid_digests.json is the sha256 of
dumps_report(strip_timings(item)) for one instance of
run_grid("extended"), keyed "ell,q,i".  The table was first generated
with the earlier row-sort face construction, so it pins the face tables
of every row size the grid reaches (2 to 5 columns, the 5 only in the
(4,2) building) through to the reports.  It was regenerated at 0.2.0,
where only the "4,2,0" entry changed: its scale L = 3255 makes the
rational-root stop width 1/L = 1/3255, where it used to be
1/(2 L^2) < 10^-6, so its isolating intervals now stop at the 10^-6
width.  Its endpoints and what is computed from them moved (m, the
witness intervals, the conjecture distances and epsilon); every status,
exact root and minimal polynomial stayed.  A report that is meant to
change needs a new VERSION and a regenerated table.  The seed picks
every Krylov seed vector, so the table is checked under two seeds: the
certified report must not depend on it.  The default grid's ten
entries are checked in tier-1; the whole table only with
GARLAND_EXTENDED=1.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from garland.harness import default_grid, dumps_report, run_grid, strip_timings

TABLE = Path(__file__).with_name("extended_grid_digests.json")


def _digests(grid: str, seed: int) -> dict:
    """The sha256 of each instance's report in run_grid(grid), keyed "ell,q,i"."""
    got = {}
    for item in run_grid(grid, seed=seed)["instances"]:
        key = ",".join(str(item["instance"][k]) for k in ("ell", "q", "i"))
        got[key] = hashlib.sha256(dumps_report(strip_timings(item)).encode()).hexdigest()
    return got


@pytest.mark.parametrize("seed", [0, 1])
def test_default_grid_report_matches_the_pinned_digests(seed):
    expected = json.loads(TABLE.read_text())
    keys = [f"{ell},{q},{i}" for ell, q, i in default_grid()]
    assert len(keys) == 10
    assert _digests("default", seed) == {k: expected[k] for k in keys}


@pytest.mark.extended
@pytest.mark.skipif(os.environ.get("GARLAND_EXTENDED") != "1",
                    reason="extended grid runs only with GARLAND_EXTENDED=1")
@pytest.mark.parametrize("seed", [0, 1])
def test_extended_grid_report_matches_the_pinned_digests(seed):
    assert _digests("extended", seed) == json.loads(TABLE.read_text())
