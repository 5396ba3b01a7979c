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
certified report must not depend on it.  Runs only with
GARLAND_EXTENDED=1.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from garland.harness import dumps_report, run_grid, strip_timings

pytestmark = [
    pytest.mark.extended,
    pytest.mark.skipif(os.environ.get("GARLAND_EXTENDED") != "1",
                       reason="extended grid runs only with GARLAND_EXTENDED=1"),
]

TABLE = Path(__file__).with_name("extended_grid_digests.json")


@pytest.mark.parametrize("seed", [0, 1])
def test_extended_grid_report_matches_the_pinned_digests(seed):
    expected = json.loads(TABLE.read_text())
    doc = run_grid("extended", seed=seed)
    got = {}
    for item in doc["instances"]:
        key = ",".join(str(item["instance"][k]) for k in ("ell", "q", "i"))
        got[key] = hashlib.sha256(dumps_report(strip_timings(item)).encode()).hexdigest()
    assert got == expected
