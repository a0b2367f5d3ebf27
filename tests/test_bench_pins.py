"""Every benchmark workload, run once at its tiny scale, reproduces the
outputs pinned in `bench/expected.json`.

Tiny `tts-mate-faithful` and `tts-drip1-faithful` are both cut by the
population cap, so these pins also fix the order in which a cut fill keeps
vesicles.
"""

import json
import runpy
from pathlib import Path

import pytest

import matedrip

ROOT = Path(__file__).resolve().parent.parent
BENCH = runpy.run_path(str(ROOT / "bench" / "workloads.py"))  # writes no bytecode under bench/
PINS = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))["tiny"]


@pytest.mark.parametrize("name", sorted(BENCH["WORKLOADS"]))
def test_tiny_workload_matches_pins(name):
    workload = BENCH["WORKLOADS"][name]
    ctx = workload.setup(matedrip, str(ROOT), workload.params["tiny"])
    outcome = workload.reduce(workload.run(matedrip, ctx))
    assert workload.check(outcome.output, PINS[name]) == []
