"""Every committed BENCH_*.json record carries what a speedup claim needs.

A record compares a parent and a change revision on the benchmark declared
in ``BENCHMARK.json``: both revisions, the library versions, the ``src/``
line count of each side, and a median of every end-to-end metric of every
workload for each side.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_both_sides(path):
    record = json.loads(path.read_text())
    for side in SIDES:
        revision = record["revisions"][side]
        assert isinstance(revision, str) and revision.strip(), side
        lines = record["src_lines"][side]
        assert isinstance(lines, int) and lines > 0, side
    versions = record["versions"]
    assert versions and all(isinstance(v, str) and v for v in versions.values())


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_every_end_to_end_median(path):
    workloads = json.loads(path.read_text())["workloads"]
    for workload in BENCHMARK["workloads"]:
        metrics = workloads[workload["name"]]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            for side in SIDES:
                median = metrics[metric["name"]][side]["median"]
                where = f"{workload['name']} {metric['name']} {side}"
                assert isinstance(median, (int, float)), where
                assert math.isfinite(median), where
