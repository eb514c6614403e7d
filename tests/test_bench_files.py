"""The committed benchmark records (`BENCH_*.json` at the repository root)."""
import json
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_the_trajectory_is_committed():
    assert {p.name for p in BENCH_FILES} >= {"BENCH_history.json"}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_bench_file_is_an_object_that_names_nproc(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    assert "nproc" in doc
