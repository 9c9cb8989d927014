"""Stdout bytes and exit codes of `plane` and `audit` match the golden corpus
in golden_stdout.json (regenerated by make_golden_stdout.py)."""

import json
from pathlib import Path

import pytest

from make_golden_stdout import GOLDEN, run

ENTRIES = json.loads(Path(GOLDEN).read_text(encoding="utf-8"))["entries"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_golden_stdout(entry, monkeypatch):
    monkeypatch.delenv("SKALAB_SEED", raising=False)
    assert run(entry["argv"]) == (entry["exit"], entry["stdout_sha256"])
