"""Stdout bytes and exit codes of every command match the golden corpus in
golden_stdout.json (regenerated by make_golden_stdout.py): `plane` and
`audit`, `ska run` and `ska audit`, `cover` and `halve`, including refused
inputs, undersampled covers, sessions that end chart_invalid or
degenerate_h, and a halve whose image misses its target."""

import json
from pathlib import Path

import pytest

from make_golden_stdout import GOLDEN, run, write_halve_inputs

ENTRIES = json.loads(Path(GOLDEN).read_text(encoding="utf-8"))["entries"]


@pytest.fixture(scope="module")
def halve_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("halve_inputs")
    write_halve_inputs(directory)
    return directory


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_golden_stdout(entry, monkeypatch, halve_inputs):
    monkeypatch.delenv("SKALAB_SEED", raising=False)
    monkeypatch.chdir(halve_inputs)
    assert run(entry["argv"]) == (entry["exit"], entry["stdout_sha256"])
