"""Self-test of the benchmark: every workload at toy sizes, and the checker
against deliberately corrupted outputs.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection; it
starts about 150 short `python -m skalab` processes and takes about ten
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

SEED = 7


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.delenv("SKALAB_SEED", raising=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_toy_run_passes_every_check(workload):
    result, details = run.measure(workload, SEED, 0, toy=True)
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert details["passes"] >= run.MIN_PASSES
    ops, _ = workloads.build(workload, SEED, "x", toy=True)
    assert result["attempted"] == run.SETUP_LAUNCHES + details["passes"] * len(ops)
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (run.ROOT / run.WORK_DIR).exists()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_toy_run_matches_untraced_and_isolates(workload):
    result, details = run.traced(workload, SEED, toy=True)
    assert details["failures"] == [] and details["isolation_problems"] == []
    assert result["correct"]
    assert list(result["metrics"]) == list(tracing.METRICS)
    for op in details["operations"]:
        assert op["traced"]["stdout_sha256"] == op["untraced"]["stdout_sha256"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    own = {
        "incidence": "incidence_graph.build_plane_graph.busy_s",
        "subfield": "subplane_cover.images",
        "halving": "halving_walk.zlib_calls",
    }[workload]
    assert values[own] > 0
    if workload == "halving":
        assert values["finite_field.elt_ops"] == 0
    # spans nest inside their operation's root span
    spans = details["spans"]
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_isolation_check_flags_work_in_a_bypassed_layer():
    values = {name: 0 for name in tracing.METRICS}
    values["finite_field.elt_ops"] = 12
    assert tracing.isolation_problems("halving", values)
    assert tracing.isolation_problems("incidence", values) == []


def test_inputs_follow_the_seed():
    _, a = workloads.build("halving", 1, "in")
    _, b = workloads.build("halving", 1, "in")
    _, c = workloads.build("halving", 2, "in")
    assert [f.data for f in a] == [f.data for f in b]
    assert [f.data for f in a] != [f.data for f in c]
    ops_a, _ = workloads.build("subfield", 1, "in")
    ops_c, _ = workloads.build("subfield", 2, "in")
    assert [o.argv for o in ops_a] != [o.argv for o in ops_c]


def _outputs(workload):
    """Each toy operation with its real stdout."""
    ops, files = workloads.build(workload, SEED, f"{run.WORK_DIR}/in", toy=True)
    with run.work_dir(files):
        env = run.child_env()
        results = []
        for op in ops:
            code, out, err, _, _ = run.run_child(op.argv, env)
            assert run.evaluate(op, code, out, err, {}) == []
            results.append((op, out))
    return results


def _edit_json(stdout: bytes, edit) -> bytes:
    data = json.loads(stdout)
    edit(data)
    return json.dumps(data).encode()


def _set(path, value):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _corruptions(op, out: bytes):
    """(description, corrupted stdout) pairs for one operation."""
    name = op.name
    if name.startswith("plane") and "csv" in name:
        rows = out.split(b"\r\n")
        yield "dropped flag row", b"\r\n".join(rows[:1] + rows[2:])
        yield "duplicated flag row", b"\r\n".join(rows[:-2] + [rows[-3], b""])
    elif name.startswith("plane"):
        yield "wrong flag count", _edit_json(out, lambda d: d.update(flags=d["flags"] + 1))
        yield "wrong point count", _edit_json(out, lambda d: d.update(points=d["points"] - 1))
    elif name.startswith("audit_baer"):
        header, row = out.decode().split("\r\n")[:2]
        fields = row.split(",")
        fields[header.split(",").index("edges")] = "1"
        yield "wrong Baer edges", f"{header}\r\n{','.join(fields)}\r\n".encode()
    elif name.startswith("audit_search"):
        header, row = out.decode().split("\r\n")[:2]
        fields = row.split(",")
        fields[header.split(",").index("edges")] = "100000"
        yield "edges above kst_bound", f"{header}\r\n{','.join(fields)}\r\n".encode()
    elif name.startswith("cover"):
        yield "wrong N", _edit_json(out, _set(("cover", "N"), 1))
        def one_less_or_more(d):
            ids = d["cover"]["uncovered_flag_ids"]
            d["cover"]["uncovered_flag_ids"] = ids[:-1] if ids else [0]
        yield "uncovered ids disagree", _edit_json(out, one_less_or_more)
        yield "zero coverage", _edit_json(out, _set(("cover", "coverage_fraction"), 0.0))
    elif name.startswith("ska_audit"):
        yield "flipped uniform", out.replace(b'"uniform":true', b'"uniform":false')
        yield "wrong per-key count", _edit_json(out, _set(("audit", "per_key_count"), 1))
    elif name.startswith("ska_run"):
        def mismatch(d):
            d["session"].update(status="ok", alice_key=1, bob_key=2)
        yield "mismatched key", _edit_json(out, mismatch)
        yield "unknown status", _edit_json(out, _set(("session", "status"), "lost"))
    elif name.startswith("halve"):
        def outside(d):
            d["halve"].update(status="ok", alpha=d["halve"]["nx"] + 1, beta=0)
        yield "node outside the grid", _edit_json(out, outside)
        yield "unknown status", _edit_json(out, _set(("halve", "status"), "maybe"))
    else:
        raise AssertionError(f"no corruption for {name}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_outputs_count_as_failed_operations(workload):
    for op, out in _outputs(workload):
        for what, bad in _corruptions(op, out):
            assert bad != out, f"{op.name}: corruption '{what}' changed nothing"
            assert run.evaluate(op, 0, bad, b"", {}), f"{op.name}: '{what}' passed the check"
        # process-level failures and a changed repetition
        assert run.evaluate(op, 1, out, b"", {})
        assert run.evaluate(op, 0, out, b"Traceback (most recent call last):\n", {})
        digests = {}
        assert run.evaluate(op, 0, out, b"", digests) == []
        assert run.evaluate(op, 0, out + b" ", b"", digests)


def test_checker_rejects_output_that_is_not_json():
    assert checks.ska_audit(b"not json", q=9)
    assert checks.plane_csv_flags(b"q,line_id,point_id\r\nx,y\r\n", q=9)


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "halving", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == sorted(
        ["BENCHMARK.json", run.HERE.name])
