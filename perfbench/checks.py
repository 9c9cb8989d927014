"""Correctness checks for one operation's output.

Each semantic check takes the stdout bytes of one command and returns a list
of problems; an empty list means the output is right. The expected values
are computed here from q (or the input sizes), never read back from the
program, so a wrong count in the output is caught.

`process_problems` covers what every operation must satisfy: exit code 0
and no traceback on stderr.
"""

from __future__ import annotations

import json
import math


def process_problems(exit_code: int, stderr: bytes) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if b"Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def _plane_sizes(q: int) -> tuple[int, int]:
    n = q * q + q + 1
    return n, n * (q + 1)


def _subfield_prime(q: int) -> int:
    p = math.isqrt(q)
    if p * p != q:
        raise ValueError(f"q={q} is not a prime square")
    return p


def _json(stdout: bytes):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _csv_records(stdout: bytes) -> tuple[list[str], list[list[str]]]:
    text = stdout.decode("ascii")
    if not text.endswith("\r\n"):
        raise ValueError("CSV does not end with CRLF")
    lines = text[:-2].split("\r\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} = {got!r}, expected {want!r}")


def plane_json(stdout: bytes, q: int) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    n, flags = _plane_sizes(q)
    _expect(problems, "points", data.get("points"), n)
    _expect(problems, "lines", data.get("lines"), n)
    _expect(problems, "flags", data.get("flags"), flags)
    _expect(problems, "degree", data.get("degree"), q + 1)
    return problems


def plane_csv_flags(stdout: bytes, q: int) -> list[str]:
    """Flag listing: one sorted row per flag, every line and point on q+1 flags."""
    try:
        header, rows = _csv_records(stdout)
        pairs = [(int(r[1]), int(r[2])) for r in rows if int(r[0]) == q]
    except (ValueError, IndexError) as exc:
        return [f"malformed flag CSV: {exc}"]
    problems = []
    n, flags = _plane_sizes(q)
    _expect(problems, "header", header, ["q", "line_id", "point_id"])
    _expect(problems, "flag rows", len(rows), flags)
    _expect(problems, "rows with the right q", len(pairs), len(rows))
    if pairs != sorted(set(pairs)):
        problems.append("flag rows are not strictly increasing")
    line_deg = [0] * n
    point_deg = [0] * n
    for lid, pid in pairs:
        if not (0 <= lid < n and 0 <= pid < n):
            problems.append(f"flag ({lid}, {pid}) has an id outside [0, {n})")
            return problems
        line_deg[lid] += 1
        point_deg[pid] += 1
    if set(line_deg) != {q + 1}:
        problems.append(f"line degrees {sorted(set(line_deg))}, expected all {q + 1}")
    if set(point_deg) != {q + 1}:
        problems.append(f"point degrees {sorted(set(point_deg))}, expected all {q + 1}")
    return problems


def _audit_record(stdout: bytes):
    try:
        header, rows = _csv_records(stdout)
    except ValueError as exc:
        return None, [f"malformed audit CSV: {exc}"]
    if len(rows) != 1 or len(rows[0]) != len(header):
        return None, [f"audit CSV has {len(rows)} rows, expected one full row"]
    return dict(zip(header, rows[0])), []


def audit_baer(stdout: bytes, q: int) -> list[str]:
    rec, problems = _audit_record(stdout)
    if rec is None:
        return problems
    p = _subfield_prime(q)
    n = p * p + p + 1
    _expect(problems, "q", rec.get("q"), str(q))
    _expect(problems, "left_size", rec.get("left_size"), str(n))
    _expect(problems, "right_size", rec.get("right_size"), str(n))
    _expect(problems, "edges", rec.get("edges"), str(n * (p + 1)))
    return problems


def audit_search(stdout: bytes, q: int, a: int, b: int) -> list[str]:
    rec, problems = _audit_record(stdout)
    if rec is None:
        return problems
    _expect(problems, "q", rec.get("q"), str(q))
    _expect(problems, "left_size", rec.get("left_size"), str(a))
    _expect(problems, "right_size", rec.get("right_size"), str(b))
    try:
        edges, kst = int(rec["edges"]), float(rec["kst_bound"])
    except (KeyError, ValueError) as exc:
        return problems + [f"unreadable edges/kst_bound: {exc}"]
    if not 0 <= edges <= kst:
        problems.append(f"edges {edges} outside [0, kst_bound {kst}]")
    return problems


def cover(stdout: bytes, q: int, c: float) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    body = data.get("cover") or {}
    p = _subfield_prime(q)
    _, flags = _plane_sizes(q)
    _expect(problems, "p", body.get("p"), p)
    _expect(problems, "N", body.get("N"), math.ceil(c * p**3 * math.log(flags)))
    coverage = body.get("coverage_fraction")
    uncovered = body.get("uncovered_flag_ids")
    if not isinstance(coverage, (int, float)) or not 0 < coverage <= 1:
        return problems + [f"coverage_fraction {coverage!r} outside (0, 1]"]
    if not isinstance(uncovered, list) or uncovered != sorted(set(uncovered)):
        return problems + ["uncovered_flag_ids is not a strictly increasing list"]
    if uncovered and not (0 <= uncovered[0] and uncovered[-1] < flags):
        problems.append(f"uncovered flag id outside [0, {flags})")
    if abs((flags - len(uncovered)) / flags - coverage) > 1e-9:
        problems.append(
            f"{len(uncovered)} uncovered of {flags} flags disagrees with coverage {coverage}"
        )
    return problems


def ska_audit(stdout: bytes, q: int) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    body = data.get("audit") or {}
    p = _subfield_prime(q)
    expected = (p - 1) * p * p
    _expect(problems, "uniform", body.get("uniform"), True)
    _expect(problems, "per_key_count", body.get("per_key_count"), expected)
    _expect(problems, "transcripts", body.get("transcripts"), p * p)
    _expect(problems, "min_count", body.get("min_count"), expected)
    _expect(problems, "max_count", body.get("max_count"), expected)
    return problems


def ska_run(stdout: bytes, q: int) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    session = data.get("session") or {}
    _expect(problems, "q", session.get("q"), q)
    _expect(problems, "p", session.get("p"), _subfield_prime(q))
    status = session.get("status")
    if status not in ("ok", "chart_invalid", "degenerate_h"):
        problems.append(f"unknown session status {status!r}")
    if status == "ok" and (
        session.get("alice_key") is None or session.get("alice_key") != session.get("bob_key")
    ):
        problems.append(
            f"keys differ: alice {session.get('alice_key')!r}, bob {session.get('bob_key')!r}"
        )
    return problems


def halve(stdout: bytes, nx: int, ny: int) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    body = data.get("halve") or {}
    _expect(problems, "nx", body.get("nx"), nx)
    _expect(problems, "ny", body.get("ny"), ny)
    status = body.get("status")
    alpha, beta = body.get("alpha"), body.get("beta")
    if status == "ok":
        if not (isinstance(alpha, int) and isinstance(beta, int)
                and 0 <= alpha <= nx and 0 <= beta <= ny):
            problems.append(f"(alpha, beta) = ({alpha!r}, {beta!r}) outside the grid")
    elif status == "not_covered":
        if alpha is not None or beta is not None:
            problems.append("not_covered result carries a node")
    else:
        problems.append(f"unknown halve status {status!r}")
    return problems


def version(stdout: bytes) -> list[str]:
    text = stdout.decode("utf-8", "replace")
    if not (text.startswith("skalab ") and text.endswith("\n") and text.count("\n") == 1):
        return [f"unexpected --version output {text!r}"]
    return []
