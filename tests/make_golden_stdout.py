"""Regenerate tests/golden_stdout.json: the exit code and stdout digest of
`skalab.cli.main(argv)` for each command line below.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_stdout.py

`test_golden_stdout.py` replays every entry in process and compares. A change
that regenerates the file names each entry that changed, and why, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from skalab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_stdout.json"

PLANE_QS = (2, 3, 4, 5, 7, 9, 25, 49)
BAER_QS = (4, 9, 25, 49)


def command_lines() -> list[list[str]]:
    argvs = []
    for q in PLANE_QS:
        for fmt in ("json", "csv"):
            argvs.append(["plane", "--q", str(q), "--format", fmt])
            argvs.append(["plane", "--q", str(q), "--format", fmt, "--flags"])
    for q in BAER_QS:
        for fmt in ("json", "csv"):
            argvs.append(["audit", "--q", str(q), "--baer", "--format", fmt])
    for strategy, q, a, b in (
        ("exhaustive", 2, 3, 3), ("exhaustive", 3, 2, 3),
        ("greedy-peel", 5, 7, 9), ("greedy-peel", 13, 14, 14),
        ("local-swap", 5, 7, 9), ("local-swap", 13, 14, 14),
    ):
        for fmt in ("json", "csv"):
            argvs.append(["audit", "--q", str(q), "--a", str(a), "--b", str(b),
                          "--strategy", strategy, "--seed", "1", "--iters", "20",
                          "--format", fmt])
    argvs.append(["audit", "--q", "4", "--a", "1", "--b", "1"])
    for q in ("173", "10007", "6", "0", "-1"):
        argvs.append(["plane", "--q", q])
        argvs.append(["audit", "--q", q, "--baer"])
        argvs.append(["audit", "--q", q, "--a", "2", "--b", "2"])
    argvs.append(["plane", "--q", "173", "--flags", "--format", "csv"])
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main_() -> None:
    os.environ.pop("SKALAB_SEED", None)
    entries = []
    for argv in command_lines():
        code, digest = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    GOLDEN.write_text(json.dumps({"entries": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main_()
