"""Regenerate tests/golden_stdout.json: the exit code and stdout digest of
`skalab.cli.main(argv)` for each command line below.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_stdout.py

`test_golden_stdout.py` replays every entry in process and compares. The
`halve` entries read the small files of `HALVE_FILES` by relative path, so
both scripts run them from a directory that `write_halve_inputs` filled. A
change that regenerates the file names each entry that changed, and why, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from skalab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_stdout.json"

PLANE_QS = (2, 3, 4, 5, 7, 9, 25, 49)
BAER_QS = (4, 9, 25, 49)
# `plane --flags` only, appended last: 3- and 4-digit ids over several chunks
LARGE_FLAG_QS = (53, 101)
SEEDS = ("0", "1", "2")
# audited, then refused: over AUDIT_MAX_P, a prime and a non-prime-power q
SKA_AUDIT_QS = ("4", "9", "25", "49", "121", "169", "289", "7", "6")
# per q, the first seeds whose sessions end chart_invalid and degenerate_h
# (seeds 0-2 all end ok)
SKA_RUN_SEEDS = {"9": ("8", "4"), "25": ("5", "10"), "49": ("31", "6")}
# `ska run` only, appended last: characteristic 2 (u = v = 1), two larger
# fields and GF(961), the largest whose tables fit the table budget; then
# GF(1369), refused by it
SKA_RUN_EXTRA_QS = ("4", "121", "169", "961")

# `halve` inputs, written by `write_halve_inputs`: a linear ramp, word text,
# two short random strings whose zlib image misses the target, a 64 + 40
# pair for the length-only estimators and 24 + 24 random bytes for zlib
HALVE_FILES = {
    "ramp_x.bin": bytes(range(16)),
    "ramp_y.bin": bytes(range(16, 32)),
    "text_x.txt": b"plane line flag field prime baer cover",
    "text_y.txt": b"alice bob round key chart audit seed",
    "miss_x.bin": b"\xd2\xad",
    "miss_y.bin": b"rd\x7f",
    "empty.bin": b"",
    "wide_x.bin": bytes(range(64)),
    "wide_y.bin": bytes(range(100, 140)),
    "rand_x.bin": bytes.fromhex("5b790c7cac994990d7ad7d21b020b7a331d02e1a1e788926"),
    "rand_y.bin": bytes.fromhex("f56ed30aa4b2b37fd541094c40e93e68c09b9e7d4011c0e0"),
}
HALVE_PAIRS = (
    ("ramp_x.bin", "ramp_y.bin"),
    ("text_x.txt", "text_y.txt"),
    ("miss_x.bin", "miss_y.bin"),
    ("text_x.txt", "text_x.txt"),
)


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
    for q in SKA_AUDIT_QS:
        argvs.append(["ska", "audit", "--q", q])
    for q, seeds in SKA_RUN_SEEDS.items():
        for seed in SEEDS + seeds:
            argvs.append(["ska", "run", "--q", q, "--seed", seed])
    argvs.append(["ska", "run", "--q", "7"])
    for seed in SEEDS:
        argvs.append(["cover", "--q", "9", "--c", "3", "--seed", seed])
    argvs.append(["cover", "--q", "9", "--c", "0.05"])  # undersampled
    argvs.append(["cover", "--q", "25", "--c", "0.2", "--seed", "1"])  # undersampled
    argvs.append(["cover", "--q", "25", "--c", "1", "--seed", "369617"])
    argvs.append(["cover", "--q", "7"])
    for estimator in ("zlib", "ramp", "prefix-gap"):
        for x, y in HALVE_PAIRS:
            argvs.append(["halve", "--estimator", estimator, "--x-file", x, "--y-file", y])
    argvs.append(["halve", "--x-file", "empty.bin", "--y-file", "ramp_y.bin"])
    argvs.append(["halve", "--x-file", "absent.bin", "--y-file", "ramp_y.bin"])
    for estimator in ("ramp", "prefix-gap"):
        argvs.append(["halve", "--estimator", estimator, "--x-file", "wide_x.bin",
                      "--y-file", "wide_y.bin"])
    argvs.append(["halve", "--estimator", "zlib", "--x-file", "rand_x.bin", "--y-file", "rand_y.bin"])
    for q in LARGE_FLAG_QS:
        for fmt in ("json", "csv"):
            argvs.append(["plane", "--q", str(q), "--format", fmt, "--flags"])
    for q in SKA_RUN_EXTRA_QS:
        argvs.append(["ska", "run", "--q", q, "--seed", "0"])
    argvs.append(["ska", "run", "--q", "1369"])
    return argvs


def write_halve_inputs(directory) -> None:
    """Write the `halve` input files into `directory`."""
    for name, data in HALVE_FILES.items():
        (Path(directory) / name).write_bytes(data)


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
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as inputs:
        write_halve_inputs(inputs)
        os.chdir(inputs)
        try:
            for argv in command_lines():
                code, digest = run(argv)
                entries.append({"argv": argv, "exit": code, "stdout_sha256": digest})
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps({"entries": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    main_()
