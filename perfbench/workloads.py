"""Workload definitions: the skalab commands each workload runs, per seed.

A workload is a fixed list of CLI operations. The benchmark seed decides the
`--seed` values passed to seeded commands and the bytes of the `halve` input
files; the program only sees the generated arguments and files. No operation
passes `--threads`.

`toy=True` swaps every size for a small one (q = 9 or 13, 16 + 16 byte halve
inputs) so the self-test can run each workload in a few seconds.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("incidence", "subfield", "halving")

# Fixed vocabulary for the compressible halve input; the seed only picks the
# word sequence, so the text is always highly redundant for zlib.
VOCABULARY = (
    "plane", "point", "line", "flag", "field", "prime", "square", "subplane",
    "baer", "cover", "map", "image", "orbit", "chart", "key", "alice", "bob",
    "round", "secret", "audit", "graph", "edge", "bound", "walk", "grid",
    "prefix", "winding", "target", "half", "node", "seed", "proof",
)

SIZES = {
    False: {
        "plane_csv_q": 49, "plane_q": 101, "baer_q": 49,
        "search_q": 53, "search_ab": 40,
        "cover_q": 25, "cover_c": 1, "ska_audit_q": 121, "ska_run_q": 49,
        "zlib_n": 256, "ramp_n": 768,
    },
    True: {
        "plane_csv_q": 9, "plane_q": 13, "baer_q": 9,
        "search_q": 13, "search_ab": 5,
        "cover_q": 9, "cover_c": 1, "ska_audit_q": 9, "ska_run_q": 9,
        "zlib_n": 16, "ramp_n": 16,
    },
}

SKA_RUN_SESSIONS = 3


@dataclass(frozen=True)
class Operation:
    """One CLI invocation with the semantic check of its stdout."""

    name: str
    group: str  # the per-command time it adds to, e.g. "plane_s"
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]


@dataclass(frozen=True)
class InputFile:
    path: str  # relative to the checkout root, as passed on the command line
    data: bytes

    def describe(self) -> dict:
        return {"path": self.path, "bytes": len(self.data),
                "sha256": hashlib.sha256(self.data).hexdigest()}


def word_text(rng: random.Random, n: int) -> bytes:
    words = []
    size = 0
    while size < n:
        word = rng.choice(VOCABULARY)
        words.append(word)
        size += len(word) + 1
    return " ".join(words).encode("ascii")[:n]


def _halve_inputs(seed: int, input_dir: str, sizes: dict) -> list[InputFile]:
    rng = random.Random(f"halve-inputs:{seed}")
    n, m = sizes["zlib_n"], sizes["ramp_n"]
    files = {
        "random_x.bin": rng.randbytes(n),
        "random_y.bin": rng.randbytes(n),
        "text_x.txt": word_text(rng, n),
        "text_y.txt": word_text(rng, n),
        "ramp_x.bin": rng.randbytes(m),
        "ramp_y.bin": rng.randbytes(m),
    }
    return [InputFile(f"{input_dir}/{name}", data) for name, data in files.items()]


def _halve_op(name: str, group: str, estimator: str, x: InputFile, y: InputFile) -> Operation:
    return Operation(
        name, group,
        ("halve", "--estimator", estimator, "--x-file", x.path, "--y-file", y.path),
        functools.partial(checks.halve, nx=len(x.data), ny=len(y.data)),
    )


def build(workload: str, seed: int, input_dir: str, toy: bool = False):
    """Return (operations, input files) for one workload and seed.

    Input files are described, not written; `write_inputs` puts them on disk.
    """
    sizes = SIZES[toy]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "incidence":
        q_csv, q_plane, q_baer = sizes["plane_csv_q"], sizes["plane_q"], sizes["baer_q"]
        q_search, ab = sizes["search_q"], sizes["search_ab"]
        search_seed = str(rng.randrange(10**6))
        ops = [
            Operation(f"plane_q{q_csv}_csv_flags", "plane_s",
                      ("plane", "--q", str(q_csv), "--format", "csv", "--flags"),
                      functools.partial(checks.plane_csv_flags, q=q_csv)),
            Operation(f"plane_q{q_plane}", "plane_s",
                      ("plane", "--q", str(q_plane)),
                      functools.partial(checks.plane_json, q=q_plane)),
            Operation(f"audit_baer_q{q_baer}", "audit_baer_s",
                      ("audit", "--q", str(q_baer), "--baer"),
                      functools.partial(checks.audit_baer, q=q_baer)),
            Operation(f"audit_search_q{q_search}", "audit_search_s",
                      ("audit", "--q", str(q_search), "--a", str(ab), "--b", str(ab),
                       "--strategy", "greedy-peel", "--seed", search_seed),
                      functools.partial(checks.audit_search, q=q_search, a=ab, b=ab)),
        ]
        return ops, []
    if workload == "subfield":
        q_cover, c = sizes["cover_q"], sizes["cover_c"]
        q_audit, q_run = sizes["ska_audit_q"], sizes["ska_run_q"]
        cover_seed = rng.randrange(10**6)
        run_seed = rng.randrange(10**6)
        ops = [
            Operation(f"cover_q{q_cover}", "cover_s",
                      ("cover", "--q", str(q_cover), "--c", str(c), "--seed", str(cover_seed)),
                      functools.partial(checks.cover, q=q_cover, c=c)),
            Operation(f"ska_audit_q{q_audit}", "ska_audit_s",
                      ("ska", "audit", "--q", str(q_audit)),
                      functools.partial(checks.ska_audit, q=q_audit)),
        ]
        for k in range(SKA_RUN_SESSIONS):
            ops.append(Operation(
                f"ska_run_q{q_run}_{k}", "ska_run_s",
                ("ska", "run", "--q", str(q_run), "--seed", str(run_seed + k)),
                functools.partial(checks.ska_run, q=q_run)))
        return ops, []
    if workload == "halving":
        files = _halve_inputs(seed, input_dir, sizes)
        rx, ry, tx, ty, mx, my = files
        ops = [
            _halve_op("halve_zlib_random", "halve_zlib_s", "zlib", rx, ry),
            _halve_op("halve_zlib_text", "halve_zlib_s", "zlib", tx, ty),
            _halve_op("halve_ramp_random", "halve_ramp_s", "ramp", mx, my),
        ]
        return ops, files
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(root: Path, files: list[InputFile]) -> None:
    for f in files:
        path = root / f.path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(f.data)
