"""Batch front-end: every experiment as a seeded, reproducible command.

Exit codes: 0 success, 2 usage or unsupported input, 3 invariant violation
detected by an audit.  Output is byte-identical for identical (command,
config, seed).  `--threads` is accepted and ignored on `audit` and `cover`,
which run serially.  `halve --estimator zlib` uses one helper thread for
compression when more than one CPU is available; its output bytes do not
depend on scheduling.

Defaults come from, in increasing precedence: built-ins, a flat key=value
config file (`--config`), the SKALAB_SEED environment variable (seed only),
explicit flags.

The parser is built from names only; each command imports the modules it
needs when it runs, so `--version` loads none of them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import InvariantViolation, SkalabError

FORMATS = ("json", "csv")
STRATEGIES = ("exhaustive", "greedy-peel", "local-swap")
ESTIMATOR_IDS = ("zlib", "ramp", "prefix-gap")  # = halving_walk.ESTIMATOR_IDS
FLAG_CHUNK_ROWS = 8192  # about the flags `plane --flags` renders per write
NO_EFFECT = "no effect; kept for compatibility (runs are serial)"


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve(args, key: str, cast, fallback, choices=None):
    """flag > config file > (SKALAB_SEED for seed) > built-in default.

    Config and environment values get the checks argparse gives flags.
    """
    flag_value = getattr(args, key.replace("-", "_"), None)
    if flag_value is not None:
        return flag_value
    raw = args.config_values.get(key)
    if raw is None and key == "seed":
        raw = os.environ.get("SKALAB_SEED")
    if raw is None:
        return fallback
    try:
        value = cast(raw)
    except ValueError:
        raise SkalabError(f"invalid {key} value {raw!r}") from None
    if choices is not None and value not in choices:
        raise SkalabError(f"{key} must be one of {choices}, got {value!r}")
    return value


def _emit(args, text: str) -> None:
    _emit_chunks(args, (text,))


def _emit_chunks(args, chunks) -> None:
    """Write each text chunk of an iterable, in order, to --out or stdout."""
    if args.out in (None, "-"):
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise SkalabError(f"cannot write output: {exc}") from exc


def _line_blocks(plane):
    """Ranges of line ids holding about `FLAG_CHUNK_ROWS` flags each."""
    n_lines = plane.counts()[1]
    step = max(1, FLAG_CHUNK_ROWS // (plane.q + 1))
    for start in range(0, n_lines, step):
        yield range(start, min(start + step, n_lines))


def _flag_csv_chunks(plane):
    """The `plane --flags` CSV, a block of lines per chunk.

    Every cell is an int, which `render_csv` writes unquoted, so each flag
    is the line `q,lid,pid` with a CRLF; each line's rows are one join.
    """
    q = plane.q
    header = "q,line_id,point_id\r\n"
    for block in _line_blocks(plane):
        yield header + "".join(f"{q},{lid}," + f"\r\n{q},{lid},".join(map(str, plane.row(lid))) + "\r\n"
                               for lid in block)
        header = ""


def _flag_json_chunks(report: str, plane):
    """The `plane --flags` JSON in chunks.

    `report` is the canonical JSON of the envelope with an empty "flag_list".
    The rows go between its brackets, a block of lines per chunk, in the
    bytes `canonical_json` gives a list of [lid, pid] pairs.
    """
    head, tail = report.split('"flag_list":[]')
    yield head + '"flag_list":['
    for block in _line_blocks(plane):
        text = ",".join(f"[{lid}," + f"],[{lid},".join(map(str, plane.row(lid))) + "]"
                        for lid in block)
        yield text if block.start == 0 else "," + text
    yield "]" + tail


def cmd_plane(args) -> int:
    from .projective_plane import enumerate_plane, flag_count, plane_field
    from .reporting import canonical_json, envelope, render_csv

    fmt = _resolve(args, "format", str, "json", FORMATS)
    seed = _resolve(args, "seed", int, 0)
    plane_field(args.q)  # the plane budget and the field, before any work
    config = {"command": "plane", "q": args.q, "format": fmt, "seed": seed,
              "version": __version__}
    n_points = n_lines = args.q * args.q + args.q + 1
    n_flags = flag_count(args.q)
    plane = enumerate_plane(args.q) if args.flags else None
    if fmt == "csv":
        if args.flags:
            _emit_chunks(args, _flag_csv_chunks(plane))
        else:
            header = ("schema_version", "version", "q", "seed", "points", "lines", "flags", "degree")
            rows = [(1, __version__, args.q, seed, n_points, n_lines, n_flags, args.q + 1)]
            _emit(args, render_csv(header, rows))
        return 0
    body = {
        "points": n_points,
        "lines": n_lines,
        "flags": n_flags,
        "degree": args.q + 1,
    }
    if not args.flags:
        _emit(args, canonical_json(envelope("plane", config, body)))
        return 0
    body["flag_list"] = []
    _emit_chunks(args, _flag_json_chunks(canonical_json(envelope("plane", config, body)), plane))
    return 0


def cmd_audit(args) -> int:
    from .incidence_graph import (
        BoundReport,
        PlaneHost,
        build_plane_graph,
        dense_subgraph_search,
        sdz_report,
    )
    from .projective_plane import plane_field
    from .reporting import canonical_json, envelope, render_csv

    fmt = _resolve(args, "format", str, "csv", FORMATS)
    seed = _resolve(args, "seed", int, 0)
    strategy = _resolve(args, "strategy", str, "greedy-peel", STRATEGIES)
    iters = _resolve(args, "iters", int, 100)
    if iters < 0:
        raise SkalabError(f"iters must be non-negative, got {iters}")
    plane_field(args.q)  # the plane budget and the field, before any work
    if args.baer:
        from .subplane_cover import baer_subplane

        query = baer_subplane(args.q)
        host = PlaneHost(args.q)
        label = "baer"
    else:
        if args.a is None or args.b is None:
            raise SkalabError("audit needs --baer or both --a and --b")
        host = build_plane_graph(args.q)
        query, _ = dense_subgraph_search(
            host, args.a, args.b, strategy=strategy, seed=seed, iters=iters
        )
        label = strategy
    report = sdz_report(host, query)
    config = {
        "command": "audit", "q": args.q, "seed": seed, "strategy": label,
        "a": args.a, "b": args.b, "iters": iters, "format": fmt,
        "version": __version__,
    }
    if fmt == "json":
        body = {"report": report.to_json_dict(), "query_label": label}
        _emit(args, canonical_json(envelope("audit", config, body)))
    else:
        header = ("schema_version", "version", "seed", "strategy") + BoundReport.CSV_HEADER
        rows = [(1, __version__, seed, label) + report.csv_row()]
        _emit(args, render_csv(header, rows))
    return 0


def cmd_ska(args) -> int:
    from .finite_field import field_for_size
    from .projective_plane import sample_flag
    from .reporting import canonical_json, envelope
    from .ska_protocol import run_session, secrecy_audit

    fmt = _resolve(args, "format", str, "json", FORMATS)
    seed = _resolve(args, "seed", int, 0)
    spec = field_for_size(args.q)
    if spec.degree != 2:
        raise SkalabError(f"q={args.q} has no proper subfield; the protocol needs q = p^2")
    config = {"command": "ska", "mode": args.mode, "q": args.q, "seed": seed,
              "format": fmt, "version": __version__}
    if args.mode == "run":
        flag = sample_flag(args.q, seed)
        result = run_session(flag)
        _emit(args, canonical_json(envelope("ska", config, {"session": result.to_json_dict()})))
        return 0
    audit = secrecy_audit(args.q)
    _emit(args, canonical_json(envelope("ska", config, {"audit": audit.to_json_dict()})))
    return 0 if audit.uniform else 3


def cmd_cover(args) -> int:
    from .reporting import canonical_json, envelope
    from .subplane_cover import build_cover

    fmt = _resolve(args, "format", str, "json", FORMATS)
    seed = _resolve(args, "seed", int, 0)
    c = _resolve(args, "c", float, 3.0)
    if not 0 < c < math.inf:
        raise SkalabError(f"c must be finite and positive, got {c}")
    family = build_cover(args.q, c=c, seed=seed)
    config = {"command": "cover", "q": args.q, "c": c, "seed": seed,
              "format": fmt, "version": __version__}
    _emit(args, canonical_json(envelope("cover", config, {"cover": family.to_json_dict()})))
    return 0


def cmd_halve(args) -> int:
    from .halving_walk import get_estimator, halve
    from .reporting import canonical_json, envelope

    estimator_id = _resolve(args, "estimator", str, "zlib", ESTIMATOR_IDS)
    try:
        with open(args.x_file, "rb") as fh:
            x = fh.read()
        with open(args.y_file, "rb") as fh:
            y = fh.read()
    except OSError as exc:
        raise SkalabError(f"cannot read input: {exc}") from exc
    if not x or not y:
        raise SkalabError("halve needs nonempty --x-file and --y-file")
    est = get_estimator(estimator_id, x, y)
    report = halve(x, y, est)
    config = {"command": "halve", "x_file": args.x_file, "y_file": args.y_file,
              "estimator": estimator_id, "version": __version__}
    _emit(args, canonical_json(envelope("halve", config, {"halve": report.to_json_dict()})))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skalab",
        description="Projective-plane incidence experiments with seeded determinism.",
    )
    parser.add_argument("--version", action="version", version=f"skalab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_seed=True, with_format=True):
        p.add_argument("--config", default=None, help="flat key=value defaults file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if with_seed:
            p.add_argument("--seed", type=int, default=None)
        if with_format:
            p.add_argument("--format", choices=FORMATS, default=None)

    p_plane = sub.add_parser("plane", help="enumerate PG(2,q)")
    p_plane.add_argument("--q", type=int, required=True)
    p_plane.add_argument("--flags", action="store_true", help="include the full flag listing")
    common(p_plane)
    p_plane.set_defaults(func=cmd_plane)

    p_audit = sub.add_parser("audit", help="density audit of an induced subgraph")
    p_audit.add_argument("--q", type=int, required=True)
    p_audit.add_argument("--baer", action="store_true", help="audit the Baer subplane query")
    p_audit.add_argument("--a", type=int, default=None, help="target left size")
    p_audit.add_argument("--b", type=int, default=None, help="target right size")
    p_audit.add_argument("--strategy", choices=STRATEGIES, default=None)
    p_audit.add_argument("--iters", type=int, default=None)
    p_audit.add_argument("--threads", type=int, default=None, help=NO_EFFECT)
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_ska = sub.add_parser("ska", help="run or audit the key-agreement protocol")
    p_ska.add_argument("mode", choices=("run", "audit"))
    p_ska.add_argument("--q", type=int, required=True)
    common(p_ska)
    p_ska.set_defaults(func=cmd_ska)

    p_cover = sub.add_parser("cover", help="randomized subplane covering family")
    p_cover.add_argument("--q", type=int, required=True)
    p_cover.add_argument("--c", type=float, default=None, help="oversampling constant")
    p_cover.add_argument("--threads", type=int, default=None, help=NO_EFFECT)
    common(p_cover)
    p_cover.set_defaults(func=cmd_cover)

    p_halve = sub.add_parser("halve", help="winding-number halving walk on two files")
    p_halve.add_argument("--x-file", required=True)
    p_halve.add_argument("--y-file", required=True)
    p_halve.add_argument("--estimator", choices=ESTIMATOR_IDS, default=None)
    common(p_halve, with_seed=False)
    p_halve.set_defaults(func=cmd_halve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _read_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"skalab: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"skalab: invariant violation: {exc}", file=sys.stderr)
        return 3
    except SkalabError as exc:
        print(f"skalab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
