"""Canonical, byte-stable report rendering (JSON and RFC-4180 CSV).

All floats are rounded to 12 significant digits before rendering so that
repeated runs produce identical bytes; JSON keys are sorted; CSV uses \r\n
line endings and minimal quoting.
"""

from __future__ import annotations

import csv
import io
import json

SCHEMA_VERSION = 1


def round_floats(obj):
    """Recursively round floats to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Sorted-key compact JSON with stable float rendering, newline-terminated."""
    return json.dumps(round_floats(obj), sort_keys=True, separators=(",", ":")) + "\n"


def _csv_cell(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return value


# cell types that csv.writer would render otherwise; it writes ints and
# strings as `_csv_cell` leaves them, and None as ""
_RENDERED_CELLS = frozenset((float, bool))


def _csv_row(row):
    return row if _RENDERED_CELLS.isdisjoint(map(type, row)) else [_csv_cell(v) for v in row]


def render_csv(header: tuple | None, rows: list[tuple]) -> str:
    """RFC-4180 CSV (CRLF, minimal quoting): the header row, unless None, then the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    if header is not None:
        writer.writerow(header)
    writer.writerows(map(_csv_row, rows))
    return buf.getvalue()


def envelope(command: str, config: dict, body: dict) -> dict:
    """Self-describing report: schema version + full config + payload."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": round_floats(config),
    }
    out.update(body)
    return out
