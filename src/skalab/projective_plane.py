"""PG(2,q): canonical points and lines, incidence, flags, affine charts.

Vertices are stored canonically: the first nonzero coordinate (scanning
index 0, 1, 2) is scaled to 1, so equality of objects is equality of
projective classes.  Points and lines share one closed-form id scheme over
the element indices of `FieldSpec.elements()`:

    (0:0:1) -> 0,   (0:1:c) -> 1 + c,   (1:b:c) -> 1 + q + b*q + c,

which is the order of the flattened residue tuples (a0, a1 per coordinate),
so ids are stable across runs.  `vertex_id` and `vertex_triple` convert
between ids and canonical triples; `class_ids` gives the ids of any nonzero
triples of element indices.  `line_points` lists the point ids of one line
from the field tables.  `Plane` keeps the point ids of all flags in one
flat `array('I')`, line after line, so flag i is (i // (q+1), rows[i]);
its tuple list `flag_ids` and dict `flag_index` are built only on first
read.  `flag_ids_at` decodes a single flag index with `line_points`, so
`sample_flag` needs no enumeration.  Objects are built only when a caller
asks for them, by `flag_from_ids`, which skips the canonicalization and
incidence checks of the public constructors.  `plane_field` refuses, before
any field table is built, a plane of more than `PLANE_MAX_FLAGS` flags;
`enumerate_plane` calls it, and so do the `plane` and `audit` commands before
any other work.

The affine chart maps a flag (line x, point y) with x0 != 0 and y2 != 0 to
six subfield residues (f, r, g, t, h, s) via

    x1/x0 = f + r*xi,   y0/y2 = g + t*xi,   y1/y2 = h + s*xi,

and incidence pins the remaining ratio: -x2/x0 = (g + f*h) +
(t + f*s + h*r)*xi + r*s*xi^2 = u' + v'*xi (`chart_u_prime`, `chart_v_prime`).
`to_chart` reads each ratio off the field tables as divmod(index, p).  Flags
with x0 = 0 or y2 = 0 raise ChartInvalid; they are excluded rather than
re-coordinatized.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat

from .errors import ChartInvalid, SpecMismatch, TooLarge, UnsupportedField, ZeroVector
from .finite_field import Elt, FieldSpec, field_for_size, format_elt

Triple = tuple[Elt, Elt, Elt]

# Most flags `plane_field` accepts.  PG(2,169), with 4,884,270, fits
# (`plane --q 169 --format csv --flags`: about 5 s and 37 MB peak RSS on a
# 2-vCPU host); PG(2,173), with 5,237,922, is refused.
PLANE_MAX_FLAGS = 5_000_000


def canonicalize(raw: Triple) -> Triple:
    """Scale a nonzero triple so its first nonzero coordinate is 1."""
    for c in raw:
        if not c.is_zero():
            if c == c.spec.one():
                return raw
            scale = c.inv()
            return (raw[0] * scale, raw[1] * scale, raw[2] * scale)
    raise ZeroVector("(0:0:0) is not a projective class")


class _ProjTriple:
    __slots__ = ("coords",)

    def __init__(self, coords: Triple):
        self.coords = canonicalize(coords)

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    def __eq__(self, other):
        return type(self) is type(other) and self.coords == other.coords

    def __hash__(self):
        return hash((type(self).__name__, self.coords))

    def __repr__(self):
        body = ":".join(format_elt(c) for c in self.coords)
        return f"{type(self).__name__}({body})"


class ProjPoint(_ProjTriple):
    """Canonical projective point (y0 : y1 : y2)."""


class ProjLine(_ProjTriple):
    """Canonical projective line (x0 : x1 : x2)."""


class Flag:
    """An incident (line, point) pair."""

    __slots__ = ("line", "point")

    def __init__(self, line: ProjLine, point: ProjPoint):
        if not incident(line, point):
            raise ValueError(f"{line!r} and {point!r} are not incident")
        self.line = line
        self.point = point

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and self.line == other.line
            and self.point == other.point
        )

    def __hash__(self):
        return hash((self.line, self.point))

    def __repr__(self):
        return f"Flag({self.line!r}, {self.point!r})"


@dataclass(frozen=True)
class ChartCoords:
    """Subfield parameters (f, r, g, t, h, s) of a chart-valid flag."""

    spec: FieldSpec
    f: int
    r: int
    g: int
    t: int
    h: int
    s: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.f, self.r, self.g, self.t, self.h, self.s)


def incident(line: ProjLine, point: ProjPoint) -> bool:
    """True iff x0*y0 + x1*y1 + x2*y2 = 0."""
    if line.spec != point.spec:
        raise SpecMismatch("line and point live in different fields")
    x, y = line.coords, point.coords
    acc = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
    return acc.is_zero()


def class_ids(spec: FieldSpec, triples) -> list[int]:
    """Ids of the projective classes of nonzero triples of element indices.

    Each triple is scaled by the table inverse of its first nonzero entry,
    so any representative of a class gives the same id.
    """
    q = spec.size
    _, mul, _, inv = spec.tables()
    ids = []
    for x0, x1, x2 in triples:
        if x0:
            s = inv[x0]
            ids.append(1 + q + mul[x1][s] * q + mul[x2][s])
        elif x1:
            ids.append(1 + mul[x2][inv[x1]])
        elif x2:
            ids.append(0)
        else:
            raise ZeroVector("(0:0:0) is not a projective class")
    return ids


def vertex_id(coords: Triple) -> int:
    """Closed-form id of the projective class of a triple of elements."""
    spec = coords[0].spec
    [vid] = class_ids(spec, [tuple(map(spec.index, coords))])
    return vid


def vertex_indices(spec: FieldSpec, vid: int) -> tuple[int, int, int]:
    """Canonical triple of a vertex id, as element indices."""
    q = spec.size
    one = q // spec.p  # the index of 1: p in GF(p^2), 1 in GF(p)
    if vid == 0:
        return (0, 0, one)
    if vid <= q:
        return (0, one, vid - 1)
    b, c = divmod(vid - 1 - q, q)
    return (one, b, c)


def vertex_triple(spec: FieldSpec, vid: int) -> Triple:
    """Canonical triple of a vertex id; inverse of `vertex_id`."""
    a, b, c = vertex_indices(spec, vid)
    return (spec.element(a), spec.element(b), spec.element(c))


def flag_count(q: int) -> int:
    """Flags of PG(2,q): q^2+q+1 lines of q+1 points each."""
    return (q * q + q + 1) * (q + 1)


def line_points(spec: FieldSpec) -> Callable[[int], list[int]]:
    """A function from a line id to the ids of its q+1 points, ascending.

    Line x meets point y iff x0*y0 + x1*y1 + x2*y2 = 0.  With x2 != 0 the
    line holds one point (0:1:beta) and, for each b, one point
    (1:b:alpha + beta*b), where alpha = -x0/x2 and beta = -x1/x2; the lines
    with x2 = 0 are (0:1:0) and (1:b:0).  Each case lists its point ids in
    ascending order, so no sort is needed.
    """
    q = spec.size
    add, mul, neg, inv = spec.tables()
    row_base = [1 + q + b * q for b in range(q)]  # id of (1:b:0)

    def points(lid: int) -> list[int]:
        x0, x1, x2 = vertex_indices(spec, lid)
        if x2:
            x2inv = inv[x2]
            alpha, beta = neg[mul[x0][x2inv]], neg[mul[x1][x2inv]]
            shift, scale = add[alpha], mul[beta]
            return [1 + beta] + [base + shift[scale[b]] for b, base in enumerate(row_base)]
        if not x0:  # (0:1:0): y1 = 0
            return [0, *range(1 + q, 1 + 2 * q)]
        if not x1:  # (1:0:0): y0 = 0
            return list(range(q + 1))
        base = row_base[neg[inv[x1]]]  # (1:b:0), b != 0: y0 = -b*y1
        return [0, *range(base, base + q)]

    return points


def flag_ids_at(spec: FieldSpec, index: int) -> tuple[int, int]:
    """(line id, point id) of flag `index` in `Plane.flag_ids`, without enumerating.

    Flags are sorted by (line id, point id) and every line has q+1 points, so
    flag i is point i mod (q+1) of line i // (q+1).
    """
    q = spec.size
    if not 0 <= index < flag_count(q):
        raise IndexError(f"flag index {index} out of range for PG(2,{q})")
    lid, k = divmod(index, q + 1)
    return lid, line_points(spec)(lid)[k]


def flag_from_ids(spec: FieldSpec, lid: int, pid: int) -> Flag:
    """The flag of an incident (line id, point id) pair, built unchecked:
    `vertex_triple` is canonical and the ids come from the plane."""
    line = object.__new__(ProjLine)
    line.coords = vertex_triple(spec, lid)
    point = object.__new__(ProjPoint)
    point.coords = vertex_triple(spec, pid)
    flag = object.__new__(Flag)
    flag.line, flag.point = line, point
    return flag


def flag_rows(spec: FieldSpec) -> array:
    """The point ids of every line of PG(2,q), line after line, in one array."""
    points = line_points(spec)
    q = spec.size
    rows = array("I")
    for lid in range(q * q + q + 1):
        rows.extend(points(lid))
    return rows


class Plane:
    """PG(2,q) as one flat array of flags, plus lazy views and object lookups.

    `rows[lid*(q+1):(lid+1)*(q+1)]` holds the point ids of line `lid`, in
    ascending order, so flags are indexed in (line id, point id) order.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.q = spec.size
        self.rows = flag_rows(spec)

    def row(self, lid: int) -> array:
        """The point ids of line `lid`, ascending."""
        k = self.q + 1
        return self.rows[lid * k:(lid + 1) * k]

    @cached_property
    def flag_ids(self) -> list[tuple[int, int]]:
        """All (line id, point id) incidences, in index order."""
        k = self.q + 1
        lids = chain.from_iterable(repeat(lid, k) for lid in range(self._n_vertices()))
        return list(zip(lids, self.rows))

    @cached_property
    def points(self) -> list[ProjPoint]:
        return [ProjPoint(vertex_triple(self.spec, i)) for i in range(self._n_vertices())]

    @cached_property
    def lines(self) -> list[ProjLine]:
        return [ProjLine(vertex_triple(self.spec, i)) for i in range(self._n_vertices())]

    @cached_property
    def point_id(self) -> dict[ProjPoint, int]:
        return {pt: i for i, pt in enumerate(self.points)}

    @cached_property
    def line_id(self) -> dict[ProjLine, int]:
        return {ln: i for i, ln in enumerate(self.lines)}

    @cached_property
    def flag_index(self) -> dict[tuple[int, int], int]:
        return {pair: i for i, pair in enumerate(self.flag_ids)}

    def _n_vertices(self) -> int:
        return self.q * self.q + self.q + 1

    def flag(self, index: int) -> Flag:
        return flag_from_ids(self.spec, index // (self.q + 1), self.rows[index])

    def index_of(self, flag: Flag) -> int:
        """Position of a flag in `flag_ids`."""
        return self.flag_index[(vertex_id(flag.line.coords), vertex_id(flag.point.coords))]

    def counts(self) -> tuple[int, int, int]:
        n = self._n_vertices()
        return (n, n, flag_count(self.q))


def plane_field(q: int) -> FieldSpec:
    """The field of PG(2,q), q = p or p^2 with p prime, within `PLANE_MAX_FLAGS`.

    The budget is checked before the field is resolved.
    """
    if flag_count(q) > PLANE_MAX_FLAGS:
        raise TooLarge(
            f"PG(2,{q}) has {flag_count(q):,} flags; the plane budget is {PLANE_MAX_FLAGS:,}"
        )
    return field_for_size(q)


@lru_cache(maxsize=16)
def enumerate_plane(q: int) -> Plane:
    """Enumerate PG(2,q), q = p or p^2 with p prime, within `PLANE_MAX_FLAGS`."""
    return Plane(plane_field(q))


def to_chart(flag: Flag) -> ChartCoords:
    """Chart parameters of a flag; requires degree 2, x0 != 0, y2 != 0."""
    spec = flag.line.spec
    if spec.degree != 2:
        raise UnsupportedField("the chart needs a quadratic extension field")
    index = spec.index
    x0, x1, _ = flag.line.coords
    y0, y1, y2 = flag.point.coords
    x0, x1, y0, y1, y2 = index(x0), index(x1), index(y0), index(y1), index(y2)
    if not x0 or not y2:
        raise ChartInvalid("flag has x0 = 0 or y2 = 0")
    _, mul, _, inv = spec.tables()
    p, y2inv = spec.p, inv[y2]
    f, r = divmod(mul[x1][inv[x0]], p)
    g, t = divmod(mul[y0][y2inv], p)
    h, s = divmod(mul[y1][y2inv], p)
    return ChartCoords(spec, f, r, g, t, h, s)


def chart_u_prime(p: int, u: int, f: int, r: int, g: int, h: int, s: int) -> int:
    """u' of -x2/x0 = u' + v'*xi for a chart tuple: g + f*h + r*s*u (mod p)."""
    return (g + f * h + r * s * u) % p


def chart_v_prime(p: int, v: int, f: int, r: int, t: int, h: int, s: int) -> int:
    """v' of -x2/x0 = u' + v'*xi for a chart tuple: t + f*s + h*r + r*s*v (mod p)."""
    return (t + f * s + h * r + r * s * v) % p


def from_chart(coords: ChartCoords) -> Flag:
    """Rebuild the canonical flag determined by six subfield parameters."""
    spec = coords.spec
    p, u, v = spec.p, spec.u, spec.v
    f, r, g, t, h, s = coords.as_tuple()
    one = spec.one()
    minus_x2 = spec.elt(chart_u_prime(p, u, f, r, g, h, s), chart_v_prime(p, v, f, r, t, h, s))
    line = ProjLine((one, spec.elt(f, r), -minus_x2))
    point = ProjPoint((spec.elt(g, t), spec.elt(h, s), one))
    return Flag(line, point)


def sample_flag(q: int, seed: int) -> Flag:
    """Uniformly random flag of PG(2,q), reproducible from the seed.

    Draws one flag index and decodes it; the plane is not enumerated.
    """
    spec = field_for_size(q)
    rng = random.Random(seed)
    return flag_from_ids(spec, *flag_ids_at(spec, rng.randrange(flag_count(q))))


def flag_to_json(flag: Flag) -> dict:
    """{"line": [c0, c1, c2], "point": [...]} in the textual element syntax."""
    return {
        "line": [format_elt(c) for c in flag.line.coords],
        "point": [format_elt(c) for c in flag.point.coords],
    }
