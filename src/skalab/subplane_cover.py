"""Baer subplane, plane automorphisms, and randomized covering families.

For q = p^2 the vertices whose canonical coordinates all lie in the prime
subfield form a copy of PG(2,p) (the Baer subplane H0).  Invertible 3x3
matrices act on points by multiplication and on lines by the inverse
transpose, which preserves the incidence form; sampling such maps uniformly
and taking images of H0 yields, with high probability, a family whose flags
cover the whole plane.  Matrix (projective linear) maps already act
transitively on flags, so field-automorphism twists are not needed and are
not implemented.

Maps are sampled and stored as matrices of element indices: `random_matrix`
draws one, `det3` rejects it when singular, and the inverse transpose is
the cofactor matrix over the determinant, all through the field tables.
The `Elt` views `matrix` and `inverse_transpose` are decoded on first read.
Maps act on vertex ids: `_image_ids` multiplies index triples through the
tables and returns the canonical ids of the images.  The cover scan sends,
per map, the p^2+p+1 Baer point ids and line ids to their image ids; each
Baer flag (lid, pid) then maps to its flag index by the closed form
`flag_index_of`, so the host plane is never enumerated.  The object-level
`apply` runs on the same id path.  `COVER_MAX_WORK` bounds the work
`build_cover` accepts: the flag images of the sampled maps plus the flags
of the host plane, which the scan marks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import SpecMismatch, TooLarge, UnsupportedField
from .finite_field import Elt, FieldSpec, field_for_size, format_elt
from .incidence_graph import SubgraphQuery
from .projective_plane import (
    Flag,
    Plane,
    class_ids,
    enumerate_plane,
    flag_count,
    flag_from_ids,
    flag_index_of,
    line_points,
    plane_field,
    vertex_indices,
)

Matrix = tuple[tuple[Elt, Elt, Elt], ...]
IndexMatrix = tuple[tuple[int, int, int], ...]

# Most work `build_cover` accepts, counted in flags: N maps times the
# (p^2+p+1)(p+1) Baer flags each (before N is rounded up), plus the
# (q^2+q+1)(q+1) flags of PG(2,q); about 10 s on a 2-vCPU host.
# `cover --q 49 --c 3` needs 5.6 M.
COVER_MAX_WORK = 10_000_000


# (r1, r2) for r = 0, 1, 2: cofactor (r, c) of a 3x3 matrix is
# m[r1][c1]*m[r2][c2] - m[r1][c2]*m[r2][c1], signs included
_NEXT = ((1, 2), (2, 0), (0, 1))


def _cofactor_row(spec: FieldSpec, m: IndexMatrix, r: int) -> tuple[int, int, int]:
    add, mul, neg, _ = spec.tables()
    r1, r2 = _NEXT[r]
    x, y = m[r1], m[r2]
    return tuple(add[mul[x[c1]][y[c2]]][neg[mul[x[c2]][y[c1]]]] for c1, c2 in _NEXT)


def det3(spec: FieldSpec, m: IndexMatrix) -> int:
    """Determinant of a matrix of element indices, as an index: 0 iff singular."""
    add, mul, _, _ = spec.tables()
    (a, b, c), (c0, c1, c2) = m[0], _cofactor_row(spec, m, 0)
    return add[add[mul[a][c0]][mul[b][c1]]][mul[c][c2]]


def _transpose(m: IndexMatrix) -> IndexMatrix:
    return tuple(tuple(m[r][c] for r in range(3)) for c in range(3))


def _image_ids(spec: FieldSpec, m: IndexMatrix, triples) -> list[int]:
    """Vertex ids of the classes of m*v for each index triple v."""
    add, mul, _, _ = spec.tables()
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
    return class_ids(spec, [
        (
            add[add[mul[a0][v0]][mul[a1][v1]]][mul[a2][v2]],
            add[add[mul[b0][v0]][mul[b1][v1]]][mul[b2][v2]],
            add[add[mul[c0][v0]][mul[c1][v1]]][mul[c2][v2]],
        )
        for v0, v1, v2 in triples
    ])


class Automorphism:
    """Invertible projective-linear map with its cached inverse transpose.

    Both matrices are kept as element indices; the `Elt` views `matrix` and
    `inverse_transpose` are decoded on first read.
    """

    __slots__ = ("spec", "_index_form", "_elts")

    def __init__(self, spec: FieldSpec, matrix: IndexMatrix):
        det = det3(spec, matrix)
        if not det:
            raise ValueError("singular matrix is not a plane automorphism")
        # inverse = adj/det with adj = transpose(cofactor); so inv^T = cofactor/det
        tables = spec.tables()
        scale = tables.mul[tables.inv[det]]
        inverse_transpose = tuple(
            tuple(scale[x] for x in _cofactor_row(spec, matrix, r)) for r in range(3)
        )
        self.spec = spec
        self._index_form = (matrix, inverse_transpose)
        self._elts = None

    def _decoded(self) -> tuple[Matrix, Matrix]:
        if self._elts is None:
            element = self.spec.element
            self._elts = tuple(
                tuple(tuple(map(element, row)) for row in m) for m in self._index_form
            )
        return self._elts

    @property
    def matrix(self) -> Matrix:
        return self._decoded()[0]

    @property
    def inverse_transpose(self) -> Matrix:
        return self._decoded()[1]

    def inverse(self) -> "Automorphism":
        return Automorphism(self.spec, _transpose(self._index_form[1]))

    def index_form(self) -> tuple[IndexMatrix, IndexMatrix]:
        """The matrix and its inverse transpose as element indices."""
        return self._index_form

    def to_json_dict(self) -> dict:
        return {"matrix": [[format_elt(x) for x in row] for row in self.matrix]}

    def __repr__(self):
        rows = "; ".join(
            " ".join(format_elt(x) for x in row) for row in self.matrix
        )
        return f"Automorphism([{rows}] over GF({self.spec.size}))"


def apply(m: Automorphism, flag: Flag) -> Flag:
    """Transform a flag: point by the matrix, line by the inverse transpose."""
    spec = m.spec
    if spec != flag.line.spec:
        raise SpecMismatch("automorphism and flag fields differ")
    matrix, inverse_transpose = m.index_form()
    [lid] = _image_ids(spec, inverse_transpose, [tuple(map(spec.index, flag.line.coords))])
    [pid] = _image_ids(spec, matrix, [tuple(map(spec.index, flag.point.coords))])
    return flag_from_ids(spec, lid, pid)


def random_matrix(spec: FieldSpec, rng: random.Random) -> IndexMatrix:
    """Uniform 3x3 matrix of element indices (possibly singular).

    Row-major draws of a0 and then, in GF(p^2), a1 of each entry a0 + a1*xi.
    """
    p = spec.p
    entries = []
    for _ in range(9):
        a0 = rng.randrange(p)
        entries.append(a0 * p + rng.randrange(p) if spec.degree == 2 else a0)
    return (tuple(entries[0:3]), tuple(entries[3:6]), tuple(entries[6:9]))


def _random_automorphism(spec: FieldSpec, rng: random.Random) -> Automorphism:
    while True:
        try:
            return Automorphism(spec, random_matrix(spec, rng))
        except ValueError:  # singular draw
            continue


def sample_automorphisms(q: int, count: int, seed: int) -> list[Automorphism]:
    """`count` automorphisms drawn from a single seeded rejection stream."""
    spec = field_for_size(q)
    rng = random.Random(seed)
    return [_random_automorphism(spec, rng) for _ in range(count)]


def baer_subplane(q: int) -> SubgraphQuery:
    """Ids of the lines/points of PG(2,q) with all coordinates in the subfield.

    Subfield elements have index a*p, so the closed-form vertex ids are 0,
    1 + a*p and 1 + q + b*p*q + c*p for a, b, c in [0, p); lines and points
    share them.
    """
    spec = field_for_size(q)
    if spec.degree != 2:
        raise UnsupportedField("a Baer subplane needs q = p^2")
    p = spec.p
    ids = [0]
    ids += [1 + a * p for a in range(p)]
    ids += [1 + q + b * p * q + c * p for b in range(p) for c in range(p)]
    return SubgraphQuery.of(ids, ids)


def baer_flags(q: int) -> list[tuple[int, int]]:
    """The (line id, point id) flags of the Baer subplane, in flag order."""
    ids = sorted(baer_subplane(q).left)  # lines and points share the ids
    baer, points = set(ids), line_points(field_for_size(q))
    return [(lid, pid) for lid in ids for pid in points(lid) if pid in baer]


def baer_flag_ids(plane: Plane) -> set[int]:
    """Flag indices of the Baer subplane inside the host plane."""
    q = plane.q
    return {flag_index_of(q, lid, pid) for lid, pid in baer_flags(q)}


def flag_transitivity_check(q: int) -> bool:
    """Orbit of the first flag under all invertible matrices = all flags?"""
    if q > 3:
        raise TooLarge("full GL(3,q) enumeration is capped at q <= 3")
    plane = enumerate_plane(q)
    spec = plane.spec
    base = plane.flag(0)
    orbit = set()
    for values in itertools.product(range(q), repeat=9):
        try:
            auto = Automorphism(spec, (values[0:3], values[3:6], values[6:9]))
        except ValueError:  # singular matrix
            continue
        orbit.add(plane.index_of(apply(auto, base)))
    return len(orbit) == len(plane.flag_ids)


@dataclass
class CoverFamily:
    """Sampled maps and the flags their images of the Baer subplane cover."""

    q: int
    maps: list[Automorphism]
    covered: list[bool]
    per_map_counts: list[int]
    seed: int | None
    c: float | None

    @property
    def sample_count(self) -> int:
        return len(self.maps)

    @property
    def coverage_fraction(self) -> float:
        return sum(self.covered) / len(self.covered)

    @property
    def uncovered_flag_ids(self) -> list[int]:
        return [i for i, hit in enumerate(self.covered) if not hit]

    def to_json_dict(self) -> dict:
        p = field_for_size(self.q).p
        return {
            "q": self.q,
            "p": p,
            "N": self.sample_count,
            "c": self.c,
            "seed": self.seed,
            "coverage_fraction": self.coverage_fraction,
            "uncovered_flag_ids": self.uncovered_flag_ids,
        }


def cover_with_maps(
    q: int, maps: list[Automorphism], seed: int | None = None, c: float | None = None
) -> CoverFamily:
    """Mark which flags fall in some image of the Baer subplane.

    A flag is covered by m iff apply(m^-1, flag) lands in H0; equivalently it
    is in the forward image of the H0 flags, which is what gets enumerated
    (apply(m, .) is a bijection on flags, so each map covers exactly |H0|
    flags).  Each map sends the Baer point and line ids to their image ids,
    and a Baer flag (lid, pid) to its image's flag index by `flag_index_of`;
    automorphisms preserve incidence, so the image needs no check.
    """
    spec = plane_field(q)
    ids = sorted(baer_subplane(q).left)  # lines and points share the ids
    triples = [vertex_indices(spec, vid) for vid in ids]
    base = baer_flags(q)
    covered = bytearray(flag_count(q))
    per_map = []
    for m in maps:
        if m.spec != spec:
            raise SpecMismatch("automorphism and plane fields differ")
        matrix, inverse_transpose = m.index_form()
        pt = dict(zip(ids, _image_ids(spec, matrix, triples)))
        ln = dict(zip(ids, _image_ids(spec, inverse_transpose, triples)))

        def apply(lid, pid):  # per-flag image step; profiles count its calls
            return flag_index_of(q, ln[lid], pt[pid])

        hits = {apply(lid, pid) for lid, pid in base}
        for idx in hits:
            covered[idx] = 1
        per_map.append(len(hits))
    return CoverFamily(
        q=q,
        maps=list(maps),
        covered=[bool(x) for x in covered],
        per_map_counts=per_map,
        seed=seed,
        c=c,
    )


def cover_sample_count(q: int, c: float) -> int:
    """ceil(c * p^3 * ln(flags of PG(2,q))) draws, within `COVER_MAX_WORK`.

    Raises TooLarge, before any sampling or enumeration, when that many maps'
    flag images (each maps the (p^2+p+1)(p+1) Baer flags) plus the flags of
    PG(2,q) exceed the budget.
    """
    spec = field_for_size(q)
    if spec.degree != 2:
        raise UnsupportedField("covering families need q = p^2")
    n = c * spec.p**3 * math.log(flag_count(q))
    work = n * flag_count(spec.p) + flag_count(q)
    if not work <= COVER_MAX_WORK:  # also refuses inf and nan
        raise TooLarge(
            f"c={c} at q={q} asks for {work:.3g} flags of work; "
            f"the cover budget is {COVER_MAX_WORK:.3g}"
        )
    return math.ceil(n)


def build_cover(q: int, c: float = 3.0, seed: int = 0) -> CoverFamily:
    """Sample the randomized covering family and report its coverage."""
    if c <= 0:
        raise ValueError("oversampling constant c must be positive")
    n = cover_sample_count(q, c)
    maps = sample_automorphisms(q, n, seed)
    return cover_with_maps(q, maps, seed=seed, c=c)
