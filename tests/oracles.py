"""Reference implementations kept frozen for differential tests.

Each function here is a computation that `skalab` used to do one way and now
does another.  The old way stays only here, so `src/skalab` holds one
implementation of each computation and the tests compare the two.  Nothing
in `src/skalab` imports this module.

Seeded generators for test inputs live here too.
"""

from __future__ import annotations

import itertools
import random

from skalab.finite_field import field_for_size
from skalab.incidence_graph import BiGraph, SubgraphQuery, count_induced_edges
from skalab.projective_plane import (
    ChartCoords,
    Flag,
    ProjLine,
    ProjPoint,
    chart_x2,
    enumerate_plane,
)
from skalab.subplane_cover import baer_flag_ids


# -- plane enumeration on objects ---------------------------------------------

def canonical_triples(spec, cls):
    """All canonical triples: (0:0:1), (0:1:c), (1:b:c), sorted by residues."""
    zero, one = spec.zero(), spec.one()
    items = [cls((zero, zero, one))]
    for c in spec.elements():
        items.append(cls((zero, one, c)))
    for b in spec.elements():
        for c in spec.elements():
            items.append(cls((one, b, c)))
    items.sort(key=lambda t: t.residue_key())
    return items


def points_on_line(line):
    """The q+1 points of a line, via a basis of the incidence-form kernel."""
    spec = line.spec
    zero, one = spec.zero(), spec.one()
    x0, x1, x2 = line.coords
    if not x0.is_zero():
        inv0 = x0.inv()
        u = (-(x1 * inv0), one, zero)
        w = (-(x2 * inv0), zero, one)
    elif not x1.is_zero():
        inv1 = x1.inv()
        u = (one, zero, zero)
        w = (zero, -(x2 * inv1), one)
    else:
        u = (one, zero, zero)
        w = (zero, one, zero)
    pts = [ProjPoint(w)]
    for t in spec.elements():
        pts.append(ProjPoint((u[0] + t * w[0], u[1] + t * w[1], u[2] + t * w[2])))
    return pts


def object_flag_ids(spec) -> list[tuple[int, int]]:
    """Flags as (line id, point id), ids from the residue sort of the objects."""
    points = canonical_triples(spec, ProjPoint)
    lines = canonical_triples(spec, ProjLine)
    point_id = {pt: i for i, pt in enumerate(points)}
    pairs = []
    for lid, line in enumerate(lines):
        for pt in points_on_line(line):
            pairs.append((lid, point_id[pt]))
    pairs.sort()
    return pairs


def baer_subplane_scan(q: int) -> SubgraphQuery:
    """Baer subplane ids by scanning every vertex for subfield coordinates."""
    plane = enumerate_plane(q)
    left = {lid for lid, ln in enumerate(plane.lines) if all(c.a1 == 0 for c in ln.coords)}
    right = {pid for pid, pt in enumerate(plane.points) if all(c.a1 == 0 for c in pt.coords)}
    return SubgraphQuery.of(left, right)


# -- covering scan on objects ----------------------------------------------------

def _mat_vec(m, v):
    return tuple(m[r][0] * v[0] + m[r][1] * v[1] + m[r][2] * v[2] for r in range(3))


def apply_elt(m, flag):
    """Image of a flag by `Elt` matrix-vector products and canonicalization."""
    point = ProjPoint(_mat_vec(m.matrix, flag.point.coords))
    line = ProjLine(_mat_vec(m.inverse_transpose, flag.line.coords))
    return Flag(line, point)


def cover_objects(q: int, maps) -> tuple[list[bool], list[int]]:
    """(covered, per_map_counts) from one object image per Baer flag and map."""
    plane = enumerate_plane(q)
    base = [plane.flag(i) for i in sorted(baer_flag_ids(plane))]
    covered = [False] * len(plane.flag_ids)
    per_map = []
    for m in maps:
        hits = {plane.index_of(apply_elt(m, flg)) for flg in base}
        for idx in hits:
            covered[idx] = True
        per_map.append(len(hits))
    return covered, per_map


# -- key agreement on elements ----------------------------------------------------

def alice_m2_elt(spec, u_p: int, r: int, m1: int) -> int:
    """Alice's round 2 as u' - u'', with u'' read off r*m1*xi^2 in GF(p^2)."""
    xi = spec.xi()
    u_pp, _ = (spec.elt(r * m1) * (xi * xi)).decompose()
    return (u_p - u_pp) % spec.p


def secrecy_histogram_objects(q: int) -> dict[tuple[int, int], dict[int, int]]:
    """Transcript -> key histogram over G^6 with h != 0, on chart objects.

    Alice's u' comes from the `Elt` chart reconstruction, her round 2 from
    `alice_m2_elt`, and Bob's key from `Elt` division.
    """
    spec = field_for_size(q)
    p = spec.p
    histogram: dict[tuple[int, int], dict[int, int]] = {}
    for f, r, g, t, h, s in itertools.product(range(p), repeat=6):
        if h == 0:
            continue
        u_p, _ = chart_x2(ChartCoords(spec, f, r, g, t, h, s)).decompose()
        m1 = s
        m2 = alice_m2_elt(spec, u_p, r, m1)
        key, _ = ((spec.elt(m2) - spec.elt(g)) / spec.elt(h)).decompose()
        per_key = histogram.setdefault((m1, m2), {})
        per_key[key] = per_key.get(key, 0) + 1
    return histogram


# -- incidence graph ------------------------------------------------------------

def c4_free_pairwise(g: BiGraph) -> bool:
    """True iff no two left vertices share two common right neighbors."""
    bits = [g._left_bits[l] for l in g.left_ids]
    n = len(bits)
    for i in range(n):
        bi = bits[i]
        if bi.bit_count() < 2:
            continue
        for j in range(i + 1, n):
            if (bi & bits[j]).bit_count() >= 2:
                return False
    return True


def search_greedy_linear(g: BiGraph, a: int, b: int):
    """Peel the min-degree vertex from the side with more excess until (a, b)."""
    left = sorted(g.left_ids)
    right = sorted(g.right_ids)
    left_mask = g.left_mask(left)
    right_mask = g.right_mask(right)
    while len(left) > a or len(right) > b:
        excess_l, excess_r = len(left) - a, len(right) - b
        peel_left = excess_l > excess_r or (
            excess_l == excess_r and len(left) >= len(right)
        )
        if peel_left:
            victim = min(left, key=lambda l: ((g._left_bits[l] & right_mask).bit_count(), l))
            left.remove(victim)
            left_mask &= ~(1 << g._left_pos[victim])
        else:
            victim = min(right, key=lambda r: ((g._right_bits[r] & left_mask).bit_count(), r))
            right.remove(victim)
            right_mask &= ~(1 << g._right_pos[victim])
    query = SubgraphQuery.of(left, right)
    return query, count_induced_edges(g, query)


# -- seeded inputs --------------------------------------------------------------

def random_graph(seed: int) -> BiGraph:
    """Seeded bipartite graph of varied shape and density.

    Ids are spaced and offset, so they differ from bitset positions, and some
    vertices may be isolated.
    """
    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 40), rng.randint(1, 40)
    density = rng.choice((0.03, 0.08, 0.15, 0.4))
    left_ids = [3 * i + 5 for i in range(n_left)]
    right_ids = [2 * i + 1 for i in range(n_right)]
    edges = {(l, r) for l in left_ids for r in right_ids if rng.random() < density}
    return BiGraph(left_ids, right_ids, edges)
