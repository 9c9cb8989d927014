"""Reference implementations kept frozen for differential tests.

Each function here is a computation that `skalab` used to do one way and now
does another.  The old way stays only here, so `src/skalab` holds one
implementation of each computation and the tests compare the two.  Nothing
in `src/skalab` imports this module.

Seeded generators for test inputs live here too.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from fractions import Fraction

from skalab.errors import (
    ChartInvalid,
    DegenerateH,
    EstimatorFailure,
    NotCovered,
    SkalabError,
    TargetOnBoundary,
    UnsupportedField,
)
from skalab.finite_field import field_for_size, parse_elt
from skalab.halving_walk import (
    ComplexityEstimator,
    HalveReport,
    boundary_polyline,
    pair_condition,
)
from skalab.incidence_graph import BiGraph, SubgraphQuery, zarankiewicz_bound
from skalab.projective_plane import (
    ChartCoords,
    Flag,
    ProjLine,
    ProjPoint,
    enumerate_plane,
    vertex_triple,
)
from skalab.ska_protocol import (
    AliceState,
    BobState,
    SessionResult,
    alice_round2,
    bob_key,
    bob_round1,
)
from skalab.subplane_cover import Automorphism, baer_flag_ids


# -- field resolution by scanning ----------------------------------------------

def is_prime_trial(n: int) -> bool:
    """Trial-division primality."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_irreducible_scan(p: int, u: int, v: int) -> bool:
    """True iff X^2 - v*X - u has no root in GF(p), by trying every element."""
    return all((x * x - v * x - u) % p != 0 for x in range(p))


# -- plane enumeration on objects ---------------------------------------------

def residue_key(vertex) -> tuple[int, ...]:
    """The flattened residues (a0, a1 per coordinate) of a point or line."""
    c0, c1, c2 = vertex.coords
    return (c0.a0, c0.a1, c1.a0, c1.a1, c2.a0, c2.a1)


def canonical_triples(spec, cls):
    """All canonical triples: (0:0:1), (0:1:c), (1:b:c), sorted by residues."""
    zero, one = spec.zero(), spec.one()
    items = [cls((zero, zero, one))]
    for c in spec.elements():
        items.append(cls((zero, one, c)))
    for b in spec.elements():
        for c in spec.elements():
            items.append(cls((one, b, c)))
    items.sort(key=residue_key)
    return items


def flag_from_ids_checked(spec, lid: int, pid: int) -> Flag:
    """The flag of a (line id, point id) pair through the checking constructors."""
    return Flag(ProjLine(vertex_triple(spec, lid)), ProjPoint(vertex_triple(spec, pid)))


def flag_from_json(spec, data: dict) -> Flag:
    """Parse `flag_to_json` output; any representative of each class is accepted."""
    line = ProjLine(tuple(parse_elt(spec, s) for s in data["line"]))
    point = ProjPoint(tuple(parse_elt(spec, s) for s in data["point"]))
    return Flag(line, point)


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

def identity_automorphism(spec) -> Automorphism:
    one, zero = spec.one(), spec.zero()
    return Automorphism(((one, zero, zero), (zero, one, zero), (zero, zero, one)))


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

def to_chart_elt(flag) -> ChartCoords:
    """Chart parameters by `Elt` inverses and products."""
    spec = flag.line.spec
    if spec.degree != 2:
        raise UnsupportedField("the chart needs a quadratic extension field")
    x0, x1, _ = flag.line.coords
    y0, y1, y2 = flag.point.coords
    if x0.is_zero() or y2.is_zero():
        raise ChartInvalid("flag has x0 = 0 or y2 = 0")
    f, r = (x1 * x0.inv()).decompose()
    y2inv = y2.inv()
    g, t = (y0 * y2inv).decompose()
    h, s = (y1 * y2inv).decompose()
    return ChartCoords(spec, f, r, g, t, h, s)


def chart_x2(coords: ChartCoords):
    """-x2/x0 of the reconstructed flag: (g+fh) + (t+fs+hr)*xi + rs*xi^2."""
    spec = coords.spec
    f, r, g, t, h, s = coords.as_tuple()
    base = spec.elt((g + f * h) % spec.p, (t + f * s + h * r) % spec.p)
    xi = spec.xi()
    return base + spec.elt(r * s % spec.p) * (xi * xi)


def alice_from_line(line) -> AliceState:
    """Alice's state from her line: f, r from x1/x0 and u', v' from -x2/x0."""
    x0, x1, x2 = line.coords
    if x0.is_zero():
        raise ChartInvalid("line has x0 = 0")
    inv0 = x0.inv()
    f, r = (x1 * inv0).decompose()
    u_p, v_p = (-(x2 * inv0)).decompose()
    return AliceState(line.spec, f, r, u_p, v_p)


def bob_from_point(point) -> BobState:
    """Bob's state from his point: g, t from y0/y2 and h, s from y1/y2."""
    y0, y1, y2 = point.coords
    if y2.is_zero():
        raise ChartInvalid("point has y2 = 0")
    inv2 = y2.inv()
    g, t = (y0 * inv2).decompose()
    h, s = (y1 * inv2).decompose()
    return BobState(point.spec, g, t, h, s)


def run_session_objects(flag) -> SessionResult:
    """A session whose parties read their own line and point in `Elt`."""
    spec = flag.line.spec
    if spec.degree != 2:
        raise UnsupportedField("the protocol needs q = p^2")
    q = spec.size
    try:
        alice = alice_from_line(flag.line)
        bob = bob_from_point(flag.point)
    except ChartInvalid:
        return SessionResult(q=q, flag=flag, status="chart_invalid")
    m1 = bob_round1(bob)
    m2 = alice_round2(alice, m1)
    transcript = (m1.payload, m2.payload)
    try:
        k_bob = bob_key(bob, m2)
    except DegenerateH:
        return SessionResult(q=q, flag=flag, status="degenerate_h", transcript=transcript)
    return SessionResult(q=q, flag=flag, status="ok", transcript=transcript,
                         alice_key=alice.f, bob_key=k_bob)


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

def is_biregular(g: BiGraph) -> bool:
    """True iff all left degrees agree and all right degrees agree."""
    left_degs = {g.left_degree(l) for l in g.left_ids}
    right_degs = {g.right_degree(r) for r in g.right_ids}
    return len(left_degs) == 1 and len(right_degs) == 1


def edge_set(g: BiGraph) -> set[tuple[int, int]]:
    """Every edge of a graph as a (left id, right id) pair."""
    return {
        (g.left_ids[lp], g.right_ids[rp])
        for lp, nbrs in enumerate(g._left_adj)
        for rp in nbrs
    }


def within_cap_float(edges: int, left_size: int, right_size: int) -> bool:
    """edges <= the Reiman cap, by the float bound with a 1e-9 tolerance."""
    return edges <= zarankiewicz_bound(left_size, right_size) + 1e-9


def c4_free_pairwise(g: BiGraph) -> bool:
    """True iff no two left vertices share two common right neighbors."""
    bits = g._left_bits
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
    left_mask = (1 << len(left)) - 1
    right_mask = (1 << len(right)) - 1
    while len(left) > a or len(right) > b:
        excess_l, excess_r = len(left) - a, len(right) - b
        peel_left = excess_l > excess_r or (
            excess_l == excess_r and len(left) >= len(right)
        )
        if peel_left:
            victim = min(left, key=lambda l: ((g._left_bits[g._left_pos[l]] & right_mask).bit_count(), l))
            left.remove(victim)
            left_mask &= ~(1 << g._left_pos[victim])
        else:
            victim = min(right, key=lambda r: ((g._right_bits[g._right_pos[r]] & left_mask).bit_count(), r))
            right.remove(victim)
            right_mask &= ~(1 << g._right_pos[victim])
    query = SubgraphQuery.of(left, right)
    return query, g.induced_edges(query)


# -- halving walk on a list-of-tuples grid --------------------------------------

class FourCompressionEstimator(ComplexityEstimator):
    """est(a|b) = C(b||a) - C(b), compressing the condition on every call."""

    lipschitz_bound = 16.0

    def __init__(self, level: int = 9):
        self.level = level

    def est(self, target: bytes, condition: bytes) -> float:
        joint = len(zlib.compress(condition + target, self.level))
        base = len(zlib.compress(condition, self.level))
        return float(max(0, joint - base))


class TupleGrid:
    """Value pairs as values[alpha][beta] = (v1, v2): about 112 B per node.

    Duck-types `GridMap` for `winding_number`, `boundary_polyline` and
    `pl_extend`, which read the grid only through `at`, `width`, `height`.
    """

    def __init__(self, width, height, values):
        if width < 1 or height < 1:
            raise ValueError("grid needs width >= 1 and height >= 1")
        if len(values) != width + 1 or any(len(col) != height + 1 for col in values):
            raise ValueError("values must be indexed [alpha][beta] with full extent")
        for col in values:
            for v1, v2 in col:
                if not (math.isfinite(v1) and math.isfinite(v2)):
                    raise ValueError("grid values must be finite")
        self.width = width
        self.height = height
        self.values = values

    def at(self, alpha, beta):
        return self.values[alpha][beta]


def build_tuple_grid(x: bytes, y: bytes, est) -> TupleGrid:
    """Every prefix pair's estimates, one condition built per node, no budget."""
    if len(x) < 1 or len(y) < 1:
        raise ValueError("both strings must be nonempty")
    values = []
    for alpha in range(len(x) + 1):
        col = []
        for beta in range(len(y) + 1):
            z = pair_condition(x[:alpha], y[:beta])
            try:
                v1 = float(est.est(x, z))
                v2 = float(est.est(y, z))
            except Exception as exc:
                raise EstimatorFailure(f"estimator failed at node ({alpha}, {beta}): {exc}") from exc
            if not (math.isfinite(v1) and math.isfinite(v2)) or v1 < 0 or v2 < 0:
                raise EstimatorFailure(
                    f"estimator returned invalid value at node ({alpha}, {beta}): ({v1}, {v2})"
                )
            col.append((v1, v2))
        values.append(col)
    return TupleGrid(len(x), len(y), values)


def grid_nodes(grid) -> list:
    """Every node's value pair, column by column."""
    return [grid.at(i, j) for i in range(grid.width + 1) for j in range(grid.height + 1)]


def lipschitz_pairwise(grid) -> float:
    """Max per-component change, node by node over both forward neighbors."""
    worst = 0.0
    for i in range(grid.width + 1):
        for j in range(grid.height + 1):
            v = grid.at(i, j)
            for ni, nj in ((i + 1, j), (i, j + 1)):
                if ni <= grid.width and nj <= grid.height:
                    w = grid.at(ni, nj)
                    worst = max(worst, abs(w[0] - v[0]), abs(w[1] - v[1]))
    return worst


# Float predicates with tolerances: a target within BOUNDARY_EPS * scale of
# the boundary image counts as on it, a barycentric coordinate down to -1e-12
# as inside, and distances within 1e-15 as tied.
BOUNDARY_EPS = 1e-9


class NumericalDegeneracy(SkalabError):
    """The float preimage search hit only degenerate triangle images."""


def polyline_scale(poly) -> float:
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return max(max(xs) - min(xs), max(ys) - min(ys), 1.0)


def segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def near_boundary(grid, target) -> bool:
    """True iff the target is within BOUNDARY_EPS * scale of the boundary image."""
    poly = boundary_polyline(grid)
    tol = BOUNDARY_EPS * polyline_scale(poly)
    return any(segment_distance(target, a, b) <= tol for a, b in zip(poly, poly[1:] + poly[:1]))


def winding_number_float(grid, target) -> int:
    """Signed turns of the boundary image around the target, by summed atan2 angles."""
    if near_boundary(grid, target):
        raise TargetOnBoundary(f"target {target} lies on the boundary image")
    poly = boundary_polyline(grid)
    tx, ty = target
    total = 0.0
    for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
        ax, ay, bx, by = ax - tx, ay - ty, bx - tx, by - ty
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / (2.0 * math.pi))


def _barycentric(grid, tri, target):
    va, vb, vc = (grid.at(*v) for v in tri)
    m00, m01 = vb[0] - va[0], vc[0] - va[0]
    m10, m11 = vb[1] - va[1], vc[1] - va[1]
    det = m00 * m11 - m01 * m10
    if det == 0.0:
        return None
    rx, ry = target[0] - va[0], target[1] - va[1]
    lb = (rx * m11 - ry * m01) / det
    lc = (-rx * m10 + ry * m00) / det
    return (1.0 - lb - lc, lb, lc)


def _triangles(grid):
    """Every triangle in scan order: cells by (i, j), lower before upper."""
    for i in range(grid.width):
        for j in range(grid.height):
            yield ((i, j), (i + 1, j), (i + 1, j + 1))
            yield ((i, j), (i, j + 1), (i + 1, j + 1))


def scan_triangles(grid, target):
    """First triangle whose image holds the target, within -1e-12 barycentric."""
    for tri in _triangles(grid):
        lam = _barycentric(grid, tri, target)
        if lam is not None and all(l >= -1e-12 for l in lam):
            return tri
    return None


def find_preimage_tuples(grid, target):
    """Nearest vertex of the first covering triangle, one nudge on a miss."""
    if winding_number_float(grid, target) == 0:
        raise NotCovered(f"boundary image does not wind around {target}")
    tol = BOUNDARY_EPS * polyline_scale(boundary_polyline(grid))
    tri = scan_triangles(grid, target)
    if tri is None:
        tri = scan_triangles(grid, (target[0] + tol, target[1] + tol))
        if tri is None:
            raise NumericalDegeneracy(f"no non-degenerate triangle image contains {target}")
    best_node, best_dist = None, math.inf
    for node in sorted(tri):
        v = grid.at(*node)
        d = math.hypot(v[0] - target[0], v[1] - target[1])
        if d < best_dist - 1e-15:
            best_node, best_dist = node, d
    return best_node, best_dist


def _barycentric_fraction(grid, tri, target):
    """Exact barycentric coordinates of the target, or None for a zero-area image."""
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(a), Fraction(b)) for a, b in (grid.at(*v) for v in tri))
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    if det == 0:
        return None
    rx, ry = Fraction(target[0]) - ax, Fraction(target[1]) - ay
    lb = (rx * (cy - ay) - ry * (cx - ax)) / det
    lc = (ry * (bx - ax) - rx * (by - ay)) / det
    return (1 - lb - lc, lb, lc)


def winding_number_fraction(grid, target) -> int:
    """The crossing-rule winding number of the boundary image, in rationals."""
    tx, ty = Fraction(target[0]), Fraction(target[1])
    poly = [(Fraction(a) - tx, Fraction(b) - ty) for a, b in boundary_polyline(grid)]
    winding = 0
    for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
        cross = ax * by - ay * bx
        if cross == 0 and ax * bx + ay * by <= 0:
            raise TargetOnBoundary(f"target {target} lies on the boundary image")
        if ay <= 0 < by and cross > 0:
            winding += 1
        elif by <= 0 < ay and cross < 0:
            winding -= 1
    return winding


def find_preimage_fraction(grid, target):
    """Nearest vertex, by exact squared distance, of the first triangle whose
    image holds the target with all barycentric coordinates >= 0."""
    if winding_number_fraction(grid, target) == 0:
        raise NotCovered(f"boundary image does not wind around {target}")
    tri = next(t for t in _triangles(grid)
               if (lam := _barycentric_fraction(grid, t, target)) and min(lam) >= 0)
    tx, ty = Fraction(target[0]), Fraction(target[1])
    nodes = sorted(tri)
    values = [grid.at(*node) for node in nodes]
    squared = [(Fraction(a) - tx) ** 2 + (Fraction(b) - ty) ** 2 for a, b in values]
    best = squared.index(min(squared))
    v = values[best]
    return nodes[best], math.hypot(v[0] - target[0], v[1] - target[1])


def within_float_tolerances(grid, target) -> bool:
    """True iff the float predicates' tolerances explain a result that differs
    from the exact one: the target lies within BOUNDARY_EPS * scale of the
    boundary image, or within a barycentric 1e-12 of the edges of the first
    triangle image on whose containment the two disagree, or, in the first
    triangle image both say holds it, its two nearest vertices' distances
    tie within 1e-15 (relative above 1)."""
    if near_boundary(grid, target):
        return True
    for tri in _triangles(grid):
        lam, loose = _barycentric_fraction(grid, tri, target), _barycentric(grid, tri, target)
        exact = lam is not None and min(lam) >= 0
        if exact != (loose is not None and min(loose) >= -1e-12):
            return lam is not None and abs(min(lam)) <= 1e-12
        if exact:
            dists = sorted(math.hypot(a - target[0], b - target[1]) for a, b in (grid.at(*v) for v in tri))
            return dists[1] - dists[0] <= 1e-15 * max(1.0, dists[1])
    return False


def halve_tuples(x: bytes, y: bytes, est, exact: bool = False) -> HalveReport:
    """The halving pipeline on a `TupleGrid`, with the float predicates or,
    when `exact`, their exact rational evaluation."""
    winding_number, find_preimage = (
        (winding_number_fraction, find_preimage_fraction) if exact
        else (winding_number_float, find_preimage_tuples)
    )
    grid = build_tuple_grid(x, y, est)
    target = (est.est(x, b"") / 2.0, est.est(y, b"") / 2.0)
    measured = lipschitz_pairwise(grid)
    winding = winding_number(grid, target)
    alpha = beta = achieved = residual = None
    if winding != 0:
        (alpha, beta), residual = find_preimage(grid, target)
        achieved = grid.at(alpha, beta)
    return HalveReport(
        nx=len(x), ny=len(y), target=target, winding=winding,
        status="ok" if winding != 0 else "not_covered",
        alpha=alpha, beta=beta, achieved=achieved, residual=residual,
        lipschitz_declared=est.lipschitz_bound, lipschitz_measured=measured,
    )


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


def random_halve_input(rng: random.Random, max_len: int = 24) -> tuple[bytes, bytes]:
    """Two nonempty strings of at most `max_len` bytes: random, low-entropy,
    shared-suffix or equal."""
    def draw():
        n = rng.randint(1, max_len)
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randbytes(n)
        if kind == 1:
            return bytes(rng.choice(b"ab ") for _ in range(n))
        return (b"abc" * n)[:n]

    x = draw()
    shape = rng.randrange(5)
    if shape == 0:
        return x, x
    y = draw()
    if shape == 1:
        tail = rng.randbytes(rng.randint(1, 8))
        return (x + tail)[-max_len:], (y + tail)[-max_len:]
    return x, y


WORDS = ("plane", "point", "line", "flag", "key", "grid", "walk", "half", "prefix", "node")


def word_text(rng: random.Random, n: int) -> bytes:
    """`n` bytes of space-separated words from a small fixed vocabulary."""
    return " ".join(rng.choice(WORDS) for _ in range(n)).encode("ascii")[:n]


def random_grid_values(rng: random.Random, kind: str) -> tuple[int, int, list]:
    """(width, height, values[alpha][beta]) for a seeded grid fixture.

    `float`: uniform reals; `int`: small integers, so ties and exactly
    collinear images are common; `degenerate`: the two components are
    affinely dependent, so every triangle image has zero area; `fold`: a
    map that folds the grid over itself."""
    w, h = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "float":
        fn = lambda i, j: (rng.uniform(-5, 20), rng.uniform(-5, 20))  # noqa: E731
    elif kind == "int":
        fn = lambda i, j: (rng.randint(0, 4), rng.randint(0, 4))  # noqa: E731
    elif kind == "degenerate":
        a, b = rng.choice((0.0, 1.0, -2.0)), rng.choice((0.0, 3.0))
        fn = lambda i, j: (float(i + j), a * (i + j) + b)  # noqa: E731
    else:
        fn = lambda i, j: (float(abs(i - w / 2) + j), float(j - i))  # noqa: E731
    return w, h, [[fn(i, j) for j in range(h + 1)] for i in range(w + 1)]
