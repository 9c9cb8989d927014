"""Bipartite incidence graphs, induced-subgraph counting, density audits.

The plane graph puts lines on the left and points on the right; edges are
flags.  A `BiGraph` keeps each neighbour once, in one array per vertex, and
builds bitsets only for the searches and the C4 check that read them.  A
`PlaneHost` stands for the plane graph in a report without building it.

Density reports record the observed edge count of an induced subgraph
against two classical yardsticks:

* the Stevens-De Zeeuw exponent 11/15, valid asymptotically for planes over
  prime fields when the subset sizes are balanced and small (the report only
  records the ratio |E'| / (|L'|*|R'|)^(11/15); the theorem carries an
  implicit constant, so nothing is asserted);
* the Kovari-Sos-Turan / Zarankiewicz bound for C4-free hosts (Reiman's
  bound, the smaller of the two ways round),
  |E'| <= n/2 * (1 + sqrt(1 + 4m(m-1)/n)) with (m, n) = (|L'|, |R'|) or
  (|R'|, |L'|), which *is* hard-asserted whenever the host graph is C4-free.
  The report tests the count against the cap in integers
  (`within_reiman_cap`) and runs the C4 check only when the count exceeds
  it.

`random_bigraph` produces the uniform-random baseline with the same
(alpha, beta, gamma) log-sizes for comparison runs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    EmptyQuery,
    InvariantViolation,
    SizeTooLarge,
    TooLarge,
    TooManyEdges,
    UnknownVertex,
)
from .finite_field import is_prime
from .projective_plane import enumerate_plane, line_points, plane_field

SDZ_EXPONENT = 11.0 / 15.0
EXHAUSTIVE_PAIR_LIMIT = 10**7


class BiGraph:
    """Simple bipartite graph with integer vertex ids on both sides.

    Vertices are kept by position in the sorted id lists (`_left_pos`,
    `_right_pos` map ids to positions).  Each vertex keeps its neighbours
    once, as an `array('I')` of positions on the other side (`_left_adj`,
    `_right_adj`).  `_left_bits` and `_right_bits`, one bitset per vertex
    over the other side's positions, are built on first read.
    """

    def __init__(
        self,
        left_ids: list[int],
        right_ids: list[int],
        edges,
        q: int | None = None,
    ):
        self._set_ids(left_ids, right_ids, q)
        left_adj = [array("I") for _ in self.left_ids]
        right_adj = [array("I") for _ in self.right_ids]
        for l, r in set(edges):
            lp, rp = self._left_pos.get(l), self._right_pos.get(r)
            if lp is None or rp is None:
                raise UnknownVertex(f"edge ({l}, {r}) has an endpoint off-graph")
            left_adj[lp].append(rp)
            right_adj[rp].append(lp)
        self._left_adj = left_adj
        self._right_adj = right_adj

    @classmethod
    def from_adjacency(cls, left_adj: list[array], right_adj: list[array],
                       q: int | None = None) -> "BiGraph":
        """The graph on ids 0..n-1 per side with these neighbour arrays; each
        edge must appear once on each side."""
        g = cls.__new__(cls)
        g._set_ids(range(len(left_adj)), range(len(right_adj)), q)
        g._left_adj = left_adj
        g._right_adj = right_adj
        return g

    def _set_ids(self, left_ids, right_ids, q) -> None:
        self.left_ids = sorted(left_ids)
        self.right_ids = sorted(right_ids)
        self.q = q
        self._left_pos = {l: i for i, l in enumerate(self.left_ids)}
        self._right_pos = {r: i for i, r in enumerate(self.right_ids)}
        self._c4_free: bool | None = None

    @cached_property
    def _left_bits(self) -> list[int]:
        return [_mask(nbrs) for nbrs in self._left_adj]

    @cached_property
    def _right_bits(self) -> list[int]:
        return [_mask(nbrs) for nbrs in self._right_adj]

    @property
    def alpha(self) -> float:
        return math.log2(len(self.left_ids))

    @property
    def beta(self) -> float:
        return math.log2(len(self.right_ids))

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._left_adj))

    @property
    def gamma(self) -> float:
        return math.log2(self.n_edges)

    def left_degree(self, l: int) -> int:
        return len(self._left_adj[self._left_pos[l]])

    def right_degree(self, r: int) -> int:
        return len(self._right_adj[self._right_pos[r]])

    @staticmethod
    def _positions(ids, pos: dict[int, int], side: str) -> list[int]:
        found = []
        for v in ids:
            p = pos.get(v)
            if p is None:
                raise UnknownVertex(f"{side} vertex {v} not in graph")
            found.append(p)
        return found

    def induced_edges(self, query: SubgraphQuery) -> int:
        """Exact number of edges inside left x right, read off the arrays."""
        inside = bytearray(len(self.right_ids))
        for rp in self._positions(query.right, self._right_pos, "right"):
            inside[rp] = 1
        return sum(
            sum(map(inside.__getitem__, self._left_adj[lp]))
            for lp in self._positions(query.left, self._left_pos, "left")
        )

    def c4_free(self) -> bool:
        if self._c4_free is None:
            self._c4_free = c4_free_check(self)
        return self._c4_free


def _mask(positions) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


class PlaneHost:
    """PG(2,q) as the host of a density report, without its graph.

    Induced edges are counted line by line with `line_points`, so a query
    costs its lines times q+1.  The incidence graph is built only when the
    report needs a C4 check.
    """

    def __init__(self, q: int):
        self.q = q
        self._points = line_points(plane_field(q))

    def induced_edges(self, query: SubgraphQuery) -> int:
        n = self.q * self.q + self.q + 1
        if not all(0 <= v < n for v in itertools.chain(query.left, query.right)):
            raise UnknownVertex(f"query has a vertex off PG(2,{self.q})")
        right = query.right
        return sum(len(right.intersection(self._points(lid))) for lid in query.left)

    def c4_free(self) -> bool:
        return build_plane_graph(self.q).c4_free()


@dataclass(frozen=True)
class SubgraphQuery:
    """An induced-subgraph selection: id subsets on both sides."""

    left: frozenset[int]
    right: frozenset[int]

    @staticmethod
    def of(left, right) -> "SubgraphQuery":
        return SubgraphQuery(frozenset(left), frozenset(right))


@dataclass
class BoundReport:
    """Density audit of one induced subgraph."""

    left_size: int
    right_size: int
    edges: int
    sdz_value: float
    sdz_ratio: float
    regime_balanced: bool
    regime_small: bool
    field_prime: bool
    kst_bound: float
    density_exponent: float
    n: int
    q: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "left_size": self.left_size,
            "right_size": self.right_size,
            "edges": self.edges,
            "sdz_value": self.sdz_value,
            "sdz_ratio": self.sdz_ratio,
            "regime_balanced": self.regime_balanced,
            "regime_small": self.regime_small,
            "field_prime": self.field_prime,
            "kst_bound": self.kst_bound,
            "density_exponent": self.density_exponent,
            "n": self.n,
            "q": self.q,
        }

    CSV_HEADER = (
        "q",
        "left_size",
        "right_size",
        "edges",
        "sdz_value",
        "sdz_ratio",
        "density_exponent",
        "regime_balanced",
        "regime_small",
        "field_prime",
        "kst_bound",
        "n",
    )

    def csv_row(self) -> tuple:
        return (
            self.q,
            self.left_size,
            self.right_size,
            self.edges,
            self.sdz_value,
            self.sdz_ratio,
            self.density_exponent,
            self.regime_balanced,
            self.regime_small,
            self.field_prime,
            self.kst_bound,
            self.n,
        )


def build_plane_graph(q: int) -> BiGraph:
    """Incidence graph of PG(2,q): left = line ids, right = point ids.

    Line x holds point y iff x0*y0 + x1*y1 + x2*y2 = 0, which is symmetric,
    and lines and points share their ids; so the lines through point k are
    the points of line k, and both sides share the plane's rows.
    """
    plane = enumerate_plane(q)
    rows = [plane.row(lid) for lid in range(plane.counts()[0])]
    return BiGraph.from_adjacency(rows, rows, q=q)


def zarankiewicz_bound(left_size: int, right_size: int) -> float:
    """C4-free edge cap (Reiman): the smaller of n/2 * (1 + sqrt(1 + 4m(m-1)/n))
    over (m, n) = (|L'|, |R'|) and (|R'|, |L'|).

    In a C4-free graph two vertices of one side share at most one neighbour,
    so the degrees d_r of the n right vertices satisfy sum C(d_r, 2) <=
    C(m, 2); Jensen turns that into the bound above.  Each radicand is the
    rational (n + 4m(m-1))/n, rounded once by the integer true division; for
    m = n it is exactly 4n - 3, the square case.
    """

    def reiman(m: int, n: int) -> float:
        return 0.5 * n * (1.0 + math.sqrt((n + 4 * m * (m - 1)) / n))

    return min(reiman(left_size, right_size), reiman(right_size, left_size))


def within_reiman_cap(edges: int, left_size: int, right_size: int) -> bool:
    """edges <= `zarankiewicz_bound(left_size, right_size)`, decided in integers.

    E <= n/2 * (1 + sqrt(1 + 4m(m-1)/n)) iff 2E - n <= 0 or
    (2E - n)^2 <= n * (n + 4m(m-1)); the cap is the smaller bound, so both
    ways round must hold.  The Baer subplane meets the cap with equality.
    """

    def within(m: int, n: int) -> bool:
        excess = 2 * edges - n
        return excess <= 0 or excess * excess <= n * (n + 4 * m * (m - 1))

    return within(left_size, right_size) and within(right_size, left_size)


def sdz_report(g: BiGraph | PlaneHost, query: SubgraphQuery) -> BoundReport:
    """Record the density of an induced subgraph against both yardsticks.

    The host's C4 check runs only when the count exceeds the Reiman cap,
    the one case in which it can turn the report into `InvariantViolation`.
    """
    a, b = len(query.left), len(query.right)
    if a == 0 or b == 0:
        raise EmptyQuery("both subsets must be nonempty")
    edges = g.induced_edges(query)
    product = float(a) * float(b)
    sdz_value = product**SDZ_EXPONENT
    kst = zarankiewicz_bound(a, b)
    if not within_reiman_cap(edges, a, b) and g.c4_free():
        raise InvariantViolation(
            f"C4-free host exceeds the Zarankiewicz bound: {edges} > {kst}"
        )
    if g.q is not None:
        field_prime = is_prime(g.q)
        regime_small = max(a, b) <= g.q ** (8.0 / 7.0)
        n = math.ceil(math.log2(g.q))
    else:
        field_prime = False
        regime_small = False
        n = 0
    return BoundReport(
        left_size=a,
        right_size=b,
        edges=edges,
        sdz_value=sdz_value,
        sdz_ratio=edges / sdz_value,
        regime_balanced=a**0.875 < b < a ** (8.0 / 7.0),
        regime_small=regime_small,
        field_prime=field_prime,
        kst_bound=kst,
        density_exponent=math.log(edges) / math.log(product) if edges > 1 else 0.0,
        n=n,
        q=g.q,
    )


def random_bigraph(alpha: float, beta: float, gamma: float, seed: int) -> BiGraph:
    """Uniform simple bipartite graph with 2^alpha, 2^beta vertices, 2^gamma edges."""
    n_left = int(2.0**alpha)
    n_right = int(2.0**beta)
    n_edges = int(2.0**gamma)
    if n_edges > n_left * n_right:
        raise TooManyEdges(f"{n_edges} edges > {n_left}*{n_right} cells")
    rng = random.Random(seed)
    cells = rng.sample(range(n_left * n_right), n_edges)
    edges = {(c // n_right, c % n_right) for c in cells}
    return BiGraph(list(range(n_left)), list(range(n_right)), edges)


def c4_free_check(g: BiGraph) -> bool:
    """True iff no two left vertices share two common right neighbors.

    Equivalently, for every left l the sets N(r) - {l}, r in N(l), are
    pairwise disjoint: a left vertex in two of them shares two right
    neighbours with l.  The sets are bitsets over left positions.
    """
    right_bits = g._right_bits
    for lp, nbrs in enumerate(g._left_adj):
        own = 1 << lp
        seen = 0
        for rp in nbrs:
            others = right_bits[rp] ^ own
            if seen & others:
                return False
            seen |= others
    return True


def dense_subgraph_search(
    g: BiGraph,
    a: int,
    b: int,
    strategy: str = "greedy-peel",
    seed: int = 0,
    iters: int = 100,
) -> tuple[SubgraphQuery, int]:
    """Find a dense induced subgraph with exactly a left and b right vertices.

    `exhaustive` returns the true maximum (and the lexicographically smallest
    maximizing pair of id sets); the heuristics are deterministic for a given
    seed.  `local-swap` starts from the greedy peel and applies steepest
    single-vertex swaps; it is fully deterministic, so the seed only matters
    for interface uniformity.
    """
    if a > len(g.left_ids) or b > len(g.right_ids) or a < 1 or b < 1:
        raise SizeTooLarge(f"requested ({a}, {b}) of ({len(g.left_ids)}, {len(g.right_ids)})")
    if strategy == "exhaustive":
        return _search_exhaustive(g, a, b)
    if strategy == "greedy-peel":
        return _search_greedy(g, a, b)
    if strategy == "local-swap":
        return _search_local_swap(g, a, b, iters)
    raise ValueError(f"unknown strategy {strategy!r}")


def _best_right_for_left(g: BiGraph, left_combo: tuple[int, ...], b: int):
    """Best b right vertices for a fixed left set: top degrees, lex-min ties."""
    left_mask = _mask(g._left_pos[l] for l in left_combo)
    degrees = [(bits & left_mask).bit_count() for bits in g._right_bits]
    chosen = sorted(range(len(degrees)), key=lambda rp: (-degrees[rp], rp))[:b]
    count = sum(degrees[rp] for rp in chosen)
    return count, tuple(sorted(g.right_ids[rp] for rp in chosen))


def _search_exhaustive(g: BiGraph, a: int, b: int):
    n_pairs = math.comb(len(g.left_ids), a) * math.comb(len(g.right_ids), b)
    if n_pairs > EXHAUSTIVE_PAIR_LIMIT:
        raise TooLarge(f"{n_pairs} candidate pairs > {EXHAUSTIVE_PAIR_LIMIT}")
    # (-count, left, right) order: most edges, then lexicographically smallest
    best = None
    for left_combo in itertools.combinations(g.left_ids, a):
        count, right = _best_right_for_left(g, left_combo, b)
        key = (-count, left_combo, right)
        if best is None or key < best:
            best = key
    return SubgraphQuery.of(best[1], best[2]), -best[0]


def _query_at(g: BiGraph, left_positions, right_positions) -> SubgraphQuery:
    return SubgraphQuery.of(
        [g.left_ids[p] for p in left_positions], [g.right_ids[p] for p in right_positions]
    )


def _search_greedy(g: BiGraph, a: int, b: int):
    """Peel the min-(degree, id) vertex from the side with more excess until (a, b).

    Runs on positions, whose order is the id order.  Degrees count
    neighbours still on the other side; a peeled vertex's degree is -1.  Each
    side keeps a lazy min-heap of (degree, position) packed into one int, a
    fresh entry whenever a degree drops; entries whose degree is stale are
    skipped when popped.
    """
    shift = max(len(g.left_ids), len(g.right_ids)).bit_length()
    left = [len(nbrs) for nbrs in g._left_adj]
    right = [len(nbrs) for nbrs in g._right_adj]
    left_heap = [d << shift | v for v, d in enumerate(left)]
    right_heap = [d << shift | v for v, d in enumerate(right)]
    heapq.heapify(left_heap)
    heapq.heapify(right_heap)
    n_left, n_right = len(left), len(right)
    while n_left > a or n_right > b:
        excess_l, excess_r = n_left - a, n_right - b
        if excess_l > excess_r or (excess_l == excess_r and n_left >= n_right):
            _peel(left_heap, left, right_heap, right, g._left_adj, shift)
            n_left -= 1
        else:
            _peel(right_heap, right, left_heap, left, g._right_adj, shift)
            n_right -= 1
    query = _query_at(
        g, [v for v, d in enumerate(left) if d >= 0], [v for v, d in enumerate(right) if d >= 0]
    )
    return query, g.induced_edges(query)


def _peel(heap, degrees, other_heap, other_degrees, adj, shift: int) -> None:
    """Remove the min-(degree, position) vertex of one side; update the other side."""
    low = (1 << shift) - 1
    while True:
        key = heapq.heappop(heap)
        victim = key & low
        if degrees[victim] == key >> shift:
            break
    degrees[victim] = -1
    for w in adj[victim]:
        d = other_degrees[w]
        if d >= 0:
            other_degrees[w] = d - 1
            heapq.heappush(other_heap, (d - 1) << shift | w)


def _search_local_swap(g: BiGraph, a: int, b: int, iters: int):
    """Steepest single-vertex swaps starting from the greedy-peel result.

    Runs on positions, whose order is the id order, so ties break as on ids.
    """
    query, _ = _search_greedy(g, a, b)
    left = set(g._positions(query.left, g._left_pos, "left"))
    right = set(g._positions(query.right, g._right_pos, "right"))
    left_bits, right_bits = g._left_bits, g._right_bits
    for _ in range(max(0, iters)):
        right_mask = _mask(right)
        left_mask = _mask(left)
        candidates = []  # (-gain, side, out position, in position)
        out_l = min(((left_bits[l] & right_mask).bit_count(), l) for l in left)
        ins_l = [(-(bits & right_mask).bit_count(), l)
                 for l, bits in enumerate(left_bits) if l not in left]
        if ins_l:
            in_l = min(ins_l)
            candidates.append((in_l[0] + out_l[0], 0, out_l[1], in_l[1]))
        out_r = min(((right_bits[r] & left_mask).bit_count(), r) for r in right)
        ins_r = [(-(bits & left_mask).bit_count(), r)
                 for r, bits in enumerate(right_bits) if r not in right]
        if ins_r:
            in_r = min(ins_r)
            candidates.append((in_r[0] + out_r[0], 1, out_r[1], in_r[1]))
        if not candidates:
            break
        best = min(candidates)
        if -best[0] <= 0:
            break
        _, side, out_id, in_id = best
        if side == 0:
            left.remove(out_id)
            left.add(in_id)
        else:
            right.remove(out_id)
            right.add(in_id)
    query = _query_at(g, left, right)
    return query, g.induced_edges(query)
