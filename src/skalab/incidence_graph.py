"""Bipartite incidence graphs, induced-subgraph counting, density audits.

The plane graph puts lines on the left and points on the right; edges are
flags.  Density reports record the observed edge count of an induced
subgraph against two classical yardsticks:

* the Stevens-De Zeeuw exponent 11/15, valid asymptotically for planes over
  prime fields when the subset sizes are balanced and small (the report only
  records the ratio |E'| / (|L'|*|R'|)^(11/15); the theorem carries an
  implicit constant, so nothing is asserted);
* the Kovari-Sos-Turan / Zarankiewicz bound for C4-free hosts (Reiman's
  bound, the smaller of the two ways round),
  |E'| <= n/2 * (1 + sqrt(1 + 4m(m-1)/n)) with (m, n) = (|L'|, |R'|) or
  (|R'|, |L'|), which *is* hard-asserted whenever the host graph is C4-free.

`random_bigraph` produces the uniform-random baseline with the same
(alpha, beta, gamma) log-sizes for comparison runs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass

from .errors import (
    EmptyQuery,
    InvariantViolation,
    SizeTooLarge,
    TooLarge,
    TooManyEdges,
    UnknownVertex,
)
from .finite_field import is_prime
from .projective_plane import enumerate_plane

SDZ_EXPONENT = 11.0 / 15.0
EXHAUSTIVE_PAIR_LIMIT = 10**7


class BiGraph:
    """Simple bipartite graph with integer vertex ids on both sides.

    Each vertex keeps its neighbours twice: as a list of ids (`_left_adj`,
    `_right_adj`) and as a bitset over the other side's positions in the
    sorted id list (`_left_bits`, `_right_bits`).
    """

    def __init__(
        self,
        left_ids: list[int],
        right_ids: list[int],
        edges,
        q: int | None = None,
    ):
        self.left_ids = sorted(left_ids)
        self.right_ids = sorted(right_ids)
        self.edges = set(edges)
        self.q = q
        self._left_adj: dict[int, list[int]] = {l: [] for l in self.left_ids}
        self._right_adj: dict[int, list[int]] = {r: [] for r in self.right_ids}
        for l, r in self.edges:
            if l not in self._left_adj or r not in self._right_adj:
                raise UnknownVertex(f"edge ({l}, {r}) has an endpoint off-graph")
            self._left_adj[l].append(r)
            self._right_adj[r].append(l)
        self._right_pos = {r: i for i, r in enumerate(self.right_ids)}
        self._left_pos = {l: i for i, l in enumerate(self.left_ids)}
        self._left_bits = _bitsets(self._left_adj, self._right_pos)
        self._right_bits = _bitsets(self._right_adj, self._left_pos)
        self._c4_free: bool | None = None

    @property
    def alpha(self) -> float:
        return math.log2(len(self.left_ids))

    @property
    def beta(self) -> float:
        return math.log2(len(self.right_ids))

    @property
    def gamma(self) -> float:
        return math.log2(len(self.edges))

    def left_degree(self, l: int) -> int:
        return self._left_bits[l].bit_count()

    def right_degree(self, r: int) -> int:
        return self._right_bits[r].bit_count()

    def right_mask(self, right_subset) -> int:
        mask = 0
        for r in right_subset:
            pos = self._right_pos.get(r)
            if pos is None:
                raise UnknownVertex(f"right vertex {r} not in graph")
            mask |= 1 << pos
        return mask

    def left_mask(self, left_subset) -> int:
        mask = 0
        for l in left_subset:
            pos = self._left_pos.get(l)
            if pos is None:
                raise UnknownVertex(f"left vertex {l} not in graph")
            mask |= 1 << pos
        return mask

    def c4_free(self) -> bool:
        if self._c4_free is None:
            self._c4_free = c4_free_check(self)
        return self._c4_free


def _bitsets(adj: dict[int, list[int]], pos: dict[int, int]) -> dict[int, int]:
    bits = {}
    for v, nbrs in adj.items():
        mask = 0
        for w in nbrs:
            mask |= 1 << pos[w]
        bits[v] = mask
    return bits


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
    """Incidence graph of PG(2,q): left = line ids, right = point ids."""
    plane = enumerate_plane(q)
    n_points, n_lines, _ = plane.counts()
    return BiGraph(list(range(n_lines)), list(range(n_points)), plane.flag_ids, q=q)


def count_induced_edges(g: BiGraph, query: SubgraphQuery) -> int:
    """Exact number of host edges inside left x right."""
    right_mask = g.right_mask(query.right)
    total = 0
    for l in query.left:
        bits = g._left_bits.get(l)
        if bits is None:
            raise UnknownVertex(f"left vertex {l} not in graph")
        total += (bits & right_mask).bit_count()
    return total


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


def sdz_report(g: BiGraph, query: SubgraphQuery) -> BoundReport:
    """Record the density of an induced subgraph against both yardsticks."""
    a, b = len(query.left), len(query.right)
    if a == 0 or b == 0:
        raise EmptyQuery("both subsets must be nonempty")
    edges = count_induced_edges(g, query)
    product = float(a) * float(b)
    sdz_value = product**SDZ_EXPONENT
    kst = zarankiewicz_bound(a, b)
    if g.c4_free() and edges > kst + 1e-9:
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
    for l in g.left_ids:
        own = 1 << g._left_pos[l]
        seen = 0
        for r in g._left_adj[l]:
            others = g._right_bits[r] ^ own
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
    left_mask = g.left_mask(left_combo)
    scored = sorted(
        g.right_ids, key=lambda r: (-(g._right_bits[r] & left_mask).bit_count(), r)
    )
    chosen = scored[:b]
    count = sum((g._right_bits[r] & left_mask).bit_count() for r in chosen)
    return count, tuple(sorted(chosen))


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


def _search_greedy(g: BiGraph, a: int, b: int):
    """Peel the min-(degree, id) vertex from the side with more excess until (a, b).

    Degrees count neighbours still on the other side.  Each side keeps a lazy
    min-heap of (degree, id): a vertex gets a fresh entry whenever its degree
    drops, and entries whose degree is stale are skipped when popped.
    """
    left = {l: len(nbrs) for l, nbrs in g._left_adj.items()}
    right = {r: len(nbrs) for r, nbrs in g._right_adj.items()}
    left_heap = [(d, l) for l, d in left.items()]
    right_heap = [(d, r) for r, d in right.items()]
    heapq.heapify(left_heap)
    heapq.heapify(right_heap)
    while len(left) > a or len(right) > b:
        excess_l, excess_r = len(left) - a, len(right) - b
        peel_left = excess_l > excess_r or (
            excess_l == excess_r and len(left) >= len(right)
        )
        if peel_left:
            _peel(left_heap, left, right_heap, right, g._left_adj)
        else:
            _peel(right_heap, right, left_heap, left, g._right_adj)
    query = SubgraphQuery.of(left, right)
    return query, count_induced_edges(g, query)


def _peel(heap, degrees, other_heap, other_degrees, adj) -> None:
    """Remove the min-(degree, id) vertex of one side; update the other side."""
    while True:
        d, victim = heapq.heappop(heap)
        if degrees.get(victim) == d:
            break
    del degrees[victim]
    for w in adj[victim]:
        d = other_degrees.get(w)
        if d is not None:
            other_degrees[w] = d - 1
            heapq.heappush(other_heap, (d - 1, w))


def _search_local_swap(g: BiGraph, a: int, b: int, iters: int):
    """Steepest single-vertex swaps starting from the greedy-peel result."""
    query, _ = _search_greedy(g, a, b)
    left = set(query.left)
    right = set(query.right)
    for _ in range(max(0, iters)):
        right_mask = g.right_mask(right)
        left_mask = g.left_mask(left)
        candidates = []  # (-gain, side, out_id, in_id)
        out_l = min(((g._left_bits[l] & right_mask).bit_count(), l) for l in left)
        ins_l = [(-(g._left_bits[l] & right_mask).bit_count(), l) for l in g.left_ids if l not in left]
        if ins_l:
            in_l = min(ins_l)
            candidates.append((in_l[0] + out_l[0], 0, out_l[1], in_l[1]))
        out_r = min(((g._right_bits[r] & left_mask).bit_count(), r) for r in right)
        ins_r = [(-(g._right_bits[r] & left_mask).bit_count(), r) for r in g.right_ids if r not in right]
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
    query = SubgraphQuery.of(left, right)
    return query, count_induced_edges(g, query)
