"""Prefix-grid maps, piecewise-linear extension, winding-number preimage.

For two byte strings x, y and a pluggable conditional-complexity estimator,
the grid assigns to each integer node (alpha, beta) the value pair

    ( est(x | <x[:alpha], y[:beta]>),  est(y | <x[:alpha], y[:beta]>) )

with the condition encoded as a length-prefixed pair so prefix splits are
unambiguous.  Each unit cell is split along the (i,j)->(i+1,j+1) diagonal and
the map is extended barycentrically, making the boundary image a polyline
whose winding number around a target is computable by summing signed angle
increments (domain boundary traversed counterclockwise).  Nonzero winding
guarantees a containing triangle; the returned node is the vertex of that
triangle whose image lies nearest the target.

True conditional complexity is uncomputable, so estimators are injected.
The shipped default backs the estimate with a general-purpose compressor;
its Lipschitz constant is measured from the grid, never assumed, and
`halve` makes no claim beyond the reported numbers.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

from .errors import (
    EstimatorFailure,
    NotCovered,
    NumericalDegeneracy,
    OutOfDomain,
    TargetOnBoundary,
)

BOUNDARY_EPS = 1e-9

Pair = tuple[float, float]


def pair_condition(x_prefix: bytes, y_prefix: bytes) -> bytes:
    """Length-prefixed pair: 4-byte big-endian len(first part), then parts."""
    return struct.pack(">I", len(x_prefix)) + x_prefix + y_prefix


def split_condition(condition: bytes) -> tuple[bytes, bytes]:
    """Inverse of pair_condition; the empty condition splits to two empties."""
    if condition == b"":
        return b"", b""
    if len(condition) < 4:
        raise ValueError("condition too short for a length-prefixed pair")
    (n,) = struct.unpack(">I", condition[:4])
    body = condition[4:]
    if n > len(body):
        raise ValueError("length prefix exceeds condition body")
    return body[:n], body[n:]


class ComplexityEstimator:
    """Deterministic estimate of conditional description length.

    Subclasses implement est(target, condition) -> non-negative float and
    declare a lipschitz_bound; the declared bound is checked against the
    measured grid increments and any violation is reported, not raised.
    """

    lipschitz_bound: float = float("inf")

    def est(self, target: bytes, condition: bytes) -> float:
        raise NotImplementedError


class CompressionEstimator(ComplexityEstimator):
    """est(a|b) = C(b||a) - C(b) for a deterministic general-purpose compressor."""

    lipschitz_bound = 16.0

    def __init__(self, level: int = 9):
        self.level = level

    def est(self, target: bytes, condition: bytes) -> float:
        joint = len(zlib.compress(condition + target, self.level))
        base = len(zlib.compress(condition, self.level))
        return float(max(0, joint - base))


class RampEstimator(ComplexityEstimator):
    """Synthetic fixture: v1 = max(0, 2|x| - alpha - beta/2) and symmetrically."""

    lipschitz_bound = 1.0

    def __init__(self, x: bytes, y: bytes):
        self.x = x
        self.y = y

    def est(self, target: bytes, condition: bytes) -> float:
        a_part, b_part = split_condition(condition)
        alpha, beta = len(a_part), len(b_part)
        if target == self.x:
            return max(0.0, 2.0 * len(self.x) - alpha - beta / 2.0)
        if target == self.y:
            return max(0.0, 2.0 * len(self.y) - beta - alpha / 2.0)
        raise ValueError("ramp estimator only evaluates its two bound strings")


class PrefixGapEstimator(ComplexityEstimator):
    """Synthetic fixture: est(x|z) = |x| - (length of x's prefix inside z)."""

    lipschitz_bound = 1.0

    def __init__(self, x: bytes, y: bytes):
        self.x = x
        self.y = y

    def est(self, target: bytes, condition: bytes) -> float:
        a_part, b_part = split_condition(condition)
        if target == self.x:
            return float(max(0, len(self.x) - len(a_part)))
        if target == self.y:
            return float(max(0, len(self.y) - len(b_part)))
        raise ValueError("prefix-gap estimator only evaluates its two bound strings")


ESTIMATOR_IDS = ("zlib", "ramp", "prefix-gap")


def get_estimator(name: str, x: bytes, y: bytes) -> ComplexityEstimator:
    if name == "zlib":
        return CompressionEstimator()
    if name == "ramp":
        return RampEstimator(x, y)
    if name == "prefix-gap":
        return PrefixGapEstimator(x, y)
    raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATOR_IDS}")


class GridMap:
    """Value pairs on the (|x|+1) x (|y|+1) integer grid."""

    def __init__(self, width: int, height: int, values: list[list[Pair]]):
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

    def at(self, alpha: int, beta: int) -> Pair:
        return self.values[alpha][beta]


def build_grid(x: bytes, y: bytes, est: ComplexityEstimator) -> GridMap:
    """Evaluate the estimator at every prefix pair; estimator errors carry
    the node coordinates."""
    if len(x) < 1 or len(y) < 1:
        raise ValueError("both strings must be nonempty")
    values: list[list[Pair]] = []
    for alpha in range(len(x) + 1):
        col: list[Pair] = []
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
    return GridMap(len(x), len(y), values)


def measured_lipschitz(grid: GridMap) -> float:
    """Max per-component value change across grid-adjacent nodes."""
    worst = 0.0
    for i in range(grid.width + 1):
        for j in range(grid.height + 1):
            v = grid.at(i, j)
            for ni, nj in ((i + 1, j), (i, j + 1)):
                if ni <= grid.width and nj <= grid.height:
                    w = grid.at(ni, nj)
                    worst = max(worst, abs(w[0] - v[0]), abs(w[1] - v[1]))
    return worst


def _cell_of(grid: GridMap, a: float, b: float) -> tuple[int, int, float, float]:
    i = min(int(math.floor(a)), grid.width - 1)
    j = min(int(math.floor(b)), grid.height - 1)
    return i, j, a - i, b - j


def pl_extend(grid: GridMap, point: Pair) -> Pair:
    """Barycentric value at a real point; exact at integer nodes."""
    a, b = point
    if not (0.0 <= a <= grid.width and 0.0 <= b <= grid.height):
        raise OutOfDomain(f"({a}, {b}) outside [0,{grid.width}] x [0,{grid.height}]")
    i, j, da, db = _cell_of(grid, a, b)
    if da >= db:  # lower triangle (i,j), (i+1,j), (i+1,j+1)
        la, lb, lc = 1.0 - da, da - db, db
        va, vb, vc = grid.at(i, j), grid.at(i + 1, j), grid.at(i + 1, j + 1)
    else:  # upper triangle (i,j), (i,j+1), (i+1,j+1)
        la, lb, lc = 1.0 - db, db - da, da
        va, vb, vc = grid.at(i, j), grid.at(i, j + 1), grid.at(i + 1, j + 1)
    return (
        la * va[0] + lb * vb[0] + lc * vc[0],
        la * va[1] + lb * vb[1] + lc * vc[1],
    )


def boundary_nodes(grid: GridMap) -> list[tuple[int, int]]:
    """Boundary lattice nodes in counterclockwise order (closed cycle)."""
    w, h = grid.width, grid.height
    nodes = [(i, 0) for i in range(w)]
    nodes += [(w, j) for j in range(h)]
    nodes += [(i, h) for i in range(w, 0, -1)]
    nodes += [(0, j) for j in range(h, 0, -1)]
    return nodes


def boundary_polyline(grid: GridMap) -> list[Pair]:
    """Image of the domain boundary (closed polyline, PL-exact)."""
    return [grid.at(i, j) for i, j in boundary_nodes(grid)]


def _polyline_scale(poly: list[Pair]) -> float:
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return max(max(xs) - min(xs), max(ys) - min(ys), 1.0)


def _segment_distance(p: Pair, a: Pair, b: Pair) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def winding_number(grid: GridMap, target: Pair) -> int:
    """Signed turns of the boundary image around the target."""
    poly = boundary_polyline(grid)
    scale = _polyline_scale(poly)
    tol = BOUNDARY_EPS * scale
    n = len(poly)
    for k in range(n):
        if _segment_distance(target, poly[k], poly[(k + 1) % n]) <= tol:
            raise TargetOnBoundary(f"target {target} lies on the boundary image")
    tx, ty = target
    total = 0.0
    for k in range(n):
        ax, ay = poly[k][0] - tx, poly[k][1] - ty
        bx, by = poly[(k + 1) % n][0] - tx, poly[(k + 1) % n][1] - ty
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        total += math.atan2(cross, dot)
    return round(total / (2.0 * math.pi))


def _triangles(grid: GridMap):
    """All triangles as vertex-node triples, fixed scan order."""
    for i in range(grid.width):
        for j in range(grid.height):
            yield ((i, j), (i + 1, j), (i + 1, j + 1))
            yield ((i, j), (i, j + 1), (i + 1, j + 1))


def _barycentric_in_image(grid: GridMap, tri, target: Pair):
    """Solve target = la*A + lb*B + lc*C in value space; None if degenerate."""
    va = grid.at(*tri[0])
    vb = grid.at(*tri[1])
    vc = grid.at(*tri[2])
    m00, m01 = vb[0] - va[0], vc[0] - va[0]
    m10, m11 = vb[1] - va[1], vc[1] - va[1]
    det = m00 * m11 - m01 * m10
    if det == 0.0:
        return None
    rx, ry = target[0] - va[0], target[1] - va[1]
    lb = (rx * m11 - ry * m01) / det
    lc = (-rx * m10 + ry * m00) / det
    return (1.0 - lb - lc, lb, lc)


def _scan_for_triangle(grid: GridMap, target: Pair, tol: float):
    """First triangle (in scan order) whose image contains the target.

    Returns (triangle or None, whether the target grazed a degenerate image).
    """
    saw_degenerate_hit = False
    for tri in _triangles(grid):
        lam = _barycentric_in_image(grid, tri, target)
        if lam is None:
            # degenerate image: the triangle maps onto a segment or point
            pts = [grid.at(*v) for v in tri]
            d = min(
                _segment_distance(target, pts[i], pts[j])
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if d <= tol:
                saw_degenerate_hit = True
            continue
        if all(l >= -1e-12 for l in lam):
            return tri, saw_degenerate_hit
    return None, saw_degenerate_hit


def find_preimage(grid: GridMap, target: Pair) -> tuple[tuple[int, int], float]:
    """Integer node whose image is nearest the target, found via the
    triangle that PL-covers it; requires nonzero winding."""
    if winding_number(grid, target) == 0:
        raise NotCovered(f"boundary image does not wind around {target}")
    scale = _polyline_scale(boundary_polyline(grid))
    tol = BOUNDARY_EPS * scale
    tri, _ = _scan_for_triangle(grid, target, tol)
    if tri is None:
        # target sits on a degenerate image edge: nudge once and rescan
        shifted = (target[0] + tol, target[1] + tol)
        tri, _ = _scan_for_triangle(grid, shifted, tol)
        if tri is None:
            raise NumericalDegeneracy(
                f"no non-degenerate triangle image contains {target}"
            )
    best_node = None
    best_dist = math.inf
    for node in sorted(tri):
        v = grid.at(*node)
        d = math.hypot(v[0] - target[0], v[1] - target[1])
        if d < best_dist - 1e-15:
            best_node = node
            best_dist = d
    return best_node, best_dist


@dataclass
class HalveReport:
    """Outcome of the halving pipeline on one string pair."""

    nx: int
    ny: int
    target: Pair
    winding: int
    status: str  # ok | not_covered
    alpha: int | None
    beta: int | None
    achieved: Pair | None
    residual: float | None
    lipschitz_declared: float
    lipschitz_measured: float

    def to_json_dict(self) -> dict:
        return {
            "nx": self.nx,
            "ny": self.ny,
            "target": list(self.target),
            "winding": self.winding,
            "status": self.status,
            "alpha": self.alpha,
            "beta": self.beta,
            "achieved": list(self.achieved) if self.achieved else None,
            "residual": self.residual,
            "lipschitz": {
                "declared": self.lipschitz_declared,
                "measured_max": self.lipschitz_measured,
                "violated": self.lipschitz_measured > self.lipschitz_declared,
            },
        }


def halve(x: bytes, y: bytes, est: ComplexityEstimator) -> HalveReport:
    """Aim for half of est(.|empty) on both strings; report what was found.

    Best-effort empirical pipeline: the result is a statement about the
    estimator's grid, not about true description complexity.
    """
    grid = build_grid(x, y, est)
    target = (est.est(x, b"") / 2.0, est.est(y, b"") / 2.0)
    measured = measured_lipschitz(grid)
    winding = winding_number(grid, target)
    alpha = beta = achieved = residual = None
    if winding != 0:
        (alpha, beta), residual = find_preimage(grid, target)
        achieved = grid.at(alpha, beta)
    return HalveReport(
        nx=len(x),
        ny=len(y),
        target=target,
        winding=winding,
        status="ok" if winding != 0 else "not_covered",
        alpha=alpha,
        beta=beta,
        achieved=achieved,
        residual=residual,
        lipschitz_declared=est.lipschitz_bound,
        lipschitz_measured=measured,
    )
