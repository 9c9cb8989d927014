"""Prefix-grid maps, piecewise-linear extension, winding-number preimage.

For two byte strings x, y and a pluggable conditional-complexity estimator,
the grid assigns to each integer node (alpha, beta) the value pair

    ( est(x | <x[:alpha], y[:beta]>),  est(y | <x[:alpha], y[:beta]>) )

with the condition encoded as a length-prefixed pair so prefix splits are
unambiguous.  An estimator that reads only the two prefix lengths sets
`lengths_only` and is passed the pair (alpha, beta) instead.  Each unit
cell is split along the (i,j)->(i+1,j+1) diagonal and the map is extended
barycentrically, making the boundary image a polyline whose winding number
around a target is counted by the crossing rule (Hormann and Agathos 2001;
domain boundary traversed counterclockwise).
Nonzero winding guarantees a triangle whose image contains the target; the
returned node is the vertex of that triangle whose image lies nearest it.

The predicates are exact: finite floats are dyadic rationals, so the values
a predicate reads and the target are scaled by a power of two to integers,
and each test is the sign of an integer cross product (Shewchuk 1997).  The
target is on the boundary only when it lies on a boundary segment, and in a
non-degenerate triangle image when it lies inside it or on its edges.

True conditional complexity is uncomputable, so estimators are injected.
The shipped default backs the estimate with a general-purpose compressor;
its Lipschitz constant is measured from the grid, never assumed, and
`halve` makes no claim beyond the reported numbers.

`halve` reads the grid in one sweep over its columns, alpha = 0 .. |x|,
holding two at a time: it keeps the Lipschitz maximum, the four boundary
edges and the first triangle whose image holds the target, and counts the
winding number from the stored boundary at the end, in O(|x| + |y|) memory.
`build_grid` stores the same columns as flat float arrays, 16 B per node;
the queries on a stored grid (`measured_lipschitz`, `winding_number`,
`find_preimage`) run the same per-column steps over its columns.
`HALVE_MAX_WORK` bounds the estimator calls `halve` accepts,
2(|x|+1)(|y|+1) + 2, and `HALVE_MAX_ZLIB_BYTES` the bytes the `zlib`
estimator compresses, `CompressionEstimator.halve_bytes`.

An estimator with a `prefetch` method (the `zlib` one) gets one helper
thread when more than one CPU is available: it precomputes the compressed
lengths of the odd columns while the calling thread computes the even ones.
Every estimate is still made by `est` on the calling thread, in the same
order, from lengths that depend only on their input bytes, so the grid does
not depend on scheduling.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import zlib
from array import array
from contextlib import closing
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, mul, sub

from .errors import (
    EstimatorFailure,
    NotCovered,
    OutOfDomain,
    TargetOnBoundary,
    TooLarge,
)

HALVE_MAX_WORK = 2_000_000
HALVE_MAX_ZLIB_BYTES = 100_000_000

Pair = tuple[float, float]


def pair_condition(x_prefix: bytes, y_prefix: bytes) -> bytes:
    """Length-prefixed pair: 4-byte big-endian len(first part), then parts.

    The one encoding of a grid node's condition: the producer and the
    prefetch helper build each column's head as pair_condition(x[:alpha], b"").
    """
    return struct.pack(">I", len(x_prefix)) + x_prefix + y_prefix


def _split_lengths(condition: bytes) -> tuple[int, int]:
    """Lengths of the two parts of a length-prefixed pair, without slicing."""
    if condition == b"":
        return 0, 0
    if len(condition) < 4:
        raise ValueError("condition too short for a length-prefixed pair")
    (n,) = struct.unpack_from(">I", condition)
    rest = len(condition) - 4
    if n > rest:
        raise ValueError("length prefix exceeds condition body")
    return n, rest - n


class ComplexityEstimator:
    """Deterministic estimate of conditional description length.

    Subclasses implement est(target, condition) -> non-negative float and
    declare a lipschitz_bound; the declared bound is checked against the
    measured grid increments and any violation is reported, not raised.
    One that reads only the prefix lengths sets `lengths_only`: the grid
    then passes each node's condition as the pair (alpha, beta), not as
    bytes.
    """

    lipschitz_bound: float = float("inf")
    lengths_only: bool = False

    def est(self, target: bytes, condition: bytes) -> float:
        raise NotImplementedError


class CompressionEstimator(ComplexityEstimator):
    """est(a|b) = C(b||a) - C(b) for a deterministic general-purpose compressor.

    C(b) of the last condition is kept, keyed on its exact bytes and the
    level, so the two estimates at one grid node compress the condition once.
    `memo` maps exact bytes to (level, compressed length), as `prefetch`
    returns them; an input found there at the current level is not
    compressed again, and any other input is.
    """

    lipschitz_bound = 16.0

    def __init__(self, level: int = 9):
        self.level = level
        self.memo: dict[bytes, tuple[int, int]] = {}
        self._cached = None  # (condition bytes, level, C(condition))
        # Each compress call allocates and frees ~256 KB of deflate state.
        # Where that lands at the top of a glibc heap, the free top passes
        # the 128 KB trim threshold and every call pays brk calls and page
        # faults.  Freeing one mmap-backed 1 MB block raises the threshold
        # to 2 MB (glibc's dynamic mmap threshold, mallopt(3)); on other
        # allocators this is just a short-lived allocation.
        bytes(1 << 20)

    @staticmethod
    def halve_bytes(nx: int, ny: int) -> int:
        """Bytes `halve` compresses on nx + ny input bytes.

        Each of the N = (nx+1)(ny+1) nodes compresses its condition z once
        and z||x, z||y once each, where |z| = 4 + alpha + beta; the target
        compresses the empty condition, x and y.
        """
        n = (nx + 1) * (ny + 1)
        conditions = 4 * n + (ny + 1) * nx * (nx + 1) // 2 + (nx + 1) * ny * (ny + 1) // 2
        return 3 * conditions + (nx + ny) * n + nx + ny

    def prefetch(self, targets, conditions) -> dict[bytes, tuple[int, int]]:
        """{input: (level, compressed length)} for each condition and each
        condition || target, compressed as `est` would; reads only `level`,
        so it may run on another thread."""
        level = self.level
        lengths = {}
        for z in conditions:
            lengths[z] = (level, len(zlib.compress(z, level)))
            for t in targets:
                joint = z + t
                lengths[joint] = (level, len(zlib.compress(joint, level)))
        return lengths

    def _compressed_length(self, data) -> int:
        hit = self.memo.get(data) if type(data) is bytes else None
        if hit is not None and hit[0] == self.level:
            return hit[1]
        return len(zlib.compress(data, self.level))

    def est(self, target: bytes, condition: bytes) -> float:
        cached = self._cached
        if cached is None or cached[0] != condition or cached[1] != self.level:
            key = bytes(condition)
            cached = self._cached = (key, self.level, self._compressed_length(key))
        joint = self._compressed_length(condition + target)
        return float(max(0, joint - cached[2]))


class RampEstimator(ComplexityEstimator):
    """Synthetic fixture: v1 = max(0, 2|x| - alpha - beta/2) and symmetrically."""

    lipschitz_bound = 1.0
    lengths_only = True

    def __init__(self, x: bytes, y: bytes):
        self.x = x
        self.y = y
        self._twice_x = 2.0 * len(x)
        self._twice_y = 2.0 * len(y)

    def est(self, target: bytes, condition) -> float:
        alpha, beta = condition if type(condition) is tuple else _split_lengths(condition)
        if target == self.x:
            v = self._twice_x - alpha - beta / 2.0
            return v if v > 0.0 else 0.0
        if target == self.y:
            v = self._twice_y - beta - alpha / 2.0
            return v if v > 0.0 else 0.0
        raise ValueError("ramp estimator only evaluates its two bound strings")


class PrefixGapEstimator(ComplexityEstimator):
    """Synthetic fixture: est(x|z) = |x| - (length of x's prefix inside z)."""

    lipschitz_bound = 1.0
    lengths_only = True

    def __init__(self, x: bytes, y: bytes):
        self.x = x
        self.y = y
        self._len_x = float(len(x))
        self._len_y = float(len(y))

    def est(self, target: bytes, condition) -> float:
        alpha, beta = condition if type(condition) is tuple else _split_lengths(condition)
        if target == self.x:
            v = self._len_x - alpha
            return v if v > 0.0 else 0.0
        if target == self.y:
            v = self._len_y - beta
            return v if v > 0.0 else 0.0
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
    """Value pairs on the (|x|+1) x (|y|+1) integer grid.

    The two components live in flat float arrays indexed by
    alpha * (height + 1) + beta: 16 B per node.
    """

    def __init__(self, width: int, height: int, values: list[list[Pair]]):
        if width < 1 or height < 1:
            raise ValueError("grid needs width >= 1 and height >= 1")
        if len(values) != width + 1 or any(len(col) != height + 1 for col in values):
            raise ValueError("values must be indexed [alpha][beta] with full extent")
        first, second = array("d"), array("d")
        for col in values:
            for v1, v2 in col:
                if not (math.isfinite(v1) and math.isfinite(v2)):
                    raise ValueError("grid values must be finite")
                first.append(v1)
                second.append(v2)
        self.width = width
        self.height = height
        self._v1 = first
        self._v2 = second

    @classmethod
    def _from_arrays(cls, width: int, height: int, first: array, second: array) -> GridMap:
        """Wrap already-validated component arrays without copying them."""
        grid = cls.__new__(cls)
        grid.width, grid.height, grid._v1, grid._v2 = width, height, first, second
        return grid

    def at(self, alpha: int, beta: int) -> Pair:
        if not (0 <= alpha <= self.width and 0 <= beta <= self.height):
            raise IndexError(f"node ({alpha}, {beta}) outside the grid")
        k = alpha * (self.height + 1) + beta
        return (self._v1[k], self._v2[k])

    def columns(self):
        """Each column's two components, alpha = 0 .. width, as array copies."""
        stride = self.height + 1
        for start in range(0, len(self._v1), stride):
            yield self._v1[start:start + stride], self._v2[start:start + stride]


class _OddColumnPrefetch:
    """A helper thread that runs `est.prefetch` on the odd columns, in order.

    `install(alpha)` sets `est.memo` for column alpha: {} for an even
    column, else the helper's lengths once they are ready, or {} when the
    helper stopped early.  A semaphore keeps the helper at most two columns
    ahead of `install`, so at most three columns' lengths are held at once.
    `close` stops and joins the helper and empties `est.memo`.
    """

    def __init__(self, x: bytes, y: bytes, est):
        self._x, self._y, self._est = x, y, est
        self._ready = {alpha: threading.Event() for alpha in range(1, len(x) + 1, 2)}
        self._lengths: dict[int, dict] = {}
        self._ahead = threading.Semaphore(2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="halve-prefetch", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        x, y = self._x, self._y
        try:
            for alpha, ready in self._ready.items():
                self._ahead.acquire()
                if self._stop.is_set():
                    return
                head = pair_condition(x[:alpha], b"")
                conditions = [head + y[:beta] for beta in range(len(y) + 1)]
                self._lengths[alpha] = self._est.prefetch((x, y), conditions)
                ready.set()
        except Exception:
            # Prefetching only saves time: without a column's lengths the
            # caller's `est` compresses them itself, to the same values.
            return
        finally:
            for ready in self._ready.values():
                ready.set()

    def install(self, alpha: int) -> None:
        if alpha % 2 == 0:
            self._est.memo = {}
            return
        self._ready[alpha].wait()
        self._ahead.release()
        self._est.memo = self._lengths.pop(alpha, {})

    def close(self) -> None:
        self._stop.set()
        self._ahead.release()
        self._thread.join()
        self._est.memo = {}


def grid_columns(x: bytes, y: bytes, est: ComplexityEstimator):
    """Each grid column's two components, alpha = 0 .. |x|, as float arrays.

    Raises TooLarge at once, before any estimator call, when `halve` on
    (x, y) would exceed `HALVE_MAX_WORK` estimator calls or, for the `zlib`
    estimator, `HALVE_MAX_ZLIB_BYTES` compressed bytes.  The returned
    generator estimates each column as it is read; estimator errors and
    invalid values raise EstimatorFailure with the node coordinates.

    When `est` has `prefetch` and more than one CPU is available, a helper
    thread prefetches the odd columns and each one's lengths are installed
    as `est.memo` while the column is estimated.  The helper is joined when
    the columns run out, when estimating one raises, or when the generator
    is closed, so a caller that stops reading early closes it."""
    if len(x) < 1 or len(y) < 1:
        raise ValueError("both strings must be nonempty")
    work = 2 * (len(x) + 1) * (len(y) + 1) + 2
    if work > HALVE_MAX_WORK:
        raise TooLarge(
            f"halve on {len(x)} + {len(y)} bytes asks for {work} estimator calls; "
            f"the halve budget is {HALVE_MAX_WORK}"
        )
    if isinstance(est, CompressionEstimator):
        fed = est.halve_bytes(len(x), len(y))
        if fed > HALVE_MAX_ZLIB_BYTES:
            raise TooLarge(
                f"halve on {len(x)} + {len(y)} bytes compresses {fed} bytes; "
                f"the zlib budget is {HALVE_MAX_ZLIB_BYTES}"
            )
    return _estimated_columns(x, y, est)


def _estimated_columns(x: bytes, y: bytes, est: ComplexityEstimator):
    stride = len(y) + 1
    estimate = est.est
    lengths_only = getattr(est, "lengths_only", False)
    inf = math.inf
    helper = None
    if hasattr(est, "prefetch") and (os.cpu_count() or 1) > 1:
        helper = _OddColumnPrefetch(x, y, est)
    try:
        for alpha in range(len(x) + 1):
            if helper is not None:
                helper.install(alpha)
            if lengths_only:
                conditions = zip(repeat(alpha), range(stride))
            else:
                head = pair_condition(x[:alpha], b"")
                conditions = (head + y[:beta] for beta in range(stride))
            first = array("d", [0.0]) * stride
            second = array("d", [0.0]) * stride
            for beta, z in enumerate(conditions):
                try:
                    v1 = float(estimate(x, z))
                    v2 = float(estimate(y, z))
                except Exception as exc:
                    raise EstimatorFailure(f"estimator failed at node ({alpha}, {beta}): {exc}") from exc
                if not (0.0 <= v1 < inf and 0.0 <= v2 < inf):  # false for nan
                    raise EstimatorFailure(
                        f"estimator returned invalid value at node ({alpha}, {beta}): ({v1}, {v2})"
                    )
                first[beta] = v1
                second[beta] = v2
            yield first, second
    finally:
        if helper is not None:
            helper.close()


def build_grid(x: bytes, y: bytes, est: ComplexityEstimator) -> GridMap:
    """Evaluate the estimator at every prefix pair and store the grid: the
    columns of `grid_columns`, with its budget checks, errors and helper
    thread, copied into flat arrays."""
    columns = grid_columns(x, y, est)
    stride = len(y) + 1
    first = array("d", [0.0]) * ((len(x) + 1) * stride)
    second = array("d", [0.0]) * len(first)
    with closing(columns):
        for start, (v1, v2) in zip(range(0, len(first), stride), columns):
            first[start:start + stride] = v1
            second[start:start + stride] = v2
    return GridMap._from_arrays(len(x), len(y), first, second)


# -- per-column steps ---------------------------------------------------------
#
# Each step reads the grid one column at a time through `add(v1, v2)`, the
# column's two components as float arrays, and holds at most two columns.
# `halve` feeds them the columns as they are estimated; the queries on a
# stored grid feed them `GridMap.columns()`.

def _feed(columns, *steps):
    """Pass each (v1, v2) column to every step in turn; return the steps."""
    for v1, v2 in columns:
        for step in steps:
            step.add(v1, v2)
    return steps


class _Lipschitz:
    """Max per-component value change across grid-adjacent nodes."""

    def __init__(self):
        self.value = 0.0
        self._held = None

    def add(self, v1, v2) -> None:
        worst = self.value
        for col in (v1, v2):
            worst = max(worst, max(map(abs, map(sub, col[1:], col))))
        if self._held is not None:
            for col, prev in zip((v1, v2), self._held):
                worst = max(worst, max(map(abs, map(sub, col, prev))))
        self.value, self._held = worst, (v1, v2)


class _Boundary:
    """The images of the four boundary edges: the first and last columns,
    and each column's bottom and top node."""

    def __init__(self):
        self._edges = tuple(array("d") for _ in range(4))  # bottom v1, v2; top v1, v2
        self._first = self._last = None

    def add(self, v1, v2) -> None:
        if self._first is None:
            self._first = (v1, v2)
        self._last = (v1, v2)
        for edge, value in zip(self._edges, (v1[0], v2[0], v1[-1], v2[-1])):
            edge.append(value)

    def trace(self) -> tuple[array, array]:
        """The two components of the boundary nodes' images, in counterclockwise order."""
        b1, b2, t1, t2 = self._edges
        (l1, l2), (r1, r2) = self._first, self._last
        w, h = len(b1) - 1, len(l1) - 1
        return (b1[:w] + r1[:h] + t1[w:0:-1] + l1[h:0:-1],
                b2[:w] + r2[:h] + t2[w:0:-1] + l2[h:0:-1])


class _TriangleScan:
    """First triangle with a non-degenerate image holding the target.

    Scan order: cells by (i, j), in each cell the lower triangle
    (i,j), (i+1,j), (i+1,j+1) before the upper (i,j), (i,j+1), (i+1,j+1).
    With the target at the origin, triangle abc contains it iff the edge
    cross products a x b, b x c and c x a share a weak sign.  They sum to
    twice the triangle's signed area, which is then nonzero iff one of them
    is.  Each edge's cross product is computed once.

    Each column, less the target, is scaled by its own 2**k, the least that
    makes the column and the target integers.  Scaling either vector of a
    cross product by a positive factor leaves its sign alone, so columns at
    different scales still compare exactly.  `found` is (nodes, images),
    nodes sorted, once found; later columns are then ignored.
    """

    def __init__(self, target: Pair):
        self._target = [float(t) for t in target]
        self._k_target = _exponent(self._target)
        self._held = None  # (i, v1, v2, xs, ys, up) of the last column read
        self.found = None

    def add(self, v1, v2) -> None:
        if self.found is not None:
            return
        k = _exponent(v2, _exponent(v1, self._k_target))
        ox, oy = _scaled(self._target, k)
        xr, yr = _scaled(v1, k, ox), _scaled(v2, k, oy)
        up_r = list(map(sub, map(mul, xr, yr[1:]), map(mul, yr, xr[1:])))  # (i+1,j) -> (i+1,j+1)
        if self._held is None:
            self._held = (0, v1, v2, xr, yr, up_r)
            return
        i, l1, l2, xl, yl, up_l = self._held
        across = list(map(sub, map(mul, xl, yr), map(mul, yl, xr)))  # (i,j) -> (i+1,j)
        back = list(map(sub, map(mul, xr[1:], yl), map(mul, yr[1:], xl)))  # (i+1,j+1) -> (i,j)
        for j, (a, b, c, d, e) in enumerate(zip(across, up_r, back, up_l, across[1:])):
            if (a >= 0 and b >= 0 and c >= 0 or a <= 0 and b <= 0 and c <= 0) and (a or b or c):
                self.found = (((i, j), (i + 1, j), (i + 1, j + 1)),
                              ((l1[j], l2[j]), (v1[j], v2[j]), (v1[j + 1], v2[j + 1])))
                break
            if (d >= 0 and e >= 0 and c >= 0 or d <= 0 and e <= 0 and c <= 0) and (d or e or c):
                self.found = (((i, j), (i, j + 1), (i + 1, j + 1)),
                              ((l1[j], l2[j]), (l1[j + 1], l2[j + 1]), (v1[j + 1], v2[j + 1])))
                break
        self._held = None if self.found else (i + 1, v1, v2, xr, yr, up_r)


def measured_lipschitz(grid: GridMap) -> float:
    """Max per-component value change across grid-adjacent nodes."""
    (step,) = _feed(grid.columns(), _Lipschitz())
    return step.value


def pl_extend(grid: GridMap, point: Pair) -> Pair:
    """Barycentric value at a real point; exact at integer nodes."""
    a, b = point
    if not (0.0 <= a <= grid.width and 0.0 <= b <= grid.height):
        raise OutOfDomain(f"({a}, {b}) outside [0,{grid.width}] x [0,{grid.height}]")
    i = min(int(math.floor(a)), grid.width - 1)
    j = min(int(math.floor(b)), grid.height - 1)
    da, db = a - i, b - j
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


def boundary_polyline(grid: GridMap) -> list[Pair]:
    """Image of the domain boundary's lattice nodes, counterclockwise: a
    closed polyline, PL-exact."""
    (step,) = _feed(grid.columns(), _Boundary())
    return list(zip(*step.trace()))


def _exponent(values, k: int = 0) -> int:
    """Least k' >= k with value * 2**k' an integer for each of a sequence of finite floats."""
    try:
        if all(map(float.is_integer, map(math.ldexp, values, repeat(k)))):
            return k
    except OverflowError:  # past the float range, and so an integer already
        pass
    return max(k, max(map(itemgetter(1), map(float.as_integer_ratio, values))).bit_length() - 1)


def _scaled(values, k: int, offset: int = 0) -> list[int]:
    """value * 2**k - offset for each value, exactly, where k >= _exponent(values)."""
    try:
        return [n - offset for n in map(int, map(math.ldexp, values, repeat(k)))]
    except OverflowError:
        return [(n << k >> (d.bit_length() - 1)) - offset for n, d in map(float.as_integer_ratio, values)]


def _to_origin(xs, ys, target: Pair):
    """The points (xs[i], ys[i]) less the target, times the least power of
    two that makes them all integers."""
    target = [float(t) for t in target]
    k = _exponent(ys, _exponent(xs, _exponent(target)))
    ox, oy = _scaled(target, k)
    return _scaled(xs, k, ox), _scaled(ys, k, oy)


def _winding(xs, ys, target: Pair) -> int:
    """Signed turns of the closed polyline through the points (xs[i], ys[i])
    around the target, by the crossing rule; raises TargetOnBoundary iff the
    target lies on a segment."""
    xs, ys = _to_origin(xs, ys, target)
    winding = 0
    for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        cross = ax * by - ay * bx
        if cross == 0 and ax * bx + ay * by <= 0:
            raise TargetOnBoundary(f"target {target} lies on the boundary image")
        if ay <= 0 < by and cross > 0:
            winding += 1
        elif by <= 0 < ay and cross < 0:
            winding -= 1
    return winding


def winding_number(grid: GridMap, target: Pair) -> int:
    """Signed turns of the boundary image around the target, by the crossing
    rule; raises TargetOnBoundary iff the target lies on a boundary segment."""
    (step,) = _feed(grid.columns(), _Boundary())
    return _winding(*step.trace(), target)


def _nearest(found, target: Pair):
    """(node, image, residual) of the vertex of a found triangle whose image
    is nearest the target, by exact squared distance and ties to the least
    node."""
    nodes, values = found
    xs, ys = _to_origin([v[0] for v in values], [v[1] for v in values], target)
    squared = [x * x + y * y for x, y in zip(xs, ys)]
    best = squared.index(min(squared))
    value = values[best]
    return nodes[best], value, math.hypot(value[0] - target[0], value[1] - target[1])


def find_preimage(grid: GridMap, target: Pair) -> tuple[tuple[int, int], float]:
    """Integer node whose image is nearest the target, by exact squared
    distance and ties to the least node, among the vertices of the triangle
    that PL-covers it; requires nonzero winding.  Such a triangle exists: the
    map's degree is nonzero at regular values near the target, and triangle
    images are closed."""
    if winding_number(grid, target) == 0:
        raise NotCovered(f"boundary image does not wind around {target}")
    (scan,) = _feed(grid.columns(), _TriangleScan(target))
    node, _, residual = _nearest(scan.found, target)
    return node, residual


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

    One sweep reads the columns of `grid_columns` as they are estimated and
    keeps none past the next; the report equals that of the stored grid's
    `measured_lipschitz`, `winding_number` and `find_preimage`.  The target
    is estimated after the budget checks and before the first grid node, so
    `est` is called 2(|x|+1)(|y|+1) + 2 times on the same inputs as when the
    target came last; only the order differs.
    """
    columns = grid_columns(x, y, est)
    try:
        target = (est.est(x, b"") / 2.0, est.est(y, b"") / 2.0)
    except Exception as exc:
        raise EstimatorFailure(f"estimator failed at the target: {exc}") from exc
    with closing(columns):
        lipschitz, boundary, scan = _feed(columns, _Lipschitz(), _Boundary(), _TriangleScan(target))
    winding = _winding(*boundary.trace(), target)
    alpha = beta = achieved = residual = None
    if winding != 0:
        (alpha, beta), achieved, residual = _nearest(scan.found, target)
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
        lipschitz_measured=lipschitz.value,
    )
