import faulthandler
import math
import os
import random
import sys
import threading
import tracemalloc
import zlib

import pytest

import oracles
from skalab import halving_walk
from skalab.errors import (
    EstimatorFailure,
    NotCovered,
    OutOfDomain,
    TargetOnBoundary,
    TooLarge,
)
from skalab.halving_walk import (
    HALVE_MAX_WORK,
    HALVE_MAX_ZLIB_BYTES,
    CompressionEstimator,
    ComplexityEstimator,
    GridMap,
    PrefixGapEstimator,
    RampEstimator,
    boundary_polyline,
    build_grid,
    find_preimage,
    get_estimator,
    grid_columns,
    halve,
    measured_lipschitz,
    pair_condition,
    pl_extend,
    winding_number,
)


def grid_from_fn(width, height, fn):
    """Directly-built grid (topology fixtures may use negative values)."""
    values = [[fn(i, j) for j in range(height + 1)] for i in range(width + 1)]
    return GridMap(width, height, values)


def identity_grid(width=8, height=8):
    return grid_from_fn(width, height, lambda i, j: (float(i), float(j)))


class AffineEstimator(ComplexityEstimator):
    """v1 = c1 . (alpha, beta, 1), v2 = c2 . (alpha, beta, 1), clipped at 0."""

    lipschitz_bound = 2.0

    def __init__(self, x, y, c1, c2):
        self.x = x
        self.y = y
        self.c1 = c1
        self.c2 = c2

    def est(self, target, condition):
        a_part, b_part = oracles.split_condition(condition)
        alpha, beta = len(a_part), len(b_part)
        c = self.c1 if target == self.x else self.c2
        return max(0.0, c[0] * alpha + c[1] * beta + c[2])


class SymmetricEstimator(ComplexityEstimator):
    """Depends only on alpha + beta, so both components agree."""

    lipschitz_bound = 1.0

    def __init__(self, m):
        self.m = m

    def est(self, target, condition):
        a_part, b_part = oracles.split_condition(condition)
        return float(max(0, 2 * self.m - len(a_part) - len(b_part)))


class TestConditionEncoding:
    def test_round_trip(self):
        for a, b in ((b"", b""), (b"ab", b""), (b"", b"xyz"), (b"abc", b"de")):
            assert oracles.split_condition(pair_condition(a, b)) == (a, b)

    def test_empty_condition_splits_to_empties(self):
        assert oracles.split_condition(b"") == (b"", b"")

    def test_prefix_pairs_unambiguous(self):
        assert pair_condition(b"ab", b"c") != pair_condition(b"a", b"bc")


class TestLengthOnlyEstimators:
    """`ramp` and `prefix-gap` give the `max` closed forms of `oracles` on
    (alpha, beta) pairs and on the byte conditions they encode, past the
    lengths where the value floors at 0, and raise the same errors."""

    CASES = [(RampEstimator, oracles.ramp_max), (PrefixGapEstimator, oracles.prefix_gap_max)]

    @pytest.mark.parametrize("cls, reference", CASES)
    def test_matches_closed_form(self, cls, reference):
        rng = random.Random(f"length-only:{cls.__name__}")
        pairs = [oracles.random_halve_input(rng, max_len=6) for _ in range(12)] + [(b"ab", b"ab")]
        for x, y in pairs:
            est = cls(x, y)
            for alpha in range(2 * len(x) + len(y) + 3):
                for beta in range(2 * len(y) + len(x) + 3):
                    condition = pair_condition(bytes(alpha), bytes(beta))
                    for target in (x, y):
                        want = reference(x, y, target, alpha, beta)
                        got = est.est(target, (alpha, beta))
                        assert type(got) is float and got == want and math.copysign(1.0, got) == 1.0
                        assert est.est(target, condition) == want

    @pytest.mark.parametrize("cls, reference", CASES)
    def test_same_errors(self, cls, reference):
        est = cls(b"ab", b"cd")
        with pytest.raises(ValueError, match="only evaluates its two bound strings"):
            est.est(b"other", (0, 0))
        with pytest.raises(ValueError, match="only evaluates its two bound strings"):
            reference(b"ab", b"cd", b"other", 0, 0)
        with pytest.raises(ValueError, match="too short"):
            est.est(b"ab", b"\x00\x00")
        with pytest.raises(ValueError, match="exceeds condition body"):
            est.est(b"ab", b"\x00\x00\x00\x09ab")
        assert est.est(b"ab", b"") == reference(b"ab", b"cd", b"ab", 0, 0)


class TestBuildGrid:
    def test_prefix_gap_is_linear_ramp(self):
        x, y = b"abcdef", b"wxyz"
        grid = build_grid(x, y, PrefixGapEstimator(x, y))
        for i in range(7):
            for j in range(5):
                assert grid.at(i, j) == (6.0 - i, 4.0 - j)

    def test_corner_has_full_condition(self):
        x, y = b"abcd", b"efg"
        est = PrefixGapEstimator(x, y)
        grid = build_grid(x, y, est)
        z_full = pair_condition(x, y)
        assert grid.at(4, 3) == (est.est(x, z_full), est.est(y, z_full))

    def test_equal_strings_with_symmetric_estimator(self):
        x = b"same-bytes"
        grid = build_grid(x, x, SymmetricEstimator(len(x)))
        for i in range(len(x) + 1):
            for j in range(len(x) + 1):
                v = grid.at(i, j)
                w = grid.at(j, i)
                assert v == (w[1], w[0]) == (w[0], w[1])

    def test_estimator_failure_carries_node(self):
        class Broken(ComplexityEstimator):
            def est(self, target, condition):
                raise RuntimeError("boom")

        with pytest.raises(EstimatorFailure, match=r"\(0, 0\)"):
            build_grid(b"ab", b"cd", Broken())

    def test_negative_values_rejected(self):
        class Negative(ComplexityEstimator):
            def est(self, target, condition):
                return -1.0

        with pytest.raises(EstimatorFailure):
            build_grid(b"ab", b"cd", Negative())


class TestPlExtend:
    def test_integer_nodes(self):
        grid = identity_grid()
        for i in range(9):
            for j in range(9):
                assert pl_extend(grid, (float(i), float(j))) == (float(i), float(j))

    def test_diagonal_midpoint_is_average(self):
        rng = random.Random(1)
        grid = grid_from_fn(4, 4, lambda i, j: (rng.uniform(0, 9), rng.uniform(0, 9)))
        for i in range(4):
            for j in range(4):
                a = grid.at(i, j)
                c = grid.at(i + 1, j + 1)
                mid = pl_extend(grid, (i + 0.5, j + 0.5))
                assert mid[0] == pytest.approx((a[0] + c[0]) / 2)
                assert mid[1] == pytest.approx((a[1] + c[1]) / 2)

    def test_reproduces_affine_maps_exactly(self):
        # integer affine data at dyadic query points: float arithmetic is exact
        grid = grid_from_fn(6, 6, lambda i, j: (1.0 * i + 2.0 * j + 3.0, 3.0 * i - 1.0 * j))
        rng = random.Random(2)
        for _ in range(100):
            a = rng.randrange(0, 6 * 64) / 64.0
            b = rng.randrange(0, 6 * 64) / 64.0
            v = pl_extend(grid, (a, b))
            assert v == (1.0 * a + 2.0 * b + 3.0, 3.0 * a - 1.0 * b)

    def test_continuity_across_shared_edges(self):
        rng = random.Random(3)
        grid = grid_from_fn(5, 5, lambda i, j: (rng.uniform(0, 50), rng.uniform(0, 50)))
        scale = 50.0
        for _ in range(300):
            # points on interior cell borders and diagonals, probed from both sides
            i = rng.randrange(1, 5)
            t = rng.uniform(0.05, 0.95)
            eps = 1e-12
            for pt_pair in (
                ((i - eps, t + 1.0), (i + eps, t + 1.0)),  # vertical edge
                ((t + 1.0, i - eps), (t + 1.0, i + eps)),  # horizontal edge
                ((i - 1 + t - eps, i - 1 + t), (i - 1 + t + eps, i - 1 + t)),  # diagonal
            ):
                va = pl_extend(grid, pt_pair[0])
                vb = pl_extend(grid, pt_pair[1])
                assert abs(va[0] - vb[0]) <= 1e-9 * scale
                assert abs(va[1] - vb[1]) <= 1e-9 * scale

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            pl_extend(identity_grid(), (9.5, 1.0))


class TestWindingNumber:
    def test_identity_center(self):
        assert winding_number(identity_grid(), (4.0, 4.0)) == 1

    def test_target_outside_bounding_box(self):
        assert winding_number(identity_grid(), (20.0, 4.0)) == 0

    def test_reflected_map(self):
        # coordinate swap reverses orientation: winding -1 around the origin
        grid = grid_from_fn(8, 8, lambda i, j: (float(j - 4), float(i - 4)))
        assert winding_number(grid, (0.0, 0.0)) == -1

    def test_point_reflection_golden(self):
        # (alpha, beta) -> (-alpha, -beta) about the center is a rotation:
        # orientation is preserved; golden-pinned +1
        grid = grid_from_fn(8, 8, lambda i, j: (float(-(i - 4)), float(-(j - 4))))
        assert winding_number(grid, (0.0, 0.0)) == 1

    def test_target_on_boundary(self):
        with pytest.raises(TargetOnBoundary):
            winding_number(identity_grid(), (4.0, 0.0))

    def test_target_next_to_boundary_is_not_on_it(self):
        # only a target on a boundary segment raises, however near it lies
        grid = identity_grid()
        assert winding_number(grid, (4.0, 5e-324)) == 1
        assert winding_number(grid, (4.0, -5e-324)) == 0
        assert winding_number(grid, (math.nextafter(8.0, 0.0), 4.0)) == 1

    def test_translation_invariance(self):
        rng = random.Random(4)
        base = grid_from_fn(6, 6, lambda i, j: (2.0 * i - j, i + j))
        target = (3.7, 5.1)
        w0 = winding_number(base, target)
        for _ in range(10):
            dx, dy = rng.uniform(-40, 40), rng.uniform(-40, 40)
            shifted = grid_from_fn(
                6, 6, lambda i, j: (2.0 * i - j + dx, i + j + dy)
            )
            assert winding_number(shifted, (target[0] + dx, target[1] + dy)) == w0


class TestFindPreimage:
    def test_identity_nearest_node(self):
        node, residual = find_preimage(identity_grid(), (3.4, 7.6))
        assert node == (3, 8)
        assert residual == pytest.approx(math.hypot(0.4, 0.4))

    def test_affine_matches_independent_linear_solve(self):
        # f(alpha, beta) = (A - alpha - beta/2, B - beta - alpha/2)
        A = B = 16.0
        grid = grid_from_fn(
            12, 12, lambda i, j: (A - i - j / 2.0, B - j - i / 2.0)
        )
        target = (6.0, 5.0)
        # independent 2x2 solve: -a - b/2 = t0 - A; -a/2 - b = t1 - B
        det = 1.0 - 0.25
        rhs0, rhs1 = target[0] - A, target[1] - B
        exact_a = (-rhs0 + 0.5 * rhs1) / det
        exact_b = (0.5 * rhs0 - rhs1) / det
        node, residual = find_preimage(grid, target)
        assert abs(node[0] - exact_a) <= 1.0
        assert abs(node[1] - exact_b) <= 1.0
        # residual bounded by the map norm times the node offset
        offset = math.hypot(node[0] - exact_a, node[1] - exact_b)
        assert residual <= 1.5 * offset + 1e-12

    def test_not_covered(self):
        with pytest.raises(NotCovered):
            find_preimage(identity_grid(), (20.0, 4.0))

    def test_containment_is_exact(self):
        # the lower triangle (0,0),(1,0),(1,1) and the upper one share the
        # diagonal image from (0, 0) to (10, 10); a target on it is in the
        # lower one, the first scanned, and its vertex (1, 0) is nearest
        values = [[(0.0, 0.0), (-50.0, 60.0)], [(5.5, 4.5), (10.0, 10.0)]]
        grid = GridMap(1, 1, values)
        assert find_preimage(grid, (5.0, 5.0))[0] == (1, 0)
        # a barycentric 2e-10, or one ulp, off the diagonal is in the upper
        # one only; a tolerance of 1e-9 would still take the lower one
        assert find_preimage(grid, (5.0 - 1e-10, 5.0 + 1e-10))[0] == (0, 0)
        assert find_preimage(grid, (5.0, math.nextafter(5.0, 6.0)))[0] == (1, 1)

    def test_residual_bounded_by_triangle_diameter(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(20):
            grid = grid_from_fn(
                5, 5, lambda i, j: (i + rng.uniform(-0.2, 0.2), j + rng.uniform(-0.2, 0.2))
            )
            target = (2.5 + rng.uniform(-1, 1), 2.5 + rng.uniform(-1, 1))
            try:
                if winding_number(grid, target) == 0:
                    continue
            except TargetOnBoundary:
                continue
            _, residual = find_preimage(grid, target)
            hits += 1
            # nearest vertex of the covering triangle is within its image diameter
            assert residual <= 2.0 * (1.4 + 1e-9)
        assert hits > 0


class TestHalve:
    def test_ramp_reaches_half_within_two_lipschitz(self):
        m = 32
        x = bytes(range(m))
        y = bytes(range(m, 2 * m))
        report = halve(x, y, RampEstimator(x, y))
        assert report.status == "ok"
        assert report.winding == 1
        assert report.target == (float(m), float(m))
        lam = report.lipschitz_measured
        assert lam == 1.0
        assert abs(report.achieved[0] - m) <= 2 * lam
        assert abs(report.achieved[1] - m) <= 2 * lam
        # closed-form preimage of the unclipped linear system is (2m/3, 2m/3)
        assert abs(report.alpha - 2 * m / 3) <= 1.0
        assert abs(report.beta - 2 * m / 3) <= 1.0

    def test_equal_strings_degenerate_onto_diagonal(self):
        # with x == y a deterministic estimator yields v1 == v2 at every node,
        # so the image collapses onto the diagonal and the diagonal target
        # sits on the boundary image
        x = b"0123456789abcdef"
        with pytest.raises(TargetOnBoundary):
            halve(x, x, SymmetricEstimator(len(x)))

    def test_diagonal_target_symmetric_result(self):
        # mirror-symmetric estimator on equal-length strings: the target is on
        # the diagonal and the returned node is symmetric up to tie-break
        m = 24
        x = bytes(range(m))
        y = bytes(range(m, 2 * m))
        report = halve(x, y, RampEstimator(x, y))
        assert report.target[0] == report.target[1]
        assert abs(report.alpha - report.beta) <= 1

    def test_not_covered_surfaces_in_report(self):
        # constant map: the boundary image is a point far from the target
        class Constant(ComplexityEstimator):
            lipschitz_bound = 0.0

            def est(self, target, condition):
                return 5.0

        x, y = b"abcd", b"efgh"
        with pytest.raises(TargetOnBoundary):
            # target (2.5, 2.5) vs image {(5, 5)}: the degenerate boundary
            # is still scanned first and the target misses it
            grid = build_grid(x, y, Constant())
            winding_number(grid, (5.0, 5.0))
        report = halve(x, y, Constant())
        assert report.status == "not_covered"
        assert report.winding == 0
        assert report.alpha is None

    def test_zlib_corpus_golden(self):
        rnd = random.Random(7)
        shared = bytes(rnd.randrange(256) for _ in range(24))
        x = bytes(rnd.randrange(256) for _ in range(20)) + shared
        y = bytes(rnd.randrange(256) for _ in range(20)) + shared
        report = halve(x, y, CompressionEstimator())
        # pinned from a verified run of this exact corpus
        assert report.status == "ok"
        assert report.winding == 1
        assert (report.alpha, report.beta) == (23, 22)
        assert report.lipschitz_measured == 4.0

    def test_lipschitz_violation_reported_not_raised(self):
        class Jumpy(ComplexityEstimator):
            lipschitz_bound = 0.5  # deliberately too small

            def __init__(self, x, y):
                self.inner = PrefixGapEstimator(x, y)

            def est(self, target, condition):
                return self.inner.est(target, condition)

        x, y = bytes(range(16)), bytes(range(16, 32))
        report = halve(x, y, Jumpy(x, y))
        data = report.to_json_dict()
        assert data["lipschitz"]["violated"] is True
        assert data["lipschitz"]["measured_max"] == 1.0


class TestEstimatorRegistry:
    def test_ids(self):
        x, y = b"ab", b"cd"
        assert isinstance(get_estimator("zlib", x, y), CompressionEstimator)
        assert isinstance(get_estimator("ramp", x, y), RampEstimator)
        assert isinstance(get_estimator("prefix-gap", x, y), PrefixGapEstimator)
        with pytest.raises(ValueError):
            get_estimator("nope", x, y)

    def test_compression_estimator_deterministic(self):
        est = CompressionEstimator()
        assert est.est(b"abc", b"xyz") == est.est(b"abc", b"xyz")

    def test_measured_lipschitz_on_ramp(self):
        x, y = bytes(range(8)), bytes(range(8, 16))
        grid = build_grid(x, y, RampEstimator(x, y))
        assert measured_lipschitz(grid) == 1.0

    def test_boundary_polyline_length(self):
        grid = identity_grid(5, 3)
        assert len(boundary_polyline(grid)) == 2 * (5 + 3)


class TestGridStorage:
    def test_at_returns_tuples_and_rejects_outside_nodes(self):
        grid = grid_from_fn(2, 3, lambda i, j: (i, 10 * j))
        assert grid.at(2, 3) == (2.0, 30.0) and type(grid.at(2, 3)) is tuple
        for alpha, beta in ((3, 0), (0, 4), (-1, 0)):
            with pytest.raises(IndexError):
                grid.at(alpha, beta)

    @pytest.mark.parametrize("values", [
        [[(0.0, 0.0)] * 2],
        [[(0.0, 0.0)] * 2, [(0.0, 0.0)]],
        [[(0.0, 0.0)] * 2, [(0.0, math.nan), (0.0, 0.0)]],
        [[(0.0, 0.0)] * 2, [(0.0, 0.0), (math.inf, 0.0)]],
    ])
    def test_constructor_checks(self, values):
        with pytest.raises(ValueError):
            GridMap(1, 1, values)

    def test_build_grid_peak_near_16_bytes_per_node(self):
        # ~200 + 200 ramp input: 40,401 nodes; the tuple grid needs ~112 B each
        x, y = bytes(range(200)), bytes(range(55, 255))
        bound = 2 * 16 * (len(x) + 1) * (len(y) + 1)

        def peak(build):
            tracemalloc.start()
            try:
                grid = build(x, y, RampEstimator(x, y))
                return tracemalloc.get_traced_memory()[1], grid
            finally:
                tracemalloc.stop()

        flat, grid = peak(build_grid)
        tuples, ref = peak(oracles.build_tuple_grid)
        assert grid.at(200, 200) == ref.at(200, 200)
        assert flat <= bound < tuples


class TestSharedCondition:
    @pytest.fixture
    def compressions(self, monkeypatch):
        calls = []

        class CountingZlib:
            def compress(self, data, *args):
                calls.append(bytes(data))
                return zlib.compress(data, *args)

        monkeypatch.setattr(halving_walk, "zlib", CountingZlib())
        return calls

    def test_three_compressions_per_node(self, compressions, monkeypatch):
        # on the serial and the helped path; widths odd, even and 1
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            for nx, ny in ((9, 6), (8, 5), (2, 5), (1, 3)):
                rng = random.Random(11)
                x, y = rng.randbytes(nx), rng.randbytes(ny)
                compressions.clear()
                halve(x, y, CompressionEstimator())
                assert len(compressions) == 3 * (len(x) + 1) * (len(y) + 1) + 3
                assert sum(map(len, compressions)) == CompressionEstimator.halve_bytes(nx, ny)

    def test_repeated_inputs_in_a_prefetched_column(self, compressions):
        # within a column z_0 || y == z_|y|: the memo holds one entry for both,
        # and every input of the column is compressed exactly once
        est, x, y = CompressionEstimator(), b"abc", b"de"
        conditions = [pair_condition(x[:1], y[:beta]) for beta in range(len(y) + 1)]
        est.memo = est.prefetch((x, y), conditions)
        assert len(compressions) == 9 and len(est.memo) == 8
        for z in conditions:
            for target in (x, y):
                assert est.est(target, z) == oracles.FourCompressionEstimator().est(target, z)
        assert len(compressions) == 9

    def test_mutated_condition_is_not_stale(self, compressions):
        est, fresh = CompressionEstimator(), oracles.FourCompressionEstimator()
        cond = bytearray(b"\x00\x00\x00\x02ababab")
        first = est.est(b"abab", cond)
        cond[4:] = b"qzjxwv"
        assert est.est(b"abab", cond) == fresh.est(b"abab", bytes(cond)) != first

    def test_alternating_conditions(self, compressions):
        est, fresh = CompressionEstimator(), oracles.FourCompressionEstimator()
        conds = [b"", b"\x00\x00\x00\x01aaaa", b"\x00\x00\x00\x03xyzxyz"]
        for k in range(12):
            cond, target = conds[k % 3], conds[(k * 2 + 1) % 3] + b"tail"
            assert est.est(target, cond) == fresh.est(target, cond)
        assert len(compressions) == 24  # every condition change recompresses it


class TestHalveBudget:
    def test_every_test_and_benchmark_size_fits(self):
        assert 2 * (768 + 1) * (768 + 1) + 2 <= HALVE_MAX_WORK

    @pytest.mark.parametrize("n, refused", [(998, False), (999, True)])
    def test_refused_before_the_first_estimate(self, n, refused):
        calls = []

        class Recording(ComplexityEstimator):
            def est(self, target, condition):
                calls.append(condition)
                raise RuntimeError("stop")

        with pytest.raises(TooLarge if refused else EstimatorFailure):
            build_grid(bytes(n), bytes(n), Recording())
        assert len(calls) == (0 if refused else 1)


class FailingAt(CompressionEstimator):
    """The zlib estimator, except that `est` raises at one node's condition."""

    def __init__(self, x, y, node):
        super().__init__()
        self.bad = pair_condition(x[:node[0]], y[:node[1]])

    def est(self, target, condition):
        if condition == self.bad:
            raise RuntimeError("boom")
        return super().est(target, condition)


@pytest.fixture
def deadline():
    """Dump every thread's stack and exit if the test hangs."""
    faulthandler.dump_traceback_later(60, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


class TestHelpedPathLifecycle:
    X, Y = bytes(range(7)), b"word text"

    @pytest.mark.parametrize("node", [(0, 3), (2, 9), (1, 0), (5, 4), (7, 9)])
    def test_estimator_failure_matches_serial(self, monkeypatch, deadline, node):
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            before = threading.active_count()
            with pytest.raises(EstimatorFailure) as info:
                build_grid(self.X, self.Y, FailingAt(self.X, self.Y, node))
            assert threading.active_count() == before
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"estimator failed at node {node}: boom"

    @pytest.mark.parametrize("fail_on_call", [1, 2, 4])
    def test_prefetch_failure_falls_back_to_compressing(self, monkeypatch, deadline,
                                                        fail_on_call):
        calls = []

        class BrokenPrefetch(CompressionEstimator):
            def prefetch(self, targets, conditions):
                calls.append(len(conditions))
                if len(calls) == fail_on_call:
                    raise RuntimeError("prefetch down")
                return super().prefetch(targets, conditions)

        unhandled = []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        before = threading.active_count()
        grid = build_grid(self.X, self.Y, BrokenPrefetch())
        assert threading.active_count() == before
        assert len(calls) == fail_on_call  # the helper stopped at the failure
        assert unhandled == []  # and printed no traceback
        ref = oracles.build_tuple_grid(self.X, self.Y, oracles.FourCompressionEstimator())
        assert oracles.grid_nodes(grid) == oracles.grid_nodes(ref)

    def test_est_runs_on_the_calling_thread_only(self, grid_path):
        idents = set()

        class Recording(CompressionEstimator):
            def est(self, target, condition):
                idents.add(threading.get_ident())
                return super().est(target, condition)

        est = Recording()
        halve(self.X, self.Y, est)
        assert idents == {threading.get_ident()}
        assert est.memo == {}
        assert bool(grid_path[1]) == (grid_path[0] == "helped")

    def test_switch_heavy_concurrent_builds_match_oracle(self, monkeypatch, deadline):
        # three callers, each with its own helper, on a tiny switch interval
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = random.Random(23)
        cases = [(rng.randbytes(nx), oracles.word_text(rng, 6)) for nx in (5, 6, 9)]
        ref = oracles.FourCompressionEstimator()
        want = [oracles.grid_nodes(oracles.build_tuple_grid(x, y, ref)) for x, y in cases]
        got = [None] * len(cases)

        def run(i):
            got[i] = oracles.grid_nodes(build_grid(*cases[i], CompressionEstimator()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want


class TestMemoSafety:
    def test_level_change_after_prefetch_reads_fresh_lengths(self):
        rng = random.Random(3)
        target = oracles.word_text(rng, 120)
        z = pair_condition(oracles.word_text(rng, 200), b"")
        est = CompressionEstimator()
        est.memo = est.prefetch((target,), [z])
        est.level = 1
        fresh = oracles.FourCompressionEstimator(level=1).est(target, z)
        assert est.est(target, z) == fresh != oracles.FourCompressionEstimator().est(target, z)

    def test_memo_is_used_only_at_its_level(self):
        z, target = pair_condition(b"ab", b"c"), b"tail"
        est = CompressionEstimator()
        est.memo = {z: (9, 1000), z + target: (9, 1003)}
        assert est.est(target, z) == 3.0
        est.level = 1
        assert est.est(target, z) == oracles.FourCompressionEstimator(level=1).est(target, z)

    def test_bytearray_condition_is_never_hashed(self):
        looked_up = []

        class RecordingMemo(dict):
            def get(self, key, default=None):
                looked_up.append(type(key))
                return super().get(key, default)

        est, target = CompressionEstimator(), b"tail"
        cond = bytearray(pair_condition(b"ab", b"c"))
        est.memo = RecordingMemo(est.prefetch((target,), [bytes(cond)]))
        assert est.est(target, cond) == oracles.FourCompressionEstimator().est(target, bytes(cond))
        assert looked_up == [bytes]  # C(z) only: the bytearray z || target is compressed
        cond[4:] = b"xyz"
        assert est.est(target, cond) == oracles.FourCompressionEstimator().est(target, bytes(cond))


class TestZlibByteBudget:
    def test_every_test_and_benchmark_size_fits(self):
        assert CompressionEstimator.halve_bytes(256, 256) == 85_335_820 <= HALVE_MAX_ZLIB_BYTES

    @pytest.mark.parametrize("nx, ny, refused", [
        (269, 269, False), (270, 270, True), (1, 4468, False), (1, 4469, True), (998, 998, True),
    ])
    def test_refused_before_the_first_estimate(self, monkeypatch, nx, ny, refused):
        calls, helpers = [], []

        def no_work(self, *args):
            calls.append(args)
            raise RuntimeError("stop")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(CompressionEstimator, "est", no_work)
        monkeypatch.setattr(CompressionEstimator, "prefetch", no_work)
        monkeypatch.setattr(halving_walk, "_OddColumnPrefetch",
                            lambda *args: helpers.append(args) or _NoHelper())
        assert (CompressionEstimator.halve_bytes(nx, ny) > HALVE_MAX_ZLIB_BYTES) == refused
        with pytest.raises(TooLarge if refused else EstimatorFailure) as info:
            build_grid(bytes(nx), bytes(ny), CompressionEstimator())
        assert len(calls) == len(helpers) == (0 if refused else 1)
        assert ("zlib budget" in str(info.value)) == refused


class _NoHelper:
    def install(self, alpha):
        pass

    def close(self):
        pass


def _lengths(condition):
    """(alpha, beta) of a condition passed as lengths or as a pair's bytes."""
    if type(condition) is tuple:
        return condition
    return tuple(map(len, oracles.split_condition(condition)))


class DyadicRamp(ComplexityEstimator):
    """The ramp plus 2**-(alpha+1) on v1: each column needs one more bit of
    scale than the one before it, so every column pair of the scan mixes
    two scales."""

    lipschitz_bound = 1.0
    lengths_only = True

    def __init__(self, x, y):
        self.ramp = RampEstimator(x, y)
        self.x = x

    def est(self, target, condition):
        alpha, beta = _lengths(condition)
        value = self.ramp.est(target, (alpha, beta))
        return value + 2.0 ** -(alpha + 1) if target == self.x else value


class LastColumnStep(ComplexityEstimator):
    """v1 = 2 on every column but the last, where it is 0; v2 = 2(|y| - beta).
    Every earlier column pair has a zero-area image, so the first triangle
    that holds the target (1, |y|) lies in the last column pair."""

    lipschitz_bound = 2.0
    lengths_only = True

    def __init__(self, x, y):
        self.x, self.y = x, y

    def est(self, target, condition):
        alpha, beta = _lengths(condition)
        if target == self.x:
            return 0.0 if alpha == len(self.x) else 2.0
        return 2.0 * (len(self.y) - beta)


def _sweep_outcome(fn, x, y, est):
    try:
        return fn(x, y, est).to_json_dict()
    except (NotCovered, TargetOnBoundary) as exc:
        return type(exc).__name__, str(exc)


# estimator id -> (factory for `halve`, factory for the rational oracle)
SWEEP_ESTIMATORS = {
    "zlib": (lambda x, y: CompressionEstimator(), lambda x, y: oracles.FourCompressionEstimator()),
    "ramp": (RampEstimator, RampEstimator),
    "prefix-gap": (PrefixGapEstimator, PrefixGapEstimator),
}


class TestSweep:
    """`halve`'s one column sweep against the stored-grid pipeline
    (`oracles.halve_grid`) and the exact rational one (`oracles.halve_tuples`
    with `find_preimage_fraction`)."""

    @staticmethod
    def agree(x, y, make, ref=None):
        got = _sweep_outcome(halve, x, y, make(x, y))
        assert got == _sweep_outcome(oracles.halve_grid, x, y, make(x, y))
        exact = _sweep_outcome(lambda *a: oracles.halve_tuples(*a, exact=True), x, y, (ref or make)(x, y))
        assert got == exact
        return got

    @pytest.mark.parametrize("estimator", SWEEP_ESTIMATORS)
    def test_matches_grid_and_fractions_on_random_pairs(self, estimator):
        rng = random.Random(f"sweep:{estimator}")
        outcomes = [self.agree(*oracles.random_halve_input(rng, max_len=12), *SWEEP_ESTIMATORS[estimator])
                    for _ in range(40)]
        statuses = {o[0] if isinstance(o, tuple) else o["status"] for o in outcomes}
        assert "ok" in statuses and len(statuses) >= 2

    @pytest.mark.parametrize("x, y, estimator, status", [
        (b"plane line flag", b"plane line flag", "zlib", "TargetOnBoundary"),  # image on the diagonal
        (b"abcd", b"abcd", "ramp", "TargetOnBoundary"),
        (b"\xd2\xad", b"rd\x7f", "zlib", "not_covered"),  # the image misses the target
    ])
    def test_equal_strings_not_covered_and_on_boundary(self, x, y, estimator, status):
        got = self.agree(x, y, *SWEEP_ESTIMATORS[estimator])
        assert (got[0] if isinstance(got, tuple) else got["status"]) == status

    def test_exponent_growing_column_by_column(self):
        x, y = bytes(range(9)), bytes(range(20, 27))
        est = DyadicRamp(x, y)
        columns = list(grid_columns(x, y, est))
        exponents = [halving_walk._exponent(v1 + v2) for v1, v2 in columns]
        assert exponents == sorted(set(exponents))  # grows at every column
        report = self.agree(x, y, DyadicRamp)
        assert report["status"] == "ok" and report["alpha"] > 1

    def test_triangle_in_the_last_column_pair(self):
        x, y = bytes(7), bytes(5)
        report = self.agree(x, y, LastColumnStep)
        assert report["status"] == "ok" and report["target"] == [1.0, 5.0]
        assert report["alpha"] >= len(x) - 1


class TestSweepLifecycle:
    @pytest.mark.parametrize("n, estimator, message", [
        (999, RampEstimator, "halve budget"),
        (999, PrefixGapEstimator, "halve budget"),
        (270, lambda x, y: CompressionEstimator(), "zlib budget"),
    ])
    def test_refused_halve_makes_no_estimate(self, monkeypatch, n, estimator, message):
        calls = []

        def no_work(self, *args):
            calls.append(args)
            raise RuntimeError("stop")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for cls in (CompressionEstimator, RampEstimator, PrefixGapEstimator):
            monkeypatch.setattr(cls, "est", no_work)
        monkeypatch.setattr(CompressionEstimator, "prefetch", no_work)
        x, y = bytes(n), bytes(n)
        with pytest.raises(TooLarge, match=message):
            halve(x, y, estimator(x, y))
        assert calls == []

    @pytest.mark.parametrize("node", [(0, 0), (3, 2), (7, 9)])
    def test_helper_joined_when_an_estimate_fails(self, monkeypatch, deadline, node):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        x, y = bytes(range(7)), b"word text"
        before = threading.active_count()
        with pytest.raises(EstimatorFailure, match=rf"node \({node[0]}, {node[1]}\): boom"):
            halve(x, y, FailingAt(x, y, node))
        assert threading.active_count() == before

    def test_helper_joined_when_the_target_is_on_the_boundary(self, grid_path, deadline):
        path, prefetch_threads = grid_path
        before = threading.active_count()
        with pytest.raises(TargetOnBoundary):
            halve(b"plane line flag", b"plane line flag", CompressionEstimator())
        assert threading.active_count() == before
        assert bool(prefetch_threads) == (path == "helped")

    def test_helper_joined_when_a_sweep_step_raises(self, monkeypatch, deadline):
        calls = []
        add = halving_walk._Lipschitz.add

        def failing_add(self, v1, v2):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("step down")
            return add(self, v1, v2)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(halving_walk._Lipschitz, "add", failing_add)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step down") as info:
            halve(bytes(range(9)), b"word text", CompressionEstimator())
        assert info.traceback  # the traceback keeps halve's frame alive
        assert threading.active_count() == before

    def test_target_failure_is_an_estimator_failure(self):
        # the target is estimated first, so an estimator that always fails
        # fails there, before the helper or the grid starts
        class Broken(ComplexityEstimator):
            def est(self, target, condition):
                raise RuntimeError("boom")

        with pytest.raises(EstimatorFailure, match="at the target: boom"):
            halve(b"ab", b"cd", Broken())

    def test_closing_the_columns_early_joins_the_helper(self, monkeypatch, deadline):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        est = CompressionEstimator()
        before = threading.active_count()
        columns = grid_columns(bytes(range(9)), b"word text", est)
        next(columns)
        assert threading.active_count() == before + 1
        columns.close()
        assert threading.active_count() == before and est.memo == {}

    def test_peak_far_below_the_stored_grid(self):
        x, y = bytes(range(200)) * 2, bytes(range(55, 255)) * 2
        grid_bytes = 16 * (len(x) + 1) * (len(y) + 1)
        tracemalloc.start()
        try:
            report = halve(x, y, RampEstimator(x, y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "ok"
        assert peak < grid_bytes / 8
