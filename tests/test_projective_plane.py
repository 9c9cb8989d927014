import math
import random

import pytest

import oracles
from skalab import projective_plane
from skalab.errors import ChartInvalid, TooLarge, UnsupportedField, ZeroVector
from skalab.finite_field import FieldSpec, build_field_spec
from skalab.projective_plane import (
    PLANE_MAX_FLAGS,
    ChartCoords,
    Flag,
    ProjLine,
    ProjPoint,
    canonicalize,
    enumerate_plane,
    flag_count,
    flag_to_json,
    from_chart,
    incident,
    sample_flag,
    to_chart,
)

F9 = build_field_spec(3, 2)
F3 = build_field_spec(3, 1)


def worked_flag():
    """The hand-checked PG(2,9) flag used across the protocol tests."""
    one, zero, xi = F9.one(), F9.zero(), F9.xi()
    line = ProjLine((one, F9.elt(1, 2), zero))
    point = ProjPoint((xi, F9.elt(2, 1), one))
    return Flag(line, point)


class TestCanonicalize:
    def test_scale_example(self):
        raw = (F3.zero(), F3.elt(2), F3.one())
        got = canonicalize(raw)
        assert [oracles.decompose(c) for c in got] == [(0, 0), (1, 0), (2, 0)]

    def test_already_canonical(self):
        raw = (F3.one(), F3.zero(), F3.zero())
        assert canonicalize(raw) == raw

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            canonicalize((F3.zero(), F3.zero(), F3.zero()))

    def test_idempotent_and_scale_invariant_exhaustive_q3(self):
        elems = list(F3.elements())
        nonzero = [e for e in elems if not e.is_zero()]
        for c0 in elems:
            for c1 in elems:
                for c2 in elems:
                    if c0.is_zero() and c1.is_zero() and c2.is_zero():
                        continue
                    canon = canonicalize((c0, c1, c2))
                    assert canonicalize(canon) == canon
                    for lam in nonzero:
                        scaled = (lam * c0, lam * c1, lam * c2)
                        assert canonicalize(scaled) == canon

    def test_scale_invariant_sampled_q9(self):
        rng = random.Random(0)
        elems = list(F9.elements())
        nonzero = [e for e in elems if not e.is_zero()]
        for _ in range(200):
            raw = tuple(rng.choice(elems) for _ in range(3))
            if all(c.is_zero() for c in raw):
                continue
            lam = rng.choice(nonzero)
            assert canonicalize(tuple(lam * c for c in raw)) == canonicalize(raw)


class TestIncident:
    def test_axis_pair(self):
        line = ProjLine((F3.one(), F3.zero(), F3.zero()))
        assert incident(line, ProjPoint((F3.zero(), F3.one(), F3.zero())))
        assert not incident(line, ProjPoint((F3.one(), F3.zero(), F3.zero())))

    def test_characteristic_sum(self):
        ones = (F3.one(), F3.one(), F3.one())
        assert incident(ProjLine(ones), ProjPoint(ones))


class TestEnumerate:
    @pytest.mark.parametrize(
        "q,expected",
        [(2, (7, 7, 21)), (3, (13, 13, 52)), (9, (91, 91, 910))],
    )
    def test_counts(self, q, expected):
        assert enumerate_plane(q).counts() == expected

    def test_unsupported(self):
        with pytest.raises(UnsupportedField):
            enumerate_plane(6)

    def test_budget_edge_sizes(self):
        assert flag_count(169) == 4_884_270 <= PLANE_MAX_FLAGS
        assert flag_count(173) == 5_237_922 > PLANE_MAX_FLAGS

    @pytest.mark.parametrize("q", (173, 10007, 10201))
    def test_over_budget_refused_before_any_table(self, q, monkeypatch):
        def no_work(*args):
            raise AssertionError("field or plane work started")

        monkeypatch.setattr(projective_plane, "field_for_size", no_work)
        monkeypatch.setattr(FieldSpec, "tables", no_work)
        with pytest.raises(TooLarge, match="plane budget"):
            enumerate_plane(q)

    def test_sorted_canonical_order(self):
        plane = enumerate_plane(3)
        keys = [oracles.residue_key(p) for p in plane.points]
        assert keys == sorted(keys)
        assert plane.flag_ids == sorted(plane.flag_ids)

    @pytest.mark.parametrize("q", [2, 3, 9])
    def test_plane_axioms(self, q):
        # two distinct points determine one line, and dually
        plane = enumerate_plane(q)
        n = len(plane.points)
        point_lines = [0] * n
        line_points = [0] * n
        for lid, pid in plane.flag_ids:
            point_lines[pid] |= 1 << lid
            line_points[lid] |= 1 << pid
        for i in range(n):
            assert point_lines[i].bit_count() == q + 1
            assert line_points[i].bit_count() == q + 1
            for j in range(i + 1, n):
                assert (point_lines[i] & point_lines[j]).bit_count() == 1
                assert (line_points[i] & line_points[j]).bit_count() == 1

    def test_flags_are_incident(self):
        plane = enumerate_plane(3)
        for i in range(len(plane.flag_ids)):
            flag = plane.flag(i)
            assert incident(flag.line, flag.point)


class TestChart:
    def test_worked_example(self):
        chart = to_chart(worked_flag())
        assert chart.as_tuple() == (1, 2, 0, 1, 2, 1)

    def test_chart_invalid_when_x0_zero(self):
        zero, one = F9.zero(), F9.one()
        line = ProjLine((zero, one, zero))
        point = ProjPoint((zero, zero, one))
        with pytest.raises(ChartInvalid):
            to_chart(Flag(line, point))

    def test_unsupported_on_prime_field(self):
        line = ProjLine((F3.one(), F3.zero(), F3.zero()))
        point = ProjPoint((F3.zero(), F3.one(), F3.zero()))
        with pytest.raises(UnsupportedField):
            to_chart(Flag(line, point))

    def test_round_trip_all_chart_valid_flags_q9(self):
        plane = enumerate_plane(9)
        valid = 0
        for i in range(len(plane.flag_ids)):
            flag = plane.flag(i)
            try:
                chart = to_chart(flag)
            except ChartInvalid:
                continue
            valid += 1
            assert from_chart(chart) == flag
        # q^3 flags fall in the chart; the rest have x0 = 0 or y2 = 0
        assert valid == 729

    def test_from_chart_worked_example(self):
        got = from_chart(ChartCoords(F9, 1, 2, 0, 1, 2, 1))
        assert got == worked_flag()

    def test_from_chart_zero_tuple(self):
        got = from_chart(ChartCoords(F9, 0, 0, 0, 0, 0, 0))
        assert oracles.residue_key(got.line) == (1, 0, 0, 0, 0, 0)
        assert oracles.residue_key(got.point) == (0, 0, 0, 0, 1, 0)

    def test_from_chart_injective_image_is_chart_valid_p3(self):
        images = set()
        for f in range(3):
            for r in range(3):
                for g in range(3):
                    for t in range(3):
                        for h in range(3):
                            for s in range(3):
                                flag = from_chart(ChartCoords(F9, f, r, g, t, h, s))
                                to_chart(flag)  # must not raise
                                images.add(flag)
        assert len(images) == 3**6


class TestSampleFlag:
    def test_deterministic(self):
        assert sample_flag(3, 7) == sample_flag(3, 7)

    def test_incident_q9(self):
        flag = sample_flag(9, 123)
        assert incident(flag.line, flag.point)

    def test_uniformity_q3(self):
        # 52,000 draws, expected 1000 per flag, each within 5 sigma
        plane = enumerate_plane(3)
        counts = [0] * len(plane.flag_ids)
        for seed in range(52_000):
            flag = sample_flag(3, seed)
            lid = plane.line_id[flag.line]
            pid = plane.point_id[flag.point]
            counts[plane.flag_index[(lid, pid)]] += 1
        sigma = math.sqrt(1000 * (51 / 52))
        for c in counts:
            assert abs(c - 1000) <= 5 * sigma


class TestSerialization:
    def test_flag_json_round_trip(self):
        flag = worked_flag()
        data = flag_to_json(flag)
        assert oracles.flag_from_json(F9, data) == flag

    def test_flag_json_accepts_any_representative(self):
        # the reader canonicalizes, so scaled coordinates name the same flag
        data = {"line": ["1", "1+2x", "0"], "point": ["x", "2+x", "1"]}
        assert oracles.flag_from_json(F9, data) == worked_flag()
