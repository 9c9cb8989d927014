import math
import random

import pytest

import oracles
from skalab import projective_plane, subplane_cover
from skalab.errors import SpecMismatch, TooLarge, UnsupportedField
from skalab.finite_field import Elt, build_field_spec, field_for_size
from skalab.incidence_graph import build_plane_graph
from skalab.projective_plane import enumerate_plane, flag_count, incident
from skalab.subplane_cover import (
    COVER_MAX_WORK,
    apply,
    baer_subplane,
    build_cover,
    cover_sample_count,
    cover_with_maps,
    det3,
    flag_transitivity_check,
    random_matrix,
    sample_automorphisms,
)


class TestBaerSubplane:
    def test_q9(self):
        q = baer_subplane(9)
        assert (len(q.left), len(q.right)) == (13, 13)
        assert build_plane_graph(9).induced_edges(q) == 52

    def test_q25(self):
        q = baer_subplane(25)
        assert (len(q.left), len(q.right)) == (31, 31)
        assert build_plane_graph(25).induced_edges(q) == 186

    def test_prime_field_rejected(self):
        with pytest.raises(UnsupportedField):
            baer_subplane(5)

    def test_ids_without_enumerating_the_plane(self, monkeypatch):
        def refuse(q):
            raise AssertionError(f"PG(2,{q}) enumerated")

        monkeypatch.setattr(subplane_cover, "enumerate_plane", refuse)
        q = baer_subplane(169)
        assert (len(q.left), len(q.right)) == (183, 183)

    def test_selected_vertices_have_subfield_coordinates(self):
        plane = enumerate_plane(9)
        q = baer_subplane(9)
        for lid in q.left:
            assert all(c.a1 == 0 for c in plane.lines[lid].coords)
        for pid in set(range(len(plane.points))) - set(q.right):
            assert any(c.a1 != 0 for c in plane.points[pid].coords)


class TestApply:
    def test_identity_fixes_flags(self):
        plane = enumerate_plane(3)
        ident = oracles.identity_automorphism(plane.spec)
        for i in range(len(plane.flag_ids)):
            flag = plane.flag(i)
            assert apply(ident, flag) == flag

    def test_incidence_preserved_exhaustive_q3(self):
        plane = enumerate_plane(3)
        maps = [sample_automorphisms(3, 1, seed=seed)[0] for seed in range(20)]
        for m in maps:
            for i in range(len(plane.flag_ids)):
                image = apply(m, plane.flag(i))
                assert incident(image.line, image.point)

    def test_inverse_round_trip(self):
        plane = enumerate_plane(9)
        m = sample_automorphisms(9, 1, seed=5)[0]
        for i in range(0, len(plane.flag_ids), 37):
            flag = plane.flag(i)
            assert apply(m, apply(m.inverse(), flag)) == flag

    def test_spec_mismatch(self):
        m = sample_automorphisms(9, 1, seed=0)[0]
        flag = enumerate_plane(3).flag(0)
        with pytest.raises(SpecMismatch):
            apply(m, flag)

    def test_cover_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            cover_with_maps(25, sample_automorphisms(9, 1, seed=0))

    def test_inverse_transpose_identity(self):
        # inv^T multiplied against the transpose gives the identity matrix
        m = sample_automorphisms(9, 1, seed=11)[0]
        spec = m.spec
        prod = [
            [
                sum(
                    (m.inverse_transpose[i][k] * m.matrix[j][k] for k in range(3)),
                    spec.zero(),
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(3):
                want = spec.one() if i == j else spec.zero()
                assert prod[i][j] == want


class TestRandomAutomorphism:
    def test_never_singular(self):
        spec = field_for_size(9)
        for seed in range(50):
            m = sample_automorphisms(9, 1, seed=seed)[0]
            assert det3(spec, m.index_form()[0]) != 0
            assert not oracles.det3_elt(m.matrix).is_zero()

    def test_deterministic(self):
        a = sample_automorphisms(9, 1, seed=4)[0]
        b = sample_automorphisms(9, 1, seed=4)[0]
        assert a.matrix == b.matrix

    def test_one_determinant_per_draw(self, monkeypatch):
        # det3 is the determinant on element indices, the only one a draw
        # computes; the draws do no `Elt` arithmetic at all
        for q in (3, 9):
            field_for_size(q).tables()
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "inv"):
            monkeypatch.setattr(Elt, op, None)
        calls = {"det3": 0, "random_matrix": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name, fn in (("det3", det3), ("random_matrix", random_matrix)):
            monkeypatch.setattr(subplane_cover, name, counted(name, fn))
        for q in (3, 9):
            calls.update(det3=0, random_matrix=0)
            maps = sample_automorphisms(q, 200, seed=0)
            assert len(maps) == 200 < calls["random_matrix"]  # some draws were singular
            assert calls["det3"] == calls["random_matrix"]

    def test_acceptance_probability_q3(self):
        # fraction of uniform raw matrices that are invertible, vs |GL(3,3)|/3^9
        spec = build_field_spec(3, 1)
        invertible = sum(
            1
            for seed in range(10_000)
            if det3(spec, random_matrix(spec, random.Random(seed)))
        )
        q = 3
        expected = (q**3 - 1) * (q**3 - q) * (q**3 - q**2) / q**9
        assert expected == pytest.approx(11232 / 19683)
        assert abs(invertible / 10_000 - expected) < 0.05


class TestFlagTransitivity:
    def test_q9_guard(self):
        with pytest.raises(TooLarge):
            flag_transitivity_check(9)


class TestBuildCover:
    def test_sample_count_formula(self):
        assert cover_sample_count(9, 3.0) == math.ceil(81 * math.log(910)) == 552

    @pytest.mark.parametrize("q, c", [(9, 3.0), (25, 1.0), (25, 3.0), (49, 3.0)])
    def test_used_sizes_fit_the_budget(self, q, c):
        p = field_for_size(q).p
        work = cover_sample_count(q, c) * flag_count(p) + flag_count(q)
        assert work <= COVER_MAX_WORK

    def test_over_budget_raises_too_large(self):
        per_c = 27 * math.log(910) * flag_count(3)  # Baer flag images per unit c at q = 9
        c = (COVER_MAX_WORK - flag_count(9)) / per_c
        assert cover_sample_count(9, 0.999 * c) * flag_count(3) + flag_count(9) <= COVER_MAX_WORK
        for too_much in (1.001 * c, 1e6, math.inf, math.nan):
            with pytest.raises(TooLarge):
                cover_sample_count(9, too_much)
        with pytest.raises(TooLarge):
            build_cover(9, c=1e6)

    def test_budget_counts_the_host_plane(self):
        # q = 121 fits only below c ~ 0.268; from q = 289 the plane alone is over
        assert cover_sample_count(121, 0.26) == math.ceil(0.26 * 1331 * math.log(flag_count(121)))
        for q, c in ((121, 0.28), (121, 3.0), (169, 0.06), (289, 1e-9), (361, 0.001)):
            with pytest.raises(TooLarge):
                cover_sample_count(q, c)

    def test_full_coverage_q9(self):
        family = build_cover(9, c=3.0, seed=0)
        assert family.sample_count == 552
        assert family.coverage_fraction == 1.0
        assert family.uncovered_flag_ids == []

    def test_per_map_count_is_baer_flag_count(self):
        family = build_cover(9, c=0.5, seed=2)
        assert set(family.per_map_counts) == {52}

    def test_undersampled_reports_partial_coverage(self):
        family = build_cover(9, c=0.01, seed=0)
        assert family.coverage_fraction < 1.0

    def test_scan_enumerates_no_plane(self, monkeypatch):
        # the Baer flags and every image's flag index are closed-form
        def refuse(*args):
            raise AssertionError("plane enumerated")

        monkeypatch.setattr(subplane_cover, "enumerate_plane", refuse)
        monkeypatch.setattr(projective_plane, "flag_rows", refuse)
        family = build_cover(25, c=0.05, seed=0)
        assert set(family.per_map_counts) == {186}
        assert len(family.covered) == flag_count(25)

    def test_identity_only_family(self):
        ident = oracles.identity_automorphism(field_for_size(9))
        family = cover_with_maps(9, [ident])
        assert family.coverage_fraction == 52 / 910

    def test_coverage_monotone_in_prefix(self):
        maps = sample_automorphisms(9, 30, seed=1)
        prev = 0.0
        for k in (1, 5, 10, 20, 30):
            frac = cover_with_maps(9, maps[:k]).coverage_fraction
            assert frac >= prev
            prev = frac

    def test_prime_field_rejected(self):
        with pytest.raises(UnsupportedField):
            build_cover(5, c=3.0, seed=0)

    def test_report_json_keys(self):
        family = build_cover(9, c=0.05, seed=0)
        data = family.to_json_dict()
        assert set(data) == {"q", "p", "N", "c", "seed", "coverage_fraction", "uncovered_flag_ids"}
        assert data["q"] == 9 and data["p"] == 3
