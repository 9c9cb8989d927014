"""The integer paths of skalab against the reference paths in `oracles`."""

import math
import random

import pytest

import oracles
from skalab import incidence_graph
from skalab.finite_field import field_for_size
from skalab.incidence_graph import build_plane_graph, c4_free_check, dense_subgraph_search
from skalab.projective_plane import (
    ProjPoint,
    canonicalize,
    enumerate_plane,
    vertex_id,
    vertex_triple,
)
from skalab.subplane_cover import baer_subplane, cover_sample_count

SUPPORTED_UP_TO_49 = (2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49)
PLANE_QS = [q for q in SUPPORTED_UP_TO_49 if q <= 25] + [49]


class TestFieldTables:
    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_49)
    def test_tables_match_elt(self, q):
        spec = field_for_size(q)
        add, mul, neg, inv = spec.tables()
        elts = list(spec.elements())
        assert [spec.index(a) for a in elts] == list(range(q))
        assert [spec.element(i) for i in range(q)] == elts
        for i, a in enumerate(elts):
            assert neg[i] == spec.index(-a)
            assert inv[i] == (None if i == 0 else spec.index(a.inv()))
            assert add[i] == [spec.index(a + b) for b in elts]
            assert mul[i] == [spec.index(a * b) for b in elts]

    def test_built_once_per_spec(self):
        spec = field_for_size(25)
        assert spec.tables() is spec.tables()


class TestVertexIds:
    @pytest.mark.parametrize("q", (2, 3, 4, 9, 25))
    def test_round_trip_and_residue_order(self, q):
        spec = field_for_size(q)
        triples = [vertex_triple(spec, i) for i in range(q * q + q + 1)]
        assert all(canonicalize(t) == t for t in triples)
        assert [vertex_id(t) for t in triples] == list(range(len(triples)))
        by_residues = oracles.canonical_triples(spec, ProjPoint)
        assert [pt.coords for pt in by_residues] == triples

    def test_object_lookups_agree_with_ids(self):
        plane = enumerate_plane(9)
        assert all(plane.point_id[pt] == vertex_id(pt.coords) for pt in plane.points)
        assert all(plane.line_id[ln] == vertex_id(ln.coords) for ln in plane.lines)
        for i in range(0, len(plane.flag_ids), 7):
            assert plane.index_of(plane.flag(i)) == i


class TestPlaneEnumeration:
    @pytest.mark.parametrize("q", PLANE_QS)
    def test_flag_ids_match_object_enumeration(self, q):
        plane = enumerate_plane(q)
        assert plane.flag_ids == oracles.object_flag_ids(plane.spec)
        n = q * q + q + 1
        assert plane.counts() == (n, n, n * (q + 1))


class TestBaerIds:
    @pytest.mark.parametrize("q", (4, 9, 25, 49))
    def test_closed_form_matches_scan(self, q):
        assert baer_subplane(q) == oracles.baer_subplane_scan(q)

    @pytest.mark.parametrize("q", (4, 9, 25))
    def test_cover_sample_count_uses_the_flag_count(self, q):
        flags = len(enumerate_plane(q).flag_ids)
        p = field_for_size(q).p
        for c in (0.01, 1.0, 3.0):
            assert cover_sample_count(q, c) == math.ceil(c * p**3 * math.log(flags))


def _graphs():
    graphs = [oracles.random_graph(seed) for seed in range(40)]
    graphs += [build_plane_graph(q) for q in (2, 3, 4, 5, 7, 9)]
    return graphs


def _sizes(g, rng):
    n_left, n_right = len(g.left_ids), len(g.right_ids)
    sizes = {(n_left, n_right), (1, 1), (1, n_right), (n_left, 1)}
    for _ in range(3):
        sizes.add((rng.randint(1, n_left), rng.randint(1, n_right)))
    return sorted(sizes)


class TestIncidenceGraph:
    def test_c4_check_matches_pairwise(self):
        graphs = _graphs() + [build_plane_graph(q) for q in (11, 13, 25)]
        results = [c4_free_check(g) for g in graphs]
        assert results == [oracles.c4_free_pairwise(g) for g in graphs]
        assert True in results and False in results

    def test_greedy_peel_matches_linear_scan(self):
        rng = random.Random(19)
        cases = 0
        for g in _graphs():
            for a, b in _sizes(g, rng):
                got = dense_subgraph_search(g, a, b, "greedy-peel")
                assert got == oracles.search_greedy_linear(g, a, b)
                cases += 1
        assert cases > 200

    def test_local_swap_starts_from_the_same_peel(self, monkeypatch):
        rng = random.Random(20)
        cases = []
        for g in _graphs():
            for a, b in _sizes(g, rng):
                cases.append((g, a, b, dense_subgraph_search(g, a, b, "local-swap", iters=20)))
        monkeypatch.setattr(incidence_graph, "_search_greedy", oracles.search_greedy_linear)
        for g, a, b, got in cases:
            assert dense_subgraph_search(g, a, b, "local-swap", iters=20) == got
