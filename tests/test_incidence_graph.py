import itertools
import math

import pytest

import oracles
from skalab.errors import (
    EmptyQuery,
    SizeTooLarge,
    TooLarge,
    UnknownVertex,
)
from skalab.incidence_graph import (
    BiGraph,
    PlaneHost,
    SubgraphQuery,
    build_plane_graph,
    c4_free_check,
    dense_subgraph_search,
    sdz_report,
    zarankiewicz_bound,
)
from skalab.subplane_cover import baer_subplane


def brute_force_best(g, a, b):
    """Oracle: literal scan of every (left, right) subset pair."""
    best = None
    for left in itertools.combinations(g.left_ids, a):
        for right in itertools.combinations(g.right_ids, b):
            count = g.induced_edges(SubgraphQuery.of(left, right))
            key = (-count, left, right)
            if best is None or key < best:
                best = key
    return -best[0], best[1], best[2]


class TestBuildPlaneGraph:
    def test_q3(self):
        g = build_plane_graph(3)
        assert (len(g.left_ids), len(g.right_ids), g.n_edges) == (13, 13, 52)
        assert all(g.left_degree(l) == 4 for l in g.left_ids)
        assert all(g.right_degree(r) == 4 for r in g.right_ids)
        assert oracles.is_biregular(g)

    def test_q2_fano(self):
        g = build_plane_graph(2)
        assert (len(g.left_ids), len(g.right_ids), g.n_edges) == (7, 7, 21)
        assert all(g.left_degree(l) == 3 for l in g.left_ids)

    def test_q9_gamma(self):
        g = build_plane_graph(9)
        assert g.gamma == pytest.approx(math.log2(910))
        assert g.alpha == g.beta == pytest.approx(math.log2(91))


class TestCountInducedEdges:
    def test_full_graph(self):
        g = build_plane_graph(3)
        assert g.induced_edges(SubgraphQuery.of(g.left_ids, g.right_ids)) == 52

    def test_empty_left(self):
        g = build_plane_graph(3)
        assert g.induced_edges(SubgraphQuery.of([], g.right_ids)) == 0

    def test_baer_query_q9(self):
        g = build_plane_graph(9)
        assert g.induced_edges(baer_subplane(9)) == 52

    def test_unknown_vertex(self):
        g = build_plane_graph(3)
        with pytest.raises(UnknownVertex):
            g.induced_edges(SubgraphQuery.of([99], [0]))

    def test_counting_and_greedy_peel_build_no_bitsets(self):
        g = build_plane_graph(5)
        g.induced_edges(SubgraphQuery.of(g.left_ids, g.right_ids))
        dense_subgraph_search(g, 7, 9, "greedy-peel")
        assert "_left_bits" not in vars(g) and "_right_bits" not in vars(g)
        c4_free_check(g)
        assert "_right_bits" in vars(g)

    def test_plane_host_checks_ids_and_budget(self):
        with pytest.raises(UnknownVertex):
            PlaneHost(3).induced_edges(SubgraphQuery.of([0], [13]))
        with pytest.raises(TooLarge, match="plane budget"):
            PlaneHost(173)

    def test_monotone_under_growth(self):
        g = build_plane_graph(3)
        prev = 0
        for k in range(1, 14):
            cur = g.induced_edges(SubgraphQuery.of(g.left_ids[:k], g.right_ids[:k])
            )
            assert cur >= prev
            prev = cur


class TestSdzReport:
    def test_baer_q9_values(self):
        g = build_plane_graph(9)
        rep = sdz_report(g, baer_subplane(9))
        assert (rep.left_size, rep.right_size, rep.edges) == (13, 13, 52)
        assert rep.sdz_value == pytest.approx(169.0 ** (11.0 / 15.0))
        assert rep.sdz_value == pytest.approx(43.03, abs=5e-3)
        assert rep.sdz_ratio == pytest.approx(1.208, abs=1e-3)
        assert rep.field_prime is False
        assert rep.n == 4
        # the bound fails off prime fields: density above 11/15
        assert rep.density_exponent > 11 / 15

    def test_q5_full_graph_not_small_regime(self):
        g = build_plane_graph(5)
        rep = sdz_report(g, SubgraphQuery.of(g.left_ids, g.right_ids))
        assert (rep.left_size, rep.right_size, rep.edges) == (31, 31, 186)
        assert 5.0 ** (8.0 / 7.0) < 31
        assert rep.regime_small is False
        assert rep.field_prime is True

    def test_singleton_left_never_balanced(self):
        g = build_plane_graph(3)
        for b in (1, 2, 5):
            rep = sdz_report(g, SubgraphQuery.of([0], g.right_ids[:b]))
            assert rep.regime_balanced is False

    def test_empty_query(self):
        g = build_plane_graph(3)
        with pytest.raises(EmptyQuery):
            sdz_report(g, SubgraphQuery.of([], [0]))

    def test_zarankiewicz_holds_on_c4_free_host(self):
        # plane hosts are C4-free; the hard assert must stay silent
        g = build_plane_graph(3)
        for a, b in ((3, 3), (5, 7), (13, 13)):
            rep = sdz_report(g, SubgraphQuery.of(g.left_ids[:a], g.right_ids[:b]))
            assert rep.edges <= rep.kst_bound + 1e-9

    def test_report_serialization(self):
        g = build_plane_graph(3)
        rep = sdz_report(g, SubgraphQuery.of(g.left_ids, g.right_ids))
        data = rep.to_json_dict()
        assert data["edges"] == 52 and data["q"] == 3
        assert len(rep.csv_row()) == len(rep.CSV_HEADER)


class TestDenseSubgraphSearch:
    def test_exhaustive_q2_3x3_matches_brute_force(self):
        g = build_plane_graph(2)
        want_count, want_left, want_right = brute_force_best(g, 3, 3)
        query, count = dense_subgraph_search(g, 3, 3, "exhaustive")
        assert count == want_count == 6
        assert tuple(sorted(query.left)) == want_left
        assert tuple(sorted(query.right)) == want_right

    def test_exhaustive_lex_tiebreak_on_edgeless_graph(self):
        g = BiGraph([0, 1, 2, 3], [0, 1, 2, 3], set())
        query, count = dense_subgraph_search(g, 2, 2, "exhaustive")
        assert count == 0
        assert sorted(query.left) == [0, 1]
        assert sorted(query.right) == [0, 1]

    @pytest.mark.parametrize("strategy", ["greedy-peel", "local-swap"])
    def test_heuristics_bounded_by_exhaustive(self, strategy):
        g = build_plane_graph(2)
        _, best = dense_subgraph_search(g, 3, 3, "exhaustive")
        for a, b in ((2, 2), (3, 3), (4, 4)):
            _, exact = dense_subgraph_search(g, a, b, "exhaustive")
            _, heur = dense_subgraph_search(g, a, b, strategy, seed=1)
            assert heur <= exact
        assert best == 6

    def test_determinism(self):
        g = build_plane_graph(3)
        for strategy in ("greedy-peel", "local-swap", "exhaustive"):
            a, b = (4, 4) if strategy != "exhaustive" else (2, 2)
            r1 = dense_subgraph_search(g, a, b, strategy, seed=9)
            r2 = dense_subgraph_search(g, a, b, strategy, seed=9)
            assert r1 == r2

    def test_requested_sizes_are_exact(self):
        g = build_plane_graph(3)
        query, _ = dense_subgraph_search(g, 5, 7, "greedy-peel")
        assert (len(query.left), len(query.right)) == (5, 7)

    def test_size_too_large(self):
        g = build_plane_graph(2)
        with pytest.raises(SizeTooLarge):
            dense_subgraph_search(g, 8, 3, "greedy-peel")

    def test_exhaustive_infeasible(self):
        g = build_plane_graph(5)
        assert math.comb(31, 15) ** 2 > 10**7
        with pytest.raises(TooLarge):
            dense_subgraph_search(g, 15, 15, "exhaustive")


class TestRandomBigraph:
    def test_parameter_echo(self):
        g = oracles.random_bigraph(6, 6, 9, seed=0)
        assert (len(g.left_ids), len(g.right_ids), g.n_edges) == (64, 64, 512)

    def test_edges_distinct_and_in_range(self):
        g = oracles.random_bigraph(5, 5, 8, seed=3)
        edges = oracles.edge_set(g)
        assert len(edges) == g.n_edges == 256
        assert all(0 <= l < 32 and 0 <= r < 32 for l, r in edges)

    def test_too_many_edges(self):
        with pytest.raises(oracles.TooManyEdges):
            oracles.random_bigraph(2, 2, 5, seed=0)

    def test_deterministic(self):
        edges = oracles.edge_set
        assert edges(oracles.random_bigraph(6, 6, 9, 42)) == edges(oracles.random_bigraph(6, 6, 9, 42))

    def test_seed_pair_golden_inequality(self):
        # golden: these two seeds produce different edge sets
        edges = oracles.edge_set
        assert edges(oracles.random_bigraph(6, 6, 9, 0)) != edges(oracles.random_bigraph(6, 6, 9, 1))


class TestC4Free:
    def test_plane_q3(self):
        assert c4_free_check(build_plane_graph(3)) is True

    def test_k22(self):
        g = BiGraph([0, 1], [0, 1], {(0, 0), (0, 1), (1, 0), (1, 1)})
        assert c4_free_check(g) is False

    def test_random_baseline_seed0(self):
        # pinned: the (6,6,9) baseline at seed 0 contains a C4
        assert c4_free_check(oracles.random_bigraph(6, 6, 9, 0)) is False

    def test_zarankiewicz_bound_formula(self):
        assert zarankiewicz_bound(14, 14) == pytest.approx(7 * (1 + math.sqrt(53)))


class TestZarankiewiczCap:
    def test_balanced_cap_is_the_square_case_bit_for_bit(self):
        for n in range(1, 2000):
            assert zarankiewicz_bound(n, n) == 0.5 * n * (1.0 + math.sqrt(4.0 * n - 3.0))

    def test_unbalanced_cap_is_the_smaller_reiman_bound(self):
        assert zarankiewicz_bound(5, 2) == pytest.approx(2.5 * (1 + math.sqrt(2.6)))
        assert zarankiewicz_bound(2, 5) == zarankiewicz_bound(5, 2)
        assert zarankiewicz_bound(1, 7) == zarankiewicz_bound(7, 1) == 7

    @pytest.mark.parametrize("q", (2, 3))
    def test_exhaustive_optima_within_cap(self, q):
        g = build_plane_graph(q)
        for a in range(1, 8):
            for b in range(1, 8):
                _, count = dense_subgraph_search(g, a, b, "exhaustive")
                assert count <= zarankiewicz_bound(a, b) + 1e-9, (a, b)

    def test_fano_five_by_two_optimum_is_legal(self):
        # two points lie on one common line, so five lines meet them 6 times
        g = build_plane_graph(2)
        query, count = dense_subgraph_search(g, 5, 2, "exhaustive")
        assert count == 6
        assert sdz_report(g, query).kst_bound == pytest.approx(2.5 * (1 + math.sqrt(2.6)))
