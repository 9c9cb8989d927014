"""The integer paths of skalab against the reference paths in `oracles`."""

import itertools
import math
import random
import threading

import pytest

import oracles
from skalab import cli, incidence_graph, ska_protocol
from skalab.cli import main
from skalab.errors import InvariantViolation, NotCovered, SkalabError, TargetOnBoundary, TooLarge
from skalab.finite_field import (
    PRIME_TEST_MAX,
    _is_irreducible,
    build_field_spec,
    field_for_size,
    is_prime,
)
from skalab.halving_walk import (
    CompressionEstimator,
    GridMap,
    build_grid,
    find_preimage,
    get_estimator,
    halve,
    measured_lipschitz,
    winding_number,
)
from skalab.incidence_graph import (
    BiGraph,
    PlaneHost,
    SubgraphQuery,
    build_plane_graph,
    c4_free_check,
    dense_subgraph_search,
    within_reiman_cap,
    zarankiewicz_bound,
)
from skalab.projective_plane import (
    ChartCoords,
    ProjLine,
    ProjPoint,
    chart_u_prime,
    chart_v_prime,
    enumerate_plane,
    flag_ids_at,
    flag_index_of,
    flag_to_json,
    incident,
    sample_flag,
    to_chart,
    vertex_triple,
)
from skalab.ska_protocol import alice_m2, run_session, secrecy_audit
from skalab.subplane_cover import (
    apply,
    baer_flag_ids,
    baer_flags,
    baer_subplane,
    cover_sample_count,
    cover_with_maps,
    sample_automorphisms,
)

SUPPORTED_UP_TO_49 = (2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49)
SUPPORTED_UP_TO_25 = [q for q in SUPPORTED_UP_TO_49 if q <= 25]
PLANE_QS = SUPPORTED_UP_TO_25 + [49]


PRIMES_TO_200 = [p for p in range(2, 201) if oracles.is_prime_trial(p)]
# strong pseudoprimes to the bases 2; 2, 3; ...; 2 to 37 (OEIS A014233)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461)


class TestFieldResolution:
    def test_is_prime_matches_trial_division(self):
        assert [n for n in range(-3, 100_000) if is_prime(n) != oracles.is_prime_trial(n)] == []

    def test_is_prime_past_trial_division(self):
        assert not any(map(is_prime, STRONG_PSEUDOPRIMES))
        assert [is_prime(2**e - 1) for e in (31, 61, 67, 79)] == [True, True, False, False]
        assert not is_prime((2**31 - 1) ** 2)
        with pytest.raises(TooLarge):
            is_prime(PRIME_TEST_MAX)

    @pytest.mark.parametrize("p", PRIMES_TO_200)
    def test_irreducibility_matches_scan(self, p):
        vs = range(p) if p <= 50 else (0, 1, 2, p - 1)
        for v in vs:
            for u in range(p):
                assert _is_irreducible(p, u, v) == oracles.is_irreducible_scan(p, u, v)
        first = next((u, v) for v in range(p) for u in range(p) if oracles.is_irreducible_scan(p, u, v))
        spec = build_field_spec(p, 2)
        assert (spec.u, spec.v) == first


class TestFieldTables:
    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_49)
    def test_tables_match_elt(self, q):
        # `Elt` reads the tables; its residues and results against the
        # residue formulas
        spec = field_for_size(q)
        add, mul, neg, inv = spec.tables()
        elts = list(spec.elements())
        pairs = [oracles.decompose(a) for a in elts]
        assert pairs == sorted(pairs) and len(set(pairs)) == q
        assert [spec.elt(*pair) for pair in pairs] == elts
        assert [spec.index(a) for a in elts] == list(range(q))
        assert [spec.element(i) for i in range(q)] == elts
        for i, a in enumerate(elts):
            assert neg[i] == spec.index(-a)
            assert inv[i] == (None if i == 0 else spec.index(a.inv()))
            if i:
                assert oracles.decompose(a.inv()) == oracles.residue_inv(spec, pairs[i])
            assert add[i] == [spec.index(a + b) for b in elts]
            assert mul[i] == [spec.index(a * b) for b in elts]
            assert [oracles.decompose(a * b) for b in elts] == \
                [oracles.residue_mul(spec, pairs[i], pair) for pair in pairs]

    def test_built_once_per_spec(self):
        spec = field_for_size(25)
        assert spec.tables() is spec.tables()


class TestVertexIds:
    @pytest.mark.parametrize("q", (2, 3, 4, 9, 25))
    def test_round_trip_and_residue_order(self, q):
        spec = field_for_size(q)
        triples = [vertex_triple(spec, i) for i in range(q * q + q + 1)]
        assert all(oracles.canonicalize(t) == t for t in triples)
        assert [oracles.vertex_id(t) for t in triples] == list(range(len(triples)))
        assert oracles.canonical_triples(spec) == triples

    def test_object_lookups_agree_with_ids(self):
        plane = enumerate_plane(9)
        assert all(plane.point_id[pt] == oracles.vertex_id(pt.coords) for pt in plane.points)
        assert all(plane.line_id[ln] == oracles.vertex_id(ln.coords) for ln in plane.lines)
        for i in range(0, len(plane.flag_ids), 7):
            assert plane.index_of(plane.flag(i)) == i


class TestIdViews:
    """Points, lines and flags, views over ids, against the `Elt`-coordinate
    path: canonical triples in residue order, `Elt` arithmetic and the
    constructors on coordinates."""

    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_25)
    def test_vertices_match_canonical_triples(self, q):
        spec = field_for_size(q)
        plane = enumerate_plane(q)
        triples = oracles.canonical_triples(spec)
        nonzero = list(spec.elements())[1:]
        rng = random.Random(f"views:{q}")
        for cls, views in ((ProjPoint, plane.points), (ProjLine, plane.lines)):
            assert [view.coords for view in views] == triples
            for vid, (view, coords) in enumerate(zip(views, triples)):
                scale = rng.choice(nonzero)
                built = cls(tuple(scale * c for c in coords))  # another representative
                assert (built.id, built.coords) == (vid, coords)
                assert built == view and hash(built) == hash(view)
                assert oracles.vertex_id(built.coords) == vid

    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_25)
    def test_incident_matches_elt_dot_product(self, q):
        plane = enumerate_plane(q)
        triples = oracles.canonical_triples(plane.spec)
        n = len(triples)
        rng = random.Random(f"incident:{q}")
        pairs = itertools.product(range(n), repeat=2) if n <= 57 else \
            [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
        hits = 0
        for lid, pid in pairs:
            got = incident(plane.lines[lid], plane.points[pid])
            assert got == oracles.incident_elt(triples[lid], triples[pid])
            hits += got
        assert hits

    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_25)
    def test_flags_match_elt_path(self, q):
        plane = enumerate_plane(q)
        spec = plane.spec
        triples = oracles.canonical_triples(spec)
        maps = sample_automorphisms(q, 3, seed=q)
        for i in range(0, len(plane.flag_ids), 1 + len(plane.flag_ids) // 600):
            lid, pid = plane.flag_ids[i]
            flag = plane.flag(i)
            want = oracles.flag_from_ids_checked(spec, lid, pid)
            assert flag == want and hash(flag) == hash(want)
            assert (flag.line.coords, flag.point.coords) == (triples[lid], triples[pid])
            assert plane.index_of(want) == i == plane.flag_index[
                oracles.vertex_id(triples[lid]), oracles.vertex_id(triples[pid])]
            data = flag_to_json(flag)
            assert [tuple(oracles.parse_elt(spec, s) for s in data[key])
                    for key in ("line", "point")] == [triples[lid], triples[pid]]
            assert _outcome(to_chart, flag) == _outcome(oracles.to_chart_elt, want)
            m = maps[i % 3]
            assert apply(m, flag) == oracles.apply_elt(m, want)


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


class TestFlagDecoder:
    @pytest.mark.parametrize("q", [q for q in PLANE_QS if q <= 25])
    def test_every_flag_index(self, q):
        plane = enumerate_plane(q)
        decoded = [flag_ids_at(plane.spec, i) for i in range(len(plane.flag_ids))]
        assert decoded == plane.flag_ids

    @pytest.mark.parametrize("q, seeds", [(4, 50), (9, 50), (25, 50), (49, 200)])
    def test_sample_flag_matches_enumerated_flag(self, q, seeds):
        plane = enumerate_plane(q)
        for seed in range(seeds):
            index = random.Random(seed).randrange(len(plane.flag_ids))
            assert sample_flag(q, seed) == plane.flag(index)

    def test_index_out_of_range(self):
        spec = field_for_size(3)
        for index in (-1, 52):
            with pytest.raises(IndexError):
                flag_ids_at(spec, index)

    @pytest.mark.parametrize("q", [q for q in PLANE_QS if q <= 25])
    def test_unchecked_flags_match_checked_constructors(self, q):
        plane = enumerate_plane(q)
        for i, (lid, pid) in enumerate(plane.flag_ids):
            flag = plane.flag(i)
            assert flag == oracles.flag_from_ids_checked(plane.spec, lid, pid)
            assert (type(flag.line), type(flag.point)) == (ProjLine, ProjPoint)


class TestFlagCsv:
    """`plane --flags` CSV chunks against one `csv.writer` row per flag."""

    @pytest.mark.parametrize("rows", (1, 100, 8192))
    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_49)
    def test_flag_csv_chunks_match_the_row_writer(self, q, rows, monkeypatch):
        # one line per chunk at rows = 1, a few per chunk at 100, and the default
        monkeypatch.setattr(cli, "FLAG_CHUNK_ROWS", rows)
        plane = enumerate_plane(q)
        chunks = list(cli._flag_csv_chunks(plane))
        assert len(chunks) == math.ceil(plane.counts()[1] / max(1, rows // (q + 1)))
        assert "".join(chunks) == oracles.flag_csv_writer(plane)


class TestCoverScan:
    # (q, c, seed).  Undersampled: c = 0.01 at q = 9 draws 2 maps, whose 2 * 52
    # images cannot cover the 910 flags; c = 0.02 at q = 25 draws 25 maps for
    # 25 * 186 images against 20,306 flags.
    CASES = [(4, 1.0, 0), (4, 1.0, 1), (4, 0.2, 2), (9, 0.1, 0), (9, 0.1, 1),
             (9, 0.01, 2), (25, 0.02, 0), (25, 0.02, 1)]

    @pytest.mark.parametrize("q, c, seed", CASES)
    def test_cover_with_maps_matches_object_scan(self, q, c, seed):
        maps = sample_automorphisms(q, cover_sample_count(q, c), seed)
        family = cover_with_maps(q, maps)
        assert (family.covered, family.per_map_counts) == oracles.cover_objects(q, maps)

    @pytest.mark.parametrize("q", SUPPORTED_UP_TO_49)
    def test_flag_index_on_every_flag(self, q):
        rows = enumerate_plane(q).rows
        k = q + 1
        assert [flag_index_of(q, i // k, pid) for i, pid in enumerate(rows)] == list(range(len(rows)))

    @pytest.mark.parametrize("q", (4, 9, 25, 49))
    def test_baer_flags_match_scan(self, q):
        plane = enumerate_plane(q)
        scanned = oracles.baer_flag_ids_scan(plane)
        assert baer_flag_ids(plane) == scanned
        assert baer_flags(q) == [plane.flag_ids[i] for i in sorted(scanned)]

    @pytest.mark.parametrize("q, count, seed", [
        (3, 60, 0), (4, 60, 1), (5, 60, 2), (9, 200, 0), (25, 1218, 369617), (49, 60, 3),
    ])
    def test_sampled_maps_match_elt_stream(self, q, count, seed):
        # same rejection stream; both matrices equal the `Elt` determinant
        # and cofactor computation, as indices and as decoded `Elt` views
        spec = field_for_size(q)
        maps = sample_automorphisms(q, count, seed)
        want = oracles.sample_matrices_elt(q, count, seed)
        assert [(m.matrix, m.inverse_transpose) for m in maps] == want
        assert [m.index_form() for m in maps] == [
            tuple(tuple(tuple(map(spec.index, row)) for row in mat) for mat in pair)
            for pair in want
        ]

    @pytest.mark.parametrize("q", (2, 3, 4, 9, 25))
    def test_apply_matches_elt_form(self, q):
        plane = enumerate_plane(q)
        for seed, m in enumerate(sample_automorphisms(q, 5, seed=q)):
            for i in range(seed, len(plane.flag_ids), 1 + len(plane.flag_ids) // 60):
                flag = plane.flag(i)
                assert apply(m, flag) == oracles.apply_elt(m, flag)


class TestChart:
    @pytest.mark.parametrize("q", (4, 9, 25, 49))
    def test_to_chart_matches_elt_form(self, q):
        plane = enumerate_plane(q)
        invalid = 0
        for i in range(len(plane.flag_ids)):
            flag = plane.flag(i)
            got = _outcome(to_chart, flag)
            assert got == _outcome(oracles.to_chart_elt, flag)
            invalid += isinstance(got, tuple)
        assert invalid == len(plane.flag_ids) - q**3  # q^3 flags lie in the chart

    @pytest.mark.parametrize("q", (9, 25))
    def test_run_session_matches_object_session(self, q):
        plane = enumerate_plane(q)
        statuses = set()
        for i in range(len(plane.flag_ids)):
            flag = plane.flag(i)
            result = run_session(flag)
            assert result == oracles.run_session_objects(flag)
            statuses.add(result.status)
        assert statuses == {"ok", "chart_invalid", "degenerate_h"}

    @pytest.mark.parametrize("p", (3, 5))
    def test_u_and_v_prime_match_elt_form(self, p):
        spec = build_field_spec(p, 2)
        for f, r, g, t, h, s in itertools.product(range(p), repeat=6):
            want = oracles.decompose(oracles.chart_x2(ChartCoords(spec, f, r, g, t, h, s)))
            got = (chart_u_prime(p, spec.u, f, r, g, h, s), chart_v_prime(p, spec.v, f, r, t, h, s))
            assert got == want


class TestKeyAgreement:
    @pytest.mark.parametrize("q", (4, 9, 25))
    def test_audit_histogram_matches_object_loop(self, q):
        assert secrecy_audit(q).histogram == oracles.secrecy_histogram_objects(q)

    @pytest.mark.parametrize("q", (4, 9, 25, 49))
    def test_audit_matches_sixfold_loop(self, q):
        # every field and the whole histogram, from one evaluation per tuple
        assert secrecy_audit(q) == oracles.secrecy_audit_sixfold(q)

    @pytest.mark.parametrize("q", (9, 25))
    def test_one_wrong_round_2_names_the_oracles_tuple(self, q, monkeypatch, capsys):
        # Alice answers one off for a single argument tuple (u', r, m1); its
        # first chart tuple in G^6 order has r, g, h and s nonzero
        honest = ska_protocol.alice_m2

        def wrong_once(p, u, u_p, r, m1):
            m2 = honest(p, u, u_p, r, m1)
            return (m2 + 1) % p if (u_p, r, m1) == (2, 1, 2) else m2

        monkeypatch.setattr(ska_protocol, "alice_m2", wrong_once)
        monkeypatch.setattr(oracles, "alice_m2", wrong_once)
        with pytest.raises(InvariantViolation) as want:
            oracles.secrecy_audit_sixfold(q)
        with pytest.raises(InvariantViolation) as got:
            secrecy_audit(q)
        assert str(got.value) == str(want.value)
        assert ", 0, " in str(want.value)  # t = 0 comes first; g, h, s are not 0
        assert main(["ska", "audit", "--q", str(q)]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"skalab: invariant violation: {want.value}\n")

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
    def test_alice_m2_matches_elt_form(self, p):
        spec = build_field_spec(p, 2)
        for r in range(p):
            for m1 in range(p):
                for u_p in range(p):
                    want = oracles.alice_m2_elt(spec, u_p, r, m1)
                    assert alice_m2(p, spec.u, u_p, r, m1) == want


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
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9))
    def test_plane_graph_matches_graph_of_the_flags(self, q):
        # both sides share the plane's rows: the lines through point k are
        # the points of line k
        plane = enumerate_plane(q)
        n = plane.counts()[0]
        got, want = build_plane_graph(q), BiGraph(range(n), range(n), plane.flag_ids, q=q)
        for side in ("_left_adj", "_right_adj"):
            assert [sorted(a) for a in getattr(got, side)] == \
                [sorted(a) for a in getattr(want, side)]
        assert oracles.edge_set(got) == set(plane.flag_ids)
        assert got.n_edges == want.n_edges == plane.counts()[2]

    @pytest.mark.parametrize("q", (4, 9, 13, 25))
    def test_plane_host_counts_match_the_graph(self, q):
        rng = random.Random(f"plane-host:{q}")
        g, host = build_plane_graph(q), PlaneHost(q)
        queries = [baer_subplane(q)] if q in (4, 9, 25) else []
        for _ in range(30):
            a, b = rng.randint(1, len(g.left_ids)), rng.randint(1, len(g.right_ids))
            queries.append(SubgraphQuery.of(rng.sample(g.left_ids, a), rng.sample(g.right_ids, b)))
        for query in queries:
            assert host.induced_edges(query) == g.induced_edges(query)

    def test_reiman_cap_matches_the_float_test(self):
        # every m, n < 200 and every count within 2 of the cap
        checked = 0
        for m in range(1, 200):
            for n in range(1, 200):
                cap = zarankiewicz_bound(m, n)
                for edges in range(max(0, math.ceil(cap - 2)), math.floor(cap + 2) + 1):
                    assert within_reiman_cap(edges, m, n) == \
                        oracles.within_cap_float(edges, m, n), (edges, m, n)
                    checked += 1
        assert checked > 150_000

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
    def test_baer_count_meets_the_cap_exactly(self, p):
        n = p * p + p + 1
        edges = n * (p + 1)  # p+1 Baer points on each Baer line
        assert 4 * n - 3 == (2 * p + 1) ** 2
        assert zarankiewicz_bound(n, n) == edges
        assert within_reiman_cap(edges, n, n) and oracles.within_cap_float(edges, n, n)
        assert not within_reiman_cap(edges + 1, n, n)
        assert not oracles.within_cap_float(edges + 1, n, n)

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


def _outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except SkalabError as exc:
        return type(exc), str(exc)


def _zlib_path_cases():
    """Widths 1, 2 and odd/even, x == y, random bytes and word text."""
    rng = random.Random("halve:zlib:paths")
    text = oracles.word_text(rng, 11)
    cases = [(b"a", b"xyz"), (b"ab", b"ab"), (text, text)]
    for nx in (1, 2, 5, 6, 7, 8):
        ny = rng.randint(1, 9)
        cases.append((rng.randbytes(nx), rng.randbytes(ny)))
        cases.append((oracles.word_text(rng, nx), oracles.word_text(rng, ny)))
    return cases + [oracles.random_halve_input(rng) for _ in range(12)]


def _halve_statuses(cases, estimators) -> set:
    """Compare grid, Lipschitz maximum and `halve` outcome with the oracle on
    each (x, y); `estimators(x, y)` gives (est, ref).  Returns the statuses."""
    statuses = set()
    for x, y in cases:
        est, ref = estimators(x, y)
        grid, ref_grid = build_grid(x, y, est), oracles.build_tuple_grid(x, y, ref)
        assert oracles.grid_nodes(grid) == oracles.grid_nodes(ref_grid)
        assert measured_lipschitz(grid) == oracles.lipschitz_pairwise(ref_grid)
        got = _outcome(halve, x, y, est)
        want = _outcome(oracles.halve_tuples, x, y, ref, True)
        if isinstance(got, tuple):
            assert got == want
            statuses.add(got[0].__name__)
        else:
            assert got.to_json_dict() == want.to_json_dict()
            statuses.add(got.status)
        if _summary(got) != _summary(_outcome(oracles.halve_tuples, x, y, ref)):
            target = (ref.est(x, b"") / 2.0, ref.est(y, b"") / 2.0)
            assert oracles.within_float_tolerances(ref_grid, target)
    return statuses


def _summary(outcome):
    """An outcome as comparable data: an exception's (type, message) or a report's JSON."""
    return outcome if isinstance(outcome, tuple) else outcome.to_json_dict()


def _zlib_pair(x, y):
    return CompressionEstimator(), oracles.FourCompressionEstimator()


class TestHalvingWalk:
    @pytest.mark.parametrize("estimator, cases", [("zlib", 24), ("ramp", 40), ("prefix-gap", 40)])
    def test_halve_matches_tuple_grid(self, estimator, cases):
        rng = random.Random(f"halve:{estimator}")
        inputs = [oracles.random_halve_input(rng) for _ in range(cases)]
        if estimator == "zlib":
            estimators = _zlib_pair
        else:
            def estimators(x, y):
                return get_estimator(estimator, x, y), get_estimator(estimator, x, y)
        assert "ok" in _halve_statuses(inputs, estimators)

    @pytest.mark.parametrize("kind", ["float", "int", "degenerate", "fold"])
    def test_grid_queries_match_tuple_grid(self, kind):
        rng = random.Random(f"grid:{kind}")
        seen = set()
        for _ in range(60):
            w, h, values = oracles.random_grid_values(rng, kind)
            grid, ref = GridMap(w, h, values), oracles.TupleGrid(w, h, values)
            assert oracles.grid_nodes(grid) == oracles.grid_nodes(ref)
            assert measured_lipschitz(grid) == oracles.lipschitz_pairwise(ref)
            nodes = oracles.grid_nodes(ref)
            targets = [
                (rng.uniform(-5, 20), rng.uniform(-5, 20)),  # anywhere, often exterior
                (rng.uniform(-50, -10), rng.uniform(30, 50)),  # exterior
                rng.choice(nodes),  # a node image: on or inside the image
            ]
            a, b = rng.sample(nodes, 2)
            targets.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))  # on a segment
            for target in targets:
                got = (_outcome(find_preimage, grid, target), _outcome(winding_number, grid, target))
                assert got == (_outcome(oracles.find_preimage_fraction, ref, target),
                               _outcome(oracles.winding_number_fraction, ref, target))
                floats = (_outcome(oracles.find_preimage_tuples, ref, target),
                          _outcome(oracles.winding_number_float, ref, target))
                if got != floats:
                    assert oracles.within_float_tolerances(ref, target)
                seen.add(got[0][0] if isinstance(got[0][0], type) else "ok")
        assert len(seen) >= 2

    def test_mixed_magnitude_grid_matches_fractions(self):
        # 5e-324 is subnormal and products of 1e300 overflow a float: scaled
        # to integers, such a grid needs about 2,100 bits per value
        rng = random.Random("grid:mixed")
        magnitudes = (0.0, 5e-324, 1e-300, 0.75, 3.0, 1e300, 1.7976931348623157e308)
        draw = lambda: rng.choice(magnitudes) * rng.choice((1, -1))  # noqa: E731
        seen = set()
        for _ in range(40):
            w, h = rng.randint(1, 4), rng.randint(1, 4)
            values = [[(draw(), draw()) for _ in range(h + 1)] for _ in range(w + 1)]
            grid, ref = GridMap(w, h, values), oracles.TupleGrid(w, h, values)
            for target in [(draw(), draw()) for _ in range(4)] + [rng.choice(oracles.grid_nodes(ref))]:
                got = _outcome(find_preimage, grid, target)
                assert got == _outcome(oracles.find_preimage_fraction, ref, target)
                assert _outcome(winding_number, grid, target) == _outcome(
                    oracles.winding_number_fraction, ref, target)
                seen.add(got[0] if isinstance(got[0], type) else "ok")
        assert {"ok", NotCovered, TargetOnBoundary} <= seen

    def test_zlib_paths_match_tuple_grid(self, grid_path):
        path, prefetch_threads = grid_path
        assert {"ok", "not_covered"} <= _halve_statuses(_zlib_path_cases(), _zlib_pair)
        assert bool(prefetch_threads) == (path == "helped")
        assert threading.get_ident() not in prefetch_threads
