import pytest

import oracles
from skalab import finite_field
from skalab.errors import DivisionByZero, NotPrime, SpecMismatch, TooLarge, UnsupportedField
from skalab.finite_field import (
    TABLE_MAX_ENTRIES,
    build_field_spec,
    field_for_size,
    format_elt,
    is_prime,
)

SMALL_FIELD_SIZES = [2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49]


def poly_mul_mod(a, b, p, u, v):
    """Independent oracle: multiply a0+a1*X and b0+b1*X, reduce X^2 -> u + v*X."""
    c0 = a[0] * b[0]
    c1 = a[0] * b[1] + a[1] * b[0]
    c2 = a[1] * b[1]
    return ((c0 + c2 * u) % p, (c1 + c2 * v) % p)


def has_root(p, u, v):
    return any((x * x - v * x - u) % p == 0 for x in range(p))


class TestBuildFieldSpec:
    def test_f9_picks_xi_squared_two(self):
        spec = build_field_spec(3, 2)
        assert (spec.u, spec.v) == (2, 0)

    def test_f4_picks_artin_schreier(self):
        spec = build_field_spec(2, 2)
        assert (spec.u, spec.v) == (1, 1)

    def test_composite_p_rejected(self):
        with pytest.raises(NotPrime):
            build_field_spec(4, 2)
        with pytest.raises(NotPrime):
            build_field_spec(1, 1)

    def test_scan_order_oracle(self):
        # the stored (u, v) must be irreducible and first in v-outer/u-inner order
        for p in (2, 3, 5, 7, 11, 13):
            spec = build_field_spec(p, 2)
            assert not has_root(p, spec.u, spec.v)
            earlier = [
                (u, v)
                for v in range(spec.v + 1)
                for u in range(p if v < spec.v else spec.u)
            ]
            assert all(has_root(p, u, v) for u, v in earlier)

    def test_pure_function_of_inputs(self):
        a = build_field_spec(7, 2)
        b = build_field_spec(7, 2)
        assert (a.u, a.v) == (b.u, b.v)

    def test_field_for_size(self):
        assert field_for_size(7).degree == 1
        assert field_for_size(49).degree == 2
        assert field_for_size(4).degree == 2
        for bad in (6, 8, 12, 27, 100):
            with pytest.raises(UnsupportedField):
                field_for_size(bad)


class TestTableBudget:
    def test_edge_sizes(self):
        assert 961**2 <= TABLE_MAX_ENTRIES < 1009**2

    @pytest.mark.parametrize("p, degree", [(1009, 1), (101, 2)])  # q = 1009, 10201
    def test_refused_before_building(self, p, degree, monkeypatch):
        def no_build(*args):
            raise AssertionError("table building started")

        monkeypatch.setattr(finite_field, "_index_tables", no_build)
        with pytest.raises(TooLarge, match="table budget"):
            build_field_spec(p, degree).tables()


    def test_elements_past_the_budget(self):
        # elements and their residues need no table; arithmetic does
        f = field_for_size(1009)
        a = f.elt(1008)
        assert (oracles.decompose(a), format_elt(a)) == ((1008, 0), "1008")
        for op in (lambda: a + a, lambda: a * a, lambda: -a, lambda: a.inv()):
            with pytest.raises(TooLarge, match="table budget"):
                op()


class TestArith:
    def test_prime_field_mul(self):
        f3 = build_field_spec(3, 1)
        assert f3.elt(2) * f3.elt(2) == f3.elt(1)

    def test_f9_mul_example(self):
        f9 = build_field_spec(3, 2)
        got = f9.elt(1, 2) * f9.elt(2, 1)
        assert oracles.decompose(got) == poly_mul_mod((1, 2), (2, 1), 3, f9.u, f9.v) == (0, 2)

    def test_f9_add_example(self):
        f9 = build_field_spec(3, 2)
        assert (f9.elt(2, 2) + f9.elt(1, 1)).is_zero()

    def test_mul_matches_poly_oracle_exhaustive(self):
        for q in (4, 9, 25):
            spec = field_for_size(q)
            for a in spec.elements():
                for b in spec.elements():
                    want = poly_mul_mod(oracles.decompose(a), oracles.decompose(b), spec.p, spec.u, spec.v)
                    assert oracles.decompose(a * b) == want

    def test_spec_mismatch(self):
        f3 = build_field_spec(3, 1)
        f5 = build_field_spec(5, 1)
        with pytest.raises(SpecMismatch):
            f3.elt(1) + f5.elt(1)

    def test_neg_ignores_second_operand(self):
        f3 = build_field_spec(3, 1)
        assert -f3.elt(1) == f3.elt(2)


class TestInv:
    def test_examples(self):
        f3 = build_field_spec(3, 1)
        assert f3.elt(2).inv() == f3.elt(2)
        f9 = build_field_spec(3, 2)
        assert f9.xi().inv() == f9.elt(0, 2)

    def test_zero(self):
        f9 = build_field_spec(3, 2)
        with pytest.raises(DivisionByZero):
            f9.zero().inv()

    def test_all_inverses(self):
        for q in SMALL_FIELD_SIZES:
            spec = field_for_size(q)
            one = spec.one()
            for a in spec.elements():
                if not a.is_zero():
                    assert a * a.inv() == one


class TestIndexTables:
    @pytest.mark.parametrize("q", SMALL_FIELD_SIZES)
    def test_tables_match_elt_arithmetic(self, q):
        spec = field_for_size(q)
        assert spec.tables() == oracles.field_tables_residues(spec)

    def test_one_int_object_per_index(self):
        # GF(289) indices pass the small-int cache: entries share 289 objects
        add, mul, neg, inv = field_for_size(289).tables()
        entries = [*add[100], *mul[100], *add[288], *mul[288], *neg, *inv[1:]]
        assert len(set(map(id, entries))) == 289


class TestDecompose:
    def test_identity(self):
        f9 = build_field_spec(3, 2)
        assert oracles.decompose(f9.elt(1, 2)) == (1, 2)
        f3 = build_field_spec(3, 1)
        assert oracles.decompose(f3.elt(2)) == (2, 0)

    def test_round_trip_all_of_f9(self):
        f9 = build_field_spec(3, 2)
        for a in f9.elements():
            a0, a1 = oracles.decompose(a)
            assert f9.elt(a0, a1) == a


def op_tables(spec):
    """Op results on all pairs, as index tables (the module's outputs)."""
    elems = list(spec.elements())
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[a + b] for b in elems] for a in elems]
    mul = [[index[a * b] for b in elems] for a in elems]
    return elems, index, add, mul


class TestAxioms:
    @pytest.mark.parametrize("q", SMALL_FIELD_SIZES)
    def test_field_axioms_exhaustive(self, q):
        spec = field_for_size(q)
        elems, index, add, mul = op_tables(spec)
        n = len(elems)
        zero_i = index[spec.zero()]
        one_i = index[spec.one()]
        # commutativity, identities, inverses on pairs/singles
        for i in range(n):
            assert add[i][zero_i] == i
            assert mul[i][one_i] == i
            assert mul[i][zero_i] == zero_i
            assert index[-elems[i]] == index[spec.zero() - elems[i]]
            assert add[i][index[-elems[i]]] == zero_i
            if i != zero_i:
                assert mul[i][index[elems[i].inv()]] == one_i
            for j in range(n):
                assert add[i][j] == add[j][i]
                assert mul[i][j] == mul[j][i]
        # associativity and distributivity on all triples
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert add[add[i][j]][k] == add[i][add[j][k]]
                    assert mul[mul[i][j]][k] == mul[i][mul[j][k]]
                    assert mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]]

    @pytest.mark.parametrize("q", [4, 9, 25, 49])
    def test_multiplicative_group_order(self, q):
        spec = field_for_size(q)
        one = spec.one()
        for a in spec.elements():
            if not a.is_zero():
                assert a ** (q - 1) == one

    def test_subfield_closure(self):
        # a1 = 0 elements form a copy of GF(p) inside GF(p^2)
        for q in (9, 25):
            spec = field_for_size(q)
            sub = [a for a in spec.elements() if a.a1 == 0]
            assert len(sub) == spec.p
            for a in sub:
                for b in sub:
                    assert (a + b).a1 == 0
                    assert (a * b).a1 == 0
                if not a.is_zero():
                    assert a.inv().a1 == 0


class TestTextSyntax:
    def test_forms(self):
        f9 = build_field_spec(3, 2)
        assert oracles.parse_elt(f9, "1+2x") == f9.elt(1, 2)
        assert oracles.parse_elt(f9, "x") == f9.elt(0, 1)
        assert oracles.parse_elt(f9, "2x") == f9.elt(0, 2)
        assert oracles.parse_elt(f9, "2") == f9.elt(2)
        assert oracles.parse_elt(f9, "2+x") == f9.elt(2, 1)

    def test_round_trip(self):
        for q in (3, 4, 9, 25):
            spec = field_for_size(q)
            for a in spec.elements():
                assert oracles.parse_elt(spec, format_elt(a)) == a

    def test_malformed(self):
        f9 = build_field_spec(3, 2)
        for bad in ("", "+x", "x+1", "1+", "xx", "1 + 2y"):
            with pytest.raises(ValueError):
                oracles.parse_elt(f9, bad)

    def test_degree1_rejects_xi(self):
        f3 = build_field_spec(3, 1)
        with pytest.raises(SpecMismatch):
            oracles.parse_elt(f3, "1+2x")

    def test_spec_json(self):
        f9 = build_field_spec(3, 2)
        assert f9.to_json_dict() == {"p": 3, "degree": 2, "u": 2, "v": 0}


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(-3, 15):
        assert is_prime(n) == (n in primes)
