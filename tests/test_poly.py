"""Exact polynomial arithmetic: unit values frozen by hand, algebra checked by
round trips, Gaussian binomials against an independent series oracle."""
import contextlib
import functools
import json
import math
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from mzeta.poly import (
    BiPoly,
    UniPoly,
    cyclotomic,
    cyclotomic_in_monomial,
    format_terms,
    gaussian_binomial,
    totient,
)
from mzeta.multiset import Composition
from mzeta.zeta import RationalW, _unpack_row, w_numerator
from test_multiset import small_compositions


@functools.lru_cache(maxsize=None)
def long_division_cyclotomic(d):
    """Phi_d as x^d - 1 divided exactly by every Phi_e with e | d, e < d, each
    built the same way: the recursive long-division build."""
    poly = UniPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            poly = poly.div_exact(long_division_cyclotomic(e))
            assert poly is not None
    return poly


def series_binomial_oracle(m, k):
    """Coefficient of y^k in the product over j=0..m of 1/(1 - x^j y), computed
    by plain truncated-series multiplication."""
    series = [UniPoly.one()]  # y^0 coefficient of the running product
    for j in range(m + 1):
        # multiply by 1/(1 - x^j y): new_t = sum over s of old_s * x^{j(t-s)}
        new = []
        for t in range(k + 1):
            acc = UniPoly()
            for s in range(min(t, len(series) - 1) + 1):
                acc = acc + series[s].shift(j * (t - s))
            new.append(acc)
        series = new
    return series[k]


unipolys = st.lists(st.integers(-5, 5), max_size=5).map(UniPoly)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-4, 4),
    max_size=5,
).map(BiPoly)


class TestUniPoly:
    def test_normalisation(self):
        assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert UniPoly((0, 0)).coeffs == ()
        assert not UniPoly()
        assert UniPoly((3,)).degree() == 0
        assert UniPoly().degree() == -1

    @pytest.mark.parametrize("bad", [1.5, 1.0, 0.0, True, False, Fraction(1), "1", None], ids=repr)
    def test_rejects_non_int_coefficients(self, bad):
        # Anywhere in the list, trailing zeros included.
        for coeffs in [(bad,), (1, bad), (bad, 1), (1, bad, 0)]:
            with pytest.raises(ValueError, match="coefficients must be ints"):
                UniPoly(coeffs)

    def test_compares_with_ints(self):
        # Comparison builds no UniPoly, so a bool compares as its int.
        assert UniPoly((1,)) == 1 and UniPoly((1,)) == True
        assert UniPoly() == 0 and UniPoly() == False
        assert UniPoly((0, 1)) != 0

    def test_int_arithmetic_takes_bools_as_ints(self):
        # A bool operand is a constant, as in comparison; only a bool
        # coefficient is rejected.
        p = UniPoly((1, 2))
        assert p + True == p + 1 == UniPoly((2, 2))
        assert True + p == UniPoly((2, 2))
        assert p - False == p and p - True == UniPoly((0, 2))
        assert p * True == p and p * False == UniPoly()
        assert all(type(c) is int for c in (p + True).coeffs + (p - True).coeffs)

    def test_arithmetic(self):
        assert UniPoly((1, 1)) * UniPoly((-1, 1)) == UniPoly((-1, 0, 1))
        assert UniPoly((1, 2)) + UniPoly((0, -2)) == UniPoly((1,))
        assert UniPoly((1, 2)) - UniPoly((1, 2)) == UniPoly()
        assert UniPoly((1, 1)).shift(2) == UniPoly((0, 0, 1, 1))
        assert 3 * UniPoly((1, 1)) == UniPoly((3, 3))

    def test_evaluate(self):
        assert UniPoly((1, 2, 1)).evaluate(3) == 16
        assert UniPoly((1, 2, 1)).evaluate(Fraction(1, 2)) == Fraction(9, 4)

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "2", None], ids=repr)
    def test_evaluate_rejects_non_exact_points(self, bad):
        # As BiPoly.evaluate: a float is not evaluated at its binary value,
        # and a bool is not taken as 0 or 1.
        with pytest.raises(ValueError, match="evaluation points must be ints or Fractions"):
            UniPoly((1, 1)).evaluate(bad)

    def test_div_exact(self):
        p = UniPoly((-1, 0, 1))
        assert p.div_exact(UniPoly((1, 1))) == UniPoly((-1, 1))
        assert p.div_exact(UniPoly((1, 1, 1))) is None
        assert UniPoly((2, 2)).div_exact(UniPoly((0, 4))) is None  # 2+2x over 4x
        assert UniPoly((1,)).div_exact(UniPoly((1, 1))) is None  # divisor of higher degree
        with pytest.raises(ZeroDivisionError):
            p.div_exact(UniPoly())

    @given(unipolys, unipolys)
    @settings(max_examples=80, deadline=None)
    def test_division_round_trip(self, f, g):
        if not g:
            return
        assert (f * g).div_exact(g) == f


@pytest.mark.parametrize("cls", [UniPoly, BiPoly])
class TestIntOperands:
    """An int is a constant on both polynomial classes: in +, - and ==
    from either side, and a constant hashes as its int."""

    def test_equality_and_hash(self, cls):
        for c in (0, 1, -3, True):
            constant = cls.one() * c
            assert constant == c and c == constant
            assert hash(constant) == hash(c)
            assert len({c, constant}) == 1
        assert cls.one() != 2 and cls.zero() != 1

    def test_add_and_subtract_from_either_side(self, cls):
        one = cls.one()
        assert one + 1 == 1 + one == 2
        assert one - 1 == 1 - one == 0
        assert 5 - one == 4 and one - 5 == -4
        p = UniPoly((1, 2)) if cls is UniPoly else BiPoly({(0, 0): 1, (1, 1): 2})
        three = one * 3
        assert p + 3 == 3 + p == p + three and p + True == p + one
        assert p - 3 == p - three and 3 - p == three - p and p - False == p
        assert p != 1 and len({p, p + 0, 0, 1}) == 3


def foreign_operands(cls):
    """Operands that are neither an int nor a polynomial of class cls."""
    return [1.5, Fraction(1, 2), "x", None, BiPoly.one() if cls is UniPoly else UniPoly.one()]


@pytest.mark.parametrize("cls", [UniPoly, BiPoly])
class TestForeignOperands:
    """Only an int is a constant: a float, a Fraction, a str, None or the
    other polynomial class makes +, -, * and exact division raise TypeError
    from either side, and == False."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=lambda op: op.__name__)
    def test_arithmetic_raises_type_error(self, cls, op):
        p = cls.one() + cls.one()
        for bad in foreign_operands(cls):
            with pytest.raises(TypeError):
                op(p, bad)
            with pytest.raises(TypeError):
                op(bad, p)

    def test_equality_is_false(self, cls):
        for p in (cls.zero(), cls.one()):
            for bad in foreign_operands(cls):
                assert not p == bad and not bad == p
                assert p != bad and bad != p

    def test_exact_division_raises_type_error(self, cls):
        divide = UniPoly.div_exact if cls is UniPoly else BiPoly.divide_exact
        for bad in foreign_operands(cls) + [1, 0]:
            with pytest.raises(TypeError):
                divide(cls.one(), bad)


class TestCyclotomic:
    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_index_below_one(self, d):
        with pytest.raises(ValueError, match="^cyclotomic index must be >= 1$"):
            cyclotomic(d)

    def test_small_values(self):
        assert cyclotomic(1) == UniPoly((-1, 1))
        assert cyclotomic(2) == UniPoly((1, 1))
        assert cyclotomic(3) == UniPoly((1, 1, 1))
        assert cyclotomic(4) == UniPoly((1, 0, 1))
        assert cyclotomic(6) == UniPoly((1, -1, 1))
        assert cyclotomic(12) == UniPoly((1, 0, -1, 0, 1))

    def test_degree_is_totient(self):
        for d in range(1, 40):
            assert cyclotomic(d).degree() == totient(d)

    def test_product_recovers_power(self):
        for n in (6, 12):
            prod = UniPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == UniPoly((-1,) + (0,) * (n - 1) + (1,))

    def test_value_at_one(self):
        # For d >= 2 the value at 1 is p when d is a prime power, else 1.
        assert cyclotomic(9).evaluate(1) == 3
        assert cyclotomic(8).evaluate(1) == 2
        assert cyclotomic(6).evaluate(1) == 1
        assert cyclotomic(15).evaluate(1) == 1

    def test_matches_long_division(self):
        for d in range(1, 601):
            assert cyclotomic(d) == long_division_cyclotomic(d), d


class TestGaussianBinomial:
    def test_frozen(self):
        assert gaussian_binomial(1, 1) == UniPoly((1, 1))
        assert gaussian_binomial(3, 0) == UniPoly.one()
        assert gaussian_binomial(0, 5) == UniPoly.one()
        assert gaussian_binomial(2, 2) == UniPoly((1, 1, 2, 1, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 2)

    @pytest.mark.parametrize("m", range(0, 7))
    @pytest.mark.parametrize("k", range(0, 7))
    def test_palindromic_and_binomial_value(self, m, k):
        if m + k > 12:
            return
        g = gaussian_binomial(m, k)
        assert g.is_palindromic()
        assert g.evaluate(1) == math.comb(m + k, k)

    @pytest.mark.parametrize("m", range(0, 5))
    @pytest.mark.parametrize("k", range(0, 5))
    def test_against_series_oracle(self, m, k):
        assert gaussian_binomial(m, k) == series_binomial_oracle(m, k)

    def test_large_arguments(self):
        # m + k far beyond the recursion limit; built without recursion.
        g = gaussian_binomial(600, 600)
        assert g.degree() == 600 * 600
        assert g.is_palindromic()
        assert g.evaluate(1) == math.comb(1200, 600)


class TestBiPoly:
    def test_canonical(self):
        assert BiPoly({(0, 0): 0, (1, 1): 2}).terms == {(1, 1): 2}
        assert not BiPoly()
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    @pytest.mark.parametrize("bad", [1.5, 1.0, 0.0, True, False, Fraction(1), "1"], ids=repr)
    def test_rejects_non_int_coefficients(self, bad):
        with pytest.raises(ValueError):
            BiPoly({(0, 0): bad})

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, Fraction(1), "1"], ids=repr)
    def test_rejects_non_int_exponents(self, bad):
        with pytest.raises(ValueError, match="exponents must be ints"):
            BiPoly({(bad, 0): 1})
        with pytest.raises(ValueError, match="exponents must be ints"):
            BiPoly({(0, bad): 1})

    def test_arithmetic(self):
        p = BiPoly.one() + BiPoly.monomial(1, 1)
        q = BiPoly.one() - BiPoly.monomial(1, 1)
        assert p * q == BiPoly({(0, 0): 1, (2, 2): -1})
        assert p - p == BiPoly()
        assert (p * 3).terms == {(0, 0): 3, (1, 1): 3}

    def test_degrees_and_eval(self):
        p = BiPoly({(2, 1): 1, (0, 0): 1})
        assert p.degree_x() == 2 and p.degree_y() == 1
        assert p.evaluate(2, Fraction(1, 8)) == Fraction(3, 2)
        assert BiPoly().degree_x() == -1

    def test_sorted_terms_order(self):
        p = BiPoly({(2, 1): 1, (0, 0): 1, (1, 1): 1, (0, 2): 1})
        assert p.sorted_terms() == [(0, 0, 1), (1, 1, 1), (2, 1, 1), (0, 2, 1)]

    def test_str(self):
        assert str(BiPoly()) == "0"
        assert str(BiPoly.one()) == "1"
        assert str(BiPoly({(0, 0): 1, (1, 1): 1, (2, 1): 1})) == "1 + x*y + x^2*y"
        assert str(BiPoly({(0, 0): 1, (2, 1): -1})) == "1 - x^2*y"
        assert str(BiPoly({(1, 0): -2, (0, 1): 1})) == "-2*x + y"
        assert format_terms([(0, 0, -5)]) == "-5"

    def test_json_round_trip(self):
        p = BiPoly({(0, 0): 1, (1, 1): 12345678901234567890, (2, 1): -3})
        obj = p.to_json_obj()
        assert obj["vars"] == ["x", "y"]
        assert obj["terms"] == [[0, 0, "1"], [1, 1, "12345678901234567890"], [2, 1, "-3"]]
        # terms sorted by (y, x), coefficients as decimal strings
        assert obj["terms"] == sorted(obj["terms"], key=lambda t: (t[1], t[0]))
        assert BiPoly.from_json_obj(json.loads(json.dumps(obj))) == p

    def test_from_json_rejects(self):
        with pytest.raises(ValueError):
            BiPoly.from_json_obj({"vars": ["x"], "terms": []})
        with pytest.raises(ValueError):
            BiPoly.from_json_obj({"vars": ["x", "y"], "terms": [[0, 0, "1"], [0, 0, "2"]]})

    @pytest.mark.parametrize(
        "term",
        [[0.5, 0, "1"], [1, True, "2"], [2, 0, 1.5], [2, 0, True], [2, 0, "1.5"], [2, 0, " 3"], [0, 1.0, "0"]],
    )
    def test_from_json_rejects_what_it_would_truncate(self, term):
        with pytest.raises(ValueError):
            BiPoly.from_json_obj({"vars": ["x", "y"], "terms": [[0, 0, "1"], term]})

    def test_from_json_reads_int_and_string_coefficients(self):
        obj = {"vars": ["x", "y"], "terms": [[0, 0, 1], [1, 1, "-12"]]}
        assert BiPoly.from_json_obj(obj) == BiPoly({(0, 0): 1, (1, 1): -12})

    def test_committed_numerators_load(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "numerators.json"
        entries = json.loads(path.read_text(encoding="utf-8"))["numerators"]
        for entry in entries:
            num = BiPoly.from_json_obj(entry["numerator"])
            assert num.to_json_obj() == entry["numerator"]

    def test_y_coefficients_round_trip(self):
        p = BiPoly({(0, 0): 1, (3, 2): 4, (1, 2): -1})
        coeffs = p.y_coefficients()
        assert coeffs[0] == UniPoly((1,))
        assert coeffs[2] == UniPoly((0, -1, 0, 4))
        assert BiPoly.from_y_coefficients(coeffs) == p

    @pytest.mark.parametrize("degree", [-1, 1.0, True, "2"], ids=repr)
    def test_from_y_coefficients_refuses_bad_degrees(self, degree):
        # A negative degree would index the rows from the end.
        with pytest.raises(ValueError, match="y-degrees must be nonnegative ints"):
            BiPoly.from_y_coefficients({degree: UniPoly((1,)), 2: UniPoly((0, 1))})

    @pytest.mark.parametrize("row", [5, 2.5, True, None, (1, 2), BiPoly.one()], ids=repr)
    def test_from_y_coefficients_refuses_rows_that_are_not_unipolys(self, row):
        # A plain number as a row once built a BiPoly whose str raised
        # AttributeError and whose + raised TypeError.
        with pytest.raises(ValueError, match="y-coefficients must be UniPolys"):
            BiPoly.from_y_coefficients({0: UniPoly((5,)), 1: row})
        with pytest.raises(ValueError, match="y-coefficients must be UniPolys"):
            BiPoly.from_y_coefficients({0: row})

    def test_reversed_xy(self):
        p = BiPoly({(0, 0): 1, (1, 1): 2, (2, 2): 1})
        assert p.reversed_xy() == BiPoly({(2, 2): 1, (1, 1): 2, (0, 0): 1})
        q = BiPoly({(0, 0): 1, (2, 1): 1})
        assert q.reversed_xy() == BiPoly({(2, 1): 1, (0, 0): 1})


def from_json_term(a, b, c):
    return BiPoly.from_json_obj({"vars": ["x", "y"], "terms": [[a, b, c]]})


# Every public constructor, and cyclotomic_in_monomial's direction, with the
# value v in one coefficient or exponent place.  A zero coefficient does not
# let a bad exponent through.
PUBLIC_EDGE = {
    "UniPoly coefficient": lambda v: UniPoly((1, v, 2)),
    "UniPoly.monomial coefficient": lambda v: UniPoly.monomial(2, v),
    "UniPoly.monomial exponent": lambda v: UniPoly.monomial(v),
    "BiPoly coefficient": lambda v: BiPoly({(0, 0): 1, (1, 2): v}),
    "BiPoly x exponent": lambda v: BiPoly({(v, 0): 1}),
    "BiPoly y exponent of a zero term": lambda v: BiPoly({(0, v): 0}),
    "BiPoly.monomial coefficient": lambda v: BiPoly.monomial(1, 1, v),
    "BiPoly.monomial x exponent": lambda v: BiPoly.monomial(v, 1),
    "BiPoly.monomial y exponent": lambda v: BiPoly.monomial(1, v),
    "from_json_obj coefficient": lambda v: from_json_term(0, 0, v),
    "from_json_obj x exponent": lambda v: from_json_term(v, 0, "1"),
    "from_json_obj y exponent": lambda v: from_json_term(0, v, 0),
    "cyclotomic_in_monomial direction": lambda v: cyclotomic_in_monomial(2, 1, v),
}


def assert_canonical_unipoly(p):
    assert type(p) is UniPoly
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p == UniPoly(p.coeffs)


def assert_canonical_bipoly(p):
    assert type(p) is BiPoly
    assert type(p.rows) is tuple
    assert not p.rows or p.rows[-1]
    for row in p.rows:
        assert_canonical_unipoly(row)
    assert all(type(c) is int and c for c in p.terms.values())
    assert p == BiPoly(p.terms)


def packed(f, width=8):
    """f's coefficients as balanced digits of one int, width bits each."""
    return sum(c << (width * i) for i, c in enumerate(f.coeffs))


class TestBoundary:
    """The public constructors check their input; the package's own builders
    go through the unchecked canonicaliser and still give canonical
    polynomials."""

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, Fraction(1), "1"], ids=repr)
    @pytest.mark.parametrize("where", PUBLIC_EDGE)
    def test_public_constructors_refuse_non_ints(self, where, bad):
        if (where, bad) == ("from_json_obj coefficient", "1"):
            # A decimal string is the interchange form of a coefficient.
            assert PUBLIC_EDGE[where](bad) == BiPoly.one()
            return
        with pytest.raises(ValueError, match="must be"):
            PUBLIC_EDGE[where](bad)

    @pytest.mark.parametrize("key", [5, (1,), (1, 2, 3), "xy", None], ids=repr)
    def test_bipoly_refuses_keys_that_are_not_pairs(self, key):
        message = rf"^exponents must be \(x, y\) pairs, got {re.escape(repr(key))}$"
        for coeff in (1, 0):
            with pytest.raises(ValueError, match=message):
                BiPoly({key: coeff})

    def test_bipoly_checks_the_keys_of_zero_terms(self):
        with pytest.raises(ValueError, match=r"^negative exponent pair \(-1, 0\)$"):
            BiPoly({(-1, 0): 0})
        with pytest.raises(ValueError, match=r"^exponents must be ints, got \(1.5, 0\)$"):
            BiPoly({(1.5, 0): 0})

    @pytest.mark.parametrize("term", [5, [1, 2], [1, 2, "3", 4], "123", None], ids=repr)
    def test_from_json_refuses_terms_that_are_not_triples(self, term):
        with pytest.raises(ValueError, match=r"^terms must be \[x, y, coefficient\], got "):
            BiPoly.from_json_obj({"vars": ["x", "y"], "terms": [[0, 0, "1"], term]})

    @pytest.mark.parametrize(
        "obj",
        [{"vars": ["x", "y"]}, {"vars": ["x", "y"], "terms": 5}, [["x", "y"], [[0, 0, "1"]]]],
        ids=["no terms", "terms not a list", "a list in place of the object"],
    )
    def test_from_json_refuses_malformed_objects(self, obj):
        with pytest.raises(ValueError, match="^polynomial object must "):
            BiPoly.from_json_obj(obj)

    def test_monomial_refuses_a_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative"):
            UniPoly.monomial(-1)
        with pytest.raises(ValueError, match="negative exponent pair"):
            BiPoly.monomial(0, -1)

    def test_bool_scalars_give_int_coefficients(self):
        p = UniPoly((1, -2, 3))
        q = BiPoly({(0, 0): 1, (2, 1): -3})
        for r in (p * True, True * p, p + True, True + p, p - True, p * False):
            assert_canonical_unipoly(r)
        for r in (q * True, True * q, q * False):
            assert_canonical_bipoly(r)
        assert p * True == p and q * True == q

    @given(unipolys, unipolys, st.integers(-3, 3), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_unipoly_builders_are_canonical(self, f, g, k, s):
        built = [f + g, f - g, f * g, -f, f * k, k * f, f + k, f.shift(s), _unpack_row(packed(f), 8)]
        if g:
            built.append((f * g).div_exact(g))
        for p in built:
            assert_canonical_unipoly(p)
        assert _unpack_row(packed(f), 8) == f

    @given(bipolys, bipolys, st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_bipoly_builders_are_canonical(self, f, g, k):
        rows = f.y_coefficients()
        built = [f + g, f - g, f * g, -f, f * k, k * f, BiPoly.from_y_coefficients(rows), f.reversed_xy()]
        if g:
            built.append((f * g).divide_exact(g))
        for p in built:
            assert_canonical_bipoly(p)
        for row in rows.values():
            assert_canonical_unipoly(row)
            assert row


def term_by_term(f, x, y):
    """The plain evaluator: one product of powers per term, summed."""
    return sum(c * x**a * y**b for (a, b), c in f.terms.items())


def seeded_sparse_polys(count, seed=2024):
    """BiPolys with a few scattered terms and coefficients of both signs."""
    rng = random.Random(seed)
    return [
        BiPoly({
            (rng.randrange(12), rng.randrange(8)): rng.randint(-10**6, 10**6)
            for _ in range(rng.randint(1, 9))
        })
        for _ in range(count)
    ]


EVALUATION_POINTS = [0, 1, -1, 3, Fraction(0), Fraction(-3, 4), Fraction(5, 2), Fraction(1, 7)]


class TestEvaluate:
    def test_matches_term_by_term(self):
        polys = [w_numerator(eta) for eta in small_compositions(6)]
        polys += seeded_sparse_polys(40) + [BiPoly()]
        for f in polys:
            for x in EVALUATION_POINTS:
                for y in EVALUATION_POINTS:
                    got = f.evaluate(x, y)
                    assert got == term_by_term(f, x, y), (f, x, y)
                    both_int = isinstance(x, int) and isinstance(y, int)
                    assert type(got) is (int if both_int else Fraction), (f, x, y)

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, "2", None], ids=repr)
    def test_rejects_non_exact_points(self, bad):
        with pytest.raises(ValueError, match="evaluation points must be ints or Fractions"):
            BiPoly.one().evaluate(bad, 2)
        with pytest.raises(ValueError, match="evaluation points must be ints or Fractions"):
            BiPoly.one().evaluate(Fraction(1, 2), bad)

    def test_rational_form_matches_term_by_term(self):
        for eta in small_compositions(5):
            rational = RationalW.for_composition(eta)
            for q in EVALUATION_POINTS[1:]:
                for t in (Fraction(-1, 5), Fraction(2, 9), 3):
                    denom = math.prod(1 - Fraction(q) ** j * t for j in rational.denom_exponents)
                    if not denom:
                        continue
                    value = rational.evaluate(q, t)
                    assert type(value) is Fraction
                    assert value == term_by_term(rational.numerator, Fraction(q), Fraction(t)) / denom

    @pytest.mark.parametrize(
        "q, t, message",
        [
            (Fraction(1, 2), 2, r"^\(1 - q\^1 t\) vanishes at q=1/2, t=2$"),
            (1, 1, r"^\(1 - q\^0 t\) vanishes at q=1, t=1$"),
        ],
    )
    def test_rational_form_names_the_first_vanishing_factor(self, q, t, message):
        rational = RationalW.for_composition(Composition((2, 2)))
        with pytest.raises(ZeroDivisionError, match=message):
            rational.evaluate(q, t)


class TestDivision:
    def test_binomial_divisor_examples(self):
        one_xy = BiPoly({(0, 0): 1, (1, 1): 1})
        assert one_xy.divide_exact(one_xy) == BiPoly.one()
        numerator = BiPoly({(0, 0): 1, (1, 1): 1, (2, 1): 1})
        assert numerator.divide_exact(one_xy) is None

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            BiPoly.one().divide_exact(BiPoly())

    def test_constant_divisor(self):
        p = BiPoly({(0, 0): 2, (1, 1): 4})
        assert p.divide_exact(BiPoly({(0, 0): 2})) == BiPoly({(0, 0): 1, (1, 1): 2})
        assert p.divide_exact(BiPoly({(0, 0): 3})) is None

    @given(bipolys, bipolys)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, f, g):
        if not g:
            return
        product = f * g
        quotient = product.divide_exact(g)
        assert quotient is not None
        assert quotient == f
        assert quotient * g == product


class TestCyclotomicMonomial:
    def test_values(self):
        assert cyclotomic_in_monomial(2, 1, 1) == BiPoly({(0, 0): 1, (1, 1): 1})
        assert cyclotomic_in_monomial(4, 1, 1) == BiPoly({(0, 0): 1, (2, 2): 1})
        assert cyclotomic_in_monomial(2, 3, 1) == BiPoly({(0, 0): 1, (3, 1): 1})
        assert cyclotomic_in_monomial(1, 1, 0) == BiPoly({(0, 0): -1, (1, 0): 1})

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            cyclotomic_in_monomial(2, 0, 0)


@pytest.mark.parametrize("cached", [totient, cyclotomic], ids=lambda f: f.__name__)
def test_caches_are_bounded(cached):
    # Process-wide caches must not grow for the life of the process.
    assert cached.cache_info().maxsize is not None


class TestTotient:
    def test_values(self):
        assert [totient(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        with pytest.raises(ValueError):
            totient(0)

    def test_counts_coprime_residues(self):
        for d in range(1, 301):
            assert totient(d) == sum(math.gcd(k, d) == 1 for k in range(1, d + 1)), d


class TestIntArguments:
    """shift, totient, cyclotomic and gaussian_binomial take ints only, as the
    constructors do: a float or a bool raises ValueError, also once the
    equal int is in the cache."""

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.0, 2.5], ids=repr)
    @pytest.mark.parametrize("cached", [totient, cyclotomic], ids=lambda f: f.__name__)
    def test_cached_functions_refuse_non_ints(self, cached, bad):
        with contextlib.suppress(ValueError):
            cached(int(bad))
        with pytest.raises(ValueError, match="^arguments must be ints, got "):
            cached(bad)

    @pytest.mark.parametrize("args", [(True, 1), (1, True), (2.0, 1), (1, 2.5), (0, False)], ids=repr)
    def test_gaussian_binomial_refuses_non_ints(self, args):
        with pytest.raises(ValueError, match="^arguments must be ints, got "):
            gaussian_binomial(*args)

    @pytest.mark.parametrize("bad", [-1, True, False, 1.0, None], ids=repr)
    def test_shift_refuses_what_is_not_a_nonnegative_int(self, bad):
        with pytest.raises(ValueError, match="^shift needs a nonnegative int, got "):
            UniPoly((1, 2)).shift(bad)
        assert UniPoly((1, 2)).shift(0) == UniPoly((1, 2))


class DictBiPoly:
    """The reference: BiPoly as a sparse map {(x-degree, y-degree): nonzero
    coefficient}, with the dict-based arithmetic the row layout replaced."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in dict(terms).items() if v}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return DictBiPoly(out)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return DictBiPoly(out)

    def degree_x(self):
        return max((a for a, _ in self.terms), default=-1)

    def degree_y(self):
        return max((b for _, b in self.terms), default=-1)

    def evaluate(self, x, y):
        def powers(v, top):
            v = Fraction(v)
            return [v.numerator**k * v.denominator ** (top - k) for k in range(top + 1)]

        wx = powers(x, max(self.degree_x(), 0))
        wy = powers(y, max(self.degree_y(), 0))
        rows = [0] * len(wy)
        for (a, b), c in self.terms.items():
            rows[b] += c * wx[a]
        total = sum(r * w for r, w in zip(rows, wy))
        if isinstance(x, int) and isinstance(y, int):
            return total
        return Fraction(total, wx[0] * wy[0])

    def sorted_terms(self):
        return [(a, b, self.terms[(a, b)]) for a, b in sorted(self.terms, key=lambda k: (k[1], k[0]))]

    def y_coefficients(self):
        buckets = {}
        for (a, b), c in self.terms.items():
            buckets.setdefault(b, []).append((a, c))
        out = {}
        for b, pairs in buckets.items():
            coeffs = [0] * (max(a for a, _ in pairs) + 1)
            for a, c in pairs:
                coeffs[a] = c
            out[b] = UniPoly(coeffs)
        return out

    def reversed_xy(self):
        big_a, big_b = self.degree_x(), self.degree_y()
        return DictBiPoly({(big_a - a, big_b - b): c for (a, b), c in self.terms.items()})

    def divide_exact(self, other):
        num = self.y_coefficients()
        den = other.y_coefficients()
        dy = max(den)
        lead = den[dy]
        quot = {}
        cur = dict(num)
        while cur:
            ny = max(cur)
            if ny < dy:
                return None
            q = cur[ny].div_exact(lead)
            if q is None:
                return None
            quot[ny - dy] = q
            for k, dpoly in den.items():
                tgt = ny - dy + k
                updated = cur.get(tgt, UniPoly()) - dpoly * q
                if updated:
                    cur[tgt] = updated
                else:
                    cur.pop(tgt, None)
        return DictBiPoly({(a, b): c for b, poly in quot.items() for a, c in enumerate(poly.coeffs)})


# Term maps whose y-degrees leave zero rows between nonzero ones, whose rows
# have gaps in x, with small and big coefficients of both signs; the empty map
# and all-zero maps are the zero polynomial.
term_maps = st.dictionaries(
    st.tuples(st.integers(0, 9), st.sampled_from([0, 1, 3, 4, 7])),
    st.one_of(st.integers(-3, 3), st.integers(-(2**90), 2**90)),
    max_size=8,
)

REFERENCE_POINTS = [(0, 0), (1, -1), (3, 2), (Fraction(-3, 4), 5), (2, Fraction(1, 7))]


def same(poly, ref):
    """poly, a BiPoly or None, equals the reference ref, a DictBiPoly or None."""
    if ref is None:
        return poly is None
    return poly is not None and poly.terms == ref.terms and poly.sorted_terms() == ref.sorted_terms()


class TestAgainstDictReference:
    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(term_maps, term_maps)
    @example({}, {(0, 0): 1})
    @example({(2, 0): 5, (0, 3): -(2**100)}, {(0, 4): 0, (1, 1): 1})
    def test_rows_match_the_dict_reference(self, f_terms, g_terms):
        f, g = BiPoly(f_terms), BiPoly(g_terms)
        rf, rg = DictBiPoly(f_terms), DictBiPoly(g_terms)
        for poly in (f, g, f + g, f * g, f.reversed_xy()):
            assert_canonical_bipoly(poly)
        assert same(f, rf) and same(g, rg)
        assert same(f + g, rf + rg)
        assert same(f * g, rf * rg)
        assert same(f.reversed_xy(), rf.reversed_xy())
        assert f.y_coefficients() == rf.y_coefficients()
        assert (f.degree_x(), f.degree_y()) == (rf.degree_x(), rf.degree_y())
        for x, y in REFERENCE_POINTS:
            got, want = f.evaluate(x, y), rf.evaluate(x, y)
            assert got == want and type(got) is type(want)
        if g:
            assert same((f * g).divide_exact(g), (rf * rg).divide_exact(rg))
            assert same(f.divide_exact(g), rf.divide_exact(rg))


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def list_add(a, b, sign=1):
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    return trim(x + sign * y for x, y in zip(a, b))


def list_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return trim(out)


def list_div(a, b):
    """The coefficients of a/b if b divides a in Z[x], else None: long
    division over Q, then a zero remainder and an integral quotient."""
    a, b = trim(a), trim(b)
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for top in range(len(a) - 1, len(b) - 2, -1):
        q = rem[top] / b[-1]
        quot[top - len(b) + 1] = q
        for j, d in enumerate(b):
            rem[top - len(b) + 1 + j] -= q * d
    if any(rem) or any(q.denominator != 1 for q in quot):
        return None
    return trim(int(q) for q in quot)


# Coefficient lists with trailing zeros, gaps and big coefficients of both signs.
coeff_lists = st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**90), 2**90)), max_size=7)


class TestAgainstListReference:
    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(coeff_lists, coeff_lists)
    @example([], [1])
    @example([0, 0], [0, 2])
    @example([2, 2], [0, 4])
    def test_unipoly_matches_the_list_reference(self, a, b):
        f, g = UniPoly(a), UniPoly(b)
        for poly in (f, g, f + g, f - g, f * g):
            assert_canonical_unipoly(poly)
        assert list(f.coeffs) == trim(a)
        assert list((f + g).coeffs) == list_add(a, b)
        assert list((f - g).coeffs) == list_add(a, b, -1)
        assert list((f * g).coeffs) == list_mul(a, b)
        if g:
            for num in (f, f * g, f * g + f.shift(1)):
                got, want = num.div_exact(g), list_div(list(num.coeffs), b)
                assert (got is None) == (want is None)
                assert got is None or list(got.coeffs) == want
