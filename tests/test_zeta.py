"""Distributions, the rational form, and the identity checks, each against an
independently computed oracle where one exists."""
import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mzeta.admissible import admissible_perms, den, i_set, iexc, n_minus_set, n_plus_set
from mzeta.multiset import Composition, denh, des, exc, imv, inv, maj, words
from mzeta.signed import b_stats, d_stats, even_signed_perms, excabs, nden, neg, nsp, signed_perms
from mzeta.poly import BiPoly, UniPoly, cyclotomic_in_monomial, gaussian_binomial, totient
from mzeta.verify import compositions_of
from mzeta import cli, poly, zeta
from mzeta.zeta import (
    BudgetError,
    InvariantError,
    RationalW,
    ReciprocityResult,
    ScanBounds,
    conjecture_report,
    default_bounds,
    distribution,
    domain_size,
    domain_stats,
    expected_reciprocity,
    hadamard_check,
    hadamard_series_coefficient,
    joint_distribution,
    joint_distributions,
    reciprocity_check,
    signed_numerator,
    unitary_factor_scan,
    w_numerator,
    zeta_eval,
)
from test_multiset import small_compositions


@pytest.fixture
def cold_macmahon():
    """Route A's memo, empty before the test and again after it, so that no
    planted or spied product outlives the test."""
    zeta._macmahon_rows.cache_clear()
    yield
    zeta._macmahon_rows.cache_clear()


# Every statistic of every domain through its public function.
WORD_FUNCS = {
    "des": lambda w, eta: des(w),
    "maj": lambda w, eta: maj(w),
    "inv": lambda w, eta: inv(w),
    "imv": lambda w, eta: imv(w),
    "exc": exc,
    "denh": denh,
}
ADMISSIBLE_FUNCS = {"den": den, "iexc": iexc}
B_FUNCS = {
    "des": des,
    "maj": maj,
    "neg": neg,
    **{f: (lambda f: lambda w: getattr(b_stats(w), f))(f) for f in ("ndes", "nmaj", "fdes", "fmaj")},
    "excabs": excabs,
    "nden": nden,
}
D_FUNCS = {
    **B_FUNCS,
    **{f: (lambda f: lambda w: getattr(d_stats(w), f))(f) for f in ("dneg", "ddes", "dmaj", "dexc")},
    "nsp": nsp,
    "dden": lambda w: d_stats(w).dden,
}


def assert_every_pair_matches(domain, funcs, objects, **kw):
    assert tuple(funcs) == domain_stats(domain)
    for s1, f1 in funcs.items():
        for s2, f2 in funcs.items():
            expected = BiPoly(Counter((f1(o), f2(o)) for o in objects))
            assert joint_distribution(domain, (s1, s2), **kw) == expected, (s1, s2)


def series_oracle(rational, terms):
    """y-series of the factored form by truncated multiplication: expand every
    1/(1 - x^j y) as a geometric series, multiply, then multiply by the
    numerator."""
    series = [UniPoly.one()] + [UniPoly()] * (terms - 1)
    for j in rational.denom_exponents:
        new = []
        for t in range(terms):
            acc = UniPoly()
            for s in range(t + 1):
                acc = acc + series[s].shift(j * (t - s))
            new.append(acc)
        series = new
    numc = rational.numerator.y_coefficients()
    out = []
    for t in range(terms):
        acc = UniPoly()
        for s in range(t + 1):
            acc = acc + numc.get(s, UniPoly()) * series[t - s]
        out.append(acc)
    return out


def schoolbook_gaussian_product(parts, k):
    """G_k = prod over the parts p of (p+k choose k)_x, one UniPoly product
    per part, no packing."""
    return math.prod((gaussian_binomial(p, k) for p in parts), start=UniPoly.one())


def macmahon_oracle(eta, top):
    """Schoolbook y^0..y^top coefficients of the product of (1 - x^j y) over
    j = 0..n with the termwise Gaussian-binomial series: UniPoly products,
    no packing."""
    dplus = [UniPoly.one()]
    for j in range(eta.n + 1):
        dplus = [a - b.shift(j) for a, b in zip(dplus + [UniPoly()], [UniPoly()] + dplus)]
    gauss = [schoolbook_gaussian_product(eta.parts, k) for k in range(top + 1)]
    return [
        sum((dplus[j] * gauss[k - j] for j in range(min(k, eta.n + 1) + 1)), UniPoly())
        for k in range(top + 1)
    ]


def reference_unitary_scan(f, bounds):
    """The scan as one double loop that tests the degree bound for every
    (direction, d) pair."""
    dx = f.degree_x()
    dy = f.degree_y()
    max_d = min(bounds.max_d, 2 * max(dx, dy) ** 2)
    f23 = f.evaluate(2, 3)
    found = []
    for a, b in [(1, 0)] + [(a, b) for b in range(1, bounds.max_b + 1) for a in range(bounds.max_a + 1)]:
        for d in range(1, max_d + 1):
            ph = totient(d)
            if a * ph > dx or b * ph > dy:
                continue
            probe = poly.cyclotomic(d).evaluate(2**a * 3**b)
            if probe and f23 % probe:
                continue
            candidate = cyclotomic_in_monomial(d, a, b)
            if f.divide_exact(candidate) is not None:
                found.append((d, a, b, candidate))
    return found


def probe_free_unitary_scan(f, bounds):
    """The scan with no integer probe: every (direction, d) pair that passes
    the degree test is decided by exact division."""
    dx = f.degree_x()
    dy = f.degree_y()
    max_d = min(bounds.max_d, 2 * max(dx, dy) ** 2)
    found = []
    for a, b in [(1, 0)] + [(a, b) for b in range(1, bounds.max_b + 1) for a in range(bounds.max_a + 1)]:
        for d in range(1, max_d + 1):
            ph = totient(d)
            if a * ph <= dx and b * ph <= dy:
                candidate = cyclotomic_in_monomial(d, a, b)
                if f.divide_exact(candidate) is not None:
                    found.append((d, a, b, candidate))
    return found


def reference_scan_cases():
    """(polynomial, bounds) pairs for the scan references: numerators and
    residuals with n <= 5 at default and wide bounds, products with planted
    factors, and bounds past both degrees."""
    cases = []
    for eta in small_compositions(5):
        num = w_numerator(eta)
        n = eta.n
        cases += [(num, default_bounds(n)), (num, ScanBounds(n, n, 10 * n * n))]
        report = conjecture_report(eta, numerator=num)
        if report.residual is not None:
            cases.append((report.residual, default_bounds(n)))
    base = w_numerator(Composition((2, 1, 1)))
    for d, a, b in [(1, 0, 1), (3, 1, 1), (4, 2, 1), (6, 0, 2), (5, 1, 0), (12, 1, 1)]:
        product = base * cyclotomic_in_monomial(d, a, b) * cyclotomic_in_monomial(2, 1, 1)
        cases.append((product, ScanBounds(4, 4, 300)))
    # Bounds past both degrees: the directions beyond them find nothing.
    cases.append((w_numerator(Composition((2, 1))), ScanBounds(40, 30, 300)))
    # The Newton-polygon prune: a monomial shift moves the polygon and keeps
    # its edges; non-primitive directions (2, 2) and (0, 2), with Phi_1, ask
    # for edges of lattice length 2k; a point has no edge and a segment is two.
    shifted = base * cyclotomic_in_monomial(3, 1, 1) * BiPoly.monomial(2, 1, -3)
    cases.append((shifted, ScanBounds(4, 4, 60)))
    for d, a, b in [(1, 2, 2), (2, 2, 2), (1, 0, 2), (4, 0, 2)]:
        planted = base * cyclotomic_in_monomial(d, a, b) * cyclotomic_in_monomial(1, 1, 1)
        cases.append((planted, ScanBounds(4, 4, 60)))
    cases.append((BiPoly.monomial(3, 2, 5), ScanBounds(4, 4, 60)))
    diagonal = cyclotomic_in_monomial(2, 1, 1) * cyclotomic_in_monomial(6, 2, 2) * BiPoly.monomial(1, 0)
    cases += [(diagonal, ScanBounds(6, 6, 60)), (cyclotomic_in_monomial(4, 0, 2), ScanBounds(2, 6, 60))]
    # The pure-x direction is scanned whatever max_a says.
    cases.append((base * cyclotomic_in_monomial(3, 1, 0), ScanBounds(0, 0, 20)))
    # Bounds that cut a multiple k*(p, q) of an edge direction: (2, 2) by
    # max_a, (2, 2) by max_b and (0, 3) by max_b.
    square = cyclotomic_in_monomial(1, 2, 2) * cyclotomic_in_monomial(2, 2, 2) * base
    cases += [(square, ScanBounds(1, 4, 40)), (square, ScanBounds(4, 1, 40))]
    cases.append((cyclotomic_in_monomial(1, 0, 3) * base, ScanBounds(3, 2, 40)))
    return cases


class TestDomains:
    def test_sizes(self):
        assert domain_size("words", eta=Composition((2, 1))) == 3
        assert domain_size("admissible", eta=Composition((3, 2, 2, 3))) == 25200
        assert domain_size("B", n=2) == 8
        assert domain_size("D", n=2) == 4

    @pytest.mark.parametrize("domain", ["B", "D"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_n_below_one(self, domain, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            domain_size(domain, n=n)

    @pytest.mark.parametrize("domain", ["B", "D"])
    @pytest.mark.parametrize("n", [True, 2.0], ids=repr)
    def test_rejects_rank_that_is_not_an_int(self, domain, n):
        with pytest.raises(ValueError, match="n must be an int"):
            domain_size(domain, n=n)
        with pytest.raises(ValueError, match="n must be an int"):
            signed_numerator(domain, n)

    def test_unknown(self):
        with pytest.raises(ValueError):
            domain_size("C", n=2)
        with pytest.raises(ValueError):
            domain_size("words")
        with pytest.raises(ValueError, match="^domain 'B' needs n$"):
            domain_size("B")

    def test_stats_registry(self):
        assert "denh" in domain_stats("words")
        assert domain_stats("admissible") == ("den", "iexc")
        assert "dden" in domain_stats("D")
        assert "dden" not in domain_stats("B")


class TestFormatCount:
    def test_printable_counts_unchanged(self):
        assert zeta.format_count(645120) == "645120"
        assert zeta.format_count(10**4299) == "1" + "0" * 4299  # 4300 digits, the limit

    @pytest.mark.parametrize(
        "count,text",
        [(10**4300, "1.00e4300"), (10**4301 - 1, "9.99e4300"), (2**20000, "3.98e6020"), (-(10**5000) * 271, "-2.71e5002")],
        ids=["10^4300", "10^4301-1", "2^20000", "-271*10^5000"],
    )
    def test_unprintable_counts(self, count, text):
        assert zeta.format_count(count) == text

    def test_budget_error_of_unprintable_size(self):
        with pytest.raises(BudgetError, match=r"^domain of size 3\.80e6337 exceeds the budget of 10000000$"):
            joint_distribution("B", ("neg", "des"), n=2000)


def count_kernel_calls(monkeypatch) -> Counter:
    """Count the calls of every kernel of the registry, by function name: each
    entry of zeta.STATS gets one spy per distinct kernel in its place."""
    calls = Counter()
    spies = {}
    for table in zeta.STATS.values():
        for name, (kernel, field) in list(table.items()):
            if kernel not in spies:
                fn, contextual = kernel
                spy = lambda *args, fn=fn: calls.update([fn.__name__]) or fn(*args)
                spies[kernel] = (spy, contextual)
            monkeypatch.setitem(table, name, (spies[kernel], field))
    return calls


class TestWindowStats:
    @pytest.mark.parametrize("domain,funcs,windows", [("B", B_FUNCS, signed_perms), ("D", D_FUNCS, even_signed_perms)])
    def test_every_statistic_in_registry_order(self, domain, funcs, windows):
        for window in windows(3):
            stats = zeta.window_stats(domain, window)
            assert tuple(stats) == domain_stats(domain)
            assert stats == {name: funcs[name](window) for name in stats}

    @pytest.mark.parametrize("domain,kernels", [("B", {"b_kernel": 1}), ("D", {"b_kernel": 1, "d_kernel": 1})])
    def test_one_call_per_kernel(self, monkeypatch, domain, kernels):
        calls = count_kernel_calls(monkeypatch)
        zeta.window_stats(domain, (-2, 3, -1, 4))
        assert calls == kernels

    @pytest.mark.parametrize("domain", ["words", "admissible", "A"])
    def test_rejects_other_domains(self, domain):
        with pytest.raises(ValueError, match=f"signed domain, 'B' or 'D'; got {domain!r}"):
            zeta.window_stats(domain, (1, 2))


class TestJointDistribution:
    def test_words_examples(self):
        eta = Composition((2, 1))
        expected = BiPoly({(0, 0): 1, (1, 1): 1, (2, 1): 1})
        assert joint_distribution("words", ("denh", "exc"), eta=eta) == expected
        assert joint_distribution("words", ("maj", "des"), eta=eta) == expected
        assert joint_distribution("words", ("maj", "des"), eta=Composition((3,))) == BiPoly.one()

    def test_admissible_example(self):
        eta = Composition((1, 1, 1, 1))
        lhs = joint_distribution("admissible", ("den", "iexc"), eta=eta)
        rhs = joint_distribution("words", ("maj", "des"), eta=eta)
        assert lhs == rhs

    def test_d_domain(self):
        poly = joint_distribution("D", ("dden", "dexc"), n=2)
        assert poly == BiPoly({(0, 0): 1, (1, 1): 2, (2, 2): 1})
        assert poly.evaluate(1, 1) == 4

    def test_value_at_one(self):
        eta = Composition((2, 2))
        poly = joint_distribution("words", ("denh", "exc"), eta=eta)
        assert poly.evaluate(1, 1) == eta.word_count()

    def test_unknown_stat(self):
        with pytest.raises(ValueError):
            joint_distribution("words", ("denh", "dden"), eta=Composition((2, 1)))

    def test_budget(self):
        with pytest.raises(BudgetError):
            joint_distribution("words", ("maj", "des"), eta=Composition((2, 1)), budget=2)

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_fast_paths_match_public_functions(self, eta):
        # The tight loops inside joint_distribution must agree with the plain
        # per-object statistics, including the set-based den.
        by_loop = joint_distribution("words", ("denh", "exc"), eta=eta)
        by_funcs = Counter((denh(w, eta), exc(w, eta)) for w in words(eta))
        assert by_loop == BiPoly(by_funcs)
        by_loop = joint_distribution("admissible", ("den", "iexc"), eta=eta)
        by_sets = Counter()
        for sigma in admissible_perms(eta):
            cells = i_set(eta, sigma)
            value = (
                sum(j for _, j in cells)
                + len(n_plus_set(eta, sigma))
                - len(n_minus_set(eta, sigma))
                - len(cells)
            )
            assert value == den(eta, sigma)
            by_sets[(value, iexc(eta, sigma))] += 1
        assert by_loop == BiPoly(by_sets)
        if eta.n <= 4:
            funcs = {s: (lambda f: lambda w: f(w, eta))(f) for s, f in WORD_FUNCS.items()}
            assert_every_pair_matches("words", funcs, list(words(eta)), eta=eta)
            funcs = {s: (lambda f: lambda p: f(eta, p))(f) for s, f in ADMISSIBLE_FUNCS.items()}
            assert_every_pair_matches("admissible", funcs, list(admissible_perms(eta)), eta=eta)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_pairs_match_public_functions(self, n):
        assert_every_pair_matches("B", B_FUNCS, list(signed_perms(n)), n=n)
        assert_every_pair_matches("D", D_FUNCS, list(even_signed_perms(n)), n=n)


class TestJointDistributions:
    """Several pairs from one pass must equal joint_distribution of each."""

    CASES = [
        ("words", [("inv", "imv"), ("maj", "des"), ("denh", "exc"), ("imv", "maj")], {"eta": Composition((2, 1, 2))}),
        ("admissible", [("den", "iexc"), ("iexc", "den")], {"eta": Composition((1, 3, 1))}),
        ("B", [("fmaj", "fdes"), ("nden", "excabs"), ("nmaj", "ndes"), ("neg", "maj")], {"n": 3}),
        ("D", [("dden", "dexc"), ("dmaj", "ddes"), ("nsp", "nden")], {"n": 4}),
    ]

    @pytest.mark.parametrize("domain,pairs,kw", CASES, ids=[c[0] for c in CASES])
    def test_each_pair_matches(self, domain, pairs, kw):
        expected = [joint_distribution(domain, pair, **kw) for pair in pairs]
        assert joint_distributions(domain, pairs, **kw) == expected

    def test_each_kernel_once_per_object(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        joint_distributions("B", [("fmaj", "fdes"), ("nden", "excabs"), ("nmaj", "ndes"), ("maj", "des")], n=4)
        assert calls == {"b_kernel": 384}

    # A scalar pair and a pair across two kernels, against a plain Counter.
    REFERENCE = {
        "words": (("inv", "imv"), lambda w: (inv(w), imv(w))),
        "B": (("neg", "des"), lambda w: (neg(w), des(w))),
    }

    @pytest.mark.parametrize("domain,kw,objects", [
        ("words", {"eta": Composition((1,) * 4)}, lambda: words(Composition((1,) * 4))),
        ("B", {"n": 3}, lambda: signed_perms(3)),
    ], ids=["words_1^4", "B_3"])
    @pytest.mark.parametrize(
        "batch",
        [lambda size: size - 1, lambda size: size, lambda size: size + 1, lambda size: size // 2, lambda size: 1000],
        ids=["size-1", "size", "size+1", "half_size", "above_size"],
    )
    def test_batch_edges_match_counter(self, monkeypatch, domain, kw, objects, batch):
        # A batch of one object less than the domain, exactly the domain or
        # half of it, or more than the domain.
        pair, stats = self.REFERENCE[domain]
        monkeypatch.setattr(zeta, "_BATCH", batch(domain_size(domain, **kw)))
        rows = [stats(w) for w in objects()]
        expected = [BiPoly(Counter(rows)), BiPoly(Counter((b, a) for a, b in rows))]
        assert joint_distributions(domain, [pair, pair[::-1]], **kw) == expected

    @pytest.mark.parametrize("domain,kw,objects", [
        ("words", {"eta": Composition((1,) * 7)}, lambda: words(Composition((1,) * 7))),
        ("B", {"n": 5}, lambda: signed_perms(5)),
    ], ids=["words_1^7", "B_5"])
    def test_several_batches_match_counter(self, domain, kw, objects):
        # 5040 words and 3840 windows: at a batch of 256, 19 full batches
        # and one of 176, and exactly 15 full batches.
        pair, stats = self.REFERENCE[domain]
        assert domain_size(domain, **kw) > 10 * zeta._BATCH
        expected = BiPoly(Counter(map(stats, objects())))
        assert joint_distributions(domain, [pair], **kw) == [expected]
        assert joint_distribution(domain, pair, **kw) == expected

    def test_budget_and_unknown_stat(self):
        with pytest.raises(BudgetError):
            joint_distributions("B", [("nmaj", "ndes")], n=3, budget=47)
        with pytest.raises(ValueError, match="not defined on domain"):
            joint_distributions("B", [("nmaj", "ndes"), ("dden", "dexc")], n=2)


def plant_top_row(monkeypatch) -> None:
    """Make _packed_series add 1 to the top row it returns."""
    packed = zeta._packed_series

    def extra_top(*args):
        series = packed(*args)
        return series[:-1] + [series[-1] + UniPoly.one()]

    monkeypatch.setattr(zeta, "_packed_series", extra_top)


class TestNumerator:
    def test_frozen(self):
        assert w_numerator(Composition((1, 1))) == BiPoly({(0, 0): 1, (1, 1): 1})
        assert w_numerator(Composition((4,))) == BiPoly.one()
        assert w_numerator(Composition((2, 1))) == BiPoly({(0, 0): 1, (1, 1): 1, (2, 1): 1})

    def test_cross_check_runs_both_routes(self):
        eta = Composition((2, 2))
        num = w_numerator(eta)
        assert num == joint_distribution("words", ("maj", "des"), eta=eta)
        assert num == joint_distribution("admissible", ("den", "iexc"), eta=eta)

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_counts(self, eta):
        assert w_numerator(eta).evaluate(1, 1) == eta.word_count()

    def test_one_part_of_forty_is_linear_in_the_packed_size(self):
        # One word, but route A builds the part's column with 41 running sums
        # over 41 rows and applies 41 binomials to them; each is one pass,
        # linear in the packed size.
        t0 = time.perf_counter()
        assert w_numerator(Composition((40,))) == BiPoly.one()
        assert time.perf_counter() - t0 < 1.0

    def test_two_parts_of_twelve_pack_slots_wider_than_64_bits(self, monkeypatch, cold_macmahon):
        # Route A's slot bound for (12, 12) passes 2^63, so its columns and
        # binomials shift slots of more than 64 bits; route B, run inside
        # w_numerator, is the oracle.  A warm memo would leave only route B's
        # width to see.
        widths = []
        slot_width = zeta._slot_width
        monkeypatch.setattr(zeta, "_slot_width", lambda bound: widths.append(slot_width(bound)) or widths[-1])
        num = w_numerator(Composition((12, 12)))
        assert max(widths) > 64
        assert num.evaluate(1, 1) == math.comb(24, 12)
        assert num.degree_x() == 12 * 12

    def test_x_degree_is_e2(self):
        # deg_x N = e_2(eta), the sum of eta_a * eta_b over a < b: the cut
        # that route A could make exactly.
        for n in range(1, 10):
            for eta in compositions_of(n):
                e2 = sum(a * b for a, b in itertools.combinations(eta.parts, 2))
                assert w_numerator(eta).degree_x() == e2, eta

    def test_budget_counts_words(self):
        with pytest.raises(BudgetError):
            w_numerator(Composition((1, 1, 1, 1)), budget=23)
        assert w_numerator(Composition((1, 1, 1, 1)), budget=24).evaluate(1, 1) == 24

    def test_route_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(zeta, "_denh_exc_numerator", lambda eta: BiPoly.one())
        with pytest.raises(InvariantError, match="numerator mismatch"):
            w_numerator(Composition((2, 1)))

    def test_nonvanishing_top_row_raises(self, monkeypatch, cold_macmahon):
        # Route A's product runs through y^(n+1), where MacMahon's numerator
        # has no term; w_numerator checks that row.
        plant_top_row(monkeypatch)
        with pytest.raises(InvariantError, match=r"y\^4 coefficient 1 of MacMahon's product does not vanish"):
            w_numerator(Composition((2, 1)))


# Neither route enumerates; each must reproduce the (den, iexc) enumeration,
# which is the numerator's definition.
ROUTES = {"maj_des": zeta._maj_des_numerator, "denh_exc": zeta._denh_exc_numerator}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_route_matches_den_iexc_enumeration(route):
    for eta in small_compositions(6):
        assert route(eta) == joint_distribution("admissible", ("den", "iexc"), eta=eta), eta


def test_macmahon_series_matches_schoolbook(cold_macmahon):
    # The packed product that route A and hadamard_check share, through
    # y^(n+1), where the coefficients must vanish; every truncation is a
    # prefix of the one product.
    for eta in small_compositions(6):
        rows = zeta._macmahon_rows(eta.parts)
        assert len(rows) == eta.n + 2 and not rows[-1], eta
        for top in range(eta.n + 2):
            assert list(rows[: top + 1]) == macmahon_oracle(eta, top), (eta, top)


def test_macmahon_memo_is_bounded():
    # Process-wide caches must not grow for the life of the process.
    assert zeta._macmahon_rows.cache_info().maxsize is not None


def count_packed_series(monkeypatch) -> list:
    """Spy on _packed_series: one entry per call."""
    calls = []
    packed = zeta._packed_series
    monkeypatch.setattr(zeta, "_packed_series", lambda *args: calls.append(args) or packed(*args))
    return calls


class TestOneProductPerComposition:
    def test_verify_hadamard_builds_one_product(self, monkeypatch, capsys, cold_macmahon):
        calls = count_packed_series(monkeypatch)
        assert cli.main(["verify", "--check", "hadamard", "--eta", "2,1,2"]) == 0
        assert "hadamard eta=2,1,2: pass" in capsys.readouterr().out
        assert len(calls) == 1

    def test_hadamard_check_rereads_the_numerators_product(self, monkeypatch, cold_macmahon):
        calls = count_packed_series(monkeypatch)
        eta = Composition((2, 1, 2))
        assert hadamard_check(eta, numerator=w_numerator(eta)).ok
        assert len(calls) == 1

    def test_committed_numerator_never_runs_route_b(self, monkeypatch, cold_macmahon):
        eta = Composition((3, 1, 2))
        num = w_numerator(eta)
        zeta._macmahon_rows.cache_clear()
        calls = count_packed_series(monkeypatch)

        def no_route_b(eta):
            raise AssertionError("hadamard_check ran route B")

        monkeypatch.setattr(zeta, "_denh_exc_numerator", no_route_b)
        assert hadamard_check(eta, numerator=num).ok
        assert len(calls) == 1


@pytest.mark.parametrize("parts", [(2, 1, 2), (1,) * 5, (1,) * 4], ids=str)
def test_numerator_pipeline_never_reads_terms(parts, monkeypatch, cold_macmahon):
    # A BiPoly is its y-rows; BiPoly.terms is built from them on each read.
    # The pipeline works in rows throughout, so a spy on terms sees no read.
    # (1^4 qualifies for the conjecture, so its report divides as well.)
    reads = []
    terms = BiPoly.terms
    monkeypatch.setattr(BiPoly, "terms", property(lambda self: reads.append(1) or terms.fget(self)))
    eta = Composition(parts)
    num = w_numerator(eta)
    rational = RationalW(num, tuple(range(eta.n)))
    assert hadamard_check(eta, numerator=num).ok
    expected = expected_reciprocity(eta) or ReciprocityResult(False)
    assert reciprocity_check(eta, numerator=num) == expected
    assert rational.series(8) == series_oracle(rational, 8)
    rational.evaluate(Fraction(2), Fraction(1, 7))
    assert conjecture_report(eta, numerator=num).consistent
    assert reads == []
    assert num.terms and reads == [1]  # the spy does see a read


def positions_route_b(eta):
    """The earlier route B, kept as a reference for the rem-state DP: the state
    is how many copies of each letter sit in E and how many in N."""
    n, r, parts = eta.n, eta.r, eta.parts
    w = zeta._slot_width(eta.word_count())
    stride = n + 1
    layer = {(0,) * (2 * r): 1}
    for i, t in enumerate(eta.trivial_word, start=1):
        nxt = {}
        for state, poly in layer.items():
            e_ge = 0  # E letters >= a
            n_gt = 0  # N letters > a
            for a in range(r, 0, -1):
                in_e = state[a - 1]
                in_n = state[r + a - 1]
                e_ge += in_e
                if in_e + in_n < parts[a - 1]:
                    if a > t:
                        slot, shift = a - 1, (i + e_ge) * stride + 1
                    else:
                        slot, shift = r + a - 1, n_gt * stride
                    key = state[:slot] + (state[slot] + 1,) + state[slot + 1:]
                    nxt[key] = nxt.get(key, 0) + (poly << (w * shift))
                n_gt += in_n
        layer = nxt
    digits = zeta._unpack(sum(layer.values()), w, (n * n + 1) * stride)
    return BiPoly({(s // stride, s % stride): c for s, c in enumerate(digits) if c})


def test_rem_state_route_b_matches_position_dp():
    compositions = small_compositions(8)
    assert len(compositions) == 255
    for eta in compositions:
        assert zeta._denh_exc_numerator(eta) == positions_route_b(eta), eta


ROUTE_B_EDGES = [
    *((m,) * r for m in range(1, 13) for r in range(1, 12 // m + 1)),
    (40,),
    (6, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 6),
]


@pytest.mark.parametrize("parts", ROUTE_B_EDGES, ids=lambda parts: ",".join(map(str, parts)))
def test_route_b_matches_route_a_at_the_edges(parts):
    # Past the n <= 8 sweep: one part (a single radix) and n parts (n radices
    # of 2) in the state index, and one large part next to ones, whose top
    # slot ends the bit-length read-back.
    eta = Composition(parts)
    assert zeta._denh_exc_numerator(eta) == zeta._maj_des_numerator(eta)


def packed_series_oracle(parts, top, factors):
    """Schoolbook truncated product of sum_k G_k y^k with the factors."""
    series = [schoolbook_gaussian_product(parts, k) for k in range(top + 1)]
    for a, b in factors:
        series = [
            c - (series[k - b].shift(a) if k >= b else UniPoly()) for k, c in enumerate(series)
        ]
    return series[: top + 1]


def test_packed_series_matches_schoolbook():
    # Random part multisets (empty and repeated parts included), random
    # factors (b = 0 included), every truncation from y^0 to y^6, against
    # products of gaussian_binomial columns.
    rng = random.Random(6)
    for _ in range(150):
        top = rng.randrange(7)
        parts = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(5)))
        factors = [(rng.randrange(5), rng.randrange(4)) for _ in range(rng.randrange(6))]
        expected = packed_series_oracle(parts, top, factors)
        assert zeta._packed_series(parts, top, factors) == expected, (parts, top, factors)


@given(
    st.lists(st.integers(1, 6), max_size=4),
    st.integers(0, 10),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_packed_series_slot_bound_peaks_at_the_top_row(parts, top, factors):
    # The bound sum_j ways[j] * G_(k-j)(1) never decreases in k, so its value
    # at k = top, the one _packed_series sizes its slots by, is its maximum
    # over every row.
    ways = [1] + [0] * top
    for a, b in factors:
        for j in range(top, b - 1, -1):
            ways[j] += ways[j - b]
    sizes = [math.prod(math.comb(p + k, k) for p in parts) for k in range(top + 1)]
    row_bounds = [sum(ways[j] * sizes[k - j] for j in range(k + 1)) for k in range(top + 1)]
    bounds = []
    slot_width = zeta._slot_width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta, "_slot_width", lambda bound: bounds.append(bound) or slot_width(bound))
        zeta._packed_series(tuple(parts), top, factors)
    assert bounds == [max(row_bounds)] == [row_bounds[-1]]


SIGNED_PAIRS = {"B": [("nden", "excabs"), ("nmaj", "ndes"), ("fmaj", "fdes")], "D": [("dden", "dexc"), ("dmaj", "ddes")]}


def balanced_pack(digits, width):
    """The integer sum of d * 2^(width*i), each d a balanced digit: what the
    slot codec reads back, by plain integer arithmetic."""
    return sum(d << (width * i) for i, d in enumerate(digits))


def test_slot_width_is_the_smallest_struct_or_byte_width():
    # 8, 16, 32 or 64 bits, or a multiple of 8 above 64; it holds +-bound as
    # a balanced digit, and no smaller such width does.
    widths = [8, 16, 32, 64, *range(72, 216, 8)]
    for bound in [0] + [(1 << bits) - c for bits in range(1, 201) for c in (0, 1)]:
        w = zeta._slot_width(bound)
        assert w in widths and bound < 1 << (w - 1), bound
        i = widths.index(w)
        assert i == 0 or bound >= 1 << (widths[i - 1] - 1), bound


class TestSlotCodec:
    """_unpack and _unpack_row at every slot width of 1 to 16 bytes:
    the struct widths (1, 2, 4, 8) and int.from_bytes at every other one."""

    @pytest.mark.parametrize("size", range(1, 17))
    def test_round_trip(self, size):
        w = 8 * size
        low, high = -(1 << (w - 1)), (1 << (w - 1)) - 1
        rng = random.Random(size)
        digits = [low, high, 0, 0, 0, -1, 1, high, 0, low, low + 1, high - 1]
        digits += [rng.randint(low, high) for _ in range(20)] + [0] * 5
        for count in range(len(digits) + 1):
            # Nonzero slots above count do not reach the ones read.
            value = balanced_pack(digits[:count], w) + (rng.randint(-3, 3) << (w * count))
            assert list(zeta._unpack(value, w, count)) == digits[:count]

    @pytest.mark.parametrize("size", range(1, 17))
    def test_series_rows(self, size):
        # One packed int per y-row: all-zero rows, runs of zero slots inside
        # and at the end of a row, top digits of -2^(w-1), and top digits that
        # the digit below pulls down to a bit length of w or less, against
        # UniPoly built by hand.
        w = 8 * size
        low, high = -(1 << (w - 1)), (1 << (w - 1)) - 1
        rows = [
            [],
            [low],
            [high],
            [0, 0, high],
            [high, 0, 0, 0],
            [0, low, 0, -1],
            [0, 0, 0, 0, 0, 1],
            [high, 1],
            [-1, 0, 0, 0, 0, low],
            [0, 0, low],
            [low, 1],
            [high, -1],
            [0, 0, 0],
        ]
        for row in rows:
            assert zeta._unpack_row(balanced_pack(row, w), w).coeffs == UniPoly(row).coeffs, row


class TestSignedNumerator:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_matches_enumeration(self, kind, n):
        num = signed_numerator(kind, n)
        for pair in SIGNED_PAIRS[kind]:
            assert num == joint_distribution(kind, pair, n=n), pair
        assert num.degree_x() == (n * n if kind == "B" else n * (n - 1))

    def test_rank_twelve(self):
        n = 12
        b, d = signed_numerator("B", n), signed_numerator("D", n)
        assert b.evaluate(1, 1) == 2**n * math.factorial(n)
        assert d.evaluate(1, 1) == 2 ** (n - 1) * math.factorial(n)
        assert (b.degree_y(), d.degree_y()) == (2 * n - 1, 2 * n - 2)
        assert (b.degree_x(), d.degree_x()) == (n * n, n * (n - 1))

    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_rank_fourteen(self, kind):
        # The major side packs 80-bit slots here, so its y^2 factors shift
        # slots wider than 64 bits; the Denert side inside signed_numerator,
        # A_14 by insertion times the binomials, is the oracle.
        n = 14
        num = signed_numerator(kind, n)
        assert num.evaluate(1, 1) == zeta.domain_size(kind, n=n)
        assert num.degree_y() == (2 * n - 1 if kind == "B" else 2 * n - 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            signed_numerator("B", 0)
        with pytest.raises(ValueError, match="unknown signed kind"):
            signed_numerator("A", 3)

    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_denert_side_mismatch_raises(self, kind, monkeypatch):
        monkeypatch.setattr(zeta, "_euler_mahonian_rows", lambda n, w: [1])
        with pytest.raises(InvariantError, match=f"type {kind} numerator mismatch"):
            signed_numerator(kind, 3)

    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_nonvanishing_top_coefficient_raises(self, kind, monkeypatch):
        plant_top_row(monkeypatch)
        with pytest.raises(InvariantError, match="does not vanish"):
            signed_numerator(kind, 3)


@pytest.mark.parametrize("n", range(1, 13))
def test_insertion_rows_match_route_b_on_ones(n):
    # The theorem (denh, exc) ~ (maj, des) on S_n, which the Denert side of
    # signed_numerator rests on: route B computes (denh, exc) over the words
    # of 1^n, and the insertion rows are (maj, des).
    w = zeta._slot_width(math.factorial(n))
    insertion = BiPoly._canonical(zeta._unpack_row(r, w) for r in zeta._euler_mahonian_rows(n, w))
    assert insertion == zeta._denh_exc_numerator(Composition((1,) * n))


def route_b_denert_side(kind, n):
    """The Denert side as a Denert computation: route B on 1^n, times
    1 + x^k y for k = 1..n (B) or k = 1..n-1 (D) on UniPoly rows."""
    rows = list(zeta._denh_exc_numerator(Composition((1,) * n)).rows)
    for k in range(1, n + 1 if kind == "B" else n):
        rows = [a + b.shift(k) for a, b in zip(rows + [UniPoly()], [UniPoly()] + rows)]
    return BiPoly._canonical(rows)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["B", "D"])
def test_signed_numerator_matches_route_b_denert_side(kind, n):
    assert signed_numerator(kind, n) == route_b_denert_side(kind, n)


@pytest.mark.parametrize("n", [*range(1, 17), 20, 24])
@pytest.mark.parametrize("kind", ["B", "D"])
def test_signed_numerator_structure(kind, n):
    # Self-reciprocal with zero shift, |B_n| or |D_n| terms, and within the
    # default bounds the unitary factors are exactly the binomials
    # Phi_2(x^k y) = 1 + x^k y that the Denert side multiplies A_n by.
    num = signed_numerator(kind, n)
    assert num.reversed_xy() == num
    assert num.evaluate(1, 1) == zeta.domain_size(kind, n=n)
    found = unitary_factor_scan(num, default_bounds(n))
    ks = range(1, n + 1 if kind == "B" else n)
    assert [(f.order, f.x_power, f.y_power) for f in found] == [(2, k, 1) for k in ks]
    assert [f.poly for f in found] == [BiPoly({(0, 0): 1, (k, 1): 1}) for k in ks]


SIGNED_24 = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mzeta.zeta import signed_numerator
t0 = time.perf_counter()
signed_numerator({kind!r}, 24)
print(time.perf_counter() - t0)
"""


@pytest.mark.parametrize("kind", ["B", "D"])
def test_signed_numerator_of_rank_24_takes_under_a_second(kind):
    # About 0.1 s each on a 2-vCPU host; the Denert side by route B on 1^24
    # would hold 2^24 states.  The subprocess lets the timeout stop it, and
    # its 1 GiB address-space limit keeps such a run from filling memory.
    src = Path(zeta.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", SIGNED_24.format(kind=kind)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=10, check=True,
    )
    assert float(done.stdout) < 1.0


class TestDistribution:
    def test_routed_pairs_enumerate_nothing(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("a routed pair enumerated")

        monkeypatch.setattr(zeta, "joint_distribution", no_enumeration)
        for (domain, pair), route in zeta.NUMERATOR_ROUTES.items():
            kw = {"n": 4} if domain in ("B", "D") else {"eta": Composition((2, 1, 2))}
            expected = signed_numerator(route, 4) if route != "A" else w_numerator(kw["eta"])
            assert distribution(domain, pair, **kw) == expected

    def test_other_pairs_enumerate(self):
        assert distribution("B", ("excabs", "nden"), n=3) == joint_distribution("B", ("excabs", "nden"), n=3)
        assert distribution("D", ("nsp", "dneg"), n=3) == joint_distribution("D", ("nsp", "dneg"), n=3)

    @pytest.mark.parametrize(
        "domain,pair,kw,size",
        [
            ("B", ("nden", "excabs"), {"n": 7}, 645120),
            ("D", ("dmaj", "ddes"), {"n": 3}, 24),
            ("words", ("maj", "des"), {"eta": Composition((2, 2))}, 6),
            ("admissible", ("den", "iexc"), {"eta": Composition((1, 1, 1))}, 6),
        ],
    )
    def test_routes_charge_the_domain_size(self, domain, pair, kw, size):
        with pytest.raises(BudgetError, match=f"domain of size {size} exceeds the budget of {size - 1}"):
            distribution(domain, pair, budget=size - 1, **kw)
        if size < 1000:
            assert distribution(domain, pair, budget=size, **kw).evaluate(1, 1) == size


class TestRationalW:
    def test_evaluate_example(self):
        assert zeta_eval(Composition((2, 1)), Fraction(2), Fraction(1, 8)) == Fraction(16, 3)
        assert zeta_eval(Composition((3,)), 2, 0) == 1
        assert zeta_eval(Composition((1, 1)), Fraction(7, 3), 0) == 1

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            zeta_eval(Composition((2, 1)), 2, Fraction(1, 2))

    @pytest.mark.parametrize("bad", [0.1, 2.0, True, False, "2", None])
    def test_evaluate_rejects_non_exact_points(self, bad):
        # A float would be evaluated at its binary value, a bool as 0 or 1.
        for q, t in ((bad, Fraction(1, 8)), (Fraction(2), bad)):
            with pytest.raises(ValueError, match="evaluation points must be ints or Fractions"):
                zeta_eval(Composition((2, 1)), q, t)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "2", None])
    def test_rejects_bad_exponents(self, bad):
        with pytest.raises(ValueError, match="denominator exponents must be non-negative ints"):
            RationalW(BiPoly.one(), (0, bad))

    def test_series_frozen(self):
        series = RationalW.for_composition(Composition((1, 1))).series(3)
        assert series == [UniPoly((1,)), UniPoly((1, 2)), UniPoly((1, 2, 2))]

    def test_series_budget(self):
        # x-degree 0, top 2, largest exponent 1: span 3, so 3 terms pack 9 slots.
        rational = RationalW(BiPoly.one(), (0, 1))
        assert rational.series(3, budget=9) == rational.series(3)
        with pytest.raises(BudgetError, match="packs 9 slots"):
            rational.series(3, budget=8)
        assert rational.series(0, budget=0) == []

    @pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "2", None])
    def test_series_refuses_terms_that_are_not_ints(self, bad):
        # A bool would count as 0 or 1 terms, a float reach range() or math.comb.
        rational = RationalW(BiPoly.one(), (0, 1))
        with pytest.raises(ValueError, match="number of series terms must be an int"):
            rational.series(bad)

    @pytest.mark.parametrize("parts", [(1, 1), (2, 1), (3,), (2, 2)])
    def test_series_against_oracle(self, parts):
        rational = RationalW.for_composition(Composition(parts))
        assert rational.series(6) == series_oracle(rational, 6)

    def test_series_against_oracle_on_arbitrary_input(self):
        # Signed and wide coefficients; empty, zero and repeated exponents; a
        # zero numerator; every length from 0 to 12.
        cases = [
            (BiPoly(), (0, 1)),
            (BiPoly(), ()),
            (BiPoly.one(), ()),
            (BiPoly.one(), (0, 0, 0)),
            (BiPoly({(0, 0): 1, (1, 1): -1}), (2, 2, 0)),
            (BiPoly({(0, 0): 10**30, (3, 1): -(10**30), (0, 5): 7}), (1, 3)),
        ]
        rng = random.Random(4)
        for _ in range(40):
            terms = {(rng.randrange(6), rng.randrange(4)): rng.randint(-30, 30) for _ in range(rng.randrange(1, 10))}
            exponents = tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
            cases.append((BiPoly({k: v for k, v in terms.items() if v}), exponents))
        for num, exponents in cases:
            rational = RationalW(num, exponents)
            for terms in range(13):
                assert rational.series(terms) == series_oracle(rational, terms), (num, exponents, terms)

    def test_series_against_oracle_at_every_slot_width(self):
        # Coefficients of 2^0 to 2^120 put the slots of series(6) at every
        # width from 2 to 16 bytes, past the 64-bit struct formats.
        for bits in range(121):
            num = BiPoly({(0, 0): 1 << bits, (2, 1): -(1 << bits) + 3, (1, 3): -1})
            rational = RationalW(num, (0, 1, 1))
            assert rational.series(6) == series_oracle(rational, 6), bits

    def test_evaluate_matches_series_truncation(self):
        # At t with |t| small the truncated series approaches the value; check
        # exactly via the rational identity value * denom == numerator.
        eta = Composition((2, 1))
        rational = RationalW.for_composition(eta)
        q, t = Fraction(3), Fraction(1, 5)
        value = rational.evaluate(q, t)
        denom = Fraction(1)
        for j in rational.denom_exponents:
            denom *= 1 - q**j * t
        assert value * denom == rational.numerator.evaluate(q, t)


class TestHadamard:
    def test_first_coefficients(self):
        eta = Composition((1, 1))
        assert hadamard_series_coefficient(eta, 0) == UniPoly.one()
        assert hadamard_series_coefficient(eta, 1) == UniPoly((1, 2, 1))  # (1+x)^2

    @pytest.mark.parametrize("bad", [True, False, 2.0, 1.5, "1", None])
    def test_series_coefficient_refuses_an_index_that_is_not_an_int(self, bad):
        # True would give G_1 and a float reach math.comb.
        with pytest.raises(ValueError, match="series index k must be an int"):
            hadamard_series_coefficient(Composition((1, 1)), bad)

    def test_series_coefficient_matches_schoolbook(self):
        compositions = small_compositions(8)
        assert len(compositions) == 255
        for eta in compositions:
            for k in range(13):
                expected = schoolbook_gaussian_product(eta.parts, k)
                assert hadamard_series_coefficient(eta, k) == expected, (eta, k)

    @pytest.mark.parametrize("k", [8, 16, 24, 32])
    def test_series_coefficient_of_eight_threes(self, k):
        eta = Composition((3,) * 8)
        coefficient = hadamard_series_coefficient(eta, k)
        assert coefficient == schoolbook_gaussian_product(eta.parts, k)
        assert coefficient.evaluate(1) == math.comb(3 + k, k) ** 8

    @pytest.mark.parametrize("parts", [(1, 1), (2, 1), (3,), (2, 2), (3, 2, 2, 3)])
    def test_holds(self, parts):
        result = hadamard_check(Composition(parts))
        assert result.ok, result

    def test_detects_mismatch(self):
        result = hadamard_check(Composition((1, 1)), numerator=BiPoly.one())
        assert not result.ok
        assert result.mismatch_degree == 1
        assert result.product_side != result.numerator_side

    @pytest.mark.parametrize("extra", [1, 2, 7])
    def test_detects_extra_top_degree_term(self, extra):
        # Both sides must vanish at y^(n+1) and above; a numerator with a term
        # there fails.
        eta = Composition((2, 1))
        degree = eta.n + extra
        result = hadamard_check(eta, numerator=w_numerator(eta) + BiPoly.monomial(0, degree))
        assert not result.ok
        assert result.mismatch_degree == degree
        assert result.numerator_side == UniPoly.one()
        assert result.product_side == UniPoly()


class TestReciprocity:
    def test_examples(self):
        assert reciprocity_check(Composition((1, 1))).triple() == (1, 0, 1)
        assert not reciprocity_check(Composition((2, 1))).holds

    def test_refusals(self):
        with pytest.raises(ValueError, match="^no functional equation to report$"):
            ReciprocityResult(False).triple()
        with pytest.raises(ValueError, match="^zero numerator$"):
            reciprocity_check(Composition((2, 1)), numerator=BiPoly())

    def test_rectangles(self):
        for m, r in [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (4, 1)]:
            eta = Composition((m,) * r)
            observed = reciprocity_check(eta)
            assert observed == expected_reciprocity(eta)
            assert observed.triple() == ((-1) ** (r * m), r * m * (m - 1) // 2, m)

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_dichotomy(self, eta):
        observed = reciprocity_check(eta)
        assert observed.holds == (eta.is_rectangle() is not None)

    @staticmethod
    def sorted_walk(eta, numerator):
        """Oracle: both term lists sorted and walked in pairs against the
        shift and sign their first terms fix."""
        n = eta.n
        fwd_terms = sorted(numerator.terms.items())
        rev_terms = sorted(numerator.reversed_xy().terms.items())
        if len(fwd_terms) != len(rev_terms):
            return ReciprocityResult(False)
        (fa, fb), fc = fwd_terms[0]
        (ra, rb), rc = rev_terms[0]
        shift_x, shift_y = ra - fa, rb - fb
        if rc == fc:
            delta = 1
        elif rc == -fc:
            delta = -1
        else:
            return ReciprocityResult(False)
        for ((a1, b1), c1), ((a2, b2), c2) in zip(fwd_terms, rev_terms):
            if a2 != a1 + shift_x or b2 != b1 + shift_y or c2 != delta * c1:
                return ReciprocityResult(False)
        return ReciprocityResult(
            True,
            (-1) ** n * delta,
            n * (n - 1) // 2 - numerator.degree_x() + shift_x,
            n - numerator.degree_y() + shift_y,
        )

    def test_arbitrary_polynomials_match_sorted_walk(self):
        # Signed coefficients, supports off (0, 0), both signs of the
        # equation, and polynomials that miss it by one term or one sign.
        rng = random.Random(15)
        deltas = Counter()
        for trial in range(1500):
            eta = Composition(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            f = BiPoly({
                (rng.randint(0, 4), rng.randint(0, 3)): rng.choice((-3, -2, -1, 1, 2, 3))
                for _ in range(rng.randint(1, 6))
            })
            for g in (f, f + f.reversed_xy(), f - f.reversed_xy()):
                g = g * BiPoly.monomial(rng.randint(0, 2), rng.randint(0, 2), rng.choice((-1, 1)))
                if rng.random() < 0.2 and g:
                    g = g + BiPoly.monomial(rng.randint(0, 5), rng.randint(0, 4))
                if not g:
                    continue
                expected = self.sorted_walk(eta, g)
                assert reciprocity_check(eta, numerator=g) == expected, (eta, g)
                deltas[expected.sign * (-1) ** eta.n if expected.holds else None] += 1
        assert deltas[1] > 100 and deltas[-1] > 100 and deltas[None] > 100, deltas


class TestUnitaryScan:
    def test_finds_binomial_factor(self):
        num = w_numerator(Composition((1, 1)))
        found = unitary_factor_scan(num, default_bounds(2))
        assert [(u.order, u.x_power, u.y_power) for u in found] == [(2, 1, 1)]
        assert str(found[0].poly) == "1 + x*y"

    def test_empty_on_two_one(self):
        num = w_numerator(Composition((2, 1)))
        assert unitary_factor_scan(num, ScanBounds(3, 2, 12)) == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unitary_factor_scan(BiPoly(), default_bounds(2))

    @pytest.mark.parametrize(
        "bounds", [ScanBounds(-1, 2, 12), ScanBounds(3, -1, 12), ScanBounds(-1, -1, 12),
                   ScanBounds(3, 2, 0), ScanBounds(3, 2, -5)]
    )
    def test_rejects_bounds_that_scan_nothing(self, bounds):
        num = w_numerator(Composition((1, 1)))
        with pytest.raises(ValueError, match="scan bounds need"):
            unitary_factor_scan(num, bounds)

    @pytest.mark.parametrize(
        "bounds", [ScanBounds(1.5, 8, 128), ScanBounds(True, 8, 128), ScanBounds(8, 8.0, 128),
                   ScanBounds(8, 8, 128.0), ScanBounds(8, 8, "128")], ids=repr
    )
    def test_rejects_bounds_that_are_not_ints(self, bounds):
        num = w_numerator(Composition((2, 2, 2, 2)))
        with pytest.raises(ValueError, match=r"^scan bounds must be ints, got ScanBounds\("):
            unitary_factor_scan(num, bounds)

    def test_smallest_bounds_scan_the_pure_x_direction(self):
        # max_b = 0 leaves the pure-x direction (1, 0) and nothing else.
        num = w_numerator(Composition((1, 1))) * BiPoly({(0, 0): 1, (1, 0): 1})
        found = unitary_factor_scan(num, ScanBounds(0, 0, 2))
        assert [(u.order, u.x_power, u.y_power) for u in found] == [(2, 1, 0)]

    def test_scan_of_constant_is_empty(self):
        assert unitary_factor_scan(BiPoly.one(), default_bounds(3)) == ()

    def test_large_max_d_stops_at_degree_bound(self):
        # Every hit has totient(d) <= max(deg_x, deg_y) = 6, so d <= 2 * 6^2.
        num = w_numerator(Composition((1, 1, 1, 1)))
        t0 = time.perf_counter()
        wide = unitary_factor_scan(num, ScanBounds(4, 4, 3_000_000))
        assert time.perf_counter() - t0 < 2
        assert wide == unitary_factor_scan(num, ScanBounds(4, 4, 72))
        assert [(u.order, u.x_power, u.y_power) for u in wide] == [(2, 2, 1)]

    @pytest.mark.parametrize(
        "terms,lengths",
        [
            # (x^2 y^2 - 1)(1 + x): a parallelogram, two edges in each direction.
            ({(0, 0): -1, (1, 0): -1, (2, 2): 1, (3, 2): 1}, {(1, 0): 1, (1, 1): 2}),
            # (1 + x)(1 + x + y): the shorter of the two x-edges counts.
            ({(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1, (1, 1): 1}, {(1, 0): 1}),
            # A triangle has no antiparallel pair; a point has no edge.
            ({(0, 0): 1, (2, 0): 1, (0, 3): 1}, {}),
            ({(3, 2): 5}, {}),
            # A segment is two edges, there and back.
            ({(0, 0): 1, (0, 4): -1}, {(0, 1): 4}),
            ({(1, 0): 1, (2, 1): 2, (4, 3): 1}, {(1, 1): 3}),
        ],
    )
    def test_edge_lengths(self, terms, lengths):
        assert zeta._edge_lengths(BiPoly(terms)) == lengths

    def test_candidates_follow_the_edges(self, monkeypatch):
        # (x^2 y^2 - 1)(1 + x): (1, 0) with cap 1, (1, 1) with cap 2 and
        # (2, 2) = 2*(1, 1) with cap 2 // 2, in (b, a) order; every d with
        # totient(d) <= cap is looked up once, and no other direction is.
        # Each hit is looked up once more, by cyclotomic_in_monomial.
        f = BiPoly({(0, 0): -1, (1, 0): -1, (2, 2): 1, (3, 2): 1})
        lookups = []
        cyclotomic = poly.cyclotomic
        monkeypatch.setattr(poly, "cyclotomic", lambda d: lookups.append(d) or cyclotomic(d))
        found = unitary_factor_scan(f, ScanBounds(4, 4, 60))
        assert lookups == [1, 2, 2, 1, 1, 2, 2, 3, 4, 6, 1, 1, 2]
        assert [(u.order, u.x_power, u.y_power) for u in found] == [
            (2, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 2),
        ]

    def test_matches_reference_double_loop(self):
        hits = 0
        for f, bounds in reference_scan_cases():
            found = [(u.order, u.x_power, u.y_power, u.poly) for u in unitary_factor_scan(f, bounds)]
            assert found == reference_unitary_scan(f, bounds), (f, bounds)
            hits += len(found)
        assert hits > 10  # the comparison covers hits, not only clean scans

    def test_matches_probe_free_reference(self):
        # The reference divides every candidate that passes the degree test,
        # so it shares none of the integer probes that prune the scan.
        hits = 0
        for f, bounds in reference_scan_cases():
            found = [(u.order, u.x_power, u.y_power, u.poly) for u in unitary_factor_scan(f, bounds)]
            assert found == probe_free_unitary_scan(f, bounds), (f, bounds)
            hits += len(found)
        assert hits > 10

    def test_divisions_over_compositions_up_to_seven(self, monkeypatch):
        # The two-point prune leaves 15 scan divisions, plus one for each of
        # the 4 qualifying rectangles; one integer probe alone let 414 through.
        # The Newton-polygon prune leaves 440 lookups of poly.cyclotomic
        # through the module, one per candidate and one per scan division;
        # the degree test left 13,537.
        numerators = [(eta, w_numerator(eta)) for n in range(1, 8) for eta in compositions_of(n)]
        assert len(numerators) == 127
        divisions = []
        lookups = []
        divide_exact = BiPoly.divide_exact
        cyclotomic = poly.cyclotomic

        def spy(f, g):
            divisions.append(g)
            return divide_exact(f, g)

        def lookup(d):
            lookups.append(d)
            return cyclotomic(d)

        monkeypatch.setattr(BiPoly, "divide_exact", spy)
        monkeypatch.setattr(poly, "cyclotomic", lookup)
        reports = [conjecture_report(eta, numerator=num) for eta, num in numerators]
        assert all(report.consistent for report in reports)
        assert len(divisions) <= 30
        assert 0 < len(lookups) <= 600

    def test_matches_sympy_factorisation(self):
        # An oracle that shares no code with the scan: sympy factors each
        # numerator of a partition of n <= 8 over Z[x, y], and a candidate
        # cyclotomic_d(x^a y^b) divides it exactly when each irreducible factor
        # of the candidate appears in the numerator at least as often.  A
        # candidate of higher x- or y-degree than the numerator cannot divide
        # it.  Every candidate within the default bounds is decided, so both
        # the hits and the misses of the scan are confirmed.
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")

        def factors(terms):
            _, found = sympy.Poly.from_dict(terms, x, y, domain=sympy.ZZ).factor_list()
            return found

        candidate_factors = {}
        numerators = hits = misses = 0
        for n in range(1, 9):
            bounds = default_bounds(n)
            directions = [(1, 0)] + [
                (a, b) for b in range(1, bounds.max_b + 1) for a in range(bounds.max_a + 1)
            ]
            for eta in compositions_of(n):
                if list(eta.parts) != sorted(eta.parts, reverse=True):
                    continue
                numerators += 1
                f = w_numerator(eta)
                multiplicity = dict(factors(f.terms))
                expected = set()
                for a, b in directions:
                    for d in range(1, bounds.max_d + 1):
                        phi = int(sympy.totient(d))
                        if a * phi > f.degree_x() or b * phi > f.degree_y():
                            continue
                        if (d, a, b) not in candidate_factors:
                            base = sympy.Poly(sympy.cyclotomic_poly(d, x), x).as_dict()
                            candidate_factors[d, a, b] = factors(
                                {(a * e, b * e): c for (e,), c in base.items()}
                            )
                        if all(multiplicity.get(p, 0) >= m for p, m in candidate_factors[d, a, b]):
                            expected.add((d, a, b))
                found = {(u.order, u.x_power, u.y_power) for u in unitary_factor_scan(f, bounds)}
                assert found == expected, eta
                hits += len(found)
                misses += len(directions) * bounds.max_d - len(found)
        # The hits are 1 + x^(rm/2) y on 1^2, 1^4, 1^6, 1^8 and 3^2.
        assert (numerators, hits) == (66, 5) and misses > 100_000


class TestConjecture:
    def test_one_one(self):
        report = conjecture_report(Composition((1, 1)))
        assert report.qualifies
        assert report.factor_divides
        assert report.residual == BiPoly.one()
        assert report.consistent

    def test_two_one(self):
        report = conjecture_report(Composition((2, 1)), bounds=ScanBounds(3, 2, 12))
        assert not report.qualifies
        assert report.factors_found == ()
        assert report.consistent

    def test_four_ones(self):
        report = conjecture_report(Composition((1, 1, 1, 1)))
        assert report.qualifies
        assert report.predicted_factor == BiPoly({(0, 0): 1, (2, 1): 1})
        assert report.factor_divides
        assert report.consistent

    def test_three_three(self):
        report = conjecture_report(Composition((3, 3)))
        assert report.qualifies
        assert report.predicted_factor == BiPoly({(0, 0): 1, (3, 1): 1})
        assert report.factor_divides
        assert report.consistent

    @pytest.mark.parametrize("bounds", [ScanBounds(4, 4, -5), ScanBounds(-1, -1, 32)])
    def test_rejects_bounds_that_scan_nothing(self, bounds):
        with pytest.raises(ValueError, match="scan bounds need"):
            conjecture_report(Composition((2, 2)), bounds=bounds)
        # Before anything else: here the predicted factor does not divide,
        # and the report would be made without a scan.
        with pytest.raises(ValueError, match="scan bounds need"):
            conjecture_report(Composition((1, 1)), bounds=bounds, numerator=BiPoly.one())

    def test_predicted_factor_that_does_not_divide(self):
        # 1 + x*y does not divide 1: nothing is scanned and the report fails.
        eta = Composition((1, 1))
        bounds = default_bounds(2)
        report = conjecture_report(eta, numerator=BiPoly.one())
        assert report == zeta.ConjectureReport(
            eta, BiPoly.one(), (1, 2), True, BiPoly({(0, 0): 1, (1, 1): 1}),
            False, None, (), False, bounds,
        )

    def test_factor_in_the_residual_is_found(self):
        factor = BiPoly({(0, 0): 1, (1, 1): 1})
        report = conjecture_report(Composition((1, 1)), numerator=factor * factor)
        assert (report.factor_divides, report.residual) == (True, factor)
        assert [(u.order, u.x_power, u.y_power) for u in report.factors_found] == [(2, 1, 1)]
        assert not report.consistent

    def test_non_qualifying_rectangle(self):
        # All parts equal but the part is even: predicted to have no factor.
        report = conjecture_report(Composition((2, 2)))
        assert not report.qualifies
        assert report.consistent
