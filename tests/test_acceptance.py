"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line (visible with pytest -s); a failing
criterion fails its test.  The shared fixture computes, once, both numerator
routes for every composition of every n <= 8; its cost is charged to the
equidistribution criterion, whose budget explicitly covers those sweeps.
"""
import time
from fractions import Fraction

import pytest

from mzeta.admissible import den, grid_counts, is_admissible
from mzeta.multiset import (
    Composition,
    denh,
    exc_set,
    exceeding_subword,
    imv,
    inv,
    nonexceeding_subword,
)
from mzeta.poly import BiPoly
from mzeta.signed import d_stats, even_signed_perms, nsp
from mzeta.verify import (
    check_b_equidistribution,
    check_d_equidistribution,
    check_exceeding_weak_inversions,
    check_nonexceeding_inversions,
    compositions_up_to,
)
from mzeta.zeta import (
    conjecture_report,
    default_bounds,
    hadamard_check,
    joint_distribution,
    reciprocity_check,
    unitary_factor_scan,
    w_numerator,
)

ETA = Composition((3, 2, 2, 3))
WORD = (4, 2, 3, 2, 3, 1, 4, 1, 4, 1)
SIGMA = (6, 8, 10, 2, 4, 3, 5, 1, 7, 9)
TAU = (6, 8, 10, 4, 2, 3, 5, 1, 7, 9)

N_WORDS = 8
N_LEMMAS = 7
N_SIGNED = 6


def report(label, elapsed):
    print(f"acceptance {label}: PASS ({elapsed:.2f}s)")


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def numerators():
    """Both numerator routes for every composition of n <= 8, with the time
    the computation took."""
    t0 = time.perf_counter()
    table = {}
    for eta in compositions_up_to(N_WORDS):
        den_route = joint_distribution("admissible", ("den", "iexc"), eta=eta)
        maj_route = joint_distribution("words", ("maj", "des"), eta=eta)
        table[eta] = (den_route, maj_route)
    return table, time.perf_counter() - t0


def test_01_word_statistic_worked_example():
    assert sum(exc_set(WORD, ETA)) == 18
    assert imv(exceeding_subword(WORD, ETA)) == 5
    assert inv(nonexceeding_subword(WORD, ETA)) == 4
    assert denh(WORD, ETA) == 18 + 5 + 4 == 27
    elapsed = best_of(lambda: denh(WORD, ETA))
    assert elapsed < 1e-3
    report("01 word-side Denert value 27 in <1ms", elapsed)


def test_02_permutation_statistic_worked_example():
    def evaluate():
        assert is_admissible(ETA, SIGMA)
        col_sum, exceed, plus, minus = grid_counts(ETA, SIGMA)
        assert (col_sum, plus, minus, exceed) == (18, 17, 3, 5)
        assert den(ETA, SIGMA) == 18 + 17 - 3 - 5 == 27
        assert not is_admissible(ETA, TAU)

    evaluate()
    elapsed = best_of(evaluate)
    assert elapsed < 1e-3
    report("02 grid-side Denert value 27 in <1ms", elapsed)


def test_03_equidistribution_three_ways(numerators):
    table, fixture_elapsed = numerators
    t0 = time.perf_counter()
    assert len(table) == 255
    for eta, (den_route, maj_route) in table.items():
        denh_route = joint_distribution("words", ("denh", "exc"), eta=eta)
        assert den_route == denh_route == maj_route, f"distributions differ at eta={eta}"
    elapsed = fixture_elapsed + (time.perf_counter() - t0)
    assert elapsed < 60
    report(f"03 equidistribution over all 255 compositions of n<={N_WORDS}", elapsed)


def test_04_cell_count_identities_per_permutation():
    t0 = time.perf_counter()
    for eta in compositions_up_to(N_LEMMAS):
        low = check_nonexceeding_inversions(eta)
        assert low.passed, low.detail
        high = check_exceeding_weak_inversions(eta)
        assert high.passed, high.detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(f"04 per-permutation cell decompositions for n<={N_LEMMAS}", elapsed)


def test_05_gaussian_binomial_series_identity(numerators):
    table, _ = numerators
    t0 = time.perf_counter()
    for eta, (den_route, _) in table.items():
        result = hadamard_check(eta, numerator=den_route)
        assert result.ok, f"eta={eta}: mismatch at y^{result.mismatch_degree}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(f"05 termwise-product series identity for n<={N_WORDS}", elapsed)


def test_06_reciprocity_dichotomy(numerators):
    table, _ = numerators
    t0 = time.perf_counter()
    for eta, (den_route, _) in table.items():
        observed = reciprocity_check(eta, numerator=den_route)
        rect = eta.is_rectangle()
        if rect is not None:
            m, r = rect
            assert observed.holds, f"eta={eta} should satisfy its functional equation"
            assert observed.triple() == ((-1) ** (r * m), r * m * (m - 1) // 2, m), eta
        else:
            assert not observed.holds, f"eta={eta} satisfies an unexpected equation"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(f"06 functional-equation dichotomy for n<={N_WORDS}", elapsed)


def test_07_signed_equidistribution():
    t0 = time.perf_counter()
    for n in range(1, N_SIGNED + 1):
        b = check_b_equidistribution(n)
        assert b.passed, b.detail
        d = check_d_equidistribution(n)
        assert d.passed, d.detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(f"07 signed/even-signed equidistribution for n<={N_SIGNED}", elapsed)


def test_08_negative_sum_pair_identity():
    t0 = time.perf_counter()
    for n in range(1, N_SIGNED + 1):
        for window in even_signed_perms(n):
            low = [v for v in window if v < -1]
            assert nsp(window) == -sum(low) - len(low), window
            d_stats(window)  # recomputes both defining forms and raises on mismatch
    elapsed = time.perf_counter() - t0
    report(f"08 negative-sum-pair identity on even-signed windows, n<={N_SIGNED}", elapsed)


def _qualifying_rectangles(max_n):
    out = []
    for n in range(2, max_n + 1):
        for r in range(2, n + 1):
            if n % r == 0 and r % 2 == 0 and (n // r) % 2 == 1:
                out.append(Composition((n // r,) * r))
    return out


def test_09_unitary_factor_evidence(numerators):
    table, _ = numerators
    t0 = time.perf_counter()
    rectangles = _qualifying_rectangles(10)
    assert [e.parts for e in rectangles] == [
        (1, 1), (1, 1, 1, 1), (3, 3), (1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1), (5, 5), (1,) * 10,
    ]
    for eta in rectangles:
        if eta.n <= N_WORDS:
            num = table[eta][0]
        else:
            num = w_numerator(eta)  # cross-checks the two routes at n = 10
        m, r = eta.is_rectangle()
        factor = BiPoly({(0, 0): 1, (r * m // 2, 1): 1})
        assert num.divide_exact(factor) is not None, f"factor fails on eta={eta}"
        rep = conjecture_report(eta, numerator=num)
        assert rep.consistent, f"inconsistent report on eta={eta}"
    for eta in compositions_up_to(7):
        if eta.is_rectangle() is not None:
            continue
        found = unitary_factor_scan(table[eta][0], default_bounds(eta.n))
        assert found == (), f"unexpected unitary factor on eta={eta}: {found}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report("09 unitary factors exactly on qualifying rectangles (rm<=10)", elapsed)


def test_10_numerator_routes_agree(numerators):
    table, _ = numerators
    t0 = time.perf_counter()
    for eta, (den_route, maj_route) in table.items():
        assert den_route == maj_route, f"routes differ at eta={eta}"
        assert den_route.evaluate(1, 1) == eta.word_count()
    elapsed = time.perf_counter() - t0
    report(
        f"10 numerator via grid statistics equals numerator via word statistics, n<={N_WORDS}",
        elapsed,
    )


def test_11_numerator_is_den_iexc_distribution(numerators):
    # w_numerator enumerates nothing; the theorem is what makes it the
    # (den, iexc) distribution, and this pins it.
    table, _ = numerators
    t0 = time.perf_counter()
    for eta, (den_route, _) in table.items():
        assert w_numerator(eta) == den_route, f"numerator differs at eta={eta}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(f"11 numerator without enumeration equals (den, iexc) enumeration, n<={N_WORDS}", elapsed)


def test_12_unitary_factor_evidence_rm12():
    t0 = time.perf_counter()
    rectangles = [eta for eta in _qualifying_rectangles(12) if eta.n == 12]
    assert [e.parts for e in rectangles] == [(3, 3, 3, 3), (1,) * 12]
    for eta in rectangles:
        num = w_numerator(eta, budget=eta.word_count())  # 12! words for 1^12
        m, r = eta.is_rectangle()
        factor = BiPoly({(0, 0): 1, (r * m // 2, 1): 1})
        assert num.divide_exact(factor) is not None, f"factor fails on eta={eta}"
        rep = conjecture_report(eta, numerator=num)
        assert rep.consistent, f"inconsistent report on eta={eta}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report("12 unitary factors on the qualifying rectangles with rm=12", elapsed)


def test_cli_worked_examples(capsys):
    # The command-line surface reproduces the worked values end to end.
    from mzeta.cli import main

    assert main(["stats", "--eta", "3,2,2,3", "--word", "4232314141"]) == 0
    assert "denh: 27" in capsys.readouterr().out
    assert main(["stats", "--eta", "3,2,2,3", "--perm", "6,8,10,2,4,3,5,1,7,9"]) == 0
    out = capsys.readouterr().out
    assert "den: 27" in out and "iexc: 5" in out
    assert main(["zeta", "--eta", "2,1", "--q", "2", "--t", "1/8"]) == 0
    assert capsys.readouterr().out.strip() == str(Fraction(16, 3))
