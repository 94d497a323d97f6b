"""Grid statistics on admissible permutations, including the cell sets frozen
from the worked 10-letter example."""
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mzeta.admissible as adm
import mzeta.multiset as wd
from mzeta.admissible import (
    admissible_perms,
    admissible_to_word,
    block_grid_counts,
    block_index,
    block_lookup,
    column_masks,
    den,
    grid_rows,
    i_set,
    iexc,
    is_admissible,
    m_sets,
    n_minus_row,
    n_minus_set,
    n_plus_high_row,
    n_plus_set,
    n_plus_split,
    project_perm,
    u_inv_set,
    u_set,
    word_to_admissible,
)
from mzeta.multiset import (
    Composition,
    denh,
    exc,
    exc_set,
    exceeding_subword,
    imv,
    inv,
    inverse,
    nonexceeding_subword,
    standardize,
    words,
)
from mzeta.verify import (
    compositions_of,
    exceeding_weak_inversions_failure,
    nonexceeding_inversions_failure,
)
from test_multiset import cut_counts, small_compositions


def grid_counts(eta, perm):
    """(sum of i_set columns, |i_set|, |n_plus_set|, |n_minus_set|) for any perm."""
    return block_grid_counts(perm, column_masks(eta))[1:]

ETA = Composition((3, 2, 2, 3))
W = (4, 2, 3, 2, 3, 1, 4, 1, 4, 1)
SIGMA = (6, 8, 10, 2, 4, 3, 5, 1, 7, 9)
TAU = (6, 8, 10, 4, 2, 3, 5, 1, 7, 9)


def identity(n):
    return tuple(range(1, n + 1))


# Cell sets of SIGMA, read off the block grid by hand.
SIGMA_N_PLUS = frozenset(
    {(4, 6), (5, 6), (6, 6), (7, 6),
     (4, 8), (5, 8), (6, 8), (7, 8), (8, 8), (9, 8),
     (4, 10), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (10, 10)}
)
SIGMA_N_MINUS = frozenset({(4, 3), (6, 5), (8, 7)})
SIGMA_N_PLUS_LOW = frozenset({(5, 6), (5, 8), (5, 10), (10, 10)})


def row_record(blocks, i):
    """(ge, lt, block(i)) of row i by definition: bit j of ge is set for the
    columns j whose block is at least block(i), bit j of lt for the others."""
    columns = range(1, len(blocks))
    ge = sum(1 << j for j in columns if blocks[j] >= blocks[i])
    lt = sum(1 << j for j in columns if blocks[j] < blocks[i])
    return ge, lt, blocks[i]


class TestBlockMap:
    def test_block_index(self):
        assert block_index(ETA, 4) == 2
        assert block_index(ETA, 1) == 1
        assert block_index(ETA, 10) == 4
        assert [block_index(ETA, i) for i in range(1, 11)] == [1, 1, 1, 2, 2, 3, 3, 4, 4, 4]

    def test_block_index_range(self):
        with pytest.raises(ValueError):
            block_index(ETA, 0)
        with pytest.raises(ValueError):
            block_index(ETA, 11)

    @pytest.mark.parametrize("i", [True, 1.0, 2.0, "1", None])
    def test_block_index_refuses_positions_that_are_not_ints(self, i):
        with pytest.raises(ValueError, match="out of range"):
            block_index(Composition((2, 1)), i)

    def test_lookup_weakly_increasing(self):
        blocks = block_lookup(ETA)
        assert list(blocks[1:]) == sorted(blocks[1:])
        assert blocks[1] == 1 and blocks[ETA.n] == ETA.r

    def test_lookup_cache_is_bounded(self):
        assert block_lookup.cache_info().maxsize is not None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_records_by_definition(self, n):
        for eta in compositions_of(n):
            blocks = block_lookup(eta)
            masks = column_masks(eta)
            assert masks == tuple(row_record(blocks, i) for i in range(1, n + 1))
            # One shared record per block.
            assert len({id(record) for record in masks}) == eta.r

    def test_project(self):
        assert project_perm(ETA, SIGMA) == (3, 4, 4, 1, 2, 1, 2, 1, 3, 4)
        assert project_perm(ETA, inverse(SIGMA)) == W
        assert project_perm(ETA, identity(10)) == ETA.trivial_word


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible(ETA, SIGMA)
        assert not is_admissible(ETA, TAU)

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_identity_always(self, eta):
        assert is_admissible(eta, identity(eta.n))

    def test_enumeration_two_one(self):
        assert list(admissible_perms(Composition((2, 1)))) == [
            (1, 2, 3), (1, 3, 2), (2, 3, 1)
        ]

    def test_enumeration_single_block(self):
        assert list(admissible_perms(Composition((4,)))) == [(1, 2, 3, 4)]

    def test_enumeration_all_ones(self):
        got = list(admissible_perms(Composition((1, 1, 1))))
        assert got == sorted(itertools.permutations((1, 2, 3)))

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_enumeration_matches_filter(self, eta):
        got = list(admissible_perms(eta))
        assert len(got) == eta.word_count()
        assert len(set(got)) == len(got)
        assert got == sorted(got)
        assert all(is_admissible(eta, p) for p in got)

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_descent_count_bound(self, eta):
        # Descents of an admissible permutation live in the descent set of
        # eta, which has r - 1 elements.
        from mzeta.multiset import des

        for sigma in admissible_perms(eta):
            assert des(sigma) <= eta.r - 1


class TestBijection:
    def test_worked_example(self):
        assert word_to_admissible(ETA, W) == SIGMA
        assert admissible_to_word(ETA, SIGMA) == W

    def test_two_one(self):
        assert word_to_admissible(Composition((2, 1)), (2, 1, 1)) == (2, 3, 1)

    def test_trivial(self):
        assert word_to_admissible(ETA, ETA.trivial_word) == identity(10)
        assert admissible_to_word(ETA, identity(10)) == ETA.trivial_word

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            admissible_to_word(ETA, TAU)

    @pytest.mark.parametrize("perm", [(1.0, 2), (True, 2), (1, 2.0)])
    def test_rejects_entries_that_are_not_ints(self, perm):
        with pytest.raises(ValueError, match="is not a permutation"):
            admissible_to_word(Composition((1, 1)), perm)
        with pytest.raises(ValueError, match="does not rearrange"):
            word_to_admissible(Composition((1, 1)), perm)

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_round_trips(self, eta):
        for w in words(eta):
            sigma = word_to_admissible(eta, w)
            assert is_admissible(eta, sigma)
            assert admissible_to_word(eta, sigma) == w
            assert project_perm(eta, standardize(w, eta)) == w
        for sigma in admissible_perms(eta):
            assert word_to_admissible(eta, admissible_to_word(eta, sigma)) == sigma


class TestISet:
    def test_worked_example(self):
        cells = i_set(ETA, SIGMA)
        assert cells == {(4, 2), (6, 3), (7, 5), (8, 1), (9, 7)}
        assert sum(j for _, j in cells) == 18
        assert iexc(ETA, SIGMA) == 5

    def test_identity(self):
        assert i_set(ETA, identity(10)) == frozenset()
        assert iexc(ETA, identity(10)) == 0

    def test_two_one(self):
        cells = i_set(Composition((2, 1)), (2, 3, 1))
        assert {j for _, j in cells} == {1}

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_matches_word_excedances(self, eta):
        for sigma in itertools.permutations(range(1, eta.n + 1)):
            word = project_perm(eta, inverse(sigma))
            assert {j for _, j in i_set(eta, sigma)} == exc_set(word, eta)


def brute_force_cells(eta, sigma):
    """N+, N-, the low/high split of N+, straight from the definitions over
    the full n x n grid."""
    n = eta.n
    block = dict(enumerate((k for k, p in enumerate(eta.parts, 1) for _ in range(p)), 1))
    where = {v: i for i, v in enumerate(sigma, 1)}
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    plus = {
        (i, j) for i, j in grid
        if sigma[i - 1] < j and where[j] < i and block[i] <= block[j]
    }
    minus = {
        (i, j) for i, j in grid
        if sigma[i - 1] < j and where[j] > i and block[i] > block[j]
    }
    low = {(i, j) for i, j in plus if block[i] <= block[sigma[i - 1]]}
    return plus, minus, low, plus - low, block


class TestCellSets:
    def test_worked_example_cells(self):
        assert n_plus_set(ETA, SIGMA) == SIGMA_N_PLUS
        assert n_minus_set(ETA, SIGMA) == SIGMA_N_MINUS
        low, high = n_plus_split(ETA, SIGMA)
        assert low == SIGMA_N_PLUS_LOW
        assert high == SIGMA_N_PLUS - SIGMA_N_PLUS_LOW
        assert (len(low), len(high)) == (4, 13)

    def test_identity_empty(self):
        assert n_plus_set(ETA, identity(10)) == frozenset()
        assert n_minus_set(ETA, identity(10)) == frozenset()

    def test_two_one(self):
        eta = Composition((2, 1))
        assert n_plus_set(eta, (2, 3, 1)) == {(3, 3)}
        assert n_minus_set(eta, (2, 3, 1)) == frozenset()

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_split_partitions_and_counts(self, eta):
        for sigma in itertools.permutations(range(1, eta.n + 1)):
            plus = n_plus_set(eta, sigma)
            low, high = n_plus_split(eta, sigma)
            assert low | high == plus
            assert not (low & high)
            col_sum, exceed, p, m = grid_counts(eta, sigma)
            assert p == len(plus)
            assert m == len(n_minus_set(eta, sigma))
            cells = i_set(eta, sigma)
            assert exceed == len(cells)
            assert col_sum == sum(j for _, j in cells)

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_match_brute_force_definitions(self, eta):
        for sigma in itertools.permutations(range(1, eta.n + 1)):
            plus, minus, low, high, block = brute_force_cells(eta, sigma)
            assert n_plus_set(eta, sigma) == plus
            assert n_minus_set(eta, sigma) == minus
            assert n_plus_split(eta, sigma) == (low, high)
            for j0 in range(1, eta.n + 1):
                if block[j0] <= block[sigma[j0 - 1]]:
                    continue
                assert n_minus_row(eta, sigma, j0) == {c for c in minus if c[0] == j0}
                assert n_plus_high_row(eta, sigma, j0) == {c for c in high if c[0] == j0}


class TestUSets:
    def test_worked_example(self):
        assert u_set(ETA, SIGMA, 2) == {(4, 2), (6, 3), (8, 1)}
        assert u_inv_set(ETA, SIGMA, 2) == {(1, 6), (2, 8), (3, 10)}

    def test_identity(self):
        for l in range(2, ETA.r + 1):
            assert u_set(ETA, identity(10), l) == frozenset()
            assert u_inv_set(ETA, identity(10), l) == frozenset()

    def test_range_errors(self):
        with pytest.raises(ValueError):
            u_set(ETA, SIGMA, 1)
        with pytest.raises(ValueError):
            u_inv_set(ETA, SIGMA, 5)

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_quadrant_counts_balance(self, eta):
        # The two quadrant counts agree for every permutation, admissible or not.
        if eta.r == 1:
            return
        for sigma in itertools.permutations(range(1, eta.n + 1)):
            for l in range(2, eta.r + 1):
                assert len(u_set(eta, sigma, l)) == len(u_inv_set(eta, sigma, l))


class TestRowSets:
    def test_marked_cells_example(self):
        # From the permutation with inverse 8 4 6 9 7 1 5 2 10 3, row 7.
        sigma = inverse((8, 4, 6, 9, 7, 1, 5, 2, 10, 3))
        assert sigma == (6, 8, 10, 2, 7, 3, 5, 1, 4, 9)
        assert is_admissible(ETA, sigma)
        meq, mgt = m_sets(ETA, sigma, 7)
        assert meq == {(7, 3)}
        assert mgt == {(7, 1), (7, 4)}

    def test_precondition(self):
        # Row 1 of SIGMA has block(1)=1 <= block(6)=3: not in the high region.
        with pytest.raises(ValueError):
            m_sets(ETA, SIGMA, 1)
        with pytest.raises(ValueError):
            n_minus_row(ETA, SIGMA, 1)
        with pytest.raises(ValueError):
            n_plus_high_row(ETA, SIGMA, 1)
        with pytest.raises(ValueError):
            m_sets(ETA, SIGMA, 0)

    def test_identity_has_no_qualifying_rows(self):
        assert i_set(ETA, identity(10)) == frozenset()

    def test_two_one_row(self):
        eta = Composition((2, 1))
        meq, mgt = m_sets(eta, (2, 3, 1), 3)
        assert meq == frozenset() and mgt == frozenset()

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_row_sets_restrict_global_sets(self, eta):
        for sigma in admissible_perms(eta):
            minus = n_minus_set(eta, sigma)
            _, high = n_plus_split(eta, sigma)
            for j0, _ in i_set(eta, sigma):
                assert n_minus_row(eta, sigma, j0) == {c for c in minus if c[0] == j0}
                assert n_plus_high_row(eta, sigma, j0) == {c for c in high if c[0] == j0}


def reference_m_counts(blocks, perm):
    """(j0, |meq|, |mgt|) for every row j0 of i_set, in order, where
    (meq, mgt) = m_sets(eta, perm, j0): the O(h^2) counting loop over pairs
    of i_set rows that the lemma43 check used before it counted by masks.
    blocks is block_lookup(eta)."""
    high = [(i, v) for i, v in enumerate(perm, start=1) if blocks[i] > blocks[v]]
    out = []
    for j0, sj0 in high:
        bj0 = blocks[j0]
        equal_block = higher_block = 0
        for i, si in high:
            if si < sj0:
                if blocks[i] > bj0:
                    higher_block += 1
                elif i < j0 and blocks[i] == bj0:
                    equal_block += 1
        out.append((j0, equal_block, higher_block))
    return out


class TestCountingKernels:
    """cut_counts and the m_sets count reference against the cell sets."""

    def test_worked_example(self):
        u, u_inv = cut_counts(block_lookup(ETA), SIGMA)
        assert u[2] == u_inv[2] == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_cell_sets(self, n):
        for eta in compositions_of(n):
            blocks = block_lookup(eta)
            for sigma in admissible_perms(eta):
                u, u_inv = cut_counts(blocks, sigma)
                assert len(u) == len(u_inv) == eta.r + 1
                assert u[:2] == u_inv[:2] == [0, 0]
                for l in range(2, eta.r + 1):
                    assert u[l] == len(u_set(eta, sigma, l))
                    assert u_inv[l] == len(u_inv_set(eta, sigma, l))
                expected = []
                for j0, _ in sorted(i_set(eta, sigma)):
                    meq, mgt = m_sets(eta, sigma, j0)
                    expected.append((j0, len(meq), len(mgt)))
                assert reference_m_counts(blocks, sigma) == expected


class TestDen:
    def test_worked_example(self):
        assert den(ETA, SIGMA) == 27

    def test_identity(self):
        assert den(ETA, identity(10)) == 0

    def test_two_one_distribution(self):
        eta = Composition((2, 1))
        assert {p: den(eta, p) for p in admissible_perms(eta)} == {
            (1, 2, 3): 0,
            (1, 3, 2): 2,
            (2, 3, 1): 1,
        }

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            den(ETA, TAU)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="^permutation length 2 != n=3$"):
            den(Composition((2, 1)), (1, 2))

    @pytest.mark.parametrize("perm", [(True, 2), (1.0, 2), (1, 2.0)])
    def test_rejects_entries_that_are_not_ints(self, perm):
        with pytest.raises(ValueError, match="is not a permutation"):
            den(Composition((1, 1)), perm)

    def test_definition_from_cell_sets(self):
        col_sum = sum(j for _, j in i_set(ETA, SIGMA))
        value = (
            col_sum
            + len(n_plus_set(ETA, SIGMA))
            - len(n_minus_set(ETA, SIGMA))
            - iexc(ETA, SIGMA)
        )
        assert value == 18 + 17 - 3 - 5 == 27
        assert den(ETA, SIGMA) == value

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_transport_to_word_statistics(self, eta):
        for sigma in admissible_perms(eta):
            word = project_perm(eta, inverse(sigma))
            assert den(eta, sigma) == denh(word, eta)
            assert iexc(eta, sigma) == exc(word, eta)


def reference_admissible_perms(eta):
    """The recursive enumerator the iterative walk of admissible_perms
    replaced: its order is the one the first-counterexample details follow."""
    n = eta.n
    if eta.r == n:
        yield from itertools.permutations(range(1, n + 1))
        return
    parts = eta.parts

    def rec(avail, k):
        if k == len(parts):
            yield ()
            return
        for chosen in itertools.combinations(avail, parts[k]):
            taken = set(chosen)
            rest = tuple(v for v in avail if v not in taken)
            for tail in rec(rest, k + 1):
                yield chosen + tail

    yield from rec(tuple(range(1, n + 1)), 0)


def reference_grid_counts(perm, blocks):
    """The per-cell O(n^2) counting loop the mask scan of block_grid_counts
    replaced: (den, i_set column sum, |i_set|, |n_plus|, |n_minus|)."""
    n = len(perm)
    inv_perm = inverse(perm)
    col_sum = 0
    exceed = 0
    for j in range(1, n + 1):
        if blocks[inv_perm[j - 1]] > blocks[j]:
            col_sum += j
            exceed += 1
    plus = 0
    minus = 0
    for i in range(1, n + 1):
        bi = blocks[i]
        for j in range(perm[i - 1] + 1, n + 1):
            if inv_perm[j - 1] < i:
                if bi <= blocks[j]:
                    plus += 1
            elif bi > blocks[j]:
                minus += 1
    return col_sum + plus - minus - exceed, col_sum, exceed, plus, minus


class TestAgainstReference:
    """The walk and the den kernel against the code they replaced, on every
    composition the sweep covers."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_and_kernel(self, n):
        for eta in compositions_of(n):
            perms = list(admissible_perms(eta))
            assert perms == list(reference_admissible_perms(eta)), eta
            blocks, masks = block_lookup(eta), column_masks(eta)
            for sigma in perms:
                assert block_grid_counts(sigma, masks) == reference_grid_counts(sigma, blocks)

    @pytest.mark.parametrize(
        "parts, table",
        [((1, 7, 7), True), ((1, 8, 8), False), ((2, 60), True), ((60, 2), True), ((3, 1, 2, 2), True)],
        ids=str,
    )
    def test_walk_on_both_sides_of_the_table_bound(self, parts, table):
        # The last two blocks come from the itemgetter table while
        # C(m, p) * m stays within the bound, and stream above it.
        eta = Composition(parts)
        *_, p, q = parts
        assert (math.comb(p + q, p) * (p + q) <= adm._TAIL_TABLE_INDICES) == table
        assert list(admissible_perms(eta)) == list(reference_admissible_perms(eta))


WALK_300_2 = """
from mzeta import admissible, multiset
walk = getattr({module}, "{name}")
assert sum(1 for _ in walk(multiset.Composition((300, 2)))) == 45451
"""


class TestWalkCost:
    @pytest.mark.parametrize("module, name", [("multiset", "words"), ("admissible", "admissible_perms")])
    def test_300_2_walk_is_not_quadratic_in_the_block(self, module, name):
        # Both walks over (300, 2) took about 0.5 s on a 2-vCPU host; the
        # admissible walk took 20 s when it found each complement by a scan
        # of the chosen block.  The subprocess lets the timeout stop it.
        src = Path(adm.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", WALK_300_2.format(module=module, name=name)],
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=10, check=True,
        )

    @pytest.mark.parametrize(
        "walk, parts",
        [(admissible_perms, (1, 10, 10)), (admissible_perms, (5, 400, 2)), (words, (2,) * 12)],
        ids=["admissible-1,10,10", "admissible-5,400,2", "words-2^12"],
    )
    def test_walk_memory_does_not_grow_with_the_tail(self, walk, parts):
        # A table for the last two blocks of (1, 10, 10) would hold 3.7
        # million indices, and the 10^4 words of 2^12 take 2.6 MB; above the
        # bound the blocks stream, so consuming 10^4 objects stays within a
        # constant.  The warm-up pass keeps the interpreter's one-time
        # allocations and its tuple free lists out of the peak.
        eta = Composition(parts)
        for _ in itertools.islice(walk(eta), 10**4):
            pass
        tracemalloc.start()
        try:
            for _ in itertools.islice(walk(eta), 10**4):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@st.composite
def large_admissible(draw):
    """A composition of n = 20..40 and a random admissible permutation of it:
    a random ordered set partition of 1..n with block sizes eta, each block
    sorted."""
    n = draw(st.integers(20, 40))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    bounds = [0, *cuts, n]
    eta = Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    values = draw(st.permutations(range(1, n + 1)))
    sigma = tuple(v for a, b in zip(bounds, bounds[1:]) for v in sorted(values[a:b]))
    return eta, sigma


def _mask(cells):
    return sum(1 << j for _, j in cells)


class TestLargeRandom:
    """Random admissible permutations at n = 20..40, beyond the exhaustive
    sweeps (n <= 7); from n = 30 on a row mask spans more than one 30-bit
    digit of a Python int."""

    @given(large_admissible())
    @settings(max_examples=40, deadline=None)
    def test_cell_sets_match_brute_force(self, case):
        eta, sigma = case
        assert is_admissible(eta, sigma)
        plus, minus, low, high, _ = brute_force_cells(eta, sigma)
        assert n_plus_set(eta, sigma) == plus
        assert n_minus_set(eta, sigma) == minus
        assert n_plus_split(eta, sigma) == (low, high)
        cells = i_set(eta, sigma)
        assert grid_counts(eta, sigma) == (sum(j for _, j in cells), len(cells), len(plus), len(minus))

    @given(large_admissible())
    @settings(max_examples=40, deadline=None)
    def test_lemma_identities(self, case):
        eta, sigma = case
        _, minus, low, high, block = brute_force_cells(eta, sigma)
        word = project_perm(eta, inverse(sigma))
        # Lemma 4.2.
        assert len(low) == inv(nonexceeding_subword(word, eta))
        # Lemma 4.3, for the whole grid.
        target = imv(exceeding_subword(word, eta))
        exceeding = i_set(eta, sigma)
        assert len(high) == target + len(minus) + len(exceeding)
        # Lemma 4.3, row by row, on the row masks, cut_counts and the m_sets
        # count reference.
        blocks, masks = block_lookup(eta), column_masks(eta)
        rows = grid_rows(masks, sigma)
        u, u_inv = cut_counts(blocks, sigma)
        counts = reference_m_counts(blocks, sigma)
        assert [j0 for j0, _, _ in counts] == sorted(j0 for j0, _ in exceeding)
        total = 0
        for j0, meq, mgt in counts:
            assert (meq, mgt) == tuple(map(len, m_sets(eta, sigma, j0)))
            cut = block[j0]
            assert (u[cut], u_inv[cut]) == (len(u_set(eta, sigma, cut)), len(u_inv_set(eta, sigma, cut)))
            row_high = {c for c in high if c[0] == j0}
            row_minus = {c for c in minus if c[0] == j0}
            assert rows[j0 - 1] == (_mask(row_high), _mask(row_minus))
            assert meq + mgt + len(row_minus) + 1 == u[cut] == u_inv[cut] == len(row_high)
            total += meq + mgt
        assert total == target
        # The per-permutation functions of the lemma checks pass, and with the
        # word side's imv one too high lemma43 fails the whole-grid identity
        # first.
        fields = wd.letter_fields(eta)
        assert nonexceeding_inversions_failure(masks, fields, sigma) is None
        assert exceeding_weak_inversions_failure(masks, fields, sigma) is None
        parts = wd.excedance_parts

        def imv_one_high(w, fields):
            weak, *rest = parts(w, fields)
            return weak + 1, *rest

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wd, "excedance_parts", imv_one_high)
            detail = exceeding_weak_inversions_failure(masks, fields, sigma)
        assert detail == (
            f"sigma={sigma}: |high cells|={len(high)}, "
            f"imv+minus+iexc={target + 1}+{len(minus)}+{len(exceeding)}"
        )
