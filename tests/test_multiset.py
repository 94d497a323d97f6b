"""Word statistics against hand-derived and brute-force oracles."""
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mzeta import multiset
from mzeta.multiset import (
    Composition,
    denh,
    des,
    descent_set,
    exc,
    exc_set,
    excedance_stats,
    exceeding_subword,
    imv,
    inv,
    inverse,
    is_permutation,
    check_permutation,
    check_word,
    excedance_kernel,
    excedance_parts,
    is_word,
    letter_fields,
    maj,
    nonexceeding_subword,
    standardize,
    words,
)
from mzeta.admissible import block_lookup, cut_counts, word_to_admissible
from mzeta.signed import abs_window, signed_perms
from mzeta.verify import compositions_of

ETA = Composition((3, 2, 2, 3))
W = (4, 2, 3, 2, 3, 1, 4, 1, 4, 1)

compositions = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
    lambda parts: Composition(tuple(parts))
)


def small_compositions(n_max):
    out = []
    for n in range(1, n_max + 1):
        for bits in itertools.product((0, 1), repeat=n - 1):
            parts = []
            size = 1
            for b in bits:
                if b:
                    parts.append(size)
                    size = 1
                else:
                    size += 1
            parts.append(size)
            out.append(Composition(tuple(parts)))
    return out


class TestComposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((2, 0))
        with pytest.raises(ValueError):
            Composition((-1, 3))

    @pytest.mark.parametrize("parts", [(1.5, 2), (2.0,), (True, 2), (2, False), ("2",)])
    def test_rejects_non_int_parts(self, parts):
        # No part is silently truncated or converted.
        with pytest.raises(ValueError):
            Composition(parts)

    def test_descent_set(self):
        assert sorted(ETA.descent_set) == [3, 5, 7]
        assert Composition((5,)).descent_set == frozenset()
        assert sorted(Composition((1, 1, 1)).descent_set) == [1, 2]

    def test_trivial_word(self):
        assert ETA.trivial_word == (1, 1, 1, 2, 2, 3, 3, 4, 4, 4)
        assert Composition((2, 1)).trivial_word == (1, 1, 2)

    def test_word_of_wrong_length_for_huge_eta(self):
        # The length is compared before the 10^20-letter trivial word is built.
        huge = Composition((10**20,))
        assert not is_word((1,), huge)
        with pytest.raises(ValueError, match="does not rearrange"):
            check_word((1,), huge)

    def test_counts(self):
        assert Composition((2, 1)).word_count() == 3
        assert ETA.word_count() == 25200
        assert Composition((1, 1, 1)).word_count() == 6

    def test_counts_match_the_multinomial(self):
        for n in range(1, 11):
            for eta in compositions_of(n):
                expected = math.factorial(n) // math.prod(map(math.factorial, eta.parts))
                assert eta.word_count() == expected, eta

    @pytest.mark.parametrize("parts, count", [((10**6,), 1), ((10**6, 1), 10**6 + 1)])
    def test_count_of_a_huge_part_is_quick(self, parts, count):
        # No n! in between: the count of one million letters is immediate.
        start = time.perf_counter()
        assert Composition(parts).word_count() == count
        assert time.perf_counter() - start < 1

    def test_rectangle(self):
        assert Composition((3, 3)).is_rectangle() == (3, 2)
        assert Composition((2, 1)).is_rectangle() is None
        assert Composition((4,)).is_rectangle() == (4, 1)


class TestDescents:
    def test_worked_example(self):
        assert descent_set(W) == {1, 3, 5, 7, 9}
        assert des(W) == 5
        assert maj(W) == 25

    def test_trivial_word_has_none(self):
        for eta in (ETA, Composition((2, 1)), Composition((4,))):
            assert descent_set(eta.trivial_word) == set()
            assert des(eta.trivial_word) == 0
            assert maj(eta.trivial_word) == 0

    def test_small(self):
        assert descent_set((2, 1, 1)) == {1}
        assert maj((2, 1, 1)) == 1
        assert maj((1, 2, 1)) == 2
        assert des((1, 2, 1)) == 1

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_reverse_sorted_word(self, eta):
        w = tuple(reversed(eta.trivial_word))
        assert des(w) == eta.r - 1


class TestInversions:
    def test_short_sequences(self):
        assert inv((2, 1, 1, 4, 1)) == 4
        assert imv((4, 2, 3, 3, 4)) == 5

    def test_sorted(self):
        assert inv((1, 2, 5, 9)) == 0
        assert imv((1, 2, 5, 9)) == 0
        assert inv(()) == 0
        assert imv(()) == 0

    @given(st.lists(st.integers(1, 5), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_weak_minus_strict_counts_equal_pairs(self, seq):
        equal_pairs = sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] == seq[j]
        )
        assert imv(seq) - inv(seq) == equal_pairs
        assert imv(seq) >= inv(seq)
        pairs = list(itertools.combinations(seq, 2))
        assert inv(seq) == sum(a > b for a, b in pairs)
        assert imv(seq) == sum(a >= b for a, b in pairs)


class TestExcedances:
    def test_worked_example(self):
        assert exc_set(W, ETA) == {1, 2, 3, 5, 7}
        assert exc(W, ETA) == 5
        assert sum(exc_set(W, ETA)) == 18

    def test_trivial(self):
        assert exc_set(ETA.trivial_word, ETA) == set()

    def test_two_one(self):
        assert exc_set((2, 1, 1), Composition((2, 1))) == {1}

    def test_subwords(self):
        assert exceeding_subword(W, ETA) == (4, 2, 3, 3, 4)
        assert nonexceeding_subword(W, ETA) == (2, 1, 1, 4, 1)
        assert exceeding_subword((2, 1, 1), Composition((2, 1))) == (2,)
        assert nonexceeding_subword((2, 1, 1), Composition((2, 1))) == (1, 1)
        triv = ETA.trivial_word
        assert exceeding_subword(triv, ETA) == ()
        assert nonexceeding_subword(triv, ETA) == triv

    @pytest.mark.parametrize("eta", small_compositions(5))
    def test_interleave_back(self, eta):
        for w in words(eta):
            positions = exc_set(w, eta)
            e = list(exceeding_subword(w, eta))
            n = list(nonexceeding_subword(w, eta))
            rebuilt = [
                e.pop(0) if i in positions else n.pop(0)
                for i in range(1, eta.n + 1)
            ]
            assert tuple(rebuilt) == w


class TestDenh:
    def test_worked_example_decomposition(self):
        assert sum(exc_set(W, ETA)) == 18
        assert imv(exceeding_subword(W, ETA)) == 5
        assert inv(nonexceeding_subword(W, ETA)) == 4
        assert denh(W, ETA) == 27

    def test_trivial(self):
        assert denh(ETA.trivial_word, ETA) == 0

    def test_distribution_two_one(self):
        eta = Composition((2, 1))
        assert {w: denh(w, eta) for w in words(eta)} == {
            (1, 1, 2): 0,
            (1, 2, 1): 2,
            (2, 1, 1): 1,
        }

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_decomposition_consistency(self, eta):
        for w in words(eta):
            parts = (
                sum(exc_set(w, eta))
                + imv(exceeding_subword(w, eta))
                + inv(nonexceeding_subword(w, eta))
            )
            assert denh(w, eta) == parts

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_bounds(self, eta):
        # The last block of the trivial word carries the maximal letter, so no
        # position there can exceed; des shares the bound since it shares the
        # distribution of exc.  (r - 1 bounds descents of admissible
        # permutations, not of words: 2121 over (2,2) has two descents.)
        bound = eta.n - eta.parts[-1]
        for w in words(eta):
            assert 0 <= des(w) <= bound
            assert 0 <= exc(w, eta) <= bound


def reference_excedance_stats(w, triv):
    """The subword form the one-pass excedance_stats replaced: imv of the
    exceeding subword plus inv of the non-exceeding subword."""
    pos_sum = 0
    exceeding = []
    rest = []
    for i, a in enumerate(w, start=1):
        if a > triv[i - 1]:
            pos_sum += i
            exceeding.append(a)
        else:
            rest.append(a)
    return len(exceeding), pos_sum + imv(exceeding) + inv(rest)


class TestExcedanceStatsAgainstReference:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_word(self, n):
        for eta in compositions_of(n):
            triv = eta.trivial_word
            for w in words(eta):
                assert excedance_stats(w, triv) == reference_excedance_stats(w, triv), w

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_absolute_window(self, n):
        triv = range(1, n + 1)
        for window in signed_perms(n):
            absolute = abs_window(window)
            assert excedance_stats(absolute, triv) == reference_excedance_stats(absolute, triv)


def assert_packed_counts_match(w, eta):
    """excedance_kernel and excedance_parts on w against the bisect forms, the
    subwords and cut_counts of the admissible permutation of w.  The packed
    u and u_inv must be exactly the cut counts placed in their fields, so no
    field carried into the next."""
    fields = letter_fields(eta)
    assert excedance_kernel(w, fields) == excedance_stats(w, eta.trivial_word), w
    weak, strict, u, u_inv = excedance_parts(w, fields)
    assert weak == imv(exceeding_subword(w, eta)), w
    assert strict == inv(nonexceeding_subword(w, eta)), w
    cuts, cuts_inv = cut_counts(block_lookup(eta), word_to_admissible(eta, w))
    assert u == sum(c << s for c, s in zip(cuts, fields.ge)), w
    assert u_inv == sum(c << s for c, s in zip(cuts_inv, fields.ge)), w


@st.composite
def words_up_to_16(draw):
    """A word over a composition with r <= 10 parts and n <= 16 letters."""
    r = draw(st.integers(1, 10))
    n = draw(st.integers(r, 16))
    cuts = sorted(draw(st.permutations(range(1, n)))[: r - 1])
    eta = Composition(tuple(b - a for a, b in zip([0, *cuts], [*cuts, n])))
    return draw(st.permutations(eta.trivial_word)), eta


class TestPackedCountsAgainstReference:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_word(self, n):
        for eta in compositions_of(n):
            for w in words(eta):
                assert_packed_counts_match(w, eta)

    @given(words_up_to_16())
    @settings(max_examples=200, deadline=None)
    def test_words_up_to_16_letters(self, case):
        w, eta = case
        assert_packed_counts_match(tuple(w), eta)

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_field_width_edges(self, n):
        # width = n.bit_length() is 3, 4, 4, 5: field 1 of crossings counts
        # all n letters, which fills its field at n = 7 and 15 and sets its
        # top bit alone at n = 8 and 16.
        for parts in [(n,), (1,) * n, (n - 1, 1), (1, n - 1), (2, n - 3, 1)]:
            eta = Composition(parts)
            fields = letter_fields(eta)
            assert fields.mask == (1 << n.bit_length()) - 1
            assert fields.crossings >> fields.ge[1] & fields.mask == n
            triv = eta.trivial_word
            for w in [triv, triv[::-1], triv[1:] + triv[:1], triv[-1:] + triv[:-1]]:
                assert_packed_counts_match(w, eta)


class TestSingleWordsStayOnBisect:
    @pytest.mark.parametrize("n", [20000, 50000])
    def test_denh_of_a_long_word(self, n):
        # The packed kernel costs O(r log n) bits per letter: on a 2-vCPU
        # host it took 0.47 s at n = 20000 and 3.9 s at n = 50000, where the
        # bisect form of denh took 0.05 s and 0.19 s.
        eta = Composition((1,) * n)
        w = list(range(1, n + 1))
        random.Random(0).shuffle(w)
        w = tuple(w)
        start = time.perf_counter()
        value = denh(w, eta)
        assert time.perf_counter() - start < 1.0
        assert value == excedance_stats(w, eta.trivial_word)[1]


class TestStandardize:
    def test_examples(self):
        assert standardize(W, ETA) == (8, 4, 6, 5, 7, 1, 9, 2, 10, 3)
        assert standardize((2, 1, 1), Composition((2, 1))) == (3, 1, 2)
        assert standardize(ETA.trivial_word, ETA) == tuple(range(1, 11))

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_injective(self, eta):
        images = {standardize(w, eta) for w in words(eta)}
        assert len(images) == eta.word_count()
        assert all(is_permutation(p) for p in images)


class TestWords:
    def test_two_one(self):
        assert list(words(Composition((2, 1)))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_single_block(self):
        assert list(words(Composition((4,)))) == [(1, 1, 1, 1)]

    def test_all_distinct_letters(self):
        assert len(list(words(Composition((1, 1, 1))))) == 6

    @pytest.mark.parametrize("eta", small_compositions(6))
    def test_count_order_validity(self, eta):
        seen = list(words(eta))
        assert len(seen) == eta.word_count()
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)
        assert all(is_word(w, eta) for w in seen)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_arrangement_in_lexicographic_order(self, n):
        for eta in compositions_of(n):
            assert list(words(eta)) == sorted(set(itertools.permutations(eta.trivial_word))), eta

    @pytest.mark.parametrize("parts", [(2, 30), (30, 2)])
    def test_two_letters_against_their_positions(self, parts):
        # A word over two letters is the set of positions of the letter 1.
        eta = Composition(parts)
        expected = sorted(
            tuple(1 if i in ones else 2 for i in range(eta.n))
            for ones in itertools.combinations(range(eta.n), parts[0])
        )
        assert list(words(eta)) == expected

    def test_a_full_tail_table_starts_over(self, monkeypatch):
        # The tail table is emptied when it reaches its cap; the words do not
        # change.
        monkeypatch.setattr(multiset, "_MAX_TAILS", 1)
        for eta in small_compositions(7) + [Composition((2, 2, 2, 1, 1))]:
            assert list(words(eta)) == sorted(set(itertools.permutations(eta.trivial_word))), eta

    @given(compositions)
    @settings(max_examples=40, deadline=None)
    def test_multinomial(self, eta):
        count = sum(1 for _ in words(eta))
        expected = math.factorial(eta.n)
        for p in eta.parts:
            expected //= math.factorial(p)
        assert count == expected


class TestPermutations:
    def test_inverse(self):
        assert inverse((3, 1, 2)) == (2, 3, 1)
        assert inverse((6, 8, 10, 2, 4, 3, 5, 1, 7, 9)) == (8, 4, 6, 5, 7, 1, 9, 2, 10, 3)

    @pytest.mark.parametrize("perm", [(2.0, 1), (True, 2), (2, True), (1, 2.0), ("1",)])
    def test_check_permutation_refuses_entries_that_are_not_ints(self, perm):
        assert not is_permutation(perm)
        with pytest.raises(ValueError, match="is not a permutation"):
            check_permutation(perm)

    @pytest.mark.parametrize("w", [(True, 2), (1.0, 2), (1, 2.0), (2, True)])
    def test_check_word_refuses_letters_that_are_not_ints(self, w):
        eta = Composition((1, 1))
        assert not is_word(w, eta)
        with pytest.raises(ValueError, match="does not rearrange"):
            check_word(w, eta)

    @given(st.permutations(range(1, 8)))
    @settings(max_examples=40, deadline=None)
    def test_inverse_involutive(self, perm):
        perm = tuple(perm)
        assert inverse(inverse(perm)) == perm
        assert is_permutation(perm)
