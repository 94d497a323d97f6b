"""Signed and even-signed statistics against brute-force oracles."""
import pytest
from hypothesis import given, settings, strategies as st

from mzeta.multiset import des, maj
from mzeta.signed import (
    b_stats,
    check_window,
    d_stats,
    even_signed_perms,
    excabs,
    is_even_signed,
    nden,
    nsp,
    signed_perms,
    type_a_stats,
)


def random_windows(n_max=5):
    return (
        st.integers(1, n_max)
        .flatmap(
            lambda n: st.tuples(
                st.permutations(range(1, n + 1)),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        )
        .map(lambda pair: tuple(-v if s else v for v, s in zip(*pair)))
    )


class TestValidation:
    def test_check_window(self):
        assert check_window((-2, 1)) == (-2, 1)
        with pytest.raises(ValueError):
            check_window((1, 1))
        with pytest.raises(ValueError):
            check_window((0, 1))
        with pytest.raises(ValueError):
            check_window((3, 1))


class TestTypeA:
    def test_windows(self):
        assert type_a_stats((-2, 1)) == (0, 0)
        assert type_a_stats((1, 2, 3)) == (0, 0)
        assert type_a_stats((-1, -2)) == (1, 1)


class TestBStats:
    def test_examples(self):
        assert b_stats((-2, 1)) == (1, 1, 2, 1, 1)
        assert b_stats((1, 2)) == (0, 0, 0, 0, 0)
        assert b_stats((-1,)) == (1, 1, 1, 1, 1)

    def test_excabs(self):
        assert excabs((-2, 1)) == 2
        assert excabs((2, -1)) == 2
        assert excabs((1, 2, 3)) == 0

    def test_nden(self):
        assert nden((-2, 1)) == 3
        assert nden((-1,)) == 1
        assert nden((1, 2)) == 0

    @given(random_windows())
    @settings(max_examples=80, deadline=None)
    def test_displays(self, window):
        stats = b_stats(window)
        negatives = [v for v in window if v < 0]
        assert stats.neg == len(negatives)
        assert stats.ndes == des(window) + stats.neg
        assert stats.nmaj == maj(window) - sum(negatives)
        assert stats.fdes == 2 * des(window) + (1 if window[0] < 0 else 0)
        assert stats.fmaj == 2 * maj(window) + stats.neg


class TestDStats:
    def test_examples(self):
        assert d_stats((-1, -2)) == (1, 2, 2, 1, 1, 1)
        assert d_stats((-2, -1)) == (1, 1, 1, 2, 1, 2)
        assert d_stats((1, 2)) == (0, 0, 0, 0, 0, 0)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            d_stats((-1, 2))

    def test_nsp(self):
        assert nsp((-1, -2)) == 1
        assert nsp((1, 2)) == 0
        assert nsp((-3, 1, 2)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pair_count_identity(self, n):
        # The two defining expressions for dden agree; recomputed from scratch.
        from mzeta.multiset import Composition, denh

        ones = Composition((1,) * n)
        for window in even_signed_perms(n):
            low = [v for v in window if v < -1]
            lhs = nsp(window)
            rhs = -sum(low) - len(low)
            assert lhs == rhs
            base = denh(tuple(abs(v) for v in window), ones)
            assert d_stats(window).dden == base + lhs

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dexc_vs_excabs(self, n):
        # They differ exactly on windows containing -1.
        for window in even_signed_perms(n):
            differs = d_stats(window).dexc != excabs(window)
            assert differs == (-1 in window)


class TestEnumeration:
    def test_b1_d1(self):
        assert list(signed_perms(1)) == [(-1,), (1,)]
        assert list(even_signed_perms(1)) == [(1,)]

    def test_b2_order(self):
        assert list(signed_perms(2)) == [
            (-2, -1), (-2, 1), (-1, -2), (-1, 2),
            (1, -2), (1, 2), (2, -1), (2, 1),
        ]

    @pytest.mark.parametrize("n,b_size,d_size", [(1, 2, 1), (2, 8, 4), (3, 48, 24), (4, 384, 192)])
    def test_counts(self, n, b_size, d_size):
        b = list(signed_perms(n))
        d = list(even_signed_perms(n))
        assert len(b) == b_size
        assert len(set(b)) == b_size
        assert b == sorted(b)
        assert len(d) == d_size
        assert all(is_even_signed(w) for w in d)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next(signed_perms(0))
        with pytest.raises(ValueError):
            next(even_signed_perms(0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_even_windows_are_the_filtered_signed_windows(self, n):
        assert list(even_signed_perms(n)) == [w for w in signed_perms(n) if is_even_signed(w)]


class TestEquidistribution:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_pairs(self, n):
        from collections import Counter

        flag = Counter((b_stats(w).fmaj, b_stats(w).fdes) for w in signed_perms(n))
        negative = Counter((b_stats(w).nmaj, b_stats(w).ndes) for w in signed_perms(n))
        denert = Counter((nden(w), excabs(w)) for w in signed_perms(n))
        assert flag == negative == denert

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_d_pairs(self, n):
        from collections import Counter

        lhs = Counter((d_stats(w).dden, d_stats(w).dexc) for w in even_signed_perms(n))
        rhs = Counter((d_stats(w).dmaj, d_stats(w).ddes) for w in even_signed_perms(n))
        assert lhs == rhs
