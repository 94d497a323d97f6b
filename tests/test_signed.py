"""Signed and even-signed statistics against brute-force oracles."""
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from mzeta.multiset import des, descent_stats, excedance_stats, maj
from mzeta.signed import (
    BStats,
    DStats,
    b_kernel,
    b_stats,
    check_rank,
    check_window,
    d_kernel,
    d_stats,
    even_signed_perms,
    excabs,
    is_even_signed,
    is_signed_window,
    nden,
    nsp,
    signed_perms,
    type_a_stats,
)
from mzeta.zeta import InvariantError


def sign_class(window):
    """The window's signed values in order of absolute value.  A stable sort
    of lexicographically ordered windows by this key gives the enumeration
    order: sign classes with minus before plus and the sign of 1 varying
    slowest, each class in lexicographic order."""
    return tuple(sorted(window, key=abs))


def random_windows(n_max=5, n_min=1):
    return (
        st.integers(n_min, n_max)
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

    # A repeated or missing absolute value, 0, an entry above n, a bool and a
    # float; 10**12 is refused before any bit is set for it.
    @pytest.mark.parametrize(
        "window", [(1, 1), (0,), (2,), (True,), (1.0,), (-1, -1), (3, 1, 3), (10**12,)], ids=repr
    )
    def test_refuses_bad_windows(self, window):
        assert not is_signed_window(window)
        with pytest.raises(ValueError, match="is not a signed permutation window"):
            check_window(window)

    @pytest.mark.parametrize("window", [(1.0, 2), (True, 2), (-1, 2.0), (Fraction(1), 2)], ids=repr)
    def test_rejects_non_int_entries(self, window):
        assert not is_signed_window(window)
        with pytest.raises(ValueError):
            check_window(window)

    # An entry far above n would index a bit far above n in a kernel's masks.
    @pytest.mark.parametrize(
        "kernel,window", [(b_stats, (10**6,)), (nsp, (10**6,)), (d_stats, (2, 2))],
        ids=["b_stats", "nsp", "d_stats"],
    )
    def test_public_kernels_check_the_window(self, kernel, window):
        with pytest.raises(ValueError, match="is not a signed permutation window"):
            kernel(window)

    @pytest.mark.parametrize("n", [True, False, 2.0, Fraction(2), "2"], ids=repr)
    def test_rank_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="n must be an int"):
            check_rank(n)
        with pytest.raises(ValueError, match="n must be an int"):
            next(signed_perms(n))
        with pytest.raises(ValueError, match="n must be an int"):
            next(even_signed_perms(n))


class TestTypeA:
    def test_windows(self):
        assert type_a_stats((-2, 1)) == (0, 0)
        assert type_a_stats((1, 2, 3)) == (0, 0)
        assert type_a_stats((-1, -2)) == (1, 1)


class TestBStats:
    def test_examples(self):
        assert b_stats((-2, 1)) == (0, 0, 1, 1, 2, 1, 1, 2, 3)
        assert b_stats((1, 2)) == (0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert b_stats((-1,)) == (0, 0, 1, 1, 1, 1, 1, 1, 1)

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
        assert (stats.des, stats.maj) == (des(window), maj(window))
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
            (-2, -1), (-1, -2), (-1, 2), (2, -1),
            (-2, 1), (1, -2), (1, 2), (2, 1),
        ]

    @pytest.mark.parametrize("n,b_size,d_size", [(1, 2, 1), (2, 8, 4), (3, 48, 24), (4, 384, 192)])
    def test_counts(self, n, b_size, d_size):
        b = list(signed_perms(n))
        d = list(even_signed_perms(n))
        assert len(b) == b_size
        assert len(set(b)) == b_size
        assert b == sorted(sorted(b), key=sign_class)
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


# The recursive walk and the multi-pass kernels that the sign-class walk and
# the one-pass kernels replaced, kept as references.  The recursive walk is
# in lexicographic order.


def reference_windows(n, even):
    def rec(avail, odd):
        if even and len(avail) == 1:
            yield (-avail[0],) if odd else avail
            return
        if not avail:
            yield ()
            return
        for v in [-a for a in reversed(avail)] + list(avail):
            rest = tuple(k for k in avail if k != abs(v))
            for tail in rec(rest, odd != (v < 0)):
                yield (v,) + tail

    yield from rec(tuple(range(1, n + 1)), False)


def reference_b_stats(window):
    # (neg, ndes, nmaj, fdes, fmaj)
    d, m = descent_stats(window)
    negatives = [v for v in window if v < 0]
    k = len(negatives)
    return (k, d + k, m - sum(negatives), 2 * d + (1 if window and window[0] < 0 else 0), 2 * m + k)


def reference_abs_excedance_stats(window):
    exc_abs, denh_abs = excedance_stats(tuple(abs(v) for v in window), range(1, len(window) + 1))
    negatives = [v for v in window if v < 0]
    return exc_abs + len(negatives), denh_abs - sum(negatives)


def reference_all_b_stats(window):
    """Every BStats field from the references: (des, maj), the negative and
    flag statistics, then (excabs, nden)."""
    return BStats(
        *descent_stats(window), *reference_b_stats(window), *reference_abs_excedance_stats(window)
    )


def reference_nsp(window):
    n = len(window)
    return sum(1 for i in range(n) for j in range(i + 1, n) if window[i] + window[j] < 0)


def reference_d_stats(window):
    if not is_even_signed(window):
        raise ValueError(f"{tuple(window)} has an odd number of negative entries")
    d, m = descent_stats(window)
    low = [v for v in window if v < -1]
    dneg = len(low)
    low_sum = sum(low)
    exc_abs, base = excedance_stats(tuple(abs(v) for v in window), range(1, len(window) + 1))
    pairs = reference_nsp(window)
    via_pairs = base + pairs
    if via_pairs != base - low_sum - dneg:
        raise InvariantError(f"dden mismatch on {tuple(window)}")
    return DStats(
        dneg=dneg,
        ddes=d + dneg,
        dmaj=m - low_sum - dneg,
        dexc=exc_abs + dneg,
        nsp=pairs,
        dden=via_pairs,
    )


def assert_kernel_value(value, reference):
    """A registry kernel's value is a plain tuple of the named tuple's fields,
    in order."""
    assert type(value) is tuple
    assert len(value) == len(reference._fields)
    assert value == tuple(reference)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "n,even", [(n, even) for n in range(1, 7) for even in (False, True)] + [(7, True)]
    )
    def test_same_windows_in_the_same_order(self, n, even):
        walk = even_signed_perms(n) if even else signed_perms(n)
        missing = object()
        expected = sorted(reference_windows(n, even), key=sign_class)
        for got, want in zip_longest(walk, expected, fillvalue=missing):
            assert got == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_b_kernels_on_every_window(self, n):
        for w in signed_perms(n):
            want = reference_all_b_stats(w)
            assert b_stats(w) == want
            assert_kernel_value(b_kernel(w), want)
            assert nsp(w) == reference_nsp(w)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_d_kernels_on_every_window(self, n):
        for w in even_signed_perms(n):
            want = reference_d_stats(w)
            assert d_stats(w) == want
            assert_kernel_value(d_kernel(w), want)

    # The extreme bits of the masks: the first entry -n or n, the values in
    # increasing and decreasing order, and a window of each parity at n = 14.
    @given(random_windows(n_max=14, n_min=8))
    @example(tuple(range(-14, 0)))
    @example(tuple(range(14, 0, -1)))
    @example(tuple(range(1, 9)))
    @example(tuple(range(-1, -10, -1)))
    @example((-14, *range(2, 14), -1))
    @example((14, *range(-13, 0)))
    @settings(max_examples=200, deadline=None)
    def test_kernels_on_wide_windows(self, window):
        want = reference_all_b_stats(window)
        assert b_stats(window) == want
        assert_kernel_value(b_kernel(window), want)
        assert nsp(window) == reference_nsp(window)
        if is_even_signed(window):
            want = reference_d_stats(window)
            assert d_stats(window) == want
            assert_kernel_value(d_kernel(window), want)
        else:
            with pytest.raises(ValueError):
                d_stats(window)
            with pytest.raises(ValueError):
                d_kernel(window)

    def test_walk_is_lazy(self):
        # 2^12 12! windows: only a lazy walk returns the first one.
        assert next(signed_perms(12)) == tuple(range(-12, 0))
        assert next(even_signed_perms(12)) == tuple(range(-12, 0))
