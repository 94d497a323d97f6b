"""
Signed permutations and their descent, flag, and Denert-type statistics.

A signed permutation on n letters is stored by its window (sigma(1), ...,
sigma(n)): nonzero integers whose absolute values form a permutation of [n].
The negative half is implied by sigma(-i) = -sigma(i) and never materialised.
Even-signed permutations are the windows with an even number of negative
entries.

des and maj act on the window under the usual integer order.  The remaining
statistics come in three families: the negative statistics (neg, ndes, nmaj),
the flag statistics (fdes, fmaj), and excedance/Denert companions (excabs,
nden on all signed permutations; dneg, ddes, dmaj, dexc, nsp, dden on the
even-signed ones).

b_kernel and d_kernel, the kernels of zeta.STATS, each read a window in one
loop: its descents, its negative entries (for d_kernel, those below -1) and
the excedances of |sigma|, which they count on two bit masks of the absolute
values read so far.  Each returns its fields as a plain tuple and checks no
window; b_stats and d_stats check the window and name the fields (BStats,
DStats).  nsp, the independent second form of dden, is one pass of its own
over a bit mask of the signed values.  signed_perms and even_signed_perms
take the sign vectors of 1..n in turn and yield the permutations of each set
of signed values with itertools.permutations.
"""
from __future__ import annotations

from itertools import permutations, product
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .multiset import descent_stats


def is_signed_window(window: Sequence[int]) -> bool:
    """True iff every entry is an int (not a bool or a float), no entry is 0,
    and the absolute values form a permutation of [n]: one pass that sets bit
    |v| of a mask only once 0 < |v| <= n, so no entry builds a huge int."""
    n = len(window)
    seen = 0
    for v in window:
        if type(v) is not int or not 0 < abs(v) <= n:
            return False
        seen |= 1 << abs(v)
    return seen == (2 << n) - 2


def check_window(window: Sequence[int]) -> tuple[int, ...]:
    window = tuple(window)
    if not is_signed_window(window):
        raise ValueError(f"{window} is not a signed permutation window")
    return window


def check_rank(n: int) -> int:
    """n, when it is an int (not a bool) and at least 1; ValueError otherwise."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def is_even_signed(window: Sequence[int]) -> bool:
    """True iff the number of negative entries is even."""
    return neg(window) % 2 == 0


def abs_window(window: Sequence[int]) -> tuple[int, ...]:
    return tuple(abs(v) for v in window)


def neg(window: Sequence[int]) -> int:
    return sum(1 for v in window if v < 0)


def type_a_stats(window: Sequence[int]) -> tuple[int, int]:
    """(des, maj) of the window as an integer sequence."""
    return descent_stats(window)


class BStats(NamedTuple):
    des: int
    maj: int
    neg: int
    ndes: int
    nmaj: int
    fdes: int
    fmaj: int
    excabs: int
    nden: int


def b_kernel(window: Sequence[int]) -> tuple[int, ...]:
    """The BStats fields of a window, in order, as a plain tuple: b_stats
    without the window check and the named tuple, the kernel of the registry
    (zeta.STATS), whose windows are signed windows by construction.

    One pass reads the descents as multiset.descent_stats does, the negative
    entries, and exc and denh of |sigma| against 1..n as
    multiset.excedance_stats does, counted on bit masks: the absolute values
    read so far are two ints, `big` for the excedances and `rest` for the
    others, with bit a set for the value a.  As |sigma| is a permutation, the
    earlier values above a are the set bits of mask >> a.
    """
    d = m = k = neg_sum = total = big = rest = 0
    # i is the index of a until the step (a descent window[i - 1] > a sits at
    # position i), and a's 1-based position after it.
    i = 0
    prev = first = window[0] if window else 0
    for a in window:
        if prev > a:
            d += 1
            m += i
        prev = a
        i += 1
        if a < 0:
            k += 1
            neg_sum += a
            a = -a
        if a > i:
            total += i + (big >> a).bit_count()
            big |= 1 << a
        else:
            total += (rest >> a).bit_count()
            rest |= 1 << a
    exc = big.bit_count()
    return (d, m, k, d + k, m - neg_sum, 2 * d + (first < 0), 2 * m + k, exc + k, total - neg_sum)


def b_stats(window: Sequence[int]) -> BStats:
    """Descent, negative, flag, and excedance statistics of a signed
    permutation, from one scan.

    des and maj are those of the window; ndes = des + neg,
    nmaj = maj - (sum of negative entries), fdes = 2*des + [first entry
    negative], fmaj = 2*maj + neg; excabs = excedances of |sigma| plus neg,
    and nden = denh(|sigma|) - (sum of negative entries).

    Raises ValueError when the window is not a signed window.

    >>> b_stats((-2, 1))
    BStats(des=0, maj=0, neg=1, ndes=1, nmaj=2, fdes=1, fmaj=1, excabs=2, nden=3)
    >>> b_stats((2, -3, 1))
    BStats(des=1, maj=1, neg=1, ndes=2, nmaj=4, fdes=2, fmaj=3, excabs=3, nden=6)
    """
    return BStats._make(b_kernel(check_window(window)))


def excabs(window: Sequence[int]) -> int:
    """Absolute excedance number: excedances of |sigma| plus the negative count."""
    return b_stats(window).excabs


def nden(window: Sequence[int]) -> int:
    """Negative Denert statistic: denh of |sigma| minus the sum of negative entries."""
    return b_stats(window).nden


def _pairs(window: Sequence[int]) -> int:
    """nsp of a window that is not checked.  The signed values read so far
    are one int over the 2n + 1 values -n..n, with bit n - v set for the
    value v; the earlier entries below -a are its set bits above bit n + a."""
    n = len(window)
    top = n + 1
    total = seen = 0
    for a in window:
        total += (seen >> (top + a)).bit_count()
        seen |= 1 << (n - a)
    return total


def nsp(window: Sequence[int]) -> int:
    """Number of pairs i < j with sigma(i) + sigma(j) < 0.

    Each entry a closes one pair with every earlier entry below -a, counted
    as the set bits of a mask of the signed values read so far.  Raises
    ValueError when the window is not a signed window.

    >>> nsp((-3, 1, 2))
    2
    >>> nsp((-1, -2))
    1
    """
    return _pairs(check_window(window))


class DStats(NamedTuple):
    dneg: int
    ddes: int
    dmaj: int
    dexc: int
    nsp: int
    dden: int


def d_kernel(window: Sequence[int]) -> tuple[int, ...]:
    """The DStats fields of a window, in order, as a plain tuple: d_stats
    without the window check and the named tuple, the kernel of the registry
    (zeta.STATS), whose windows are signed windows by construction.

    One pass as in b_kernel, which tracks the entries below -1 in place of
    every negative entry: shift is the sum of |a| - 1 over them, so that
    dmaj = maj + shift and the descent form of dden is denh(|sigma|) + shift.
    The pair form reads nsp from _pairs, a pass of its own.
    """
    d = m = odd = dneg = shift = total = big = rest = 0
    i = 0
    prev = window[0] if window else 0
    for a in window:
        if prev > a:
            d += 1
            m += i
        prev = a
        i += 1
        if a < 0:
            odd ^= 1
            if a < -1:
                dneg += 1
                shift -= a + 1
            a = -a
        if a > i:
            total += i + (big >> a).bit_count()
            big |= 1 << a
        else:
            total += (rest >> a).bit_count()
            rest |= 1 << a
    if odd:
        raise ValueError(f"{tuple(window)} has an odd number of negative entries")
    pairs = _pairs(window)
    via_pairs = total + pairs
    via_descents = total + shift
    if via_pairs != via_descents:
        from .zeta import InvariantError  # zeta imports this module

        raise InvariantError(
            f"dden mismatch on {tuple(window)}: "
            f"{via_pairs} (pair form) != {via_descents} (descent form)"
        )
    return (dneg, d + dneg, m + shift, big.bit_count() + dneg, pairs, via_pairs)


def d_stats(window: Sequence[int]) -> DStats:
    """Even-signed descent, major, excedance, and Denert statistics.

    dneg counts entries below -1; ddes = des + dneg; dmaj = maj - (sum over
    those entries) - dneg; dexc = excedances of |sigma| plus dneg; and
    dden = denh(|sigma|) + nsp.  The last has a second defining expression,
    denh(|sigma|) - (sum over entries below -1) - dneg; both are computed and
    must agree, otherwise something is deeply wrong and InvariantError is
    raised.  The descents, the sign parity, the entries below -1 and the
    excedance scan of |sigma| come from one pass; nsp is its own pass.

    Raises ValueError when the window is not a signed window, or has an odd
    number of negative entries.

    >>> d_stats((-2, -1))
    DStats(dneg=1, ddes=1, dmaj=1, dexc=2, nsp=1, dden=2)
    >>> d_stats((-1, 2))
    Traceback (most recent call last):
    ...
    ValueError: (-1, 2) has an odd number of negative entries
    """
    return DStats._make(d_kernel(check_window(window)))


def _windows(n: int, even: bool) -> Iterator[tuple[int, ...]]:
    """The windows of rank n in the order of signed_perms; with even, only
    those with an even number of negative entries.  A window is an ordering
    of its set of signed values, so each sign vector of 1..n yields the
    permutations of its sorted values."""
    values = range(1, check_rank(n) + 1)
    for signs in product((-1, 1), repeat=n):
        if not (even and signs.count(-1) % 2):
            yield from permutations(sorted(map(mul, signs, values)))


def signed_perms(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n n! windows, grouped by sign class: the classes in product
    order of the signs of 1, 2, ..., n, minus before plus and the sign of 1
    varying slowest, and each class in lexicographic order.

    >>> list(signed_perms(2))
    [(-2, -1), (-1, -2), (-1, 2), (2, -1), (-2, 1), (1, -2), (1, 2), (2, 1)]
    """
    return _windows(n, even=False)


def even_signed_perms(n: int) -> Iterator[tuple[int, ...]]:
    """The windows with an even number of negative entries, in the order of
    signed_perms."""
    return _windows(n, even=True)
