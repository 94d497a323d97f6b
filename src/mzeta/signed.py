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
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .multiset import descent_stats, excedance_stats


def is_signed_window(window: Sequence[int]) -> bool:
    """True iff the absolute values form a permutation of [n] and no entry is 0."""
    n = len(window)
    return 0 not in window and sorted(abs(v) for v in window) == list(range(1, n + 1))


def check_window(window: Sequence[int]) -> tuple[int, ...]:
    window = tuple(window)
    if not is_signed_window(window):
        raise ValueError(f"{window} is not a signed permutation window")
    return window


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
    neg: int
    ndes: int
    nmaj: int
    fdes: int
    fmaj: int


def b_stats(window: Sequence[int]) -> BStats:
    """Negative and flag statistics of a signed permutation.

    ndes = des + neg, nmaj = maj - (sum of negative entries),
    fdes = 2*des + [first entry negative], fmaj = 2*maj + neg.
    """
    d, m = descent_stats(window)
    negatives = [v for v in window if v < 0]
    k = len(negatives)
    return BStats(
        neg=k,
        ndes=d + k,
        nmaj=m - sum(negatives),
        fdes=2 * d + (1 if window and window[0] < 0 else 0),
        fmaj=2 * m + k,
    )


def abs_excedance_stats(window: Sequence[int]) -> tuple[int, int]:
    """(excabs, nden): the excedance and Denert statistics of |sigma|, the
    first plus the negative count, the second minus the sum of the negative
    entries."""
    exc_abs, denh_abs = excedance_stats(abs_window(window), range(1, len(window) + 1))
    negatives = [v for v in window if v < 0]
    return exc_abs + len(negatives), denh_abs - sum(negatives)


def excabs(window: Sequence[int]) -> int:
    """Absolute excedance number: excedances of |sigma| plus the negative count."""
    return abs_excedance_stats(window)[0]


def nden(window: Sequence[int]) -> int:
    """Negative Denert statistic: denh of |sigma| minus the sum of negative entries."""
    return abs_excedance_stats(window)[1]


def nsp(window: Sequence[int]) -> int:
    """Number of pairs i < j with sigma(i) + sigma(j) < 0."""
    total = 0
    n = len(window)
    for i in range(n):
        a = window[i]
        for j in range(i + 1, n):
            if a + window[j] < 0:
                total += 1
    return total


class DStats(NamedTuple):
    dneg: int
    ddes: int
    dmaj: int
    dexc: int
    nsp: int
    dden: int


def d_stats(window: Sequence[int]) -> DStats:
    """Even-signed descent, major, excedance, and Denert statistics.

    dneg counts entries below -1; ddes = des + dneg; dmaj = maj - (sum over
    those entries) - dneg; dexc = excedances of |sigma| plus dneg; and
    dden = denh(|sigma|) + nsp.  The last has a second defining expression,
    denh(|sigma|) - (sum over entries below -1) - dneg; both are computed and
    must agree, otherwise something is deeply wrong and InvariantError is
    raised.

    Raises ValueError when the window has an odd number of negative entries.
    """
    if not is_even_signed(window):
        raise ValueError(f"{tuple(window)} has an odd number of negative entries")
    d, m = descent_stats(window)
    low = [v for v in window if v < -1]
    dneg = len(low)
    low_sum = sum(low)
    exc_abs, base = excedance_stats(abs_window(window), range(1, len(window) + 1))
    pairs = nsp(window)
    via_pairs = base + pairs
    via_descents = base - low_sum - dneg
    if via_pairs != via_descents:
        from .zeta import InvariantError  # zeta imports this module

        raise InvariantError(
            f"dden mismatch on {tuple(window)}: "
            f"{via_pairs} (pair form) != {via_descents} (descent form)"
        )
    return DStats(
        dneg=dneg,
        ddes=d + dneg,
        dmaj=m - low_sum - dneg,
        dexc=exc_abs + dneg,
        nsp=pairs,
        dden=via_pairs,
    )


def _windows(n: int, even: bool) -> Iterator[tuple[int, ...]]:
    """Windows of rank n, lexicographically under the integer order on
    entries; with even, only those with an even number of negative entries,
    the sign of the last entry being forced by the others."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(avail: tuple[int, ...], odd: bool) -> Iterator[tuple[int, ...]]:
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


def signed_perms(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n n! windows, lexicographically under the integer order on entries."""
    return _windows(n, even=False)


def even_signed_perms(n: int) -> Iterator[tuple[int, ...]]:
    """The windows with an even number of negative entries, in the same order."""
    return _windows(n, even=True)
