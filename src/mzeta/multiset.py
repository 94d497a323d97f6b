"""
Multiset words and their classical statistics.

A composition eta = (eta_1, ..., eta_r) of n fixes a multiset alphabet with
eta_k copies of the letter k.  A *word* over eta is any rearrangement of the
sorted ("trivial") word 1^{eta_1} 2^{eta_2} ... r^{eta_r}; words and
permutations are plain tuples of ints.  All positions reported by the
statistics below are 1-based, so that e.g. maj(w) is literally the sum of the
descent positions.

The statistics of one word (excedance_stats, denh, exc, inv, imv) keep the
letters read so far in sorted lists, one bisect per letter however many
letters eta has.  The words of an enumerated domain are many and short, so
they are counted on packed ints instead: letter_fields(eta) is the per-eta
context, and excedance_kernel (the (exc, denh) kernel of the statistic
registry in zeta) and excedance_parts (the word side of the lemma checks in
verify) count with one shift and mask per letter, on ints of O(r log n) bits.

words enumerates a domain in lexicographic order, and takes the last 4
letters of each word from a per-call table of bounded size.

>>> eta = Composition((3, 2, 2, 3))
>>> w = (4, 2, 3, 2, 3, 1, 4, 1, 4, 1)
>>> sorted(descent_set(w)), des(w), maj(w)
([1, 3, 5, 7, 9], 5, 25)
>>> denh(w, eta)
27
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from bisect import bisect_left, bisect_right, insort
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence


@dataclasses.dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts (eta_1, ..., eta_r) summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"composition parts must be ints, got {p!r}")
        if not self.parts:
            raise ValueError("a composition needs at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"composition parts must be positive, got {self.parts}")

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    @cached_property
    def r(self) -> int:
        return len(self.parts)

    @cached_property
    def descent_set(self) -> frozenset[int]:
        """Partial sums eta_1, eta_1+eta_2, ... strictly below n (r-1 values).

        >>> sorted(Composition((3, 2, 2, 3)).descent_set)
        [3, 5, 7]
        """
        acc = list(itertools.accumulate(self.parts[:-1]))
        return frozenset(acc)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """offsets[k] = eta_1 + ... + eta_{k-1}, indexed by letter (offsets[0] unused)."""
        return (0, 0) + tuple(itertools.accumulate(self.parts[:-1]))

    @cached_property
    def trivial_word(self) -> tuple[int, ...]:
        """The sorted word 1^{eta_1} ... r^{eta_r}.

        >>> Composition((2, 1)).trivial_word
        (1, 1, 2)
        """
        out: list[int] = []
        for k, p in enumerate(self.parts, start=1):
            out.extend([k] * p)
        return tuple(out)

    def word_count(self) -> int:
        """|S_eta| = n! / (eta_1! ... eta_r!), built as the product over k of
        C(eta_1 + ... + eta_k, eta_k) with no n! in between; ValueError for
        n > sys.maxsize."""
        if self.n > sys.maxsize:
            raise ValueError(f"eta={self} has n={self.n} letters, too many to count its words")
        return math.prod(map(math.comb, itertools.accumulate(self.parts), self.parts))

    def is_rectangle(self) -> tuple[int, int] | None:
        """Return (m, r) if all parts equal m, else None."""
        m = self.parts[0]
        if all(p == m for p in self.parts):
            return m, self.r
        return None

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def is_word(w: Sequence[int], eta: Composition) -> bool:
    """True iff every letter is an int (not a bool or a float) and w is a
    rearrangement of eta's trivial word.  The length is compared first, so a
    huge eta builds no trivial word."""
    return (
        len(w) == eta.n
        and all(type(a) is int for a in w)
        and tuple(sorted(w)) == eta.trivial_word
    )


def check_word(w: Sequence[int], eta: Composition) -> tuple[int, ...]:
    w = tuple(w)
    if not is_word(w, eta):
        raise ValueError(f"{w} does not rearrange the trivial word of eta={eta}")
    return w


def descent_set(w: Sequence[int]) -> set[int]:
    """Positions i in [n-1] with w_i > w_{i+1} (1-based).

    Works for any integer sequence, including signed windows.

    >>> sorted(descent_set((2, 1, 1)))
    [1]
    """
    return {i for i in range(1, len(w)) if w[i - 1] > w[i]}


def descent_stats(w: Sequence[int]) -> tuple[int, int]:
    """(des, maj): the number of descents and the sum of their positions.

    The descent scan of words, and of signed windows through
    signed.type_a_stats.  signed.b_kernel and signed.d_kernel read des and
    maj of a window the same way, each in its one pass that also reads the
    signs and the excedances of |sigma|.

    >>> descent_stats((4, 2, 3, 2, 3, 1, 4, 1, 4, 1))
    (5, 25)
    >>> descent_stats((-1, -2))
    (1, 1)
    """
    d = 0
    m = 0
    i = 0  # the index of a; a descent w[i - 1] > w[i] sits at position i
    prev = w[0] if w else 0
    for a in w:
        if prev > a:
            d += 1
            m += i
        prev = a
        i += 1
    return d, m


def des(w: Sequence[int]) -> int:
    """Number of descents."""
    return descent_stats(w)[0]


def maj(w: Sequence[int]) -> int:
    """Major index: the sum of the descent positions.

    >>> maj((1, 2, 1))
    2
    """
    return descent_stats(w)[1]


def _pairs_above(seq: Sequence[int], cut) -> int:
    """The pairs i < j with seq_i above seq_j, in one pass: each entry a
    counts the entries read before it that sort past cut(seen, a), then joins
    the sorted list seen.  bisect_right counts seq_i > a, bisect_left
    seq_i >= a."""
    total = 0
    seen: list[int] = []
    for a in seq:
        total += len(seen) - cut(seen, a)
        insort(seen, a)
    return total


def inv(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq_i > seq_j, one bisect per entry.

    >>> inv((2, 1, 1, 4, 1))
    4
    """
    return _pairs_above(seq, bisect_right)


def imv(seq: Sequence[int]) -> int:
    """Number of weak inversions: pairs i < j with seq_i >= seq_j, one
    bisect per entry.

    >>> imv((4, 2, 3, 3, 4))
    5
    """
    return _pairs_above(seq, bisect_left)


def exc_set(w: Sequence[int], eta: Composition) -> set[int]:
    """Positions where w strictly exceeds the trivial word letterwise.

    >>> sorted(exc_set((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), Composition((3, 2, 2, 3))))
    [1, 2, 3, 5, 7]
    """
    triv = eta.trivial_word
    return {i for i in range(1, len(w) + 1) if w[i - 1] > triv[i - 1]}


def exc(w: Sequence[int], eta: Composition) -> int:
    """Number of excedances."""
    return excedance_stats(w, eta.trivial_word)[0]


def exceeding_subword(w: Sequence[int], eta: Composition) -> tuple[int, ...]:
    """Letters of w at excedance positions, in order.

    >>> exceeding_subword((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), Composition((3, 2, 2, 3)))
    (4, 2, 3, 3, 4)
    """
    triv = eta.trivial_word
    return tuple(a for a, b in zip(w, triv) if a > b)


def nonexceeding_subword(w: Sequence[int], eta: Composition) -> tuple[int, ...]:
    """Letters of w at non-excedance positions, in order.

    >>> nonexceeding_subword((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), Composition((3, 2, 2, 3)))
    (2, 1, 1, 4, 1)
    """
    triv = eta.trivial_word
    return tuple(a for a, b in zip(w, triv) if a <= b)


def excedance_stats(w: Sequence[int], triv: Sequence[int]) -> tuple[int, int]:
    """(exc, denh) of w against the letterwise bound triv.

    An excedance is a position where w strictly exceeds triv.  With triv the
    trivial word of eta these are exc(w, eta) and denh(w, eta).

    One pass over w builds no subword: it keeps the exceeding and the
    non-exceeding letters read so far as two sorted lists, and a bisect into
    them counts the earlier exceeding letters >= a (the weak inversions a
    closes) or the earlier non-exceeding letters > a (the inversions).
    signed.b_kernel and signed.d_kernel count the same pair for |sigma|
    against 1..n on bit masks in place of the lists, which they can as no
    letter of |sigma| repeats, and excedance_kernel counts it on packed
    letter counts for the words of an enumerated domain.

    >>> excedance_stats((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), (1, 1, 1, 2, 2, 3, 3, 4, 4, 4))
    (5, 27)
    >>> excedance_stats((3, 1, 2), range(1, 4))
    (1, 1)
    """
    total = 0
    exceeding: list[int] = []
    rest: list[int] = []
    i = 0
    for a in w:
        i += 1
        if a > triv[i - 1]:
            total += i + len(exceeding) - bisect_left(exceeding, a)
            insort(exceeding, a)
        else:
            total += len(rest) - bisect_right(rest, a)
            insort(rest, a)
    return len(exceeding), total


def denh(w: Sequence[int], eta: Composition) -> int:
    """Denert statistic of a multiset word.

    The sum of the excedance positions, plus the weak inversions of the
    exceeding subword, plus the inversions of the non-exceeding subword.

    >>> denh((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), Composition((3, 2, 2, 3)))
    27
    >>> denh((1, 1, 2), Composition((2, 1)))
    0
    """
    return excedance_stats(w, eta.trivial_word)[1]


class LetterFields(NamedTuple):
    """The packed letter counts of the words over one eta (letter_fields).

    A count is an int with one field of width = n.bit_length() bits per
    letter f = 1..r + 2, field f at bit width*f, that counts the letters >= f
    read so far.  No field counts more than n letters, so none carries into
    the next.  The tables take the letters 0..r + 1: a projection through a
    wrong block map can raise a letter to r + 1, and the lemma checks of
    verify then report the fault instead of raising IndexError.
    """

    trivial_word: tuple[int, ...]
    up: tuple[int, ...]  # up[a] reads letter a: one more in each field 1..a
    ge: tuple[int, ...]  # ge[a] = width*a: count >> ge[a] & mask, the letters >= a
    gt: tuple[int, ...]  # gt[a] = width*(a + 1): the letters > a
    mask: int
    crossings: int  # the sum of up[t] over the letters t of the trivial word


@lru_cache(maxsize=4096)
def letter_fields(eta: Composition) -> LetterFields:
    """The per-eta context of excedance_kernel and excedance_parts.

    >>> f = letter_fields(Composition((2, 1)))
    >>> f.up, f.ge, f.gt, f.mask
    ((0, 4, 20, 84), (0, 2, 4, 6), (2, 4, 6, 8), 3)
    """
    width = eta.n.bit_length()
    shifts = range(0, width * (eta.r + 3), width)
    up = tuple(itertools.accumulate((1 << s for s in shifts[1:-1]), initial=0))
    crossings = sum(p * u for p, u in zip(eta.parts, up[1:]))
    return LetterFields(
        eta.trivial_word, up, tuple(shifts[:-1]), tuple(shifts[1:]), (1 << width) - 1, crossings
    )


def excedance_kernel(w: Sequence[int], fields: LetterFields) -> tuple[int, int]:
    """excedance_stats(w, fields.trivial_word) for a word w over the eta of
    fields, with two packed counts in place of the sorted lists.

    The exceeding letters read so far are one count and the non-exceeding
    ones another, so the earlier exceeding letters >= a are one field of the
    first and the earlier non-exceeding letters > a one field of the second;
    exc is field 1 of the first.  Each letter costs O(r log n) bits, so keep
    excedance_stats for a word over many letters.

    >>> excedance_kernel((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), letter_fields(Composition((3, 2, 2, 3))))
    (5, 27)
    """
    triv, up, ge, gt, mask, _ = fields
    exceeding = rest = total = i = 0
    for a, t in zip(w, triv):
        i += 1
        if a > t:
            total += i + (exceeding >> ge[a] & mask)
            exceeding += up[a]
        else:
            total += rest >> gt[a] & mask
            rest += up[a]
    return exceeding >> ge[1] & mask, total


def excedance_parts(w: Sequence[int], fields: LetterFields) -> tuple[int, int, int, int]:
    """(imv of the exceeding subword, inv of the non-exceeding subword, u,
    u_inv) of a word w over the eta of fields, in one pass that builds no
    subword.

    u and u_inv are packed counts: field l of u counts the excedances a > t
    (a the letter of w, t that of the trivial word) with t < l <= a, and
    field l of u_inv the positions with a < l <= t, read as
    u >> fields.ge[l] & fields.mask.  On the projected inverse word of an
    admissible permutation these are admissible.cut_counts.  An excedance
    adds up[a] - up[t] to u, and a non-excedance up[t] - up[a] to u_inv, so
    u is the count of the exceeding letters less the up[t] of their
    positions, and u_inv is crossings less those and the count of the
    non-exceeding letters.

    >>> weak, strict, u, u_inv = excedance_parts((2, 1, 1), letter_fields(Composition((2, 1))))
    >>> weak, strict, u >> 4 & 3, u_inv >> 4 & 3
    (0, 0, 1, 1)
    """
    triv, up, ge, gt, mask, crossings = fields
    exceeding = rest = weak = strict = below = 0
    for a, t in zip(w, triv):
        if a > t:
            weak += exceeding >> ge[a] & mask
            exceeding += up[a]
            below += up[t]
        else:
            strict += rest >> gt[a] & mask
            rest += up[a]
    return weak, strict, exceeding - below, crossings - below - rest


def standardize(w: Sequence[int], eta: Composition) -> tuple[int, ...]:
    """Replace equal letters by consecutive integers, left to right.

    The eta_1 occurrences of 1 become 1..eta_1 in reading order, the eta_2
    occurrences of 2 become eta_1+1..eta_1+eta_2, and so on.  The result is a
    permutation of [n] whose blockwise projection recovers w.

    >>> standardize((2, 1, 1), Composition((2, 1)))
    (3, 1, 2)
    >>> standardize((4, 2, 3, 2, 3, 1, 4, 1, 4, 1), Composition((3, 2, 2, 3)))
    (8, 4, 6, 5, 7, 1, 9, 2, 10, 3)
    """
    offsets = eta.offsets
    seen = [0] * (eta.r + 1)
    out: list[int] = []
    for a in w:
        seen[a] += 1
        out.append(offsets[a] + seen[a])
    return tuple(out)


# The letters of a word that words reads from its tail table, and the entries
# that table holds.  A tail has at most 4! = 24 arrangements, but r letters
# give C(r + 3, 4) sorted tails; emptying the table at _MAX_TAILS entries
# keeps its memory bounded by a constant however many letters eta has.
_TAIL = 4
_MAX_TAILS = 1 << 10


def _step(w: list[int], i: int) -> bool:
    """Advance w in place to its next arrangement in lexicographic order
    (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L); False when w is the last.  The
    pivot is sought from index i down, so w[i + 1:] must not increase."""
    while i >= 0 and w[i] >= w[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(w) - 1
    while w[j] <= w[i]:
        j -= 1
    w[i], w[j] = w[j], w[i]
    w[i + 1:] = reversed(w[i + 1:])
    return True


def words(eta: Composition) -> Iterator[tuple[int, ...]]:
    """Yield every word over eta exactly once, in lexicographic order.

    The first n - 4 letters (the head) walk by the next-arrangement step;
    for each head, the arrangements of the last 4 letters (the tail) come
    from a per-call table keyed by the sorted tail, so a word costs one
    tuple concatenation.  A new entry is the sorted distinct orderings of
    its tail from itertools.permutations, at most 4! = 24 of them.  A tail
    of one repeated letter has one arrangement and yields the word at once.
    To advance the head, the tail is set to its last arrangement and the
    word takes one step.

    >>> list(words(Composition((2, 1))))
    [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    """
    if eta.r == eta.n:
        # All letters distinct: itertools already produces lexicographic order.
        yield from itertools.permutations(range(1, eta.n + 1))
        return
    w = list(eta.trivial_word)
    cut = max(len(w) - _TAIL, 0)
    tails: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    # Each step leaves w[cut:] sorted.
    while True:
        if w[cut] == w[-1]:
            yield tuple(w)
        else:
            tail = tuple(w[cut:])
            arrangements = tails.get(tail)
            if arrangements is None:
                if len(tails) >= _MAX_TAILS:
                    tails.clear()
                arrangements = tails[tail] = sorted(set(itertools.permutations(tail)))
            head = tuple(w[:cut])
            for arrangement in arrangements:
                yield head + arrangement
            w[cut:] = arrangements[-1]
        if not _step(w, cut - 1):
            return


def is_permutation(perm: Sequence[int]) -> bool:
    """True iff every entry is an int (not a bool or a float) and perm is a
    bijection on [n] in one-line notation."""
    return all(type(v) is int for v in perm) and sorted(perm) == list(range(1, len(perm) + 1))


def check_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(perm)
    if not is_permutation(perm):
        raise ValueError(f"{perm} is not a permutation of 1..{len(perm)}")
    return perm


def inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """One-line form of the inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(perm)
    for i, v in enumerate(perm, start=1):
        out[v - 1] = i
    return tuple(out)
