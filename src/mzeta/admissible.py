"""
Admissible permutations and grid statistics.

Fix a composition eta of n.  The block map sends a position i in [n] to the
index of the part of eta containing it, and extends letterwise to
permutations: project(eta, sigma) applies it to the one-line values.  A
permutation is eta-admissible when all of its descents lie in the descent set
of eta; admissible permutations are in bijection with multiset words over eta
via sigma -> project(eta, inverse(sigma)).

A permutation sigma is drawn as the n x n grid with a one
in cell (i, sigma(i)); cells are (row, column) pairs, 1-based.  The grid is
cut into block rows/columns by eta, and the statistics below count zero cells
in specific regions:

  i_set        cells (i, sigma(i)) whose row block exceeds the column block
  n_plus_set   cells (i, j) with sigma(i) < j, inverse(j) < i, and row block
               at most column block
  n_minus_set  cells (i, j) with sigma(i) < j, inverse(j) > i, and row block
               exceeding column block

den(sigma) = sum of the columns of i_set + |n_plus| - |n_minus| - |i_set|,
defined for admissible sigma only.  The finer splits (n_plus_split, u_set,
m_sets, per-row counts) decompose these cell sets and exist so that the
decomposition identities can be tested term by term against the word
statistics of the projected inverse word.

Two scans visit the cells (i, j) with sigma(i) < j, and both hold a row of
cells as a bit mask, bit j standing for column j: block_grid_counts counts
them (it is the den kernel of the statistic registry in zeta), and
grid_rows collects them row by row (n_plus_set, n_minus_set, n_plus_split,
n_minus_row and n_plus_high_row decode its masks into cells).  Both read the
rows top down, keeping the mask of the values sigma(1..i-1) seen so far, so
that sigma^{-1}(j) < i is bit j of that mask and no inverse is built, and
both share one row table per eta, column_masks, which gives each row the
record (ge, lt, block): the columns of the blocks at least and below its
own, and its block.  The lemma checks of verify read column_masks
directly, block included, in scans of their own that count the cells of
each row, and take the per-cut counts from the word side,
multiset.excedance_parts on the projected inverse word; the sizes of
u_set and u_inv_set are their reference in the tests.

admissible_perms enumerates a domain in lexicographic order, and reads the
last two blocks from a per-call table of bounded size, or streams them when
that table would pass its bound.

Everything here is a pure function of (eta, sigma); cell sets are returned
as frozensets of (row, column) pairs.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .multiset import (
    Composition,
    check_permutation,
    check_word,
    descent_set,
    inverse,
    standardize,
)

Cell = tuple[int, int]


@lru_cache(maxsize=4096)
def block_lookup(eta: Composition) -> tuple[int, ...]:
    """blocks[i] = block index of position i, for i in 1..n (blocks[0] unused):
    the block map is the trivial word."""
    return (0,) + eta.trivial_word


@lru_cache(maxsize=4096)
def column_masks(eta: Composition) -> tuple[tuple[int, int, int], ...]:
    """masks[i - 1] = (ge, lt, block(i)) for the rows i = 1..n: the columns
    whose block is at least block(i), and those whose block is below it, as
    bit masks (bit j for column j), and the block of the row.

    Built from block_lookup(eta), one shared record per block.  The cell
    (i, sigma(i)) is in i_set exactly when bit sigma(i) of lt is set.

    >>> column_masks(Composition((2, 1)))
    ((14, 0, 1), (14, 0, 1), (8, 6, 2))
    """
    blocks = block_lookup(eta)
    columns = range(1, eta.n + 1)
    every = (2 << eta.n) - 2
    records = {}
    for b in set(blocks[1:]):
        ge = sum(1 << j for j in columns if blocks[j] >= b)
        records[b] = (ge, every ^ ge, b)
    return tuple(records[blocks[i]] for i in columns)


def block_index(eta: Composition, i: int) -> int:
    """The block of position i: the unique k with the prefix sums straddling
    i.  ValueError unless i is an int (not a bool or a float) in 1..n."""
    if type(i) is not int or not 1 <= i <= eta.n:
        raise ValueError(f"position {i!r} out of range 1..{eta.n}")
    return block_lookup(eta)[i]


def project_perm(eta: Composition, perm: Sequence[int]) -> tuple[int, ...]:
    """Apply the block map to the one-line values of perm.

    The result is a word over eta: letter k appears eta_k times.
    """
    blocks = block_lookup(eta)
    return tuple(blocks[v] for v in perm)


def is_admissible(eta: Composition, perm: Sequence[int]) -> bool:
    """True iff every descent of perm lies in the descent set of eta."""
    return descent_set(perm) <= eta.descent_set


def check_permutation_of(eta: Composition, perm: Sequence[int]) -> tuple[int, ...]:
    perm = check_permutation(perm)
    if len(perm) != eta.n:
        raise ValueError(f"permutation length {len(perm)} != n={eta.n}")
    return perm


def check_admissible(eta: Composition, perm: Sequence[int]) -> tuple[int, ...]:
    perm = check_permutation_of(eta, perm)
    if not is_admissible(eta, perm):
        raise ValueError(f"{perm} is not admissible for eta={eta}")
    return perm


# The indices, C(m, p) * m, that admissible_perms may hold in its table of the
# splits of the last two blocks: 2^17 is about 1 MiB.  Above it those blocks
# stream, the one path whose memory does not grow with the input.
_TAIL_TABLE_INDICES = 1 << 17


def _without(values: tuple[int, ...], chosen: tuple[int, ...]) -> tuple[int, ...]:
    """The values not in chosen, in order, with one set lookup each."""
    return tuple(itertools.filterfalse(frozenset(chosen).__contains__, values))


def _heads(
    parts: Sequence[int], values: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(head, left) for every way to fill blocks of the sizes parts from
    values, in lexicographic order of head: head holds the blocks in order,
    each ascending, and left the values they leave.  The walk keeps a stack
    with one combinations iterator per block."""
    if not parts:
        yield (), values
        return
    levels = [(itertools.combinations(values, parts[0]), values, ())]
    while levels:
        choices, left, head = levels[-1]
        chosen = next(choices, None)
        if chosen is None:
            levels.pop()
            continue
        rest = _without(left, chosen)
        if len(levels) == len(parts):
            yield head + chosen, rest
        else:
            levels.append((itertools.combinations(rest, parts[len(levels)]), rest, head + chosen))


def admissible_perms(eta: Composition) -> Iterator[tuple[int, ...]]:
    """Yield the admissible permutations exactly once, in lexicographic order.

    A permutation is admissible iff it is obtained by distributing the values
    1..n over the position blocks and sorting each block ascending, so the
    enumeration walks ordered set partitions with block sizes eta: _heads
    fills every block but the last two, and the last two, of sizes p and q,
    split the m = p + q values the others leave.  While C(m, p) * m is at
    most _TAIL_TABLE_INDICES, each split is one itemgetter of a table built
    per call, so a permutation is head + getter(left); above it the splits
    stream from combinations, each complement read through a frozenset.
    Memory stays bounded by that constant, whatever the size of the domain.
    """
    n = eta.n
    values = tuple(range(1, n + 1))
    if eta.r == n:
        # Every permutation is admissible; itertools yields lexicographic order.
        yield from itertools.permutations(values)
        return
    if eta.r == 1:
        yield values
        return
    *upper, p, q = eta.parts
    m = p + q
    if math.comb(m, p) * m > _TAIL_TABLE_INDICES:
        for head, left in _heads(upper, values):
            for chosen in itertools.combinations(left, p):
                yield head + chosen + _without(left, chosen)
        return
    # The complements of the p-subsets in lexicographic order are the
    # q-subsets in reverse lexicographic order.  m >= 2, so each getter
    # returns a tuple.
    positions = range(m)
    getters = [
        itemgetter(*chosen, *rest)
        for chosen, rest in zip(
            itertools.combinations(positions, p),
            reversed(list(itertools.combinations(positions, q))),
        )
    ]
    for head, left in _heads(upper, values):
        for get in getters:
            yield head + get(left)


def word_to_admissible(eta: Composition, w: Sequence[int]) -> tuple[int, ...]:
    """The admissible permutation corresponding to the word w.

    Inverse of admissible_to_word: standardise w, then invert.
    """
    return inverse(standardize(check_word(w, eta), eta))


def admissible_to_word(eta: Composition, perm: Sequence[int]) -> tuple[int, ...]:
    """The word corresponding to an admissible permutation: project its inverse."""
    perm = check_admissible(eta, perm)
    return project_perm(eta, inverse(perm))


def i_set(eta: Composition, perm: Sequence[int]) -> frozenset[Cell]:
    """Cells (i, sigma(i)) whose row block strictly exceeds the column block.

    The columns of these cells are exactly the excedance positions of the
    projected inverse word.
    """
    blocks = block_lookup(eta)
    return frozenset(
        (i, v) for i, v in enumerate(perm, start=1) if blocks[i] > blocks[v]
    )


def iexc(eta: Composition, perm: Sequence[int]) -> int:
    """Number of cells of i_set."""
    blocks = block_lookup(eta)
    return sum(1 for i, v in enumerate(perm, start=1) if blocks[i] > blocks[v])


def grid_rows(
    masks: Sequence[tuple[int, int, int]], perm: Sequence[int]
) -> list[tuple[int, int]]:
    """For each row i = 1..n, the columns of its n_plus_set cells and of its
    n_minus_set cells as bit masks (rows[i - 1] = (plus mask, minus mask),
    bit j for column j).

    masks is column_masks(eta).  This is the one collecting scan of the
    cells (i, j) with sigma(i) < j; the cell-set functions decode it.  The
    rows are read top down with seen, the mask of sigma(1..i-1), so that
    sigma^{-1}(j) < i is bit j of seen; with above the columns j > sigma(i)
    and (ge, lt, _) = masks[i - 1], plus = above & seen & ge and
    minus = above & ~seen & lt.

    >>> eta = Composition((2, 1))
    >>> [(bin(plus), bin(minus)) for plus, minus in grid_rows(column_masks(eta), (2, 3, 1))]
    [('0b0', '0b0'), ('0b0', '0b0'), ('0b1000', '0b0')]
    """
    seen = 0
    rows = []
    for v, (ge, lt, _) in zip(perm, masks):
        above = -2 << v
        rows.append((above & seen & ge, above & ~seen & lt))
        seen |= 1 << v
    return rows


def _columns(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def n_plus_set(eta: Composition, perm: Sequence[int]) -> frozenset[Cell]:
    """Cells (i, j) with sigma(i) < j, sigma^{-1}(j) < i, block(i) <= block(j)."""
    rows = grid_rows(column_masks(eta), perm)
    return frozenset(
        (i, j) for i, (plus, _) in enumerate(rows, start=1) for j in _columns(plus)
    )


def n_minus_set(eta: Composition, perm: Sequence[int]) -> frozenset[Cell]:
    """Cells (i, j) with sigma(i) < j, sigma^{-1}(j) > i, block(i) > block(j)."""
    rows = grid_rows(column_masks(eta), perm)
    return frozenset(
        (i, j) for i, (_, minus) in enumerate(rows, start=1) for j in _columns(minus)
    )


def n_plus_split(
    eta: Composition, perm: Sequence[int]
) -> tuple[frozenset[Cell], frozenset[Cell]]:
    """Split n_plus_set by whether the diagonal cell (i, sigma(i)) stays in or
    leaves the weakly-increasing block region.

    Returns (cells with block(i) <= block(sigma(i)), cells with
    block(i) > block(sigma(i))); the disjoint union is n_plus_set.
    """
    blocks = block_lookup(eta)
    rows = grid_rows(column_masks(eta), perm)
    low: set[Cell] = set()
    high: set[Cell] = set()
    for i, (plus, _) in enumerate(rows, start=1):
        target = low if blocks[i] <= blocks[perm[i - 1]] else high
        target.update((i, j) for j in _columns(plus))
    return frozenset(low), frozenset(high)


def u_set(eta: Composition, perm: Sequence[int], l: int) -> frozenset[Cell]:
    """Cells (i, sigma(i)) with l <= block(i) and block(sigma(i)) < l.

    Counts the ones of the permutation grid in the lower-left quadrant cut at
    block boundary l; requires 2 <= l <= r.
    """
    if not 2 <= l <= eta.r:
        raise ValueError(f"block cut {l} out of range 2..{eta.r}")
    blocks = block_lookup(eta)
    return frozenset(
        (i, v)
        for i, v in enumerate(perm, start=1)
        if l <= blocks[i] and blocks[v] < l
    )


def u_inv_set(eta: Composition, perm: Sequence[int], l: int) -> frozenset[Cell]:
    """Cells (i, sigma(i)) with block(i) < l and l <= block(sigma(i)).

    The upper-right counterpart of u_set; the two always have equal size.
    """
    if not 2 <= l <= eta.r:
        raise ValueError(f"block cut {l} out of range 2..{eta.r}")
    blocks = block_lookup(eta)
    return frozenset(
        (i, v)
        for i, v in enumerate(perm, start=1)
        if blocks[i] < l and l <= blocks[v]
    )


def _check_row_in_high_region(
    eta: Composition, perm: Sequence[int], j0: int
) -> tuple[int, ...]:
    blocks = block_lookup(eta)
    if not 1 <= j0 <= len(perm):
        raise ValueError(f"row {j0} out of range 1..{len(perm)}")
    if blocks[j0] <= blocks[perm[j0 - 1]]:
        raise ValueError(
            f"row {j0}: cell ({j0}, {perm[j0 - 1]}) does not have "
            "block(row) > block(column)"
        )
    return blocks


def m_sets(
    eta: Composition, perm: Sequence[int], j0: int
) -> tuple[frozenset[Cell], frozenset[Cell]]:
    """Row-j0 cells (j0, sigma(i)) witnessing weak inversions of the exceeding
    subword of the projected inverse word.

    Both sets require sigma(i) < sigma(j0) and block(sigma(i)) < block(i); the
    first takes rows i < j0 in the same block as j0, the second rows i in a
    strictly larger block (hence i > j0).  The cell (j0, sigma(j0)) itself must
    have block(row) > block(column).
    """
    blocks = _check_row_in_high_region(eta, perm, j0)
    n = len(perm)
    sj0 = perm[j0 - 1]
    bj0 = blocks[j0]
    equal_block: set[Cell] = set()
    higher_block: set[Cell] = set()
    for i in range(1, n + 1):
        si = perm[i - 1]
        if si >= sj0 or blocks[si] >= blocks[i]:
            continue
        if i < j0 and blocks[i] == bj0:
            equal_block.add((j0, si))
        elif i > j0 and blocks[i] > bj0:
            higher_block.add((j0, si))
    return frozenset(equal_block), frozenset(higher_block)


def n_minus_row(eta: Composition, perm: Sequence[int], j0: int) -> frozenset[Cell]:
    """The cells of n_minus_set lying in row j0 (requires the same row
    precondition as m_sets)."""
    _check_row_in_high_region(eta, perm, j0)
    minus = grid_rows(column_masks(eta), perm)[j0 - 1][1]
    return frozenset((j0, j) for j in _columns(minus))


def n_plus_high_row(eta: Composition, perm: Sequence[int], j0: int) -> frozenset[Cell]:
    """The cells of the second component of n_plus_split lying in row j0."""
    _check_row_in_high_region(eta, perm, j0)
    plus = grid_rows(column_masks(eta), perm)[j0 - 1][0]
    return frozenset((j0, j) for j in _columns(plus))


def block_grid_counts(
    perm: Sequence[int], masks: Sequence[tuple[int, int, int]]
) -> tuple[int, int, int, int, int]:
    """(den, sum of i_set columns, |i_set|, |n_plus_set|, |n_minus_set|).

    masks is column_masks(eta), taken as the second argument so that a
    distribution over many permutations looks it up once.  The first entry is
    the Denert statistic when perm is admissible.  This is the one counting
    scan of the grid: the grid_rows scan, summing the bit counts of each
    row's masks in place of keeping them.
    """
    seen = 0
    col_sum = exceed = plus = minus = 0
    for v, (ge, lt, _) in zip(perm, masks):
        above = -2 << v
        plus += (above & seen & ge).bit_count()
        minus += (above & ~seen & lt).bit_count()
        if lt >> v & 1:
            col_sum += v
            exceed += 1
        seen |= 1 << v
    return col_sum + plus - minus - exceed, col_sum, exceed, plus, minus


def den(eta: Composition, perm: Sequence[int]) -> int:
    """Denert statistic of an admissible permutation.

    Sum of the i_set columns, plus |n_plus_set|, minus |n_minus_set|, minus
    |i_set|.  Raises ValueError on non-admissible input: the statistic carries
    its meaning only on admissible permutations.
    """
    perm = check_admissible(eta, perm)
    return block_grid_counts(perm, column_masks(eta))[0]
