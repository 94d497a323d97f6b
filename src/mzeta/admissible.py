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

Two scans visit the cells (i, j) with sigma(i) < j: block_grid_counts
counts them (it is the den kernel of the statistic registry in zeta), and
grid_rows collects their columns row by row (n_plus_set, n_minus_set,
n_plus_split, n_minus_row and n_plus_high_row are views on it).  cut_counts
and m_counts give the sizes of the per-cut and per-high-row cell sets
without building them; the lemma checks of verify run on these counts and
on the row lengths of grid_rows.

Everything here is a pure function of (eta, sigma); cell sets are returned
as frozensets of (row, column) pairs.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
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
    """blocks[i] = block index of position i, for i in 1..n (blocks[0] unused)."""
    out = [0]
    for k, p in enumerate(eta.parts, start=1):
        out.extend([k] * p)
    return tuple(out)


def block_index(eta: Composition, i: int) -> int:
    """The block of position i: the unique k with the prefix sums straddling i."""
    if not 1 <= i <= eta.n:
        raise ValueError(f"position {i} out of range 1..{eta.n}")
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


def check_admissible(eta: Composition, perm: Sequence[int]) -> tuple[int, ...]:
    perm = check_permutation(perm)
    if len(perm) != eta.n:
        raise ValueError(f"permutation length {len(perm)} != n={eta.n}")
    if not is_admissible(eta, perm):
        raise ValueError(f"{perm} is not admissible for eta={eta}")
    return perm


def admissible_perms(eta: Composition) -> Iterator[tuple[int, ...]]:
    """Yield the admissible permutations exactly once, in lexicographic order.

    A permutation is admissible iff it is obtained by distributing the values
    1..n over the position blocks and sorting each block ascending, so the
    enumeration walks ordered set partitions with block sizes eta.
    """
    n = eta.n
    if eta.r == n:
        # Every permutation is admissible; itertools yields lexicographic order.
        yield from itertools.permutations(range(1, n + 1))
        return
    parts = eta.parts

    def rec(avail: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
        if k == len(parts):
            yield ()
            return
        for chosen in itertools.combinations(avail, parts[k]):
            taken = set(chosen)
            rest = tuple(v for v in avail if v not in taken)
            for tail in rec(rest, k + 1):
                yield chosen + tail

    yield from rec(tuple(range(1, n + 1)), 0)


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
    blocks: Sequence[int], perm: Sequence[int]
) -> list[tuple[list[int], list[int]]]:
    """For each row i = 1..n, the columns of its n_plus_set cells and of its
    n_minus_set cells (rows[i - 1] = (plus columns, minus columns)).

    blocks is block_lookup(eta).  This is the one collecting scan of the
    cells (i, j) with sigma(i) < j; the cell-set functions are views on it.
    """
    n = len(perm)
    inv = inverse(perm)
    rows = []
    for i in range(1, n + 1):
        bi = blocks[i]
        plus = []
        minus = []
        for j in range(perm[i - 1] + 1, n + 1):
            if inv[j - 1] < i:
                if bi <= blocks[j]:
                    plus.append(j)
            elif bi > blocks[j]:
                minus.append(j)
        rows.append((plus, minus))
    return rows


def n_plus_set(eta: Composition, perm: Sequence[int]) -> frozenset[Cell]:
    """Cells (i, j) with sigma(i) < j, sigma^{-1}(j) < i, block(i) <= block(j)."""
    rows = grid_rows(block_lookup(eta), perm)
    return frozenset((i, j) for i, (plus, _) in enumerate(rows, start=1) for j in plus)


def n_minus_set(eta: Composition, perm: Sequence[int]) -> frozenset[Cell]:
    """Cells (i, j) with sigma(i) < j, sigma^{-1}(j) > i, block(i) > block(j)."""
    rows = grid_rows(block_lookup(eta), perm)
    return frozenset((i, j) for i, (_, minus) in enumerate(rows, start=1) for j in minus)


def n_plus_split(
    eta: Composition, perm: Sequence[int]
) -> tuple[frozenset[Cell], frozenset[Cell]]:
    """Split n_plus_set by whether the diagonal cell (i, sigma(i)) stays in or
    leaves the weakly-increasing block region.

    Returns (cells with block(i) <= block(sigma(i)), cells with
    block(i) > block(sigma(i))); the disjoint union is n_plus_set.
    """
    blocks = block_lookup(eta)
    rows = grid_rows(blocks, perm)
    low: set[Cell] = set()
    high: set[Cell] = set()
    for i, (plus, _) in enumerate(rows, start=1):
        target = low if blocks[i] <= blocks[perm[i - 1]] else high
        target.update((i, j) for j in plus)
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


def cut_counts(
    blocks: Sequence[int], perm: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(u, u_inv) with u[l] = |u_set(eta, perm, l)| and
    u_inv[l] = |u_inv_set(eta, perm, l)| for every cut l = 2..r.

    blocks is block_lookup(eta); both lists have r + 1 entries, and entries
    0 and 1 are 0.  The cell (i, sigma(i)) lies in u_set for the cuts
    block(sigma(i)) < l <= block(i) and in u_inv_set for
    block(i) < l <= block(sigma(i)), so one difference-array pass over the
    ones of the grid counts every cut.
    """
    r = blocks[-1]
    du = [0] * (r + 2)
    du_inv = [0] * (r + 2)
    for i, v in enumerate(perm, start=1):
        bi = blocks[i]
        bv = blocks[v]
        if bv < bi:
            du[bv + 1] += 1
            du[bi + 1] -= 1
        elif bi < bv:
            du_inv[bi + 1] += 1
            du_inv[bv + 1] -= 1
    return list(itertools.accumulate(du[: r + 1])), list(itertools.accumulate(du_inv[: r + 1]))


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


def m_counts(blocks: Sequence[int], perm: Sequence[int]) -> list[tuple[int, int, int]]:
    """(j0, |meq|, |mgt|) for every row j0 of i_set, in order, where
    (meq, mgt) = m_sets(eta, perm, j0).

    blocks is block_lookup(eta).  Only rows of i_set can contribute a cell to
    either set, so the count runs over pairs of those rows.
    """
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


def n_minus_row(eta: Composition, perm: Sequence[int], j0: int) -> frozenset[Cell]:
    """The cells of n_minus_set lying in row j0 (requires the same row
    precondition as m_sets)."""
    blocks = _check_row_in_high_region(eta, perm, j0)
    return frozenset((j0, j) for j in grid_rows(blocks, perm)[j0 - 1][1])


def n_plus_high_row(eta: Composition, perm: Sequence[int], j0: int) -> frozenset[Cell]:
    """The cells of the second component of n_plus_split lying in row j0."""
    blocks = _check_row_in_high_region(eta, perm, j0)
    return frozenset((j0, j) for j in grid_rows(blocks, perm)[j0 - 1][0])


def block_grid_counts(
    perm: Sequence[int], blocks: Sequence[int]
) -> tuple[int, int, int, int, int]:
    """(den, sum of i_set columns, |i_set|, |n_plus_set|, |n_minus_set|).

    blocks is block_lookup(eta), taken as the second argument so that a
    distribution over many permutations looks it up once.  The first entry is
    the Denert statistic when perm is admissible.  This is the one counting
    scan of the grid; grid_rows is the collecting one.
    """
    n = len(perm)
    # The inverse is built in place: this loop is the den route's kernel.
    inv = [0] * n
    for i, v in enumerate(perm, start=1):
        inv[v - 1] = i
    col_sum = 0
    exceed = 0
    for j in range(1, n + 1):
        if blocks[inv[j - 1]] > blocks[j]:
            col_sum += j
            exceed += 1
    plus = 0
    minus = 0
    for i in range(1, n + 1):
        bi = blocks[i]
        for j in range(perm[i - 1] + 1, n + 1):
            if inv[j - 1] < i:
                if bi <= blocks[j]:
                    plus += 1
            elif bi > blocks[j]:
                minus += 1
    return col_sum + plus - minus - exceed, col_sum, exceed, plus, minus


def grid_counts(eta: Composition, perm: Sequence[int]) -> tuple[int, int, int, int]:
    """(sum of i_set columns, |i_set|, |n_plus_set|, |n_minus_set|) for any perm."""
    return block_grid_counts(perm, block_lookup(eta))[1:]


def den(eta: Composition, perm: Sequence[int]) -> int:
    """Denert statistic of an admissible permutation.

    Sum of the i_set columns, plus |n_plus_set|, minus |n_minus_set|, minus
    |i_set|.  Raises ValueError on non-admissible input: the statistic carries
    its meaning only on admissible permutations.
    """
    perm = check_admissible(eta, perm)
    return block_grid_counts(perm, block_lookup(eta))[0]
