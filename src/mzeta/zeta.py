"""
Joint distributions, genus zeta numerators, and the identities they satisfy.

For a composition eta of n, the central object is the rational function
W_eta(x, y) with numerator the joint distribution of (den, iexc) over the
admissible permutations and denominator the product of (1 - x^j y) for
j = 0..n-1.  Specialising x to a prime power q and y to q^(-n*s) turns W_eta
into the ideal-counting Dirichlet series of the associated local hereditary
order, which is why everything here is exact: numerators are integer
polynomials and evaluations are Fractions.

Joint distributions come from one registry, STATS, which names each
statistic of each domain as an entry of a kernel's value, and holds the
kernel functions themselves: descent_stats and excedance_kernel (the
packed form of excedance_stats) on words, block_grid_counts on admissible
permutations, b_kernel on signed windows, and b_kernel and d_kernel on
even-signed ones (signed.b_stats and signed.d_stats without their window
check and named tuple: each reads a window in one loop and returns its
fields as a plain tuple); window_stats reads every statistic of one signed
window from it.
joint_distributions is the one counting path: it reads the objects in
batches, runs each distinct kernel of all its pairs once per object into one
column per kernel, and counts each pair from two columns.
joint_distribution is its one-pair case.
Both are pure enumeration, the oracle the numerator routes are checked
against.

w_numerator enumerates nothing.  By the paper's main theorem the numerator
is also the (maj, des) and the (denh, exc) distribution over the multiset
words.  Route A computes (maj, des) from MacMahon's product formula; route B
computes (denh, exc) by a transfer-matrix DP over the positions of the
trivial word, whose state is the unused copies of each letter.  A state is
keyed by its mixed-radix index, and its copies are read from a table of all
states that itertools.product lists once per call; route B reads its final
packed value back only over the slots its bit length reaches, and its y^b
row is every (n+1)-th digit from digit b.  On 1^n, whose words are S_n and
where that DP holds 2^n states, w_numerator takes route B from Laguerre
histories instead (_laguerre_rows), the (den, exc) distribution in O(n^2)
big-int steps.  w_numerator returns route A and always insists that route B
agrees.  Route A is MacMahon's product through
y^(n+1), built once per composition and memoised (_maj_des_numerator): in a
correct build it is the numerator itself, so w_numerator insists that its
y-degree is at most n, and hadamard_check compares the numerator with the
same BiPoly in one pass over the rows.  The (den, iexc) enumeration in
joint_distribution stays the reference they are tested against:
tests/test_zeta.py compares each route with it for every composition of
n <= 6, and the acceptance suite compares w_numerator with it for every
composition of n <= 8.

signed_numerator does the same for the paper's signed Mahonian companions:
the major side of B_n or D_n from the Adin-Brenti-Roichman or Biagioli
product formula, and the Denert side from A_n, the (den, exc) distribution
over S_n by Laguerre histories (_laguerre_rows), times binomials 1 + x^k y,
each one shift-add of the packed rows; the two must agree.  So each side
computes its own statistic, and the agreement certifies the signed
equidistribution at every n asked for.
NUMERATOR_ROUTES names every (domain, ordered pair) that a route serves, and
distribution serves those from the route and every other pair by
enumeration.

All y-series arithmetic is Kronecker-packed by one engine, _shifted_rows:
one int per y-row, x = 2^w within it, balanced digits in slots of w bits.
A factor (1 - x^a y^b) subtracts every row, shifted by w*a, from the row b
above it, and a divisor (1 - x^a y) is one running sum down the rows; no row
can carry into another.  G_k = prod over the parts p of (p+k choose k)_x is
the Hadamard product of packed maximal-order columns: p + 1 running sums
turn the row 1 into prod_{j=0..p} 1/(1 - x^j y), whose y^k row is
(p+k choose k)_x (_gaussian_rows).  hadamard_series_coefficient is G_k
alone; _packed_series multiplies sum_k G_k y^k by a product of
(1 - x^a y^b) and returns the BiPoly of the kept rows, for MacMahon's
product (_maj_des_numerator, one call per composition, shared by route A and
hadamard_check) and both signed major sides ([r+1]_x^n is G_r of 1^n),
each of which must have no row at its top degree; RationalW.series divides
a packed numerator.  _unpack_row reads a row back as bytes (_slot_bytes),
over as many slots as its bit length needs.  A BiPoly is the tuple of its
y-rows, so every route and check reads and writes rows; none converts to
exponent pairs.

The checks in this module certify, at desk scale, that the y-series of the
numerator over the extended denominator is the termwise product of Gaussian
binomials (hadamard_check), that the numerator is self-reciprocal exactly for
rectangle compositions (reciprocity_check), and that cyclotomic factors in a
single monomial direction appear exactly where the rectangle factorisation
predicts (unitary_factor_scan, conjecture_report).  The scan tries only the
directions parallel to two opposite edges of the numerator's Newton polygon,
and every factor it reports is confirmed by exact division.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import struct
from collections import Counter
from fractions import Fraction
from operator import itemgetter, neg, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import admissible as adm
from . import signed
from . import multiset as wd
from . import poly
from .poly import BiPoly, UniPoly, cyclotomic_in_monomial, totient
from .multiset import Composition

DEFAULT_BUDGET = 10_000_000

DOMAINS = ("words", "admissible", "B", "D")


class BudgetError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class InvariantError(RuntimeError):
    """Two independent computations of the same quantity disagree: a bug in
    one of them, never a property of the input."""


def domain_size(domain: str, *, eta: Composition | None = None, n: int | None = None) -> int:
    if domain in ("words", "admissible"):
        if eta is None:
            raise ValueError(f"domain {domain!r} needs a composition")
        return eta.word_count()
    if domain in ("B", "D"):
        if n is None:
            raise ValueError(f"domain {domain!r} needs n")
        signed.check_rank(n)
        size = 2**n * math.factorial(n)
        return size // 2 if domain == "D" else size
    raise ValueError(f"unknown domain {domain!r}; expected one of {DOMAINS}")


def format_count(count: int) -> str:
    """count in decimal, or as d.dde<exponent> (leading digits truncated) when
    it has more digits than str() converts (sys.get_int_max_str_digits()).

    >>> format_count(10**5000 * 314)
    '3.14e5002'
    """
    try:
        return str(count)
    except ValueError:
        sign, count = "-" if count < 0 else "", abs(count)
        exponent = int(count.bit_length() * math.log10(2))  # off by at most one
        if 10**exponent > count:
            exponent -= 1
        elif 10 ** (exponent + 1) <= count:
            exponent += 1
        lead = count // 10 ** (exponent - 2)
        return f"{sign}{lead // 100}.{lead % 100:02d}e{exponent}"


def _check_budget(size: int, budget: int, what: str = "domain of size {}") -> None:
    """BudgetError when size exceeds budget; what names the size, with {} for
    its count.  Every refusal of the package is raised here."""
    if size > budget:
        raise BudgetError(
            f"{what.format(format_count(size))} exceeds the budget of {format_count(budget)}"
        )


# STATS[domain][name] = (kernel, field): the statistic is entry `field` of the
# kernel's value on an object, or the value itself when field is None.  A
# kernel is (function, contextual); joint_distribution passes a contextual
# kernel the domain's context as second argument: letter_fields(eta) for
# words, the column-mask table for admissible permutations.
_DESCENT = (wd.descent_stats, False)
_EXCEDANCE = (wd.excedance_kernel, True)
_GRID = (adm.block_grid_counts, True)
_B = (signed.b_kernel, False)
_D = (signed.d_kernel, False)


def _entries(kernel: tuple, *names: str | None) -> dict[str, tuple[tuple, int]]:
    """The statistics that are the entries of one kernel's value, in order; a
    None name skips an entry."""
    return {name: (kernel, field) for field, name in enumerate(names) if name}


_SIGNED_STATS = _entries(_B, *signed.BStats._fields)

STATS: dict[str, dict[str, tuple[tuple, int | None]]] = {
    "words": {
        **_entries(_DESCENT, "des", "maj"),
        "inv": ((wd.inv, False), None),
        "imv": ((wd.imv, False), None),
        **_entries(_EXCEDANCE, "exc", "denh"),
    },
    "admissible": _entries(_GRID, "den", None, "iexc"),
    "B": _SIGNED_STATS,
    "D": {**_SIGNED_STATS, **_entries(_D, *signed.DStats._fields)},
}


def window_stats(domain: str, window: tuple[int, ...]) -> dict[str, int]:
    """Every statistic of the signed domain ("B" or "D") on one window, by
    name in the order of STATS; each kernel runs once.  ValueError otherwise.
    The window is not checked: pass it through signed.check_window first."""
    if domain not in ("B", "D"):
        raise ValueError(f"window_stats needs a signed domain, 'B' or 'D'; got {domain!r}")
    values = {}
    out = {}
    for name, (kernel, field) in STATS[domain].items():
        if kernel not in values:
            values[kernel] = kernel[0](window)
        value = values[kernel]
        out[name] = value if field is None else value[field]
    return out


def _kernel_values(kernel: tuple, objects: Iterable, context) -> Iterator:
    fn, contextual = kernel
    return map(fn, objects, itertools.repeat(context)) if contextual else map(fn, objects)


def _field(values: Iterable, field: int | None) -> Iterable:
    return values if field is None else map(itemgetter(field), values)


def _stat_entries(domain: str, stats: Iterable[str]) -> list[tuple[tuple, int | None]]:
    table = STATS[domain]
    for stat in stats:
        if stat not in table:
            raise ValueError(
                f"statistic {stat!r} is not defined on domain {domain!r}; "
                f"choose from {', '.join(table)}"
            )
    return [table[stat] for stat in stats]


def _domain_objects(
    domain: str, eta: Composition | None, n: int | None
) -> tuple[Iterator, object]:
    """The objects of a domain, and the context its contextual kernels take."""
    if domain == "words":
        return wd.words(eta), wd.letter_fields(eta)
    if domain == "admissible":
        return adm.admissible_perms(eta), adm.column_masks(eta)
    if domain == "B":
        return signed.signed_perms(n), None
    return signed.even_signed_perms(n), None


def joint_distribution(
    domain: str,
    pair: tuple[str, str],
    *,
    eta: Composition | None = None,
    n: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BiPoly:
    """The generating polynomial sum of x^{stat1} y^{stat2} over the domain.

    Evaluating the result at (1, 1) recovers the domain cardinality.  Raises
    BudgetError when the domain is larger than the budget, KeyError-free
    ValueError on unknown statistic names.  Each distinct kernel of the pair
    runs once per object.  This is pure enumeration, the oracle that the
    numerator routes are checked against.
    """
    return joint_distributions(domain, [pair], eta=eta, n=n, budget=budget)[0]


# Objects per batch of joint_distributions.  Each batch is held in memory with
# one column of values per kernel; 256 keeps that small while Counter.update
# does the counting in C (1024 measured more peak memory on a B_6/D_6 pass
# and no more speed).
_BATCH = 256


def joint_distributions(
    domain: str,
    pairs: Sequence[tuple[str, str]],
    *,
    eta: Composition | None = None,
    n: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[BiPoly]:
    """joint_distribution of each pair, from one pass over the domain.

    The objects are read in batches of _BATCH.  Each distinct kernel of all
    the pairs runs once per object of a batch, into one column of values, and
    each pair counts the zipped entries of its two columns into its own
    Counter; at most one batch is held in memory.
    """
    _check_budget(domain_size(domain, eta=eta, n=n), budget)
    entries = [_stat_entries(domain, pair) for pair in pairs]
    kernels = list(dict.fromkeys(kernel for pair in entries for kernel, _ in pair))
    slots = [[(kernels.index(kernel), field) for kernel, field in pair] for pair in entries]
    objects, context = _domain_objects(domain, eta, n)
    counts = [Counter() for _ in pairs]
    while batch := list(itertools.islice(objects, _BATCH)):
        columns = [list(_kernel_values(kernel, batch, context)) for kernel in kernels]
        for count, ((i, f), (j, g)) in zip(counts, slots):
            count.update(zip(_field(columns[i], f), _field(columns[j], g)))
    return [BiPoly._from_terms(count.items()) for count in counts]


# Slots of 1, 2, 4 or 8 bytes are read by struct one row per call.
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_bytes(value: int, width: int, count: int) -> bytes:
    """The lowest count slots of a packed value, width bits each, as bytes in
    which every slot holds its balanced digit in [-2^(width-1), 2^(width-1))
    in little-endian two's complement.  Exact when every digit lies in that
    range: adding 2^(width-1) to every slot makes each a plain byte string,
    and flipping each slot's top bit back subtracts it again."""
    size = width // 8
    tops = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raised = (value + tops) ^ tops  # before the mask, so tops is freed first
    del tops
    raised &= (1 << (width * count)) - 1
    return raised.to_bytes(size * count, "little")


def _unpack(value: int, width: int, count: int) -> tuple[int, ...]:
    """The lowest count slots of a packed value as balanced digits; see
    _slot_bytes."""
    data = _slot_bytes(value, width, count)
    size = width // 8
    if size in _FORMATS:
        return struct.unpack(f"<{count}{_FORMATS[size]}", data)
    return tuple(
        int.from_bytes(data[i:i + size], "little", signed=True)
        for i in range(0, size * count, size)
    )


def _unpack_row(value: int, width: int) -> UniPoly:
    """The polynomial whose balanced digits, width bits each, make up value;
    see _slot_bytes.  A top digit at slot t puts the bit length of value
    between width*t and width*(t + 1), so bit_length // width + 1 slots
    reach slot t and hold at most one zero slot above it."""
    return UniPoly._canonical(_unpack(value, width, value.bit_length() // width + 1))


def _slot_width(bound: int) -> int:
    """Bits per slot for balanced digits of absolute value at most bound: 8,
    16, 32, 64 or, above 64, a multiple of 8.

    >>> [_slot_width(2**k - 1) for k in (0, 7, 8, 15, 16, 31, 32, 63, 64, 71, 72)]
    [8, 8, 16, 16, 32, 32, 64, 64, 72, 72, 80]
    """
    bits = bound.bit_length() + 1
    return max(8, 1 << (bits - 1).bit_length()) if bits <= 64 else (bits + 7) // 8 * 8


def _shifted_rows(
    rows: list[int], w: int, factors: Iterable[tuple[int, int]], divisors: Iterable[int] = ()
) -> list[int]:
    """The y^0..y^(len(rows)-1) coefficients of sum r_k y^k times
    1 - x^a y^b for each (a, b) of factors and over 1 - x^a y for each a of
    divisors, where r_k = rows[k] is a polynomial in x already packed at
    x = 2^w; exact when the coefficients fit w-bit balanced digits.  The
    rows are updated in place and come back packed, for _unpack_row to read.

    This is the one place the layout is written down: one int per y-row,
    x = 2^w within it.  A factor subtracts every old row, shifted by w*a,
    from the row b above it; a divisor is the running sum
    s_k = r_k + x^a s_(k-1).  Each is one pass over the kept rows, and no
    row can carry into another."""
    count = len(rows)
    for a, b in factors:
        rows[b:] = map(sub, rows[b:], [r << w * a for r in rows[:count - b]])
    for a in divisors:
        for k in range(1, count):
            rows[k] += rows[k - 1] << w * a
    return rows


def _gaussian_rows(parts: Sequence[int], ks: range, w: int) -> list[int]:
    """G_k = prod over the parts p of (p+k choose k)_x for each k of ks,
    packed at x = 2^w, as the Hadamard product of the parts' columns; exact
    when G_k(1) fits a w-bit balanced digit.  The column of p is the
    maximal-order series prod_{j=0..p} 1/(1 - x^j y), p + 1 running sums of
    _shifted_rows, whose y^k row is (p+k choose k)_x."""
    columns = [
        (_shifted_rows([1] + [0] * ks[-1], w, (), range(p + 1)), parts.count(p))
        for p in dict.fromkeys(parts)
    ]
    return [math.prod(column[k] ** e for column, e in columns) for k in ks]


def _packed_series(
    parts: Sequence[int], top: int, factors: Sequence[tuple[int, int]]
) -> BiPoly:
    """The y-truncation through y^top of (sum_k G_k y^k) times the product
    over (a, b) in factors of (1 - x^a y^b), G_k the product over the parts p
    of (p+k choose k)_x: rows 0..top, trailing zero rows trimmed.

    The rows G_k (_gaussian_rows) and each factor's pass of _shifted_rows
    share one slot width.  The y^k coefficient is sum_j D_j G_(k-j), D_j the
    y^j coefficient of prod (1 - x^a y^b).  |every coefficient of D_j| is at
    most ways[j], the number of subsets of factors of y-degree j, and G_k has
    nonnegative coefficients summing to G_k(1) = prod C(p+k, k).  So
    sum_j ways[j] * G_(k-j)(1) bounds the y^k coefficients.  G_k(1) does not
    decrease in k and ways[j] >= 0, so neither does the bound, and w holds
    its value at k = top as a balanced digit.
    """
    ways = [1] + [0] * top
    for a, b in factors:
        for j in range(top, b - 1, -1):
            ways[j] += ways[j - b]
    sizes = [math.prod(math.comb(p + k, k) for p in parts) for k in range(top + 1)]
    w = _slot_width(sum(ways[j] * sizes[top - j] for j in range(top + 1)))
    rows = _shifted_rows(_gaussian_rows(parts, range(top + 1), w), w, factors)
    return BiPoly._canonical(_unpack_row(r, w) for r in rows)


# Route A's product is read twice per composition: by w_numerator, then by
# hadamard_check on the same composition.  A few entries serve that reuse;
# the memo is not sized to hold a workload.
@functools.lru_cache(maxsize=16)
def _maj_des_numerator(eta: Composition) -> BiPoly:
    """Route A: the (maj, des) distribution over the words, as the
    y-truncation through y^(n+1) of prod_{j=0..n} (1 - x^j y) times
    sum_k G_k y^k.  By MacMahon its y^(n+1) row vanishes, so in a correct
    build this is the numerator of W_eta itself; w_numerator insists on it.
    One _packed_series call, memoised by eta (a Composition compares by its
    parts); a BiPoly is immutable, so every reader shares it."""
    return _packed_series(eta.parts, eta.n + 1, [(j, 1) for j in range(eta.n + 1)])


def _denh_exc_numerator(eta: Composition) -> BiPoly:
    """Route B: the (denh, exc) distribution over the words, by a
    transfer-matrix DP over the positions of the trivial word.  It serves
    every composition; w_numerator takes _laguerre_rows on 1^n instead,
    where this DP holds 2^n states.

    denh is the sum of the excedance positions plus imv of the exceeding
    subword E plus inv of the non-exceeding subword N.  Read a word left to
    right; at position i the trivial letter t never decreases.  So every used
    copy of a letter a > t sits in E, and every unused copy of a letter a <= t
    will land in N.  Letter a at position i is an excedance when a > t and
    adds i + #(earlier E letters >= a), the used copies of the letters >= a;
    otherwise it adds the inversions of N it starts, one with each unused copy
    of a smaller letter.  So the state is the unused copies of each letter,
    (rem_1..rem_r), with prod (eta_a + 1) states in all.

    A state is keyed by its mixed-radix index sum rem_a * step_a, where
    step_a = prod_{b>a} (eta_b + 1), so using a copy of letter a moves from
    index idx to idx - step_a.  itertools.product over the ranges 0..eta_a
    lists the states in index order, once per call, and that list gives the
    rem of an index without decoding it.

    Each state carries its polynomial packed into one integer, x^denh y^exc in
    slot denh*(n+1) + exc.  A coefficient counts prefixes of distinct words,
    so it is at most word_count(), which sets the slot width; every increment
    is below 2i, so denh <= n^2 bounds the slot count.  Every digit is a
    non-negative count, so the final value is read back over as many slots
    as its bit length needs, as in _unpack_row, and the y^b row of the
    result is every stride-th digit from digit b.
    """
    n = eta.n
    parts = eta.parts
    w = _slot_width(eta.word_count())
    stride = n + 1
    # at_least[a] = eta_(a+1) + ... + eta_r, the copies of the letters > a
    at_least = tuple(itertools.accumulate(reversed(parts)))[::-1]
    # step[a] = (eta_(a+2) + 1) ... (eta_r + 1); states[idx] is the rem of idx
    radices = [p + 1 for p in parts]
    step = tuple(itertools.accumulate(reversed(radices[1:]), int.__mul__, initial=1))[::-1]
    states = list(itertools.product(*map(range, radices)))
    letters = range(eta.r - 1, -1, -1)  # zero-based, largest first
    layer = {len(states) - 1: 1}  # the last state: every copy unused
    for i, t in enumerate(eta.trivial_word, start=1):
        left = n - i + 1  # unused copies, this position's included
        nxt: dict[int, int] = {}
        for idx, packed in layer.items():
            rem = states[idx]
            rem_ge = 0  # unused copies of the letters > a
            for a in letters:
                ra = rem[a]
                if ra:
                    rem_ge += ra
                    if a >= t:  # letter a + 1 exceeds t
                        shift = (i + at_least[a] - rem_ge) * stride + 1
                    else:
                        shift = (left - rem_ge) * stride
                    key = idx - step[a]
                    nxt[key] = nxt.get(key, 0) + (packed << (w * shift))
        layer = nxt
    total = layer[0]  # the one state left: no unused copies
    digits = _unpack(total, w, total.bit_length() // w + 1)
    return BiPoly._canonical(UniPoly._canonical(digits[b::stride]) for b in range(stride))


def w_numerator(eta: Composition, *, budget: int = DEFAULT_BUDGET) -> BiPoly:
    """The numerator of W_eta: the (den, iexc) distribution over admissible
    permutations.

    The paper's theorem makes it equal to the (maj, des) and to the
    (denh, exc) distribution over the words, and neither of those needs
    enumeration: route A computes (maj, des) from MacMahon's product formula
    and is returned; route B computes (denh, exc) by a DP over positions, or
    on 1^n, whose words are S_n and where denh is den, by Laguerre histories
    (_laguerre_rows), and must coincide, otherwise one of the two routes is
    broken and InvariantError is raised.  Route A's product is built through
    y^(n+1), and its y-degree must be at most n, or InvariantError is raised
    before route B runs; hadamard_check on the same composition re-reads that
    product from the memo.

    The budget still bounds the number of words, as for enumeration, and
    raises BudgetError beyond it.
    """
    _check_budget(eta.word_count(), budget)
    num = _maj_des_numerator(eta)
    if num.degree_y() > eta.n:
        raise InvariantError(
            f"numerator for eta={eta}: the y^{eta.n + 1} coefficient {num.rows[-1]} "
            f"of MacMahon's product does not vanish"
        )
    if eta.r == eta.n:  # 1^n: the words are S_n, and denh is den
        w = _slot_width(eta.word_count())
        alt = BiPoly._canonical(_unpack_row(r, w) for r in _laguerre_rows(eta.n, w))
    else:
        alt = _denh_exc_numerator(eta)
    if num != alt:
        raise InvariantError(
            f"numerator mismatch for eta={eta}: (maj, des) by MacMahon's formula "
            f"gives {num} but (denh, exc) by the position DP gives {alt}"
        )
    return num


def _laguerre_rows(n: int, w: int) -> list[int]:
    """A_n, the (den, exc) distribution over S_n, as y-rows packed at x = 2^w,
    by Laguerre histories (Foata-Zeilberger 1990), where den is the sum of
    the excedance positions plus inv of the exceeding and of the
    non-exceeding subword.  Position i is a step of a path from height 0
    back to 0, the height h before it being the number of open arcs
    i' < i < sigma(i').  By the cycle type of i the step weighs: valley
    y x^i (to h + 1), double rise y x^i [h]_x, double fall [h]_x, fixed
    point x^h, peak [h]_x^2 (to h - 1).  A height above n - i after step i
    cannot return to 0 and is dropped.

    Each height holds one int, row k at bit w*span*k, x^d in slot d of the
    row.  With P(i, h) = C(h, 2) - h*i, a step at i from height h to h' has
    x-degree at most i - 1 + P(i - 1, h) - P(i, h') (equal for a double rise
    and a peak), so a history from 0 back to 0 has x-degree at most C(n, 2)
    by the weights alone, and a row needs span = C(n, 2) + 1 slots; exc is
    at most n - 1.  Every digit is a non-negative count, so the rows are the
    bytes of the final value cut every span slots.

    >>> w = 8
    >>> [_unpack_row(r, w) for r in _laguerre_rows(3, w)]
    [UniPoly((1,)), UniPoly((0, 2, 2)), UniPoly((0, 0, 0, 1))]
    """
    span = n * (n - 1) // 2 + 1
    y = w * span
    qint = [0]  # qint[h] = [h]_x = 1 + x + ... + x^(h-1)
    for _ in range(n):
        qint.append(qint[-1] << w | 1)
    layer = [1]  # layer[h]: the histories of height h so far
    for i in range(1, n + 1):
        up = w * i + y  # x^i y
        top = min(len(layer), n - i)
        nxt = [0] * (top + 1)
        for h, v in enumerate(layer):
            if h < top:
                nxt[h + 1] += v << up
            stay = v << w * h
            if h:
                arcs = v * qint[h]
                stay += (arcs << up) + arcs
                nxt[h - 1] += arcs * qint[h]
            if h <= top:
                nxt[h] += stay
        layer = nxt
    size = y // 8
    data = layer[0].to_bytes(size * n, "little")
    return [int.from_bytes(data[k:k + size], "little") for k in range(0, size * n, size)]


def signed_numerator(kind: str, n: int) -> BiPoly:
    """The Mahonian numerator of type kind ("B" or "D") and rank n, without
    enumeration: the (nmaj, ndes) and (fmaj, fdes) distribution over B_n, or
    the (dmaj, ddes) distribution over D_n.

    The major side is returned.  It is the y-truncation of
    sum_r [r+1]_x^n y^r times (1 - y) prod_{i=1..n} (1 - x^(2i) y^2) for B
    (Adin-Brenti-Roichman 2001), and times
    (1 - y)(1 - x^n y) prod_{i=1..n-1} (1 - x^(2i) y^2) for D (Biagioli 2003),
    both from the packed product.  Its y-degree is 2n - 1 for B and 2n - 2
    for D; the coefficient one degree above must vanish.

    The Denert side, the (nden, excabs) or (dden, dexc) distribution, is
    A_n prod_{k=1..n} (1 + x^k y) for B and A_n prod_{k=2..n} (1 + x^(k-1) y)
    for D, where A_n is the (den, exc) distribution over S_n, built by
    Laguerre histories (_laguerre_rows): a Denert computation, which rests on
    no equidistribution theorem.  A binomial 1 + x^j y adds to every packed
    row the row below it shifted by j slots.  The coefficients are
    non-negative counts summing to |B_n| or |D_n| <= 2^n n!, which sizes the
    slots; evaluation at x = 2^w is a ring homomorphism, so only the final
    read needs that bound.  The two sides must coincide, otherwise InvariantError is raised.
    Nothing is charged against a budget.
    """
    if kind not in ("B", "D"):
        raise ValueError(f"unknown signed kind {kind!r}; expected 'B' or 'D'")
    signed.check_rank(n)
    powers = range(1, n + 1 if kind == "B" else n)
    factors = [(0, 1)] + [(2 * i, 2) for i in powers] + ([(n, 1)] if kind == "D" else [])
    top = 2 * n if kind == "B" else 2 * n - 1
    major = _packed_series((1,) * n, top, factors)  # G_r of 1^n is [r+1]_x^n
    if major.degree_y() == top:
        raise InvariantError(
            f"type {kind} numerator for n={n}: "
            f"the y^{top} coefficient {major.rows[top]} does not vanish"
        )
    w = _slot_width(2**n * math.factorial(n))
    rows = _laguerre_rows(n, w)
    for k in powers:  # times 1 + x^k y
        rows = [r + (s << w * k) for r, s in zip(rows + [0], [0] + rows)]
    denert = BiPoly._canonical(_unpack_row(r, w) for r in rows)
    if major != denert:
        raise InvariantError(
            f"type {kind} numerator mismatch for n={n}: the major side by the product formula "
            f"gives {major} but the Denert side gives {denert}"
        )
    return major


# The pairs whose distribution a numerator route computes without
# enumeration, by domain and ordered pair: "A" is w_numerator of the
# composition, "B" and "D" are signed_numerator of n.
NUMERATOR_ROUTES: dict[tuple[str, tuple[str, str]], str] = {
    ("words", ("maj", "des")): "A",
    ("words", ("denh", "exc")): "A",
    ("admissible", ("den", "iexc")): "A",
    ("B", ("nden", "excabs")): "B",
    ("B", ("nmaj", "ndes")): "B",
    ("B", ("fmaj", "fdes")): "B",
    ("D", ("dden", "dexc")): "D",
    ("D", ("dmaj", "ddes")): "D",
}


def distribution(
    domain: str,
    pair: tuple[str, str],
    *,
    eta: Composition | None = None,
    n: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> BiPoly:
    """joint_distribution of the pair, from its numerator route when
    NUMERATOR_ROUTES has one.  Either way the domain size is charged against
    the budget, and BudgetError raised beyond it."""
    route = NUMERATOR_ROUTES.get((domain, tuple(pair)))
    if route is None:
        return joint_distribution(domain, pair, eta=eta, n=n, budget=budget)
    _check_budget(domain_size(domain, eta=eta, n=n), budget)
    if route == "A":
        return w_numerator(eta, budget=budget)
    return signed_numerator(route, n)


@dataclasses.dataclass(frozen=True)
class RationalW:
    """W_eta in factored form: numerator over the product of (1 - x^j y)."""

    numerator: BiPoly
    denom_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        for j in self.denom_exponents:
            if isinstance(j, bool) or not isinstance(j, int) or j < 0:
                raise ValueError(f"denominator exponents must be non-negative ints, got {j!r}")

    @classmethod
    def for_composition(cls, eta: Composition, *, budget: int = DEFAULT_BUDGET) -> RationalW:
        return cls(w_numerator(eta, budget=budget), tuple(range(eta.n)))

    def evaluate(self, q: Fraction | int, t: Fraction | int) -> Fraction:
        """Exact value at (q, t); raises ZeroDivisionError on a denominator pole
        and ValueError unless q and t are ints or Fractions (a float or a bool
        is refused, not converted).

        With q = qn/qd and t = tn/td, each factor 1 - q^j t is
        (qd^j td - qn^j tn) / (qd^j td), so the denominator is built as two
        integer products, and one Fraction combines them with the
        numerator's value.
        """
        value = self.numerator.evaluate(q, t)
        qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
        top = bottom = 1
        for j in self.denom_exponents:
            scale = qd**j * td
            factor = scale - qn**j * tn
            if not factor:
                raise ZeroDivisionError(f"(1 - q^{j} t) vanishes at q={q}, t={t}")
            top *= scale
            bottom *= factor
        return Fraction(value.numerator * top, value.denominator * bottom)

    def series(self, terms: int, *, budget: int = DEFAULT_BUDGET) -> list[UniPoly]:
        """The first y-series coefficients, each an integer polynomial in x.

        >>> RationalW(BiPoly.one(), (0, 1)).series(3)
        [UniPoly((1,)), UniPoly((1, 1)), UniPoly((1, 1, 1))]

        The numerator is packed once, one int per y-row (x = 2^w).
        _shifted_rows divides by each 1 - x^j y as one running sum down the
        rows, and _unpack_row reads each kept row back.  A kept coefficient
        has size at most ||N||_1 * C(top + d, d), d = len(exponents), and
        x-degree below span = deg_x N + top * max(exponents) + 1.

        The span * terms slots, which bound the slots of the kept rows, are
        charged against the budget before anything is packed; BudgetError if
        they exceed it.  ValueError unless terms is an int (a bool or a float
        is refused).
        """
        if type(terms) is not int:
            raise ValueError(f"the number of series terms must be an int, got {terms!r}")
        if terms <= 0:
            return []
        top = terms - 1
        num, exps = self.numerator, self.denom_exponents
        span = max(num.degree_x(), 0) + top * max(exps, default=0) + 1
        _check_budget(span * terms, budget, f"series of {format_count(terms)} terms packs {{}} slots, which")
        norm = sum(sum(map(abs, row.coeffs)) for row in num.rows)
        w = _slot_width(norm * math.comb(top + len(exps), top))
        rows = [row.evaluate(1 << w) for row in num.rows[:terms]]
        rows += [0] * (terms - len(rows))
        return [_unpack_row(r, w) for r in _shifted_rows(rows, w, (), exps)]


def zeta_eval(
    eta: Composition,
    q: Fraction | int,
    t: Fraction | int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """W_eta(q, t) as an exact rational number."""
    return RationalW.for_composition(eta, budget=budget).evaluate(q, t)


@dataclasses.dataclass(frozen=True)
class HadamardResult:
    ok: bool
    eta: Composition
    truncation: int
    mismatch_degree: int | None = None
    numerator_side: UniPoly | None = None
    product_side: UniPoly | None = None


def hadamard_series_coefficient(eta: Composition, k: int) -> UniPoly:
    """Coefficient of y^k on the termwise-product side, G_k: the product over
    the parts of the Gaussian binomials (part + k choose k)_x, as row k of
    _gaussian_rows in slots sized by G_k(1) alone.  ValueError unless k is an
    int (a bool or a float is refused) and non-negative."""
    if type(k) is not int:
        raise ValueError(f"the series index k must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"the series index k must be non-negative, got {k}")
    w = _slot_width(math.prod(math.comb(p + k, k) for p in eta.parts))
    return _unpack_row(_gaussian_rows(eta.parts, range(k, k + 1), w)[0], w)


def hadamard_check(
    eta: Composition,
    *,
    numerator: BiPoly | None = None,
    budget: int = DEFAULT_BUDGET,
) -> HadamardResult:
    """Certify that the numerator equals the y-truncation of the product of
    (1 - x^j y) for j = 0..n with the termwise Gaussian-binomial series.

    Both sides, cleared to the common denominator, are polynomials of y-degree
    at most n + 1, so agreement through y^(n+1) proves the identity of
    rational functions.  The product side is route A's packed product
    through y^(n+1), _maj_des_numerator, the very BiPoly w_numerator returns:
    it already insists that route A equals route B and that the y^(n+1) row
    vanishes, so for the computed numerator this check re-reads that product
    from the memo and its cost is the comparison.  A given numerator is
    compared with route A alone (built here on a memo miss); route B never
    runs.  One pass compares the two sides row by row, a missing row being
    zero, so a numerator row above y^(n+1) is a mismatch against the zero
    product row.  On failure the first mismatching y-degree and both sides
    are reported.
    """
    trunc = eta.n + 1
    if numerator is None:
        numerator = w_numerator(eta, budget=budget)
    pairs = itertools.zip_longest(numerator.rows, _maj_des_numerator(eta).rows, fillvalue=UniPoly())
    for k, (lhs, product) in enumerate(pairs):
        if lhs != product:
            return HadamardResult(False, eta, trunc, k, lhs, product)
    return HadamardResult(True, eta, trunc)


@dataclasses.dataclass(frozen=True)
class ReciprocityResult:
    """Outcome of testing W_eta(1/x, 1/y) = sign * x^a * y^b * W_eta(x, y)."""

    holds: bool
    sign: int | None = None
    x_exponent: int | None = None
    y_exponent: int | None = None

    def triple(self) -> tuple[int, int, int]:
        if not self.holds:
            raise ValueError("no functional equation to report")
        return self.sign, self.x_exponent, self.y_exponent


def expected_reciprocity(eta: Composition) -> ReciprocityResult | None:
    """The functional equation a rectangle (m copies r times) must satisfy."""
    rect = eta.is_rectangle()
    if rect is None:
        return None
    m, r = rect
    return ReciprocityResult(True, (-1) ** (r * m), r * m * (m - 1) // 2, m)


def reciprocity_check(
    eta: Composition,
    *,
    numerator: BiPoly | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ReciprocityResult:
    """Decide whether W_eta(1/x, 1/y) is a signed monomial times W_eta(x, y).

    Inverting every denominator factor pulls out a fixed monomial, so the
    functional equation holds iff the reversed numerator x^A y^B N(1/x, 1/y)
    equals the numerator itself up to a sign and a monomial shift.  So it
    holds iff N and the reversal, each divided by its greatest monomial
    factor (_monomial_free), have the same rows up to one sign, that of their
    first coefficients; the shift is the quotient of the two monomials.  The
    reported exponents absorb the denominator contribution: sign times
    x^(n(n-1)/2 - A + shift_x) y^(n - B + shift_y).
    """
    n = eta.n
    if numerator is None:
        numerator = w_numerator(eta, budget=budget)
    if not numerator:
        raise ValueError("zero numerator")
    (fa, fb, fwd), (ra, rb, rev) = map(_monomial_free, (numerator, numerator.reversed_xy()))
    shift_x, shift_y = ra - fa, rb - fb
    delta = 1 if next(filter(None, rev[0])) == next(filter(None, fwd[0])) else -1
    if delta == -1:
        fwd = [tuple(map(neg, row)) for row in fwd]
    if fwd != rev:
        return ReciprocityResult(False)
    return ReciprocityResult(
        True,
        (-1) ** n * delta,
        n * (n - 1) // 2 - numerator.degree_x() + shift_x,
        n - numerator.degree_y() + shift_y,
    )


def _row_ends(f: BiPoly) -> list[tuple[int, int, int]]:
    """(b, least x-degree, greatest x-degree) of each nonzero y-row b of f."""
    return [
        (b, row.coeffs.index(next(filter(None, row.coeffs))), len(row.coeffs) - 1)
        for b, row in enumerate(f.rows)
        if row
    ]


def _monomial_free(f: BiPoly) -> tuple[int, int, list[tuple[int, ...]]]:
    """(a, b, rows) where x^a y^b is the greatest monomial dividing the
    nonzero f and rows are the coefficient tuples of the quotient's y-rows."""
    ends = _row_ends(f)
    a, b = min(lo for _, lo, _ in ends), ends[0][0]
    return a, b, [row.coeffs[a:] for row in f.rows[b:]]


class ScanBounds(NamedTuple):
    max_a: int
    max_b: int
    max_d: int

    def check(self) -> None:
        """ValueError unless the bounds are ints (a float or a bool is
        refused) with max_a >= 0, max_b >= 0 and max_d >= 1: smaller bounds
        leave a scan direction or every index out, and a scan that looks at
        nothing would report nothing found."""
        if any(type(v) is not int for v in self):
            raise ValueError(f"scan bounds must be ints, got {self!r}")
        if self.max_a < 0 or self.max_b < 0 or self.max_d < 1:
            raise ValueError(
                f"scan bounds need max_a >= 0, max_b >= 0 and max_d >= 1, got "
                f"max_a={self.max_a}, max_b={self.max_b}, max_d={self.max_d}"
            )


def default_bounds(n: int) -> ScanBounds:
    return ScanBounds(max_a=n, max_b=n, max_d=2 * n * n)


@dataclasses.dataclass(frozen=True)
class UnitaryFactor:
    """A cyclotomic polynomial in a single monomial direction dividing f."""

    order: int
    x_power: int
    y_power: int
    poly: BiPoly

    def describe(self) -> str:
        return f"cyclotomic({self.order}) at x^{self.x_power}*y^{self.y_power}: {self.poly}"


def _edge_lengths(f: BiPoly) -> dict[tuple[int, int], int]:
    """Map each primitive edge direction (p, q) of f's Newton polygon, taken
    with q > 0 or as (1, 0), to the lattice length of the shorter of its two
    edges.  A direction with one edge is left out; a segment is two edges,
    there and back, and a point has none.  The hull is a monotone chain over
    the least and greatest x-degree of each y-row (_row_ends)."""
    points = sorted({(a, b) for b, lo, hi in _row_ends(f) for a in (lo, hi)})
    hull: list[tuple[int, int]] = []
    for chain in (points, points[::-1]):
        start = len(hull)
        for x, y in chain:
            while len(hull) >= start + 2 and (
                (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])
            ):
                hull.pop()
            hull.append((x, y))
        hull.pop()
    once: dict[tuple[int, int], int] = {}
    lengths: dict[tuple[int, int], int] = {}
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(x1 - x0, y1 - y0)
        p, q = (x1 - x0) // g, (y1 - y0) // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        if (p, q) in once:
            lengths[p, q] = min(once[p, q], g)
        else:
            once[p, q] = g
    return lengths


def unitary_factor_scan(f: BiPoly, bounds: ScanBounds) -> tuple[UnitaryFactor, ...]:
    """Search for divisors of the form cyclotomic_d(x^a y^b) within bounds.

    Candidates are the directions a in 0..max_a with b in 1..max_b, plus the
    pure-x direction (1, 0), against every cyclotomic index d <= max_d.  A hit
    certifies a unitary factor; an empty result only says no cyclotomic
    candidate within the bounds divides f, nothing stronger.

    Candidates are pruned by f's Newton polygon NP(f), the convex hull of its
    exponents.  By Ostrowski's theorem NP(gh) = NP(g) + NP(h) in Z[x, y],
    and NP(cyclotomic_d(x^a y^b)) is the segment from 0 to totient(d)*(a, b).
    So with (a, b) = k*(p, q), (p, q) primitive, the factor can divide f only
    if NP(f) has two antiparallel edges parallel to (p, q), each of lattice
    length at least totient(d)*k (_edge_lengths).  Only those directions are
    listed, each with the cap totient(d) <= length // k, and totient(d) >=
    sqrt(d/2), so no d above 2*cap^2 is tried: bounds far past the polygon
    cost nothing.

    The candidates left are pruned by integer divisibility at two points,
    (2, 3) and (101, 103), so a polynomial division is left only for the few
    that pass both.  That prune is exact too: if g divides f in Z[x, y] then
    g(P) divides f(P) in Z, and cyclotomic_d(x^a y^b) at a point P is
    cyclotomic_d(base) with base = P_x^a P_y^b >= 2, which is never 0 since
    every root of cyclotomic_d has modulus 1.  Every hit is confirmed by exact
    division.  Bounds that leave a direction or every index out raise
    ValueError (ScanBounds.check).
    """
    if not f:
        raise ValueError("scan needs a nonzero polynomial")
    bounds.check()
    directions = []
    for (p, q), length in _edge_lengths(f).items():
        if q == 0:
            directions.append((1, 0, length))
        elif p >= 0:
            top = min(length, bounds.max_b // q, bounds.max_a // p if p else length)
            directions += [(k * p, k * q, length // k) for k in range(1, top + 1)]
    if not directions:
        return ()
    directions.sort(key=lambda t: (t[1], t[0]))
    near, far = f.evaluate(2, 3), f.evaluate(101, 103)
    passing: dict[int, list[int]] = {}
    found: list[UnitaryFactor] = []
    for a, b, cap in directions:
        # Directions that share a cap share its list of d.
        if cap not in passing:
            top_d = min(bounds.max_d, 2 * cap * cap)
            passing[cap] = [d for d in range(1, top_d + 1) if totient(d) <= cap]
        near_base, far_base = 2**a * 3**b, 101**a * 103**b
        for d in passing[cap]:
            phi = poly.cyclotomic(d)
            if near % phi.evaluate(near_base) or far % phi.evaluate(far_base):
                continue
            candidate = cyclotomic_in_monomial(d, a, b)
            if f.divide_exact(candidate) is not None:
                found.append(UnitaryFactor(d, a, b, candidate))
    return tuple(found)


@dataclasses.dataclass(frozen=True)
class ConjectureReport:
    """Evidence about unitary factors of a composition's numerator.

    A composition qualifies when it is a rectangle with an even number of
    copies of an odd part; then the binomial 1 + x^(rm/2) y must divide the
    numerator and the residual must scan clean.  Otherwise the numerator
    itself must scan clean.  consistent records whether the observations match
    that prediction; the scan is bounded, so "clean" means within bounds.
    """

    eta: Composition
    numerator: BiPoly
    rectangle: tuple[int, int] | None
    qualifies: bool
    predicted_factor: BiPoly | None
    factor_divides: bool | None
    residual: BiPoly | None
    factors_found: tuple[UnitaryFactor, ...]
    consistent: bool
    bounds: ScanBounds


def conjecture_report(
    eta: Composition,
    *,
    bounds: ScanBounds | None = None,
    numerator: BiPoly | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ConjectureReport:
    if bounds is None:
        bounds = default_bounds(eta.n)
    bounds.check()
    if numerator is None:
        numerator = w_numerator(eta, budget=budget)
    rect = eta.is_rectangle()
    qualifies = rect is not None and rect[0] % 2 == 1 and rect[1] % 2 == 0
    factor = residual = divides = None
    scanned = numerator
    if qualifies:
        m, r = rect
        factor = BiPoly({(0, 0): 1, (r * m // 2, 1): 1})
        residual = scanned = numerator.divide_exact(factor)
        divides = residual is not None
    found = unitary_factor_scan(scanned, bounds) if scanned is not None else ()
    return ConjectureReport(
        eta, numerator, rect, qualifies, factor, divides, residual, found,
        scanned is not None and not found, bounds,
    )
