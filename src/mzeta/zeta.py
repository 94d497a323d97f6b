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
kernel functions themselves: descent_stats and excedance_stats on words,
block_grid_counts on admissible permutations, b_stats on signed windows, and
b_stats and d_stats on even-signed ones; window_stats reads every statistic
of one signed window from it.
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
packed value back only over the slots its bit length reaches.  w_numerator
returns route A and always insists that route B agrees.  The (den, iexc)
enumeration in joint_distribution stays the reference they are tested
against: tests/test_zeta.py compares each route with it for every
composition of n <= 6, and the acceptance suite compares w_numerator with it
for every composition of n <= 8.

signed_numerator does the same for the paper's signed Mahonian companions:
the major side of B_n or D_n from the Adin-Brenti-Roichman or Biagioli
product formula, and the Denert side from route B on 1^n times a product of
binomials; the two must agree.  NUMERATOR_ROUTES names every (domain,
ordered pair) that a route serves, and distribution serves those from the
route and every other pair by enumeration.

All y-series arithmetic is Kronecker-packed by one engine, _shifted_rows:
one int per y-row, x = 2^w within it, balanced digits in slots of w bits.
A factor (1 - x^a y^b) subtracts every row, shifted by w*a, from the row b
above it, and a divisor (1 - x^a y) is one running sum down the rows; no row
can carry into another.  G_k = prod over the parts p of (p+k choose k)_x is
the Hadamard product of packed maximal-order columns: p + 1 running sums
turn the row 1 into prod_{j=0..p} 1/(1 - x^j y), whose y^k row is
(p+k choose k)_x (_gaussian_rows).  hadamard_series_coefficient is G_k
alone; _packed_series multiplies sum_k G_k y^k by a product of
(1 - x^a y^b), for route A and hadamard_check (MacMahon's product) and both
signed major sides ([r+1]_x^n is G_r of 1^n); RationalW.series divides a
packed numerator.  _unpack_row reads a row back as bytes (_slot_bytes), over
as many slots as its bit length needs.

The checks in this module certify, at desk scale, that the y-series of the
numerator over the extended denominator is the termwise product of Gaussian
binomials (hadamard_check), that the numerator is self-reciprocal exactly for
rectangle compositions (reciprocity_check), and that cyclotomic factors in a
single monomial direction appear exactly where the rectangle factorisation
predicts (unitary_factor_scan, conjecture_report).
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import struct
from collections import Counter
from fractions import Fraction
from operator import itemgetter, sub
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
# kernel the domain's context as second argument: the trivial word for
# words, the column-mask table for admissible permutations.
_DESCENT = (wd.descent_stats, False)
_EXCEDANCE = (wd.excedance_stats, True)
_GRID = (adm.block_grid_counts, True)
_B = (signed.b_stats, False)
_D = (signed.d_stats, False)


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


def domain_stats(domain: str) -> tuple[str, ...]:
    """The statistic names joint_distribution accepts for a domain."""
    return tuple(STATS[domain])


def window_stats(domain: str, window: tuple[int, ...]) -> dict[str, int]:
    """Every statistic of the signed domain ("B" or "D") on one window, by
    name in the order of STATS; each kernel runs once.  ValueError otherwise."""
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
        return wd.words(eta), eta.trivial_word
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
    return [BiPoly(count) for count in counts]


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
    return UniPoly(_unpack(value, width, value.bit_length() // width + 1))


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
) -> list[UniPoly]:
    """The y^0..y^top coefficients of (sum_k G_k y^k) times the product over
    (a, b) in factors of (1 - x^a y^b), G_k the product over the parts p of
    (p+k choose k)_x.

    The rows G_k (_gaussian_rows) and each factor's pass of _shifted_rows
    share one slot width.  The y^k coefficient is sum_j D_j G_(k-j), D_j the
    y^j coefficient of prod (1 - x^a y^b).  |every coefficient of D_j| is at
    most ways[j], the number of subsets of factors of y-degree j, and G_k has
    nonnegative coefficients summing to G_k(1) = prod C(p+k, k).  So
    sum_j ways[j] * G_(k-j)(1) bounds the y^k coefficients, and w holds the
    largest such bound as a balanced digit.
    """
    ways = [1] + [0] * top
    for a, b in factors:
        for j in range(top, b - 1, -1):
            ways[j] += ways[j - b]
    sizes = [math.prod(math.comb(p + k, k) for p in parts) for k in range(top + 1)]
    w = _slot_width(max(sum(ways[j] * sizes[k - j] for j in range(k + 1)) for k in range(top + 1)))
    rows = _shifted_rows(_gaussian_rows(parts, range(top + 1), w), w, factors)
    return [_unpack_row(r, w) for r in rows]


def _macmahon_series(eta: Composition, top: int) -> list[UniPoly]:
    """The y^0..y^top coefficients of prod_{j=0..n} (1 - x^j y) times
    sum_{k<=top} G_k y^k: by MacMahon, those of the numerator of W_eta, and
    zero above y^n."""
    return _packed_series(eta.parts, top, [(j, 1) for j in range(eta.n + 1)])


def _maj_des_numerator(eta: Composition) -> BiPoly:
    """Route A: the (maj, des) distribution over the words, by MacMahon."""
    return BiPoly.from_y_coefficients(dict(enumerate(_macmahon_series(eta, eta.n))))


def _denh_exc_numerator(eta: Composition) -> BiPoly:
    """Route B: the (denh, exc) distribution over the words, by a
    transfer-matrix DP over the positions of the trivial word.

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
    as its bit length needs, as in _unpack_row.
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
    keys = itertools.product(range(n * n + 1), range(stride))
    return BiPoly(dict(itertools.compress(zip(keys, digits), digits)))


def w_numerator(eta: Composition, *, budget: int = DEFAULT_BUDGET) -> BiPoly:
    """The numerator of W_eta: the (den, iexc) distribution over admissible
    permutations.

    The paper's theorem makes it equal to the (maj, des) and to the
    (denh, exc) distribution over the words, and neither of those needs
    enumeration: route A computes (maj, des) from MacMahon's product formula
    and is returned; route B computes (denh, exc) by a DP over positions and
    must coincide, otherwise one of the two routes is broken and
    InvariantError is raised.

    The budget still bounds the number of words, as for enumeration, and
    raises BudgetError beyond it.
    """
    _check_budget(eta.word_count(), budget)
    num = _maj_des_numerator(eta)
    alt = _denh_exc_numerator(eta)
    if num != alt:
        raise InvariantError(
            f"numerator mismatch for eta={eta}: (maj, des) by MacMahon's formula "
            f"gives {num} but (denh, exc) by the position DP gives {alt}"
        )
    return num


def signed_numerator(kind: str, n: int) -> BiPoly:
    """The Mahonian numerator of type kind ("B" or "D") and rank n, without
    enumeration: the (nmaj, ndes) and (fmaj, fdes) distribution over B_n, or
    the (dmaj, ddes) distribution over D_n.

    The major side is returned.  It is the y-truncation of
    sum_r [r+1]_x^n y^r times (1 - y) prod_{i=1..n} (1 - x^(2i) y^2) for B
    (Adin-Brenti-Roichman 2001), and times
    (1 - y)(1 - x^n y) prod_{i=1..n-1} (1 - x^(2i) y^2) for D (Biagioli 2003),
    both from the packed product.  Its y-degree is 2n - 1 for B and 2n - 2
    for D; the coefficient one degree above must vanish.  The Denert side,
    the (nden, excabs) or (dden, dexc) distribution, is A_n prod_{k=1..n}
    (1 + x^k y) for B and A_n prod_{k=2..n} (1 + x^(k-1) y) for D, where A_n
    is route B's numerator for eta = 1^n.  The two sides must coincide,
    otherwise InvariantError is raised.  Nothing is charged against a budget.
    """
    if kind not in ("B", "D"):
        raise ValueError(f"unknown signed kind {kind!r}; expected 'B' or 'D'")
    signed.check_rank(n)
    powers = range(1, n + 1 if kind == "B" else n)
    factors = [(0, 1)] + [(2 * i, 2) for i in powers] + ([(n, 1)] if kind == "D" else [])
    top = 2 * n if kind == "B" else 2 * n - 1
    ones = Composition((1,) * n)  # G_r of 1^n is [r+1]_x^n
    series = _packed_series(ones.parts, top, factors)
    if series[top]:
        raise InvariantError(
            f"type {kind} numerator for n={n}: "
            f"the y^{top} coefficient {series[top]} does not vanish"
        )
    major = BiPoly.from_y_coefficients(dict(enumerate(series[:top])))
    denert = _denh_exc_numerator(ones)
    for k in powers:
        denert = denert * BiPoly({(0, 0): 1, (k, 1): 1})
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
        they exceed it.
        """
        if terms <= 0:
            return []
        top = terms - 1
        num, exps = self.numerator, self.denom_exponents
        span = max(num.degree_x(), 0) + top * max(exps, default=0) + 1
        _check_budget(span * terms, budget, f"series of {format_count(terms)} terms packs {{}} slots, which")
        w = _slot_width(sum(map(abs, num.terms.values())) * math.comb(top + len(exps), top))
        coeffs = num.y_coefficients()
        rows = [coeffs[b].evaluate(1 << w) if b in coeffs else 0 for b in range(terms)]
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
    _gaussian_rows in slots sized by G_k(1) alone."""
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
    rational functions.  The product side is route A's packed product, and
    w_numerator already insists that route A equals route B.  So for the
    computed numerator this check certifies two things: that route A equals
    route B, and that the y^(n+1) coefficient vanishes.  A numerator row above
    y^(n+1) is a mismatch against the zero product row.  On failure the first
    mismatching y-degree and both sides are reported.
    """
    trunc = eta.n + 1
    if numerator is None:
        numerator = w_numerator(eta, budget=budget)
    lhs = numerator.y_coefficients()
    for k, product in enumerate(_macmahon_series(eta, trunc)):
        expected = lhs.get(k, UniPoly())
        if product != expected:
            return HadamardResult(False, eta, trunc, k, expected, product)
    above = min((k for k in lhs if k > trunc), default=None)
    if above is not None:
        return HadamardResult(False, eta, trunc, above, lhs[above], UniPoly())
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
    equals the numerator itself up to a sign and a monomial shift.  A shift
    keeps the order of the exponent pairs, so it must move the lowest pair of
    N onto the lowest pair of the reversal, and the sign must match their
    coefficients: the equation holds iff N shifted and signed that way is the
    reversal, one comparison of term maps.  The reported exponents absorb the
    denominator contribution: sign times x^(n(n-1)/2 - A + shift_x)
    y^(n - B + shift_y).
    """
    n = eta.n
    if numerator is None:
        numerator = w_numerator(eta, budget=budget)
    if not numerator:
        raise ValueError("zero numerator")
    terms = numerator.terms
    rev = numerator.reversed_xy().terms
    (fa, fb), (ra, rb) = min(terms), min(rev)
    shift_x, shift_y = ra - fa, rb - fb
    delta = 1 if rev[ra, rb] == terms[fa, fb] else -1
    if {(a + shift_x, b + shift_y): delta * c for (a, b), c in terms.items()} != rev:
        return ReciprocityResult(False)
    return ReciprocityResult(
        True,
        (-1) ** n * delta,
        n * (n - 1) // 2 - numerator.degree_x() + shift_x,
        n - numerator.degree_y() + shift_y,
    )


class ScanBounds(NamedTuple):
    max_a: int
    max_b: int
    max_d: int

    def check(self) -> None:
        """ValueError unless max_a >= 0, max_b >= 0 and max_d >= 1: smaller
        bounds leave a scan direction or every index out, and a scan that
        looks at nothing would report nothing found."""
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


def unitary_factor_scan(f: BiPoly, bounds: ScanBounds) -> tuple[UnitaryFactor, ...]:
    """Search for divisors of the form cyclotomic_d(x^a y^b) within bounds.

    Candidates are the directions a in 0..max_a with b in 1..max_b, plus the
    pure-x direction (1, 0), against every cyclotomic index d <= max_d.  A hit
    certifies a unitary factor; an empty result only says no cyclotomic
    candidate within the bounds divides f, nothing stronger.  A direction
    with a > deg_x or b > deg_y passes no degree test, so only a <= deg_x and
    b <= deg_y are listed: bounds far past the degrees cost nothing.

    Candidates are pruned by degree, then by integer divisibility at two
    points, (2, 3) and (101, 103), so a polynomial division is left only for
    the few candidates that pass both.  The prune is exact: if g divides f in
    Z[x, y] then g(P) divides f(P) in Z, and cyclotomic_d(x^a y^b) at a point
    P is cyclotomic_d(base) with base = P_x^a P_y^b >= 2, which is never 0
    since every root of cyclotomic_d has modulus 1.  Every hit is confirmed
    by exact division.  The degree test needs totient(d) <= max(deg_x, deg_y),
    and totient(d) >= sqrt(d/2), so no d above 2*max(deg_x, deg_y)^2 can
    divide and the loop stops there.  Bounds that leave a direction or every
    index out raise ValueError (ScanBounds.check).
    """
    if not f:
        raise ValueError("scan needs a nonzero polynomial")
    bounds.check()
    dx = f.degree_x()
    dy = f.degree_y()
    max_d = min(bounds.max_d, 2 * max(dx, dy) ** 2)
    near, far = f.evaluate(2, 3), f.evaluate(101, 103)
    top_a, top_b = min(bounds.max_a, dx), min(bounds.max_b, dy)
    directions = [(1, 0)] + [(a, b) for b in range(1, top_b + 1) for a in range(top_a + 1)]
    phis = [(d, totient(d)) for d in range(1, max_d + 1)]
    passing: dict[int, list[int]] = {}
    found: list[UnitaryFactor] = []
    for a, b in directions:
        # The degree test, a*totient(d) <= dx and b*totient(d) <= dy, as one
        # cap on totient(d); directions that share a cap share its list of d.
        cap = min(deg // power for deg, power in ((dx, a), (dy, b)) if power)
        if cap not in passing:
            passing[cap] = [d for d, ph in phis if ph <= cap]
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
