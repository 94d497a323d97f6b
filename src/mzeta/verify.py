"""
Exhaustive verification sweeps.

Each check examines a finite domain completely and reports a CheckResult: the
equidistribution checks compare generating polynomials coefficient by
coefficient, the cell-count checks test their identity separately for every
admissible permutation (and every qualifying row), and the reciprocity check
compares the observed functional equation against the rectangle prediction.
On failure the first counterexample is captured in the detail string.

The cell-count checks (Lemmas 4.2 and 4.3) run one function per admissible
permutation, which returns the failure detail or None.  Each reads only the
two per-eta contexts of the statistic registry: column_masks(eta) of
admissible and letter_fields(eta) of multiset.  It reads the grid rows top
down, as grid_rows does, each row a record (ge, lt, block(i)), and takes the
cell side of its identity from bit counts of the row masks without
collecting them or building any cell set; in the same pass it writes the
projected inverse word from the row blocks.  The word side is one
excedance_parts pass of multiset over that word: the inversions of its
non-exceeding subword, the weak inversions of its exceeding subword, and the
per-cut counts of Lemma 4.3 as packed crossing counts.  It reads only the
word and the trivial word, so it is computed independently of the grid.  The
cell-set functions, and inv, imv and cut_counts, stay the reference for
these counts in the tests.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterator, Sequence

from . import admissible as adm
from . import multiset as wd
from . import zeta
from .poly import BiPoly, UniPoly
from .multiset import Composition


@dataclasses.dataclass
class CheckResult:
    check: str
    target: str
    passed: bool
    expected_failure: bool = False
    checked: int = 0
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.check} {self.target}: {status}{note}"


def compositions_of(n: int) -> Iterator[Composition]:
    """All compositions of n, lexicographically by parts: a part ends or not
    after each position 1..n-1, and ending it gives the smaller part, so the
    cut comes first at every position.  Nothing for n < 0; ValueError for 0."""
    if n < 1:
        if n == 0:
            yield Composition(())  # raises: a composition needs a part
        return
    for cuts in itertools.product((True, False), repeat=n - 1):
        ends = [*itertools.compress(range(1, n), cuts), n]
        yield Composition(tuple(end - start for start, end in zip([0, *ends], ends)))


def compositions_up_to(n_max: int) -> Iterator[Composition]:
    for n in range(1, n_max + 1):
        yield from compositions_of(n)


def first_coefficient_difference(lhs: BiPoly, rhs: BiPoly) -> str:
    """Describe the earliest (y, x)-ordered exponent where two polynomials differ."""
    empty = UniPoly()
    for b, (left, right) in enumerate(itertools.zip_longest(lhs.rows, rhs.rows, fillvalue=empty)):
        for a, (cl, cr) in enumerate(itertools.zip_longest(left.coeffs, right.coeffs, fillvalue=0)):
            if cl != cr:
                return f"coefficient of x^{a}*y^{b}: {cl} vs {cr}"
    return "polynomials agree"


def _by_eta(
    check: str, eta: Composition, passed: bool, detail: str, expected_failure: bool = False
) -> CheckResult:
    """The result of a check that covers the words of eta."""
    return CheckResult(check, f"eta={eta}", passed, expected_failure, eta.word_count(), detail)


def _poly_equality(
    check: str, target: str, size: int, polys: list[tuple[str, BiPoly]]
) -> CheckResult:
    base_name, base = polys[0]
    for name, other in polys[1:]:
        if other != base:
            return CheckResult(
                check,
                target,
                passed=False,
                checked=size,
                detail=f"{base_name} != {name}: {first_coefficient_difference(base, other)}",
            )
    return CheckResult(check, target, passed=True, checked=size, detail=f"domain size {size}")


# The domain each check by n enumerates; the checks by composition enumerate
# the words of eta (or the admissible permutations, which are as many).
_SIGNED_DOMAINS = {"b-equidistribution": "B", "d-equidistribution": "D"}


def domain_size(check: str, target: Composition | int) -> int:
    """The number of objects `check` enumerates for one target, a composition
    or an n."""
    if isinstance(target, Composition):
        return target.word_count()
    return zeta.domain_size(_SIGNED_DOMAINS[check], n=target)


def sweep_size(check: str, n_max: int) -> tuple[int, int]:
    """The number of targets of a sweep of `check` over every n <= n_max, and
    the objects they enumerate in all, without listing any target.

    A check by composition has the 2^(n-1) compositions of each n, and their
    words number the ordered set partitions of [n] (those of eta are the
    partitions into blocks of sizes eta_1, ..., eta_r in order); a check by n
    has one domain per n.
    """
    if check in _SIGNED_DOMAINS:
        return max(n_max, 0), sum(domain_size(check, n) for n in range(1, n_max + 1))
    # blocks[k]: the ordered set partitions of [n] into k blocks, built up by
    # placing n in one of the k blocks or alone in a new one.
    blocks = [1]
    total = 0
    for n in range(1, n_max + 1):
        blocks.append(0)
        blocks = [0] + [k * (blocks[k - 1] + blocks[k]) for k in range(1, n + 1)]
        total += sum(blocks)
    return max(2**n_max - 1, 0), total


def _named_distributions(domain: str, pairs: list, **where) -> list[tuple[str, BiPoly]]:
    """zeta.joint_distributions of the pairs, from one pass, each named "(a,b)"."""
    polys = zeta.joint_distributions(domain, pairs, **where)
    return [(f"({a},{b})", poly) for (a, b), poly in zip(pairs, polys)]


def check_euler_mahonian_words(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(denh, exc) and (maj, des) have the same joint distribution over the words."""
    polys = _named_distributions("words", [("denh", "exc"), ("maj", "des")], eta=eta, budget=budget)
    return _poly_equality("euler-mahonian-a", f"eta={eta}", eta.word_count(), polys)


def check_euler_mahonian_den(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(den, iexc) over admissible permutations matches (denh, exc) over words."""
    size = eta.word_count()
    polys = [
        ("(den,iexc)", zeta.joint_distribution("admissible", ("den", "iexc"), eta=eta, budget=budget)),
        ("(denh,exc)", zeta.joint_distribution("words", ("denh", "exc"), eta=eta, budget=budget)),
    ]
    return _poly_equality("euler-mahonian-den", f"eta={eta}", size, polys)


def nonexceeding_inversions_failure(
    masks: Sequence[tuple[int, int, int]], fields: wd.LetterFields, perm: Sequence[int]
) -> str | None:
    """Lemma 4.2 for one admissible permutation: the failure detail, or None
    when the low part of n_plus_split has exactly as many cells as the
    non-exceeding subword of the projected inverse has inversions.

    masks and fields are column_masks(eta) and letter_fields(eta).  One top
    down pass reads the row records (ge, lt, block(i)) as grid_rows does,
    adds the n_plus mask bit counts of the rows with
    block(i) <= block(sigma(i)), and writes the projected inverse word,
    word[sigma(i) - 1] = block(i).  The word side is the inversion count of
    excedance_parts on that word, computed independently of the grid.
    """
    word = [0] * len(perm)
    seen = low = 0
    for v, (ge, lt, b) in zip(perm, masks):
        if not lt >> v & 1:
            low += (-2 << v & seen & ge).bit_count()
        seen |= 1 << v
        word[v - 1] = b
    expected = wd.excedance_parts(word, fields)[1]
    if low != expected:
        return f"sigma={perm}: |low cells|={low}, inversions={expected}"
    return None


def exceeding_weak_inversions_failure(
    masks: Sequence[tuple[int, int, int]], fields: wd.LetterFields, perm: Sequence[int]
) -> str | None:
    """Lemma 4.3 for one admissible permutation: the failure detail, or None
    when the high part of n_plus_split is accounted for by the weak
    inversions of the exceeding subword plus n_minus plus iexc, and the same
    identity holds row by row through the u-set counts.

    masks and fields are column_masks(eta) and letter_fields(eta).  A high
    row is a row j0 of i_set.  One top down pass reads the row records
    (ge, lt, block(i)) as grid_rows does, writes the projected inverse word,
    and keeps by_block[b], the mask of the values of the high rows of block b
    seen so far, for every letter b = 0..r + 1 that fields takes.  For each
    high row it takes the n_plus and n_minus mask bit counts and |meq| of
    m_sets, the bits of by_block[block(j0)] below sigma(j0).  One
    excedance_parts pass over the word, computed independently of the grid,
    gives the weak inversions of the exceeding subword and the per-cut
    counts |u_set| and |u_inv_set| as packed fields.
    Once the whole-grid identity holds, and when some row is high, suffix ORs
    turn by_block[b] into the values of the high rows of the blocks after b,
    and |mgt| is its bits below sigma(j0).  The failures are reported in
    order: the whole grid, the first failing row, the row total.
    """
    by_block = [0] * len(fields.ge)
    word = [0] * len(perm)
    # (j0, sigma(j0), block(j0), |meq|, n_minus bit count, n_plus bit count)
    # of each high row.
    high_rows = []
    seen = high = minus = 0
    i = 0
    for v, (ge, lt, b) in zip(perm, masks):
        i += 1
        word[v - 1] = b
        above = -2 << v
        row_minus = (above & ~seen & lt).bit_count()
        minus += row_minus
        bit = 1 << v
        if lt & bit:
            row_high = (above & seen & ge).bit_count()
            high += row_high
            high_rows.append((i, v, b, (by_block[b] & (bit - 1)).bit_count(), row_minus, row_high))
            by_block[b] |= bit
        seen |= bit
    target, _, u, u_inv = wd.excedance_parts(word, fields)
    exceed = len(high_rows)
    if high != target + minus + exceed:
        return f"sigma={perm}: |high cells|={high}, imv+minus+iexc={target}+{minus}+{exceed}"
    if not high_rows:
        return None  # then high = 0, so the counts target and minus are 0 too
    later = 0
    for b in reversed(range(len(by_block))):
        by_block[b], later = later, later | by_block[b]
    shifts, mask = fields.ge, fields.mask
    row_total = 0
    for j0, v, cut, meq, row_minus, n_high in high_rows:
        m = meq + (by_block[cut] & ((1 << v) - 1)).bit_count()
        lhs = m + row_minus + 1
        u_cut = u >> shifts[cut] & mask
        u_inv_cut = u_inv >> shifts[cut] & mask
        if not lhs == u_cut == u_inv_cut == n_high:
            return (
                f"sigma={perm}, row {j0}: "
                f"m+m+minus+1={lhs}, |u|={u_cut}, |u_inv|={u_inv_cut}, |row high|={n_high}"
            )
        row_total += m
    if row_total != target:
        return f"sigma={perm}: row m-cells total {row_total}, imv={target}"
    return None


def _each_admissible(
    check: str, failure: Callable[..., str | None], eta: Composition, budget: int
) -> CheckResult:
    """Run a per-permutation check over the admissible permutations of eta;
    the first failure detail fails the check."""
    zeta._check_budget(eta.word_count(), budget)
    masks = adm.column_masks(eta)
    fields = wd.letter_fields(eta)
    for perm in adm.admissible_perms(eta):
        detail = failure(masks, fields, perm)
        if detail is not None:
            return _by_eta(check, eta, False, detail)
    return _by_eta(check, eta, True, f"domain size {eta.word_count()}")


def check_nonexceeding_inversions(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """Lemma 4.2 on every admissible permutation (nonexceeding_inversions_failure)."""
    return _each_admissible("lemma42", nonexceeding_inversions_failure, eta, budget)


def check_exceeding_weak_inversions(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """Lemma 4.3 on every admissible permutation (exceeding_weak_inversions_failure)."""
    return _each_admissible("lemma43", exceeding_weak_inversions_failure, eta, budget)


def _signed_equidistribution(check: str, pairs: list[tuple[str, str]], n: int, budget: int) -> CheckResult:
    """The pairs agree over the domain of check, in one pass of it, and agree
    with signed_numerator."""
    kind = _SIGNED_DOMAINS[check]
    named = _named_distributions(kind, pairs, n=n, budget=budget)
    named.append(("signed_numerator", zeta.signed_numerator(kind, n)))
    return _poly_equality(check, f"n={n}", domain_size(check, n), named)


def check_b_equidistribution(n: int, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(nden, excabs), (nmaj, ndes), and (fmaj, fdes) agree over the signed
    permutations."""
    pairs = [("fmaj", "fdes"), ("nden", "excabs"), ("nmaj", "ndes")]
    return _signed_equidistribution("b-equidistribution", pairs, n, budget)


def check_d_equidistribution(n: int, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(dden, dexc) and (dmaj, ddes) agree over the even-signed permutations."""
    pairs = [("dden", "dexc"), ("dmaj", "ddes")]
    return _signed_equidistribution("d-equidistribution", pairs, n, budget)


def check_hadamard(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    result = zeta.hadamard_check(eta, budget=budget)
    if result.ok:
        return _by_eta("hadamard", eta, True, f"series agrees through y^{result.truncation}")
    return _by_eta(
        "hadamard",
        eta,
        False,
        f"first mismatch at y^{result.mismatch_degree}: "
        f"numerator side {result.numerator_side}, product side {result.product_side}",
    )


def check_reciprocity(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """Rectangles must satisfy their predicted functional equation; everything
    else must satisfy none."""
    observed = zeta.reciprocity_check(eta, budget=budget)
    predicted = zeta.expected_reciprocity(eta)
    if predicted is None:
        if not observed.holds:
            return _by_eta(
                "reciprocity", eta, True, "fails (expected: non-rectangle)", expected_failure=True
            )
        return _by_eta(
            "reciprocity",
            eta,
            False,
            "unexpected functional equation: "
            f"sign={observed.sign}, a={observed.x_exponent}, b={observed.y_exponent}",
        )
    if observed == predicted:
        return _by_eta(
            "reciprocity",
            eta,
            True,
            f"holds with sign={observed.sign}, a={observed.x_exponent}, b={observed.y_exponent}",
        )
    return _by_eta("reciprocity", eta, False, f"observed {observed}, predicted {predicted}")
