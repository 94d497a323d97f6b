"""
Exhaustive verification sweeps.

Each check examines a finite domain completely and reports a CheckResult: the
equidistribution checks compare generating polynomials coefficient by
coefficient, the cell-count checks test their identity separately for every
admissible permutation (and every qualifying row), and the reciprocity check
compares the observed functional equation against the rectangle prediction.
On failure the first counterexample is captured in the detail string.

The cell-count checks (Lemmas 4.2 and 4.3) take the cell side of each
identity from one grid_rows scan per permutation (the bit counts of the
n_plus and n_minus row masks) and the counting kernels cut_counts and
m_counts of admissible, which build no cell set, and the word side from inv
and imv on the projected inverse word.  The cell-set functions stay the
reference for those kernels in the tests.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator

from . import admissible as adm
from . import multiset as wd
from . import zeta
from .poly import BiPoly
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
    """All compositions of n, lexicographically by parts."""

    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in rec(remaining - first):
                yield (first,) + rest

    for parts in rec(n):
        yield Composition(parts)


def compositions_up_to(n_max: int) -> Iterator[Composition]:
    for n in range(1, n_max + 1):
        yield from compositions_of(n)


def first_coefficient_difference(lhs: BiPoly, rhs: BiPoly) -> str:
    """Describe the earliest (y, x)-ordered exponent where two polynomials differ."""
    keys = sorted(set(lhs.terms) | set(rhs.terms), key=lambda k: (k[1], k[0]))
    for a, b in keys:
        cl = lhs.terms.get((a, b), 0)
        cr = rhs.terms.get((a, b), 0)
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


def check_euler_mahonian_words(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(denh, exc) and (maj, des) have the same joint distribution over the words."""
    size = eta.word_count()
    polys = [
        ("(denh,exc)", zeta.joint_distribution("words", ("denh", "exc"), eta=eta, budget=budget)),
        ("(maj,des)", zeta.joint_distribution("words", ("maj", "des"), eta=eta, budget=budget)),
    ]
    return _poly_equality("euler-mahonian-a", f"eta={eta}", size, polys)


def check_euler_mahonian_den(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(den, iexc) over admissible permutations matches (denh, exc) over words."""
    size = eta.word_count()
    polys = [
        ("(den,iexc)", zeta.joint_distribution("admissible", ("den", "iexc"), eta=eta, budget=budget)),
        ("(denh,exc)", zeta.joint_distribution("words", ("denh", "exc"), eta=eta, budget=budget)),
    ]
    return _poly_equality("euler-mahonian-den", f"eta={eta}", size, polys)


def check_nonexceeding_inversions(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """Lemma 4.2, per admissible permutation: the low part of n_plus_split
    has exactly as many cells as the non-exceeding subword of the projected
    inverse has inversions.

    The cell side is the sum of the n_plus row mask bit counts of grid_rows
    over the rows with block(i) <= block(sigma(i)); the word side is inv on
    the word, computed independently of the grid.
    """
    zeta._check_budget(eta.word_count(), budget)
    blocks = adm.block_lookup(eta)
    masks = adm.column_masks(eta)
    for perm in adm.admissible_perms(eta):
        rows = adm.grid_rows(masks, perm)
        low = sum(
            plus.bit_count()
            for i, (plus, _) in enumerate(rows, start=1)
            if blocks[i] <= blocks[perm[i - 1]]
        )
        word = adm.project_perm(eta, wd.inverse(perm))
        expected = wd.inv(wd.nonexceeding_subword(word, eta))
        if low != expected:
            return _by_eta(
                "lemma42", eta, False, f"sigma={perm}: |low cells|={low}, inversions={expected}"
            )
    return _by_eta("lemma42", eta, True, f"domain size {eta.word_count()}")


def check_exceeding_weak_inversions(eta: Composition, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """Lemma 4.3, per admissible permutation: the high part of n_plus_split
    is accounted for by weak inversions of the exceeding subword plus
    n_minus plus iexc, and the same identity holds row by row through the
    u-set counts.

    The cell side takes the n_plus and n_minus row mask bit counts of
    grid_rows, the u_set and u_inv_set sizes of every cut from cut_counts,
    and the m_sets sizes of every high row from m_counts.  The word side is
    imv on the word, computed independently of the grid.
    """
    zeta._check_budget(eta.word_count(), budget)
    blocks = adm.block_lookup(eta)
    masks = adm.column_masks(eta)
    for perm in adm.admissible_perms(eta):
        rows = adm.grid_rows(masks, perm)
        # The rows of i_set, in order, with their m_sets sizes.
        high_rows = adm.m_counts(blocks, perm)
        high = sum(rows[j0 - 1][0].bit_count() for j0, _, _ in high_rows)
        word = adm.project_perm(eta, wd.inverse(perm))
        target = wd.imv(wd.exceeding_subword(word, eta))
        minus = sum(row_minus.bit_count() for _, row_minus in rows)
        exceed = len(high_rows)
        if high != target + minus + exceed:
            return _by_eta(
                "lemma43",
                eta,
                False,
                f"sigma={perm}: |high cells|={high}, imv+minus+iexc={target}+{minus}+{exceed}",
            )
        u, u_inv = adm.cut_counts(blocks, perm)
        row_total = 0
        for j0, meq, mgt in high_rows:
            cut = blocks[j0]
            row_high, row_minus = rows[j0 - 1]
            n_high = row_high.bit_count()
            lhs = meq + mgt + row_minus.bit_count() + 1
            if not lhs == u[cut] == u_inv[cut] == n_high:
                return _by_eta(
                    "lemma43",
                    eta,
                    False,
                    f"sigma={perm}, row {j0}: "
                    f"m+m+minus+1={lhs}, |u|={u[cut]}, |u_inv|={u_inv[cut]}, "
                    f"|row high|={n_high}",
                )
            row_total += meq + mgt
        if row_total != target:
            return _by_eta(
                "lemma43", eta, False, f"sigma={perm}: row m-cells total {row_total}, imv={target}"
            )
    return _by_eta("lemma43", eta, True, f"domain size {eta.word_count()}")


def _signed_equidistribution(
    check: str, kind: str, pairs: list[tuple[str, str]], n: int, budget: int
) -> CheckResult:
    """The pairs agree over the domain, in one pass of it, and agree with
    signed_numerator."""
    polys = zeta.joint_distributions(kind, pairs, n=n, budget=budget)
    named = [(f"({a},{b})", poly) for (a, b), poly in zip(pairs, polys)]
    named.append(("signed_numerator", zeta.signed_numerator(kind, n)))
    return _poly_equality(check, f"n={n}", domain_size(check, n), named)


def check_b_equidistribution(n: int, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(nden, excabs), (nmaj, ndes), and (fmaj, fdes) agree over the signed
    permutations."""
    pairs = [("fmaj", "fdes"), ("nden", "excabs"), ("nmaj", "ndes")]
    return _signed_equidistribution("b-equidistribution", "B", pairs, n, budget)


def check_d_equidistribution(n: int, budget: int = zeta.DEFAULT_BUDGET) -> CheckResult:
    """(dden, dexc) and (dmaj, ddes) agree over the even-signed permutations."""
    pairs = [("dden", "dexc"), ("dmaj", "ddes")]
    return _signed_equidistribution("d-equidistribution", "D", pairs, n, budget)


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
