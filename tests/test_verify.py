"""The lemma checks and the Denert word kernel against the code they replaced:
the collecting row scan with the O(h^2) m_sets count loop, the subword form
of excedance_stats, and per-cut counts by definition."""
import pytest

from mzeta import admissible as adm
from mzeta import multiset as wd
from mzeta import verify, zeta
from mzeta.poly import BiPoly
from mzeta.verify import _by_eta, compositions_of
from test_admissible import reference_m_counts, row_record
from test_multiset import reference_excedance_stats


def reference_lemma42(eta, budget=zeta.DEFAULT_BUDGET):
    """check_nonexceeding_inversions as a loop over grid_rows and the
    projected inverse of each permutation."""
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


def reference_word_cut_counts(word, triv, cuts):
    """(u, u_inv) for l in range(cuts): u[l] counts the positions with
    t < l <= a and u_inv[l] those with a < l <= t, a the letter of word and t
    that of triv there.  On the projected inverse word of an admissible
    permutation these are cut_counts; under a wrong block map they are what
    the word side of lemma43 reads."""
    u = [sum(t < l <= a for a, t in zip(word, triv)) for l in range(cuts)]
    u_inv = [sum(a < l <= t for a, t in zip(word, triv)) for l in range(cuts)]
    return u, u_inv


def reference_lemma43(eta, budget=zeta.DEFAULT_BUDGET):
    """check_exceeding_weak_inversions as a loop over grid_rows, the m_sets
    count reference and the projected inverse of each permutation."""
    zeta._check_budget(eta.word_count(), budget)
    blocks = adm.block_lookup(eta)
    masks = adm.column_masks(eta)
    for perm in adm.admissible_perms(eta):
        rows = adm.grid_rows(masks, perm)
        high_rows = reference_m_counts(blocks, perm)
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
        u, u_inv = reference_word_cut_counts(word, eta.trivial_word, eta.r + 2)
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


def reference_euler_mahonian_den(eta):
    """check_euler_mahonian_den with the subword form of excedance_stats in
    place of the registry's words kernel."""
    kernel = (lambda w, fields: reference_excedance_stats(w, fields.trivial_word), True)
    with pytest.MonkeyPatch.context() as patch:
        for field, name in enumerate(("exc", "denh")):
            patch.setitem(zeta.STATS["words"], name, (kernel, field))
        return verify.check_euler_mahonian_den(eta)


CHECKS = [
    ("lemma42", verify.check_nonexceeding_inversions, reference_lemma42),
    ("lemma43", verify.check_exceeding_weak_inversions, reference_lemma43),
    ("euler-mahonian-den", verify.check_euler_mahonian_den, reference_euler_mahonian_den),
]


@pytest.mark.parametrize("check", ["lemma43", "b-equidistribution", "d-equidistribution"])
def test_sweep_size_counts_the_listed_targets(check):
    for n_max in range(-1, 8):
        if check.endswith("equidistribution"):
            targets = list(range(1, n_max + 1))
        else:
            targets = list(verify.compositions_up_to(n_max))
        total = sum(verify.domain_size(check, target) for target in targets)
        assert verify.sweep_size(check, n_max) == (len(targets), total)


def test_sweep_size_by_eta_is_the_ordered_bell_number():
    # OEIS A000670: 1, 3, 13, 75, 541, 4683, ...
    sizes = [verify.sweep_size("hadamard", n)[1] for n in range(0, 7)]
    assert [b - a for a, b in zip(sizes, sizes[1:])] == [1, 3, 13, 75, 541, 4683]


def outcome(check, eta):
    """The result line of a check, or the type of the exception it raised."""
    try:
        return check(eta).line()
    except Exception as exc:  # a perturbed block map may break any step
        return type(exc)


@pytest.mark.parametrize("n", range(1, 8))
def test_lemma_checks_match_reference(n):
    for eta in compositions_of(n):
        assert verify.check_nonexceeding_inversions(eta) == reference_lemma42(eta)
        assert verify.check_exceeding_weak_inversions(eta) == reference_lemma43(eta)


def perturbed_block_maps(eta):
    """The block maps of eta with two entries swapped at one block boundary,
    and those with one entry raised by one."""
    blocks = (0, *eta.trivial_word)
    for k in sorted(eta.descent_set):
        swapped = list(blocks)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        yield tuple(swapped)
    for i in range(1, eta.n + 1):
        yield blocks[:i] + (blocks[i] + 1,) + blocks[i + 1:]


@pytest.fixture
def fresh_column_masks():
    """column_masks caches tables built from block_lookup: start and leave
    each test with an empty cache."""
    adm.column_masks.cache_clear()
    yield
    adm.column_masks.cache_clear()


@pytest.mark.parametrize("n", range(1, 6))
def test_perturbed_block_maps_fail_as_reference(n, monkeypatch, fresh_column_masks):
    """With a wrong block map every check reports the same first failure, or
    raises the same exception type, as the reference."""
    failed = set()
    for eta in compositions_of(n):
        for perturbed in perturbed_block_maps(eta):
            monkeypatch.setattr(adm, "block_lookup", lambda _eta, blocks=perturbed: blocks)
            adm.column_masks.cache_clear()
            for name, check, reference in CHECKS:
                result = outcome(check, eta)
                assert result == outcome(reference, eta), (name, eta, perturbed)
                if isinstance(result, str) and ": FAIL (" in result:
                    failed.add(name)
    # From n = 2 on, some perturbation makes each check report a failure.
    assert failed == ({name for name, _, _ in CHECKS} if n >= 2 else set())


def test_row_records_carry_a_perturbed_block_map(monkeypatch, fresh_column_masks):
    """column_masks rebuilds its records from the patched block_lookup, so the
    lemma checks read the perturbed blocks from them."""
    for eta in compositions_of(5):
        for perturbed in perturbed_block_maps(eta):
            monkeypatch.setattr(adm, "block_lookup", lambda _eta, blocks=perturbed: blocks)
            adm.column_masks.cache_clear()
            masks = adm.column_masks(eta)
            assert [b for _, _, b in masks] == list(perturbed[1:])
            assert masks == tuple(row_record(perturbed, i) for i in range(1, eta.n + 1))


@pytest.mark.parametrize("parts", [(1,), (2, 1), (1, 2, 1), (2, 2, 1)])
def test_euler_mahonian_words_enumerates_once(parts, monkeypatch):
    calls = []
    words = wd.words

    def counted(eta):
        calls.append(eta)
        return words(eta)

    monkeypatch.setattr(wd, "words", counted)
    eta = wd.Composition(parts)
    result = verify.check_euler_mahonian_words(eta)
    assert result.passed, result
    assert calls == [eta]


def test_first_coefficient_difference_of_equal_polynomials():
    p = BiPoly({(0, 0): 1, (2, 1): -3})
    assert verify.first_coefficient_difference(p, p) == "polynomials agree"


@pytest.mark.parametrize("n", range(1, 13))
def test_compositions_of_are_every_composition_in_lexicographic_order(n):
    parts = [eta.parts for eta in compositions_of(n)]
    assert len(parts) == 2 ** (n - 1)
    assert parts == sorted(set(parts))
    assert all(min(p) >= 1 and sum(p) == n for p in parts)


def test_compositions_of_nothing():
    assert list(compositions_of(-1)) == []
    with pytest.raises(ValueError, match="^a composition needs at least one part$"):
        next(compositions_of(0))


def test_compositions_of_a_large_n_need_no_recursion():
    assert next(compositions_of(1200)).n == 1200
