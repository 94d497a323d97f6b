"""End-to-end CLI behaviour: output text, JSON schema, and exit codes."""
import errno
import json
import os
import shlex
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mzeta import zeta
from mzeta.cli import build_parser, main, parse_eta, parse_rational, parse_sequence
from mzeta.poly import BiPoly

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_poly_schema(obj):
    assert obj["vars"] == ["x", "y"]
    keys = [(t[1], t[0]) for t in obj["terms"]]
    assert keys == sorted(keys)
    for a, b, c in obj["terms"]:
        assert isinstance(a, int) and isinstance(b, int)
        assert isinstance(c, str) and int(c) != 0


class TestParsers:
    def test_eta(self):
        assert parse_eta("3,2,2,3").parts == (3, 2, 2, 3)
        with pytest.raises(ValueError):
            parse_eta("3,x")
        with pytest.raises(ValueError):
            parse_eta("0,2")

    def test_sequence(self):
        assert parse_sequence("4232314141") == (4, 2, 3, 2, 3, 1, 4, 1, 4, 1)
        assert parse_sequence("6,8,10,2,4,3,5,1,7,9") == (6, 8, 10, 2, 4, 3, 5, 1, 7, 9)
        assert parse_sequence("-2,1", allow_negative=True) == (-2, 1)
        assert parse_sequence("-1", allow_negative=True) == (-1,)
        with pytest.raises(ValueError):
            parse_sequence("40302")
        with pytest.raises(ValueError):
            parse_sequence("a,b")

    def test_rational(self):
        from fractions import Fraction

        assert parse_rational("1/8") == Fraction(1, 8)
        assert parse_rational("2") == 2
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("x")


class TestStats:
    def test_word(self, capsys):
        code, out, _ = run(capsys, "stats", "--eta", "3,2,2,3", "--word", "4232314141")
        assert code == 0
        assert "denh: 27" in out
        assert "exc: 5" in out

    def test_perm(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--eta", "3,2,2,3", "--perm", "6,8,10,2,4,3,5,1,7,9"
        )
        assert code == 0
        assert "den: 27" in out
        assert "iexc: 5" in out
        assert "i_sum: 18" in out
        assert "n_plus: 17" in out
        assert "n_minus: 3" in out
        assert "is_admissible: true" in out

    def test_non_admissible_perm(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--eta", "3,2,2,3", "--perm", "6,8,10,4,2,3,5,1,7,9"
        )
        assert code == 0
        assert "is_admissible: false" in out
        assert "den:" not in out

    def test_den_requested_on_non_admissible(self, capsys):
        code, _, err = run(
            capsys,
            "stats", "--eta", "3,2,2,3",
            "--perm", "6,8,10,4,2,3,5,1,7,9",
            "--stat", "den",
        )
        assert code == 2
        assert "den" in err

    def test_all_zero_word(self, capsys):
        code, out, _ = run(capsys, "stats", "--eta", "2,1", "--word", "112")
        assert code == 0
        for line in out.strip().splitlines():
            assert line.endswith(": 0")

    def test_word_verbose_json(self, capsys):
        code, out, _ = run(
            capsys,
            "stats", "--eta", "3,2,2,3", "--word", "4232314141",
            "--verbose", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["denh"] == 27
        assert obj["Exc"] == [1, 2, 3, 5, 7]
        assert obj["E"] == [4, 2, 3, 3, 4]
        assert obj["N"] == [2, 1, 1, 4, 1]

    def test_signed_b(self, capsys):
        code, out, _ = run(capsys, "stats", "--signed=-2,1")
        assert code == 0
        assert "nden: 3" in out
        assert "excabs: 2" in out
        assert "fmaj: 1" in out

    def test_signed_d(self, capsys):
        code, out, _ = run(capsys, "stats", "--signed=-1,-2", "--type", "D")
        assert code == 0
        assert "dden: 1" in out
        assert "dexc: 1" in out

    def test_signed_d_odd_rejected(self, capsys):
        code, out, err = run(capsys, "stats", "--signed=-1,2", "--type", "D")
        assert (code, out) == (2, "")
        assert err == "error: (-1, 2) has an odd number of negative entries\n"

    def test_malformed_word(self, capsys):
        code, _, err = run(capsys, "stats", "--eta", "2,1", "--word", "122")
        assert code == 2

    def test_missing_eta(self, capsys):
        code, _, err = run(capsys, "stats", "--word", "112")
        assert code == 2


class TestDist:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--domain", "words", "--eta", "2,1", "--pair", "denh,exc"
        )
        assert code == 0
        assert out.strip() == "1 + x*y + x^2*y"

    def test_trivial(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--domain", "words", "--eta", "3", "--pair", "maj,des"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_d_domain(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--domain", "D", "--n", "2", "--pair", "dden,dexc"
        )
        assert code == 0
        assert out.strip() == "1 + 2*x*y + x^2*y^2"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "dist", "--domain", "words", "--eta", "2,1",
            "--pair", "denh,exc", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert_poly_schema(obj)
        assert obj["terms"] == [[0, 0, "1"], [1, 1, "1"], [2, 1, "1"]]

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "dist", "--domain", "words", "--eta", "2,1",
            "--pair", "denh,exc", "--budget", "2",
        )
        assert code == 3

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("MZETA_BUDGET", "2")
        code, _, _ = run(
            capsys, "dist", "--domain", "words", "--eta", "2,1", "--pair", "denh,exc"
        )
        assert code == 3
        # explicit flag beats the environment
        code, out, _ = run(
            capsys,
            "dist", "--domain", "words", "--eta", "2,1",
            "--pair", "denh,exc", "--budget", "100",
        )
        assert code == 0

    def test_bad_pair(self, capsys):
        code, _, err = run(
            capsys, "dist", "--domain", "words", "--eta", "2,1", "--pair", "dden,exc"
        )
        assert code == 2

    def test_missing_n(self, capsys):
        code, _, _ = run(capsys, "dist", "--domain", "B", "--pair", "fmaj,fdes")
        assert code == 2

    @pytest.mark.parametrize("domain", ["B", "D"])
    def test_negative_n(self, capsys, domain):
        code, out, err = run(capsys, "dist", "--domain", domain, "--n", "-2", "--pair", "neg,maj")
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")
        check = f"{domain.lower()}-equidistribution"
        code, out, err = run(capsys, "verify", "--check", check, "--n", "-2")
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")

    ROUTED = [
        (domain, ",".join(pair), target)
        for (domain, pair) in zeta.NUMERATOR_ROUTES
        for target in (
            [["--n", str(n)] for n in range(1, 6)]
            if domain in ("B", "D")
            else [["--eta", e] for e in ("1", "2,1", "1,2,1", "2,1,2", "1,1,1,1,1", "3,2")]
        )
    ]

    @pytest.mark.parametrize("domain,pair,target", ROUTED)
    def test_routed_output_matches_enumeration(self, capsys, monkeypatch, domain, pair, target):
        for fmt in ("text", "json"):
            argv = ["dist", "--domain", domain, *target, "--pair", pair, "--format", fmt]
            routed = run(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(zeta, "NUMERATOR_ROUTES", {})
                enumerated = run(capsys, *argv)
            assert routed == enumerated
            assert routed[0] == 0


class TestVerify:
    @pytest.mark.parametrize(
        "check,flag,target",
        [
            ("euler-mahonian-a", "--eta", "2,1"),
            ("euler-mahonian-den", "--eta", "2,2"),
            ("lemma42", "--eta", "2,1,1"),
            ("lemma43", "--eta", "2,1,1"),
            ("hadamard", "--eta", "2,2"),
            ("b-equidistribution", "--n", "3"),
            ("d-equidistribution", "--n", "3"),
        ],
    )
    def test_single_targets_pass(self, capsys, check, flag, target):
        code, out, _ = run(capsys, "verify", "--check", check, flag, target)
        assert code == 0
        assert "pass" in out

    @pytest.mark.parametrize("check", ["lemma42", "hadamard", "b-equidistribution"])
    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_sweep_of_nothing_is_refused(self, capsys, check, n_max):
        code, out, err = run(capsys, "verify", "--check", check, "--all-eta-up-to", n_max)
        assert code == 2
        assert out == ""
        assert err == "error: --all-eta-up-to must be >= 1\n"

    def test_reciprocity_expected_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "reciprocity", "--eta", "2,1")
        assert code == 0
        assert "expected: non-rectangle" in out

    def test_reciprocity_rectangle(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "reciprocity", "--eta", "2,2")
        assert code == 0
        assert "holds with sign=1, a=2, b=2" in out

    def test_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "euler-mahonian-den", "--all-eta-up-to", "4"
        )
        assert code == 0
        assert out.count("pass") == 15 + 1  # 15 compositions + summary line

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--check", "b-equidistribution",
            "--all-eta-up-to", "3", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert len(obj["results"]) == 3

    @pytest.mark.parametrize(
        "check,targets,total",
        [("lemma43", 1 + 2 + 4, 1 + 3 + 13), ("b-equidistribution", 3, 2 + 8 + 48)],
    )
    def test_sweep_budget_is_summed_before_any_target(
        self, capsys, monkeypatch, check, targets, total
    ):
        # Every target fits the budget on its own; the sweep as a whole does not.
        import mzeta.cli as cli

        table = cli.CHECKS_BY_ETA if check in cli.CHECKS_BY_ETA else cli.CHECKS_BY_N
        real = table[check]
        calls = []

        def counted(target, budget):
            calls.append(target)
            return real(target, budget)

        monkeypatch.setitem(table, check, counted)
        argv = ["verify", "--check", check, "--all-eta-up-to", "3"]
        code, out, err = run(capsys, *argv, "--budget", str(total - 1))
        assert (code, out, calls) == (3, "", [])
        assert err == (
            f"error: sweep of {targets} targets has total domain size {total}, "
            f"which exceeds the budget of {total - 1}\n"
        )
        code, _, _ = run(capsys, *argv, "--budget", str(total))
        assert code == 0 and len(calls) == targets

    def test_large_sweep_is_bounded_before_listing_targets(self, capsys):
        # 2^60 - 1 compositions: listing them would never finish.
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--check", "hadamard", "--all-eta-up-to", "60")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith(f"error: sweep of {2**60 - 1} targets has total domain size ")

    def test_wrong_target_kind(self, capsys):
        code, _, _ = run(capsys, "verify", "--check", "lemma42", "--n", "3")
        assert code == 2
        code, _, _ = run(capsys, "verify", "--check", "b-equidistribution", "--eta", "2,1")
        assert code == 2

    def test_unknown_check(self, capsys):
        code, _, _ = run(capsys, "verify", "--check", "nonsense", "--eta", "2,1")
        assert code == 2


class TestUnusedTargetFlags:
    """A target flag the command would not read is refused, not ignored; a
    missing target keeps its own message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["verify", "--check", "hadamard", "--eta", "2,1", "--all-eta-up-to", "3"],
                "choose one target, not several: --eta, --n, or --all-eta-up-to",
            ),
            (
                ["verify", "--check", "b-equidistribution", "--n", "3", "--all-eta-up-to", "2"],
                "choose one target, not several: --eta, --n, or --all-eta-up-to",
            ),
            (
                ["verify", "--check", "hadamard", "--eta", "2,1", "--n", "4"],
                "check 'hadamard' takes --eta, not --n",
            ),
            (
                ["verify", "--check", "d-equidistribution", "--n", "3", "--eta", "2,1"],
                "check 'd-equidistribution' takes --n, not --eta",
            ),
            (
                ["dist", "--domain", "words", "--eta", "2,1", "--n", "9", "--pair", "maj,des"],
                "domain 'words' takes --eta, not --n",
            ),
            (
                ["dist", "--domain", "B", "--n", "3", "--eta", "2,1", "--pair", "maj,des"],
                "domain 'B' takes --n, not --eta",
            ),
            (["stats", "--signed=-2,1", "--eta", "2,1"], "--signed takes no --eta"),
            (
                ["dist", "--domain", "words", "--n", "3", "--pair", "maj,des"],
                "domain 'words' needs --eta",
            ),
            (
                ["dist", "--domain", "D", "--eta", "2,1", "--pair", "dden,dexc"],
                "domain 'D' needs --n",
            ),
        ],
    )
    def test_refused(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestBudgetSource:
    """A negative MZETA_BUDGET is an input error named with its source, as a
    negative --budget is (the golden corpus pins the flag's bytes); a budget
    of 0 is charged like any other."""

    COMMANDS = [
        ["stats", "--eta", "2,1", "--word", "211"],
        ["dist", "--domain", "words", "--eta", "2,1", "--pair", "maj,des"],
        ["verify", "--check", "hadamard", "--eta", "2,1"],
        ["zeta", "--eta", "2,1", "--q", "2", "--t", "1/8"],
        ["conjecture", "--eta", "2,1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_negative_environment(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MZETA_BUDGET", "-1")
        assert run(capsys, *argv) == (
            2, "", "error: MZETA_BUDGET='-1' is negative; a budget must be 0 or more\n"
        )
        # The flag is the budget's only source when it is given.
        assert run(capsys, *argv, "--budget", "100")[0] == 0

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_zero_from_either_source(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("MZETA_BUDGET", raising=False)
        flag = run(capsys, *argv, "--budget", "0")
        monkeypatch.setenv("MZETA_BUDGET", "0")
        assert run(capsys, *argv) == flag
        # stats is charged nothing; every other command here charges 3.
        assert flag[0] == (0 if argv[0] == "stats" else 3)

    def test_environment_that_is_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("MZETA_BUDGET", "ten")
        assert run(capsys, "zeta", "--eta", "2,1", "--q", "2", "--t", "1/8") == (
            2, "", "error: MZETA_BUDGET='ten' is not an integer\n"
        )


class TestUnprintableSizes:
    """Sizes past the digits str() converts still give the budget error."""

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["dist", "--domain", "B", "--n", "2000", "--pair", "neg,des"], "3.80e6337"),
            (["dist", "--domain", "words", "--eta", ",".join(["1"] * 1700), "--pair", "maj,des"], "2.99e4755"),
        ],
        ids=["B_2000", "words_1^1700"],
    )
    def test_domain_exits_3(self, capsys, argv, size):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: domain of size {size} exceeds the budget of 10000000\n"

    def test_sweep_exits_3(self, capsys):
        argv = ["verify", "--check", "b-equidistribution", "--all-eta-up-to", "1500"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "error: sweep of 1500 targets has total domain size 1.68e4566, "
            "which exceeds the budget of 10000000\n"
        )


class TestZeta:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "zeta", "--eta", "2,1", "--q", "2", "--t", "1/8")
        assert code == 0
        assert out.strip() == "16/3"

    def test_trivial_value(self, capsys):
        code, out, _ = run(capsys, "zeta", "--eta", "3", "--q", "2", "--t", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_series(self, capsys):
        code, out, _ = run(capsys, "zeta", "--eta", "1,1", "--series-terms", "3")
        assert code == 0
        assert out.splitlines() == ["y^0: 1", "y^1: 1 + 2*x", "y^2: 1 + 2*x + 2*x^2"]

    def test_series_json(self, capsys):
        code, out, _ = run(
            capsys, "zeta", "--eta", "1,1", "--series-terms", "2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["series"][1]["coefficient"]["terms"] == [[0, 0, "1"], [1, 0, "2"]]

    def test_pole(self, capsys):
        code, _, err = run(capsys, "zeta", "--eta", "2,1", "--q", "2", "--t", "1/2")
        assert code == 2

    def test_series_terms_charged_to_budget(self, capsys):
        # 100 terms of W_{2,1} pack 100 * 201 slots; the budget covers them.
        argv = ("zeta", "--eta", "2,1", "--series-terms", "100")
        code, out, err = run(capsys, *argv, "--budget", "10")
        assert (code, out) == (3, "")
        assert err == "error: series of 100 terms packs 20100 slots, which exceeds the budget of 10\n"
        assert run(capsys, *argv, "--budget", "20100")[0] == 0

    def test_million_series_terms_exit_3_under_default_budget(self, capsys):
        code, out, err = run(capsys, "zeta", "--eta", "2,1", "--series-terms", "1000000")
        assert (code, out) == (3, "")
        assert err.startswith("error: series of 1000000 terms packs ")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--series-terms", "0"), "--series-terms must be positive"),
            (("--q", "abc", "--t", "1"), "cannot parse rational 'abc'; expected e.g. 2 or 1/8"),
        ],
        ids=["series-terms", "q"],
    )
    def test_flags_are_checked_before_the_numerator(self, capsys, monkeypatch, flags, message):
        # W_{120} takes seconds to build; a bad flag is refused first.
        def no_numerator(eta, *, budget):
            raise AssertionError("zeta built the numerator before checking its flags")

        monkeypatch.setattr(zeta, "w_numerator", no_numerator)
        code, out, err = run(capsys, "zeta", "--eta", "120", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_mode_required(self, capsys):
        code, _, _ = run(capsys, "zeta", "--eta", "2,1")
        assert code == 2
        code, _, _ = run(capsys, "zeta", "--eta", "2,1", "--q", "2")
        assert code == 2


class TestRationalDigitLimit:
    """--q and --t are bounded by the digits str() converts, here 4300; each
    case runs in a subprocess so that an unbounded parse fails the test by
    its timeout instead of hanging it."""

    @staticmethod
    def zeta(q, t="1/8", *flags):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONINTMAXSTRDIGITS="4300")
        done = subprocess.run(
            [sys.executable, "-m", "mzeta", "zeta", "--eta", "2,1", "--q", q, "--t", t, *flags],
            capture_output=True, text=True, env=env, timeout=20,
        )
        return done.returncode, done.stdout, done.stderr

    # (literal, how the refusal names it): quoted up to 80 characters, by
    # its length and first 20 characters past that.
    REFUSED = [
        ("1e4300", "'1e4300'"),
        ("1e5000", "'1e5000'"),
        ("1e-5000", "'1e-5000'"),
        ("1e1000000", "'1e1000000'"),
        ("1e-100000000", "'1e-100000000'"),
        ("1e" + "9" * 5000, "of 5002 characters starting '1e999999999999999999'"),
        ("1" * 4301, "of 4301 characters starting '11111111111111111111'"),
        ("1" * 3000 + "." + "1" * 3000, "of 6001 characters starting '11111111111111111111'"),
        ("1/" + "3" * 4301, "of 4303 characters starting '1/333333333333333333'"),
    ]

    @pytest.mark.parametrize(
        "literal,shown", REFUSED, ids=[text[:12] + f"..({len(text)})" for text, _ in REFUSED]
    )
    def test_refused_before_it_is_expanded(self, literal, shown):
        assert self.zeta(literal) == (
            2, "", f"error: cannot parse rational {shown}; expected e.g. 2 or 1/8\n"
        )

    def test_refusal_quotes_up_to_eighty_characters(self):
        quoted = "1/" + "0" * 78
        assert self.zeta(quoted)[2] == f"error: cannot parse rational {quoted!r}; expected e.g. 2 or 1/8\n"
        assert self.zeta(quoted + "0")[2] == (
            "error: cannot parse rational of 81 characters starting '1/000000000000000000'; "
            "expected e.g. 2 or 1/8\n"
        )

    def test_exponent_notation_within_the_limit(self):
        assert self.zeta("1e3") == self.zeta("1000") == (0, "250252/27124783\n", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_too_long_to_print(self, fmt):
        code, out, err = self.zeta("1e4000", "1/8", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1


class TestConjecture:
    def test_rect(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--rect", "2,1")
        assert code == 0
        assert "verdict: CONSISTENT" in out
        assert "1 + x*y" in out

    def test_eta(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--eta", "2,1")
        assert code == 0
        assert "verdict: CONSISTENT" in out
        assert "none" in out

    def test_rect_four(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--rect", "4,1")
        assert code == 0
        assert "1 + x^2*y" in out

    def test_custom_bounds_json(self, capsys):
        code, out, _ = run(
            capsys,
            "conjecture", "--eta", "2,1",
            "--max-a", "3", "--max-b", "2", "--max-d", "12",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "CONSISTENT"
        assert obj["bounds"] == {"max_a": 3, "max_b": 2, "max_d": 12}
        assert_poly_schema(obj["numerator"])

    def test_huge_max_d_is_bounded(self, capsys):
        # The scan stops at the Newton-polygon bound; the report keeps the bound given.
        code, out, _ = run(capsys, "conjecture", "--eta", "2,1", "--max-d", "3000000")
        assert code == 0
        assert "max_d=3000000" in out
        assert "verdict: CONSISTENT" in out

    def test_directions_past_the_degrees_are_skipped(self, capsys):
        # W_{2,1} has x- and y-degree 2; a million directions would find nothing.
        start = time.perf_counter()
        code, out, _ = run(capsys, "conjecture", "--eta", "2,1", "--max-a", "1000", "--max-b", "1000")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert "(max_a=1000, max_b=1000, max_d=18): none" in out
        assert "verdict: CONSISTENT" in out

    @pytest.mark.parametrize(
        "bounds",
        [("--max-d", "-5"), ("--max-d", "0"), ("--max-a", "-1", "--max-b", "-1"), ("--max-b", "-2")],
    )
    def test_bounds_that_scan_nothing_are_refused(self, capsys, bounds):
        code, out, err = run(capsys, "conjecture", "--eta", "2,2", *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error: scan bounds need max_a >= 0, max_b >= 0 and max_d >= 1")

    def test_more_parts_than_a_tuple_holds_names_the_input(self, capsys):
        r = sys.maxsize + 1
        assert run(capsys, "conjecture", "--rect", f"{r},1") == (
            2, "", f"error: --rect '{r},1' asks for {r} parts; a composition holds at most {r - 1}\n"
        )

    def test_requires_one_target(self, capsys):
        code, _, _ = run(capsys, "conjecture")
        assert code == 2
        code, _, _ = run(capsys, "conjecture", "--eta", "2,1", "--rect", "2,1")
        assert code == 2


class TestFailureExitCodes:
    HUGE = str(10**20)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--eta", HUGE, "--word", "1"],
            ["zeta", "--eta", HUGE, "--q", "2", "--t", "1/3"],
            ["dist", "--domain", "words", "--eta", HUGE, "--pair", "maj,des"],
            ["verify", "--check", "hadamard", "--eta", HUGE],
            ["conjecture", "--rect", "1," + HUGE],
        ],
        ids=["stats", "zeta", "dist", "verify", "conjecture"],
    )
    def test_huge_eta_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert self.HUGE in err

    def test_verify_reports_failure_with_exit_one(self, capsys, monkeypatch):
        # No true identity fails, so inject a failing check to exercise the
        # counterexample path end to end.
        import mzeta.cli as cli
        from mzeta.verify import CheckResult

        def broken(eta, budget):
            return CheckResult(
                "hadamard", f"eta={eta}", passed=False,
                detail="coefficient of x^0*y^1: 2 vs 3",
            )

        monkeypatch.setitem(cli.CHECKS_BY_ETA, "hadamard", broken)
        code, out, _ = run(capsys, "verify", "--check", "hadamard", "--eta", "1,1")
        assert code == 1
        assert "FAIL" in out
        assert "2 vs 3" in out

    def test_conjecture_inconsistent_exit_one(self, capsys, monkeypatch):
        import mzeta.cli as cli
        from mzeta.poly import BiPoly
        from mzeta.zeta import ConjectureReport, ScanBounds

        def forced(eta, *, bounds=None, budget=None, numerator=None):
            return ConjectureReport(
                eta, BiPoly.one(), (1, 2), True, BiPoly.one(),
                False, None, (), False, bounds or ScanBounds(1, 1, 2),
            )

        monkeypatch.setattr(cli.zeta, "conjecture_report", forced)
        code, out, _ = run(capsys, "conjecture", "--rect", "2,1")
        assert code == 1
        assert "INCONSISTENT" in out

    def test_numerator_route_mismatch_exit_four(self, capsys, monkeypatch):
        import mzeta.zeta as zeta
        from mzeta.poly import BiPoly

        monkeypatch.setattr(zeta, "_denh_exc_numerator", lambda eta: BiPoly.one())
        code, out, err = run(capsys, "zeta", "--eta", "2,1", "--q", "2", "--t", "1/8")
        assert code == 4
        assert out == ""
        assert err.startswith("error: numerator mismatch")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind,argv",
        [
            ("B", ["dist", "--domain", "B", "--n", "3", "--pair", "nmaj,ndes"]),
            ("D", ["dist", "--domain", "D", "--n", "3", "--pair", "dden,dexc"]),
            ("B", ["verify", "--check", "b-equidistribution", "--n", "3"]),
            ("D", ["verify", "--check", "d-equidistribution", "--n", "3"]),
        ],
    )
    def test_signed_numerator_mismatch_exit_four(self, capsys, monkeypatch, kind, argv):
        monkeypatch.setattr(zeta, "_laguerre_rows", lambda n, w: [1])
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: type {kind} numerator mismatch")
        assert "Traceback" not in err

    def test_signed_check_compares_with_numerator(self, capsys, monkeypatch):
        from mzeta.poly import BiPoly

        monkeypatch.setattr(zeta, "signed_numerator", lambda kind, n: BiPoly.one())
        code, out, _ = run(capsys, "verify", "--check", "d-equidistribution", "--n", "2")
        assert code == 1
        assert out.startswith(
            "d-equidistribution n=2: FAIL ((dden,dexc) != signed_numerator: coefficient of x^1*y^1: 2 vs 0)"
        )

    # One window, and the enumeration path through the registry's d_kernel,
    # which must still compute nsp by its own pass.
    @pytest.mark.parametrize(
        "args",
        [
            ("stats", "--signed=-2,-1", "--type", "D"),
            ("verify", "--check", "d-equidistribution", "--n", "3"),
            ("dist", "--domain", "D", "--n", "3", "--pair", "nsp,dden"),
        ],
        ids=["stats", "verify", "dist"],
    )
    def test_dden_forms_mismatch_exit_four(self, capsys, monkeypatch, args):
        import mzeta.signed as signed

        monkeypatch.setattr(signed, "_pairs", lambda window: -1)
        code, out, err = run(capsys, *args)
        assert code == 4
        assert out == ""
        assert err.startswith("error: dden mismatch")
        assert "Traceback" not in err


class TestPlantedCheckFaults:
    """Planted wrong results reach the failure details of the hadamard,
    reciprocity and conjecture reports, byte for byte."""

    def test_hadamard_mismatch(self, capsys, monkeypatch):
        from mzeta.poly import UniPoly

        monkeypatch.setattr(
            zeta, "hadamard_check",
            lambda eta, budget: zeta.HadamardResult(False, eta, 4, 2, UniPoly((1, 2)), UniPoly((1, 3))),
        )
        assert run(capsys, "verify", "--check", "hadamard", "--eta", "2,1") == (
            1,
            "hadamard eta=2,1: FAIL (first mismatch at y^2: numerator side 1 + 2*x, "
            "product side 1 + 3*x)\nhadamard: FAILED (1 target(s))\n",
            "",
        )

    def test_reciprocity_of_a_non_rectangle(self, capsys, monkeypatch):
        monkeypatch.setattr(
            zeta, "reciprocity_check", lambda eta, budget: zeta.ReciprocityResult(True, 1, 2, 3)
        )
        assert run(capsys, "verify", "--check", "reciprocity", "--eta", "2,1") == (
            1,
            "reciprocity eta=2,1: FAIL (unexpected functional equation: sign=1, a=2, b=3)\n"
            "reciprocity: FAILED (1 target(s))\n",
            "",
        )

    def test_reciprocity_of_a_rectangle(self, capsys, monkeypatch):
        monkeypatch.setattr(
            zeta, "reciprocity_check", lambda eta, budget: zeta.ReciprocityResult(False)
        )
        assert run(capsys, "verify", "--check", "reciprocity", "--eta", "2,2") == (
            1,
            "reciprocity eta=2,2: FAIL (observed ReciprocityResult(holds=False, sign=None, "
            "x_exponent=None, y_exponent=None), predicted ReciprocityResult(holds=True, "
            "sign=1, x_exponent=2, y_exponent=2))\nreciprocity: FAILED (1 target(s))\n",
            "",
        )

    def test_conjecture_factor_that_does_not_divide(self, capsys, monkeypatch):
        monkeypatch.setattr(zeta, "w_numerator", lambda eta, budget: BiPoly.one())
        assert run(capsys, "conjecture", "--rect", "2,1") == (
            1,
            "eta: 1,1\nrectangle: m=1, r=2\nqualifies (even copies of an odd part): yes\n"
            "predicted factor: 1 + x*y\nfactor divides numerator: NO\n"
            "unitary factors of numerator within bounds (max_a=2, max_b=2, max_d=8): none\n"
            "verdict: INCONSISTENT\n",
            "",
        )

    def test_conjecture_lists_found_factors(self, capsys, monkeypatch):
        binomial = BiPoly({(0, 0): 1, (1, 1): 1})
        monkeypatch.setattr(zeta, "w_numerator", lambda eta, budget: binomial * binomial)
        assert run(capsys, "conjecture", "--rect", "2,1") == (
            1,
            "eta: 1,1\nrectangle: m=1, r=2\nqualifies (even copies of an odd part): yes\n"
            "predicted factor: 1 + x*y\nfactor divides numerator: yes\nresidual: 1 + x*y\n"
            "unitary factors of residual within bounds (max_a=2, max_b=2, max_d=8):\n"
            "  cyclotomic(2) at x^1*y^1: 1 + x*y\nverdict: INCONSISTENT\n",
            "",
        )
        monkeypatch.setattr(zeta, "w_numerator", lambda eta, budget: binomial)
        code, out, err = run(capsys, "conjecture", "--eta", "2,1", "--format", "json")
        expected = {
            "eta": [2, 1],
            "numerator": binomial.to_json_obj(),
            "rectangle": None,
            "qualifies": False,
            "predicted_factor": None,
            "factor_divides": None,
            "residual": None,
            "factors_found": [{"order": 2, "x_power": 1, "y_power": 1, "poly": "1 + x*y"}],
            "bounds": {"max_a": 3, "max_b": 3, "max_d": 18},
            "verdict": "INCONSISTENT",
        }
        assert (code, out, err) == (1, json.dumps(expected, indent=2) + "\n", "")


class TestPlantedLemmaFaults:
    """An off-by-one word statistic or grid count makes the lemma checks fail
    with exit 1 and the first counterexample, in a fixed detail format."""

    @pytest.mark.parametrize(
        "stat,check,detail",
        [
            ("inv", "lemma42", "sigma=(1, 2, 3, 4): |low cells|=0, inversions=1"),
            ("imv", "lemma43", "sigma=(1, 2, 3, 4): |high cells|=0, imv+minus+iexc=1+0+0"),
        ],
    )
    def test_word_side_off_by_one(self, capsys, monkeypatch, stat, check, detail):
        """excedance_parts with its inv or imv one too high."""
        import mzeta.multiset as wd

        real = wd.excedance_parts
        part = {"imv": 0, "inv": 1}[stat]

        def shifted(w, fields):
            out = list(real(w, fields))
            out[part] += 1
            return tuple(out)

        monkeypatch.setattr(wd, "excedance_parts", shifted)
        code, out, err = run(capsys, "verify", "--check", check, "--eta", "2,1,1")
        assert (code, err) == (1, "")
        assert out == f"{check} eta=2,1,1: FAIL ({detail})\n{check}: FAILED (1 target(s))\n"

    def test_row_count_off_by_one(self, capsys, monkeypatch):
        """excedance_parts with every field of its packed u one too high."""
        import mzeta.multiset as wd

        real = wd.excedance_parts

        def shifted(w, fields):
            weak, strict, u, u_inv = real(w, fields)
            return weak, strict, u + fields.up[-1], u_inv

        monkeypatch.setattr(wd, "excedance_parts", shifted)
        code, out, _ = run(capsys, "verify", "--check", "lemma43", "--eta", "1,1")
        assert code == 1
        assert out.startswith(
            "lemma43 eta=1,1: FAIL (sigma=(2, 1), row 2: "
            "m+m+minus+1=1, |u|=2, |u_inv|=1, |row high|=1)\n"
        )


class TestParserReuse:
    """main builds its parser once per process; each call must still behave
    as it does in a fresh process."""

    def test_budget_from_environment_on_every_call(self, capsys, monkeypatch):
        argv = ("dist", "--domain", "words", "--eta", "2,1", "--pair", "denh,exc")
        for budget, expected in (("2", 3), ("3", 0), ("2", 3)):
            monkeypatch.setenv("MZETA_BUDGET", budget)
            code, _, _ = run(capsys, *argv)
            assert code == expected, budget
        monkeypatch.delenv("MZETA_BUDGET")
        assert run(capsys, *argv)[0] == 0

    def test_help_and_usage_error_then_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["verify", "--help"],
            ["stats", "--eta", "2,1"],
            ["stats", "--eta", "2,1", "--word", "211", "--format", "json"],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for argv in sequence:
            code, out, err = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "mzeta.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def readme_commands():
    """(argv, comment) of every `mzeta ...` line in README's command-line block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        if line.startswith("mzeta "):
            command, _, comment = line.partition("#")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


class TestReadmeCommands:
    def test_every_command_parses(self):
        commands = readme_commands()
        assert len(commands) >= 10
        parser = build_parser()
        for argv, _ in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: mzeta {shlex.join(argv)}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--domain", "words", "--eta", "2,1", "--pair", "denh,exc"],
            ["zeta", "--eta", "2,1", "--q", "2", "--t", "1/8"],
        ],
        ids=" ".join,
    )
    def test_output_shown_in_comment(self, capsys, argv):
        comments = {" ".join(a): c for a, c in readme_commands()}
        assert run(capsys, *argv) == (0, comments[" ".join(argv)] + "\n", "")


def test_python_dash_m_matches_in_process(capsys):
    argv = ["stats", "--eta", "2,1", "--word", "211"]
    code, out, err = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = subprocess.run(
        [sys.executable, "-m", "mzeta", *argv], capture_output=True, text=True, env=env
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)
    assert (code, err) == (0, "") and out


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "poly.json"
        code, out, _ = run(
            capsys,
            "dist", "--domain", "words", "--eta", "2,1",
            "--pair", "maj,des", "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert_poly_schema(json.loads(target.read_text()))

    def test_unwritable_out_file(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(
            capsys, "stats", "--eta", "2,1", "--word", "211", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()

    def test_out_replaces_existing_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        code, out, _ = run(capsys, "stats", "--eta", "2,1", "--word", "211", "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text().startswith("des: 1\n")
        assert os.listdir(tmp_path) == ["out.txt"]
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o755], ids=oct)
    def test_out_keeps_mode_of_existing_file(self, capsys, tmp_path, mode):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        target.chmod(mode)
        code, out, _ = run(capsys, "stats", "--eta", "2,1", "--word", "211", "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text().startswith("des: 1\n")
        assert target.stat().st_mode & 0o7777 == mode

    def test_out_follows_symlink(self, capsys, tmp_path):
        real = tmp_path / "data" / "out.txt"
        real.parent.mkdir()
        real.write_text("old\n")
        real.chmod(0o600)
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        code, out, _ = run(capsys, "stats", "--eta", "2,1", "--word", "211", "--out", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text().startswith("des: 1\n")
        assert real.stat().st_mode & 0o7777 == 0o600
        assert sorted(os.listdir(tmp_path)) == ["data", "link.txt"]
        assert os.listdir(real.parent) == ["out.txt"]

    def test_failed_write_leaves_existing_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        real_fdopen = os.fdopen

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:3])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda *a, **k: FullDisk(real_fdopen(*a, **k)))
        code, out, err = run(capsys, "stats", "--eta", "2,1", "--word", "211", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno {errno.ENOSPC}] No space left on device: {str(target)!r}\n"
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_out_writes_into_a_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, "stats", "--eta", "2,1", "--word", "211", "--out", str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert (code, out) == (0, "")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert received[0].startswith("des: 1\n")
        assert os.listdir(tmp_path) == ["pipe"]

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "dist", "--domain", "words", "--eta", "2,2", "--pair", "denh,exc")
        _, out2, _ = run(capsys, "dist", "--domain", "words", "--eta", "2,2", "--pair", "denh,exc")
        assert out1 == out2
