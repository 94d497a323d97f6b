"""The CLI's stdout, stderr and exit code on a fixed corpus of commands, byte
for byte against tests/data/cli_golden.json.

The corpus covers every subcommand in text and JSON, one dist pair per
statistic kernel family in each domain, stats --verbose on every kind of
input, each verify check on one small target, and the error messages for
unknown statistics and wrong domains.  Regenerate the golden file only when
an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from mzeta.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

WORD = ["--eta", "3,2,2,3", "--word", "4232314141"]
PERM = ["--eta", "3,2,2,3", "--perm", "6,8,10,2,4,3,5,1,7,9"]


def _both_formats(*argv):
    return [list(argv), list(argv) + ["--format", "json"]]


CORPUS = [
    *_both_formats("stats", *WORD),
    *_both_formats("stats", *WORD, "--verbose"),
    ["stats", *WORD, "--stat", "denh,exc"],
    *_both_formats("stats", *PERM),
    *_both_formats("stats", *PERM, "--verbose"),
    ["stats", "--eta", "2,1", "--perm", "3,2,1", "--verbose"],
    *_both_formats("stats", "--signed=-2,1"),
    ["stats", "--signed", "3,-1,-2,4", "--verbose"],
    *_both_formats("stats", "--signed", "3,-1,-2,4", "--type", "D", "--verbose"),
    ["stats", "--signed=-3,1,-2", "--type", "D", "--stat", "dden,nsp,nden,excabs"],
    # words: descent, excedance and the two inversion counts, plus mixed pairs.
    *_both_formats("dist", "--domain", "words", "--eta", "2,1,2", "--pair", "maj,des"),
    ["dist", "--domain", "words", "--eta", "2,1,2", "--pair", "denh,exc"],
    ["dist", "--domain", "words", "--eta", "2,1,2", "--pair", "inv,imv"],
    ["dist", "--domain", "words", "--eta", "2,1,2", "--pair", "imv,imv"],
    ["dist", "--domain", "words", "--eta", "2,1,2", "--pair", "exc,maj"],
    # admissible: the grid kernel, both orders and with itself.
    *_both_formats("dist", "--domain", "admissible", "--eta", "2,1,2", "--pair", "den,iexc"),
    ["dist", "--domain", "admissible", "--eta", "1,3,1", "--pair", "iexc,den"],
    ["dist", "--domain", "admissible", "--eta", "1,3,1", "--pair", "den,den"],
    # B: descent, negative/flag and absolute excedance families.
    *_both_formats("dist", "--domain", "B", "--n", "3", "--pair", "nmaj,ndes"),
    ["dist", "--domain", "B", "--n", "3", "--pair", "fmaj,fdes"],
    ["dist", "--domain", "B", "--n", "3", "--pair", "nden,excabs"],
    ["dist", "--domain", "B", "--n", "3", "--pair", "maj,des"],
    ["dist", "--domain", "B", "--n", "3", "--pair", "neg,nden"],
    # D: the even-signed family, and B families on even-signed windows.
    *_both_formats("dist", "--domain", "D", "--n", "4", "--pair", "dden,dexc"),
    ["dist", "--domain", "D", "--n", "4", "--pair", "dmaj,ddes"],
    ["dist", "--domain", "D", "--n", "4", "--pair", "nsp,dneg"],
    ["dist", "--domain", "D", "--n", "4", "--pair", "nden,excabs"],
    ["dist", "--domain", "D", "--n", "4", "--pair", "des,dden"],
    *_both_formats("verify", "--check", "euler-mahonian-a", "--eta", "2,1,2"),
    ["verify", "--check", "euler-mahonian-den", "--eta", "2,1,2"],
    *_both_formats("verify", "--check", "lemma42", "--eta", "2,1,2"),
    ["verify", "--check", "lemma43", "--eta", "2,1,2"],
    ["verify", "--check", "lemma43", "--all-eta-up-to", "3"],
    ["verify", "--check", "hadamard", "--eta", "2,1,2"],
    *_both_formats("verify", "--check", "reciprocity", "--eta", "2,1,2"),
    ["verify", "--check", "reciprocity", "--eta", "2,2"],
    ["verify", "--check", "b-equidistribution", "--n", "3"],
    *_both_formats("verify", "--check", "d-equidistribution", "--n", "3"),
    *_both_formats("zeta", "--eta", "2,1", "--q", "2", "--t", "1/8"),
    *_both_formats("zeta", "--eta", "2,1", "--series-terms", "4"),
    *_both_formats("conjecture", "--eta", "2,1"),
    *_both_formats("conjecture", "--rect", "2,1"),
    # Errors: unknown statistic, statistic of another domain, wrong target.
    ["dist", "--domain", "words", "--eta", "2,1", "--pair", "denh,dden"],
    ["dist", "--domain", "admissible", "--eta", "2,1", "--pair", "den,maj"],
    ["dist", "--domain", "B", "--n", "2", "--pair", "dden,dexc"],
    ["dist", "--domain", "words", "--n", "3", "--pair", "maj,des"],
    ["dist", "--domain", "D", "--eta", "2,1", "--pair", "dden,dexc"],
    ["dist", "--domain", "E", "--n", "2", "--pair", "maj,des"],
    ["verify", "--check", "lemma42", "--n", "3"],
    ["verify", "--check", "d-equidistribution", "--eta", "2,1"],
    ["dist", "--domain", "B", "--n", "4", "--pair", "maj,des", "--budget", "10"],
    # Pairs served by a numerator route: edge sizes, JSON, and the budget
    # charge, which stays the domain size.
    ["dist", "--domain", "B", "--n", "1", "--pair", "fmaj,fdes"],
    ["dist", "--domain", "D", "--n", "1", "--pair", "dmaj,ddes"],
    ["dist", "--domain", "D", "--n", "2", "--pair", "dden,dexc", "--format", "json"],
    ["dist", "--domain", "B", "--n", "0", "--pair", "nmaj,ndes"],
    ["dist", "--domain", "B", "--n", "7", "--pair", "nden,excabs", "--budget", "10"],
    ["dist", "--domain", "admissible", "--eta", "1,1,2", "--pair", "den,iexc", "--format", "json"],
    ["dist", "--domain", "D", "--n", "-2", "--pair", "dden,dexc"],
    # The series is charged its packed slot count (100 terms, span 201).
    ["zeta", "--eta", "2,1", "--series-terms", "100", "--budget", "10"],
    # A target flag the command does not use is refused, not ignored.
    ["verify", "--check", "hadamard", "--eta", "2,1", "--all-eta-up-to", "3"],
    ["verify", "--check", "hadamard", "--eta", "2,1", "--n", "4"],
    ["dist", "--domain", "words", "--eta", "2,1", "--n", "9", "--pair", "maj,des"],
    ["dist", "--domain", "B", "--n", "3", "--eta", "2,1", "--pair", "maj,des"],
    ["stats", "--signed=-2,1", "--eta", "2,1"],
    # A negative budget is an input error; a budget of 0 charges as usual.
    *[
        [*argv, "--budget", budget]
        for argv in (
            ["stats", "--eta", "2,1", "--word", "211"],
            ["dist", "--domain", "words", "--eta", "2,1", "--pair", "maj,des"],
            ["verify", "--check", "hadamard", "--eta", "2,1"],
            ["zeta", "--eta", "2,1", "--q", "2", "--t", "1/8"],
            ["conjecture", "--eta", "2,1"],
        )
        for budget in ("-1", "0")
    ],
    # Input errors: --rect that does not parse or cannot be built, a --pair
    # that is not a pair, no series terms, no verify target.
    ["conjecture", "--rect", "2"],
    ["conjecture", "--rect", "2,x"],
    ["conjecture", "--rect", "0,2"],
    ["conjecture", "--rect", "100000000000000000000,2"],
    ["dist", "--domain", "words", "--eta", "2,1", "--pair", "maj"],
    ["dist", "--domain", "words", "--eta", "2,1", "--pair", "maj,des,exc"],
    ["zeta", "--eta", "2,1", "--series-terms", "0"],
    ["verify", "--check", "hadamard"],
    # stats input errors: a word that does not parse, a permutation of the
    # wrong length, and a sequence that is not a permutation.
    ["stats", "--eta", "2,1", "--word", "abc"],
    ["stats", "--eta", "2,1", "--perm", "1,2"],
    ["stats", "--eta", "2,1", "--perm", "1,1,2"],
    # Exact evaluation at a rational q, a negative t, q = 0, and a pole.
    ["zeta", "--eta", "2,1", "--q", "3/2", "--t=-1/5"],
    ["zeta", "--eta", "3,2", "--q=-2/3", "--t", "7/4", "--format", "json"],
    ["zeta", "--eta", "2,2", "--q", "1/2", "--t", "2"],
    ["zeta", "--eta", "2,1", "--q", "0", "--t", "5"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden():
    return {" ".join(e["argv"]): e for e in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_file_covers_corpus():
    assert list(_golden()) == [" ".join(argv) for argv in CORPUS]


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_output_matches_golden(argv):
    assert run(argv) == _golden()[" ".join(argv)]


def test_output_does_not_depend_on_terminal_width(monkeypatch):
    # argparse wraps usage to COLUMNS unless the width is pinned.
    monkeypatch.setenv("COLUMNS", "400")
    argv = ["dist", "--domain", "E", "--n", "2", "--pair", "maj,des"]
    assert run(argv) == _golden()[" ".join(argv)]


def test_corpus_replayed_in_one_process():
    # main keeps one parser per process: a second pass over the whole corpus
    # must not see anything the first pass left behind.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for _ in range(2):
        assert [run(argv) for argv in CORPUS] == golden


if __name__ == "__main__":
    entries = [run(argv) for argv in CORPUS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
