"""The benchmark's workloads and its correctness gate.

A workload turns a seed into a list of ops.  An op is one closed-loop call
into mzeta (a library pipeline or one in-process ``mzeta`` command); the
program sees only the generated inputs.  Each op has a judge that runs after
the pass, outside the timed region.  The judge checks the program's own
verdicts and returns canonical facts; a fact is compared with the committed
reference digest on every seed when its value does not depend on the seed,
and on DEFAULT_SEED only when it does.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

from mzeta import cli, zeta
from mzeta.multiset import Composition
from mzeta.poly import BiPoly

DEFAULT_SEED = 0
DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "reference.json"
FIXTURES = DATA / "numerators.json"

# numerator: every partition of n = 9..10 whose domain has at most
# NUMERATOR_MAX_WORDS words, plus 1^9 (362880 words).  Many mid-sized ops put
# a dense cluster of similar latencies around the median and the tail rank.
# The seed shuffles each partition's part order, so the domain sizes
# (multinomials) are the same on every seed.
NUMERATOR_NS = (9, 10)
NUMERATOR_MAX_WORDS = 20_000
NUMERATOR_SERIES_TERMS = 6
# The op whose spans give the re-anchor sanity row in a traced pass.
SANITY_KEY = "numerator:" + ",".join(["1"] * 9)

# signed: exhaustive signed checks, a fixed set of n = 6 distributions, and
# statistics of seeded windows.
SIGNED_CHECK_RANKS = range(1, 7)
SIGNED_DIST = (
    ("B", "nden,excabs"),
    ("B", "nmaj,ndes"),
    ("B", "fmaj,fdes"),
    ("D", "dden,dexc"),
    ("D", "dmaj,ddes"),
)
SIGNED_DIST_N = 6
SIGNED_WINDOWS = 100

# sweep: every by-eta command on each of the 127 compositions with n <= 7.
SWEEP_MAX_N = 7
SWEEP_CHECKS = (
    "euler-mahonian-a",
    "euler-mahonian-den",
    "hadamard",
    "lemma42",
    "lemma43",
    "reciprocity",
)
SWEEP_SERIES_TERMS = 8
SWEEP_Q, SWEEP_T = "2", "1/7"
SWEEP_STATS = 60  # seeded words, and as many seeded permutations

# algebra: committed numerators with n = 10..12; no enumeration.
ALGEBRA_SERIES_TERMS = 48
ALGEBRA_MAX_D_PER_N2 = 10  # widened from the default 2*n^2, still finite
ALGEBRA_HADAMARD_ETA = (3,) * 8
ALGEBRA_HADAMARD_K = (8, 16, 24, 32)

Q_VALUES = (2, 3, 4, 5, 7, 8, 9)
T_PRIMES = (3, 5, 7, 11, 13)


class Op(NamedTuple):
    key: str
    run: Callable[[], Any]
    # judge(result) -> (problems, facts); a fact is (reference key, value, seeded)
    judge: Callable[[Any], tuple[list[str], list[tuple[str, Any, bool]]]]


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def _csv(parts) -> str:
    return ",".join(map(str, parts))


def _partition_text(parts) -> str:
    return _csv(sorted(parts, reverse=True))


def _pole_free_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """(q, t) with t = 1/p for a prime p not dividing q, so q^j * t != 1."""
    q = rng.choice(Q_VALUES)
    p = rng.choice([p for p in T_PRIMES if q % p])
    return Fraction(q), Fraction(1, p)


def _uni(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


# -- numerator ---------------------------------------------------------------

def _numerator_op(eta: Composition, q: Fraction, t: Fraction) -> Op:
    def run():
        rw = zeta.RationalW.for_composition(eta)
        num = rw.numerator
        return (
            rw,
            zeta.hadamard_check(eta, numerator=num),
            zeta.reciprocity_check(eta, numerator=num),
            zeta.conjecture_report(eta, numerator=num),
            rw.evaluate(q, t),
            rw.series(NUMERATOR_SERIES_TERMS),
        )

    def judge(result):
        rw, had, rec, report, value, series = result
        num = rw.numerator
        problems = []
        if num.evaluate(1, 1) != eta.word_count():
            problems.append(f"numerator(1,1) = {num.evaluate(1, 1)} != word count {eta.word_count()}")
        if not had.ok:
            problems.append(f"hadamard mismatch at y^{had.mismatch_degree}")
        expected = zeta.expected_reciprocity(eta) or zeta.ReciprocityResult(False)
        if rec != expected:
            problems.append(f"reciprocity {rec} != predicted {expected}")
        if not report.consistent:
            problems.append("conjecture report inconsistent")
        # The numerator is symmetric in the parts, so these facts are keyed by
        # the partition and hold on every seed.
        invariant = {
            "numerator": num.to_json_obj(),
            "hadamard": had.ok,
            "reciprocity": [rec.holds, rec.sign, rec.x_exponent, rec.y_exponent],
            "factors": [[u.order, u.x_power, u.y_power] for u in report.factors_found],
            "series": [_uni(p) for p in series],
        }
        return problems, [
            (f"numerator:{_partition_text(eta.parts)}", invariant, False),
            (f"evaluate:{eta}:{q}:{t}", str(value), True),
        ]

    return Op(f"numerator:{eta}", run, judge)


def partitions(n: int, largest: int | None = None):
    """Partitions of n, parts in decreasing order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _multinomial(parts) -> int:
    return math.factorial(sum(parts)) // math.prod(math.factorial(p) for p in parts)


def numerator_partitions() -> list[tuple[int, ...]]:
    chosen = [(1,) * 9]
    for n in NUMERATOR_NS:
        chosen += [p for p in partitions(n) if _multinomial(p) <= NUMERATOR_MAX_WORDS]
    return chosen


def numerator_ops(rng: random.Random) -> list[Op]:
    ops = []
    for parts in numerator_partitions():
        shuffled = list(parts)
        rng.shuffle(shuffled)
        q, t = _pole_free_point(rng)
        ops.append(_numerator_op(Composition(tuple(shuffled)), q, t))
    return ops


# -- CLI workloads -------------------------------------------------------------

def _cli_op(argv: list[str], seeded: bool, extra_check=None) -> Op:
    def run():
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def judge(result):
        rc, out, err = result
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()[:200]}")
        elif extra_check is not None:
            problems.extend(extra_check(out))
        return problems, [("cli:" + " ".join(argv), [rc, out], seeded)]

    return Op("cli:" + " ".join(argv), run, judge)


def _dist_total(size: int):
    def check(out: str) -> list[str]:
        total = sum(int(c) for _, _, c in json.loads(out)["terms"])
        return [] if total == size else [f"coefficients sum to {total}, domain has {size}"]

    return check


def _random_window(rng: random.Random, even: bool) -> list[int]:
    n = rng.randint(3, 8)
    window = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), n)]
    if even and sum(v < 0 for v in window) % 2:
        window[0] = -window[0]
    return window


def signed_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k in SIGNED_CHECK_RANKS:
        for check in ("b-equidistribution", "d-equidistribution"):
            ops.append(_cli_op(["verify", "--check", check, "--n", str(k)], False))
    n = SIGNED_DIST_N
    for domain, pair in SIGNED_DIST:
        size = 2**n * math.factorial(n) // (2 if domain == "D" else 1)
        argv = ["dist", "--domain", domain, "--n", str(n), "--pair", pair, "--format", "json"]
        ops.append(_cli_op(argv, False, _dist_total(size)))
    for _ in range(SIGNED_WINDOWS):
        kind = rng.choice("BD")
        window = _random_window(rng, kind == "D")
        ops.append(_cli_op(["stats", "--signed=" + _csv(window), "--type", kind], True))
    return ops


def compositions(n: int):
    """Compositions of n in lexicographic order of parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def _random_composition(rng: random.Random) -> tuple[int, ...]:
    n = rng.randint(3, 8)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 7))))
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def sweep_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n in range(1, SWEEP_MAX_N + 1):
        for parts in compositions(n):
            e = _csv(parts)
            for check in SWEEP_CHECKS:
                ops.append(_cli_op(["verify", "--check", check, "--eta", e], False))
            ops.append(_cli_op(["conjecture", "--eta", e], False))
            ops.append(_cli_op(["zeta", "--eta", e, "--series-terms", str(SWEEP_SERIES_TERMS)], False))
            ops.append(_cli_op(["zeta", "--eta", e, "--q", SWEEP_Q, "--t", SWEEP_T], False))
    for _ in range(SWEEP_STATS):
        parts = _random_composition(rng)
        word = [k for k, p in enumerate(parts, start=1) for _ in range(p)]
        rng.shuffle(word)
        argv = ["stats", "--eta", _csv(parts), "--word", "".join(map(str, word)), "--verbose"]
        ops.append(_cli_op(argv, True))
    for _ in range(SWEEP_STATS):
        parts = _random_composition(rng)
        perm = rng.sample(range(1, sum(parts) + 1), sum(parts))
        argv = ["stats", "--eta", _csv(parts), "--perm", _csv(perm), "--verbose"]
        ops.append(_cli_op(argv, True))
    return ops


# -- algebra ------------------------------------------------------------------

def load_fixtures() -> list[tuple[Composition, BiPoly]]:
    """The committed numerators, each checked against its digest and its size."""
    with open(FIXTURES, encoding="utf-8") as fh:
        entries = json.load(fh)["numerators"]
    out = []
    for entry in entries:
        eta = Composition(tuple(entry["eta"]))
        if digest(entry["numerator"]) != entry["digest"]:
            raise ValueError(f"fixture for eta={eta} does not match its digest")
        num = BiPoly.from_json_obj(entry["numerator"])
        if num.evaluate(1, 1) != eta.word_count():
            raise ValueError(f"fixture for eta={eta} does not count {eta.word_count()} words")
        out.append((eta, num))
    return out


def _series_at_one(eta: Composition, k: int) -> int:
    """Coefficient of y^k in W_eta(1, y).

    By MacMahon, W_eta(x, y) / (1 - x^n y) has y^k coefficient the product of
    Gaussian binomials (part + k choose k)_x; at x = 1 these are binomials.
    """
    def product(j: int) -> int:
        return math.prod(math.comb(p + j, j) for p in eta.parts) if j >= 0 else 0

    return product(k) - product(k - 1)


def algebra_ops(rng: random.Random, fixtures) -> list[Op]:
    ops = []
    for eta, num in fixtures:
        n = eta.n
        rw = zeta.RationalW(num, tuple(range(n)))
        bounds = zeta.ScanBounds(n, n, ALGEBRA_MAX_D_PER_N2 * n * n)

        def conj_judge(report, eta=eta, bounds=bounds):
            problems = [] if report.consistent else ["conjecture report inconsistent"]
            value = {
                "qualifies": report.qualifies,
                "factor_divides": report.factor_divides,
                "factors": [[u.order, u.x_power, u.y_power] for u in report.factors_found],
                "residual": report.residual.to_json_obj() if report.residual is not None else None,
            }
            return problems, [(f"conjecture:{eta}:{bounds.max_d}", value, False)]

        def series_judge(series, eta=eta):
            problems = [
                f"series y^{k} at x=1 is {p.evaluate(1)}, expected {_series_at_one(eta, k)}"
                for k, p in enumerate(series)
                if p.evaluate(1) != _series_at_one(eta, k)
            ]
            return problems, [(f"series:{eta}:{len(series)}", [_uni(p) for p in series], False)]

        def hadamard_judge(result, eta=eta):
            problems = [] if result.ok else [f"hadamard mismatch at y^{result.mismatch_degree}"]
            return problems, [(f"hadamard:{eta}", [result.ok, result.truncation], False)]

        q, t = _pole_free_point(rng)

        def evaluate_judge(value, eta=eta, q=q, t=t):
            return [], [(f"evaluate:{eta}:{q}:{t}", str(value), True)]

        ops += [
            Op(
                f"conjecture:{eta}",
                lambda eta=eta, num=num, b=bounds: zeta.conjecture_report(eta, bounds=b, numerator=num),
                conj_judge,
            ),
            Op(f"series:{eta}", lambda rw=rw: rw.series(ALGEBRA_SERIES_TERMS), series_judge),
            Op(f"hadamard:{eta}", lambda eta=eta, num=num: zeta.hadamard_check(eta, numerator=num), hadamard_judge),
            Op(f"evaluate:{eta}", lambda rw=rw, q=q, t=t: rw.evaluate(q, t), evaluate_judge),
        ]
    big = Composition(ALGEBRA_HADAMARD_ETA)
    for k in ALGEBRA_HADAMARD_K:
        def hsc_judge(poly, k=k):
            expected = math.comb(ALGEBRA_HADAMARD_ETA[0] + k, k) ** len(ALGEBRA_HADAMARD_ETA)
            problems = []
            if poly.evaluate(1) != expected:
                problems.append(f"coefficient of y^{k} at x=1 is {poly.evaluate(1)}, expected {expected}")
            if not poly.is_palindromic():
                problems.append(f"coefficient of y^{k} is not palindromic")
            return problems, [(f"hadamard_series_coefficient:{big}:{k}", _uni(poly), False)]

        ops.append(Op(f"hsc:{big}:{k}", lambda k=k: zeta.hadamard_series_coefficient(big, k), hsc_judge))
    return ops


WORKLOADS = ("numerator", "signed", "sweep", "algebra")


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "numerator":
        return numerator_ops(rng)
    if workload == "signed":
        return signed_ops(rng)
    if workload == "sweep":
        return sweep_ops(rng)
    if workload == "algebra":
        return algebra_ops(rng, load_fixtures())
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def pass_order(workload: str, seed: int, pass_index: int, n_ops: int) -> list[int]:
    """The order in which one pass runs the ops, drawn from the seed and the
    pass index.  Ops share mzeta's caches, so the first op to need an entry
    pays for it; a new order in every pass lets each op's mean latency over
    a run's passes average over several positions."""
    order = list(range(n_ops))
    random.Random(f"{workload}:{seed}:pass{pass_index}").shuffle(order)
    return order


def load_reference() -> dict[str, dict[str, str]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def judge(op: Op, outcome, reference: dict[str, str] | None, seed: int) -> tuple[list[str], dict[str, str]]:
    """Problems with one op's outcome, and the digests of its facts.

    outcome is ("ok", result) or ("error", message).  A fact with no committed
    reference is a problem: the gate never passes an output it cannot check.
    With reference None only the verdicts are checked (to make the reference).
    """
    status, result = outcome
    if status == "error":
        return [f"raised {result}"], {}
    try:
        problems, facts = op.judge(result)
    except Exception as exc:  # a malformed result must fail the op, not the run
        return [f"unjudgeable result: {exc!r}"], {}
    digests = {}
    for key, value, seeded in facts:
        got = digest(value)
        digests[key] = got
        if reference is None or (seeded and seed != DEFAULT_SEED):
            continue
        want = reference.get(key)
        if want != got:
            problems.append(f"{key}: digest {got} != reference {want}")
    return problems, digests
