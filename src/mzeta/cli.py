"""
Command-line front end.

Subcommands: stats (statistics of a single word, permutation, or signed
window), dist (joint distribution polynomials), verify (exhaustive identity
sweeps), zeta (evaluate or expand the rational form), and conjecture (the
unitary-factor report).  Results go to stdout (or --out), diagnostics to
stderr.  Exit codes: 0 success, 1 a verified identity or conjecture check
failed, 2 usage, input or output error (such as an unwritable --out file),
3 enumeration budget exceeded (for a verify sweep, the summed domain size of
all its targets), 4 an internal invariant failed (two independent
computations disagreed, which means a bug).  --out is written atomically: a
temporary file in the same directory replaces FILE only once it is complete.
A FILE that exists and is not a regular file (a FIFO, a device) is written
directly instead.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import stat
import sys
import tempfile
from fractions import Fraction
from typing import Sequence

from . import admissible as adm
from . import signed
from . import verify
from . import multiset as wd
from . import zeta
from .multiset import Composition
from .poly import BiPoly

CHECKS_BY_ETA = {
    "euler-mahonian-a": verify.check_euler_mahonian_words,
    "euler-mahonian-den": verify.check_euler_mahonian_den,
    "lemma42": verify.check_nonexceeding_inversions,
    "lemma43": verify.check_exceeding_weak_inversions,
    "hadamard": verify.check_hadamard,
    "reciprocity": verify.check_reciprocity,
}

CHECKS_BY_N = {
    "b-equidistribution": verify.check_b_equidistribution,
    "d-equidistribution": verify.check_d_equidistribution,
}


def parse_eta(text: str) -> Composition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse composition {text!r}; expected e.g. 3,2,2,3")
    return Composition(parts)


def parse_sequence(text: str, *, allow_negative: bool = False) -> tuple[int, ...]:
    """Comma-separated entries, or a bare digit string for single-digit letters."""
    if "," in text or (allow_negative and "-" in text):
        try:
            return tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse sequence {text!r}")
    if text.isdigit():
        seq = tuple(int(ch) for ch in text)
        if 0 in seq:
            raise ValueError(f"letter 0 in {text!r}; entries must be positive")
        return seq
    raise ValueError(f"cannot parse sequence {text!r}; use comma-separated integers")


def parse_rational(text: str) -> Fraction:
    """The rational of text, such as 2, 1/8, 0.25 or 1e3.  An exponent past
    sys.get_int_max_str_digits(), the most digits str() converts, is refused
    before Fraction() expands it, and so is a numerator or denominator with
    more digits than that (a limit of 0 bounds neither).  The refusal quotes
    a literal of up to 80 characters and names a longer one by its length
    and its first 20 characters."""
    limit = sys.get_int_max_str_digits()
    try:
        _, exponent, power = text.lower().partition("e")
        if limit and exponent and abs(int(power)) > limit:
            raise ValueError
        value = Fraction(text)
        str(value)  # raises ValueError past the limit
        return value
    except (ValueError, ZeroDivisionError):
        shown = repr(text) if len(text) <= 80 else f"of {len(text)} characters starting {text[:20]!r}"
        raise ValueError(f"cannot parse rational {shown}; expected e.g. 2 or 1/8")


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory and
    os.replace, so a failed write leaves an existing file untouched.

    A symlink at path is followed: the file it points to is replaced and the
    link stays.  A replaced file keeps its permission bits; a new file gets
    the mode a plain open(path, "w") gives it.  Other hard links to a
    replaced file keep its old contents.  A target that exists and is not a
    regular file (a FIFO, a character device) is opened and written
    directly, never replaced.  Errors are reported against path, not the
    temporary name.
    """
    target = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=f".{os.path.basename(target)}.", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(text)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, target)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        _write_atomic(args.out, text + "\n")
    else:
        print(text)


def _emit_json(args: argparse.Namespace, obj) -> None:
    _emit(args, json.dumps(obj, indent=2))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return "; ".join(",".join(str(v) for v in cell) for cell in value)
        return ",".join(str(v) for v in value) or "-"
    return str(value)


def _stats_for_word(eta: Composition, w: tuple[int, ...], verbose: bool) -> dict:
    w = wd.check_word(w, eta)
    des, maj = wd.descent_stats(w)
    exc, denh = wd.excedance_stats(w, eta.trivial_word)
    out: dict = {"des": des, "maj": maj, "exc": exc, "denh": denh}
    if verbose:
        exceeding = wd.exceeding_subword(w, eta)
        rest = wd.nonexceeding_subword(w, eta)
        positions = sorted(wd.exc_set(w, eta))
        out["Des"] = sorted(wd.descent_set(w))
        out["Exc"] = positions
        out["E"] = list(exceeding)
        out["N"] = list(rest)
        out["exc_sum"] = sum(positions)
        out["imv_E"] = wd.imv(exceeding)
        out["inv_N"] = wd.inv(rest)
    return out


def _stats_for_perm(eta: Composition, perm: tuple[int, ...], verbose: bool) -> dict:
    perm = adm.check_permutation_of(eta, perm)
    admissible = adm.is_admissible(eta, perm)
    den, col_sum, exceed, plus, minus = adm.block_grid_counts(perm, adm.column_masks(eta))
    out: dict = {
        "is_admissible": admissible,
        "i_sum": col_sum,
        "iexc": exceed,
        "n_plus": plus,
        "n_minus": minus,
    }
    if admissible:
        out["den"] = den
    if verbose:
        out["I"] = sorted(j for _, j in adm.i_set(eta, perm))
        out["projected_inverse"] = list(adm.project_perm(eta, wd.inverse(perm)))
        out["N_plus_cells"] = [list(c) for c in sorted(adm.n_plus_set(eta, perm))]
        out["N_minus_cells"] = [list(c) for c in sorted(adm.n_minus_set(eta, perm))]
    return out


def _stats_for_signed(window: tuple[int, ...], kind: str, verbose: bool) -> dict:
    window = signed.check_window(window)
    out: dict = zeta.window_stats(kind, window)
    if verbose:
        out["abs"] = list(signed.abs_window(window))
    return out


def cmd_stats(args: argparse.Namespace) -> int:
    if args.word is not None or args.perm is not None:
        if args.eta is None:
            raise ValueError("--word/--perm need --eta")
        eta = parse_eta(args.eta)
        if args.word is not None:
            table = _stats_for_word(eta, parse_sequence(args.word), args.verbose)
        else:
            table = _stats_for_perm(eta, parse_sequence(args.perm), args.verbose)
    else:
        if args.eta is not None:
            raise ValueError("--signed takes no --eta")
        window = parse_sequence(args.signed, allow_negative=True)
        table = _stats_for_signed(window, args.type, args.verbose)
    if args.stat:
        wanted = [s.strip() for s in args.stat.split(",")]
        missing = [s for s in wanted if s not in table]
        if missing:
            raise ValueError(
                f"statistic(s) {', '.join(missing)} unavailable for this input"
            )
        table = {k: table[k] for k in wanted}
    if args.format == "json":
        _emit_json(args, table)
    else:
        _emit(args, "\n".join(f"{k}: {_format_value(v)}" for k, v in table.items()))
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    pair = tuple(s.strip() for s in args.pair.split(","))
    if len(pair) != 2:
        raise ValueError(f"--pair needs two statistic names, got {args.pair!r}")
    if args.domain in ("words", "admissible"):
        if args.eta is None:
            raise ValueError(f"domain {args.domain!r} needs --eta")
        if args.n is not None:
            raise ValueError(f"domain {args.domain!r} takes --eta, not --n")
        poly = zeta.distribution(args.domain, pair, eta=parse_eta(args.eta), budget=args.budget)
    else:
        if args.n is None:
            raise ValueError(f"domain {args.domain!r} needs --n")
        if args.eta is not None:
            raise ValueError(f"domain {args.domain!r} takes --n, not --eta")
        poly = zeta.distribution(args.domain, pair, n=args.n, budget=args.budget)
    if args.format == "json":
        _emit_json(args, poly.to_json_obj())
    else:
        _emit(args, str(poly))
    return 0


def _verify_targets(args: argparse.Namespace):
    by_eta = args.check in CHECKS_BY_ETA
    if args.eta is not None and not by_eta:
        raise ValueError(f"check {args.check!r} takes --n, not --eta")
    if args.n is not None and by_eta:
        raise ValueError(f"check {args.check!r} takes --eta, not --n")
    n_max = args.all_eta_up_to
    if sum(v is not None for v in (args.eta, args.n, n_max)) > 1:
        raise ValueError("choose one target, not several: --eta, --n, or --all-eta-up-to")
    if args.eta is not None:
        return [parse_eta(args.eta)]
    if args.n is not None:
        return [args.n]
    if n_max is not None:
        if n_max < 1:
            raise ValueError("--all-eta-up-to must be >= 1")
        # A sweep is bounded as a whole, before any target is listed or runs.
        count, total = verify.sweep_size(args.check, n_max)
        if count > 1:
            what = f"sweep of {zeta.format_count(count)} targets has total domain size {{}}, which"
            zeta._check_budget(total, args.budget, what)
        if by_eta:
            return list(verify.compositions_up_to(n_max))
        # For the signed-group checks the composition is irrelevant; sweep n.
        return list(range(1, n_max + 1))
    raise ValueError("choose a target: --eta, --n, or --all-eta-up-to")


def cmd_verify(args: argparse.Namespace) -> int:
    fn = CHECKS_BY_ETA.get(args.check) or CHECKS_BY_N[args.check]
    results = [fn(target, args.budget) for target in _verify_targets(args)]
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json(
            args,
            {
                "check": args.check,
                "passed": all_passed,
                "results": [
                    {k: v for k, v in dataclasses.asdict(r).items() if k != "check"}
                    for r in results
                ],
            },
        )
    else:
        lines = [r.line() for r in results]
        lines.append(
            f"{args.check}: {'all passed' if all_passed else 'FAILED'} "
            f"({len(results)} target(s))"
        )
        _emit(args, "\n".join(lines))
    return 0 if all_passed else 1


def cmd_zeta(args: argparse.Namespace) -> int:
    eta = parse_eta(args.eta)
    value_mode = args.q is not None or args.t is not None
    if value_mode and (args.q is None or args.t is None):
        raise ValueError("--q and --t go together")
    if value_mode == (args.series_terms is not None):
        raise ValueError("choose either --q/--t or --series-terms")
    rational = zeta.RationalW.for_composition(eta, budget=args.budget)
    if value_mode:
        value = rational.evaluate(parse_rational(args.q), parse_rational(args.t))
        if args.format == "json":
            _emit_json(args, {"eta": list(eta.parts), "q": args.q, "t": args.t, "value": str(value)})
        else:
            _emit(args, str(value))
        return 0
    if args.series_terms < 1:
        raise ValueError("--series-terms must be positive")
    series = rational.series(args.series_terms, budget=args.budget)
    if args.format == "json":
        _emit_json(
            args,
            {
                "eta": list(eta.parts),
                "series": [
                    {"power": k, "coefficient": BiPoly.from_y_coefficients({0: p}).to_json_obj()}
                    for k, p in enumerate(series)
                ],
            },
        )
    else:
        _emit(args, "\n".join(f"y^{k}: {p}" for k, p in enumerate(series)))
    return 0


def cmd_conjecture(args: argparse.Namespace) -> int:
    if (args.eta is None) == (args.rect is None):
        raise ValueError("choose exactly one of --eta or --rect")
    if args.rect is not None:
        try:
            r, m = (int(p) for p in args.rect.split(","))
        except ValueError:
            raise ValueError(f"cannot parse --rect {args.rect!r}; expected r,m")
        if r < 1 or m < 1:
            raise ValueError("--rect needs positive r,m")
        if r > sys.maxsize:
            raise ValueError(
                f"--rect {args.rect!r} asks for {r} parts; a composition holds at most {sys.maxsize}"
            )
        eta = Composition((m,) * r)
    else:
        eta = parse_eta(args.eta)
    bounds = zeta.default_bounds(eta.n)
    bounds = zeta.ScanBounds(
        max_a=args.max_a if args.max_a is not None else bounds.max_a,
        max_b=args.max_b if args.max_b is not None else bounds.max_b,
        max_d=args.max_d if args.max_d is not None else bounds.max_d,
    )
    report = zeta.conjecture_report(eta, bounds=bounds, budget=args.budget)
    found = [
        {"order": u.order, "x_power": u.x_power, "y_power": u.y_power, "poly": str(u.poly)}
        for u in report.factors_found
    ]
    if args.format == "json":
        _emit_json(
            args,
            {
                "eta": list(eta.parts),
                "numerator": report.numerator.to_json_obj(),
                "rectangle": list(report.rectangle) if report.rectangle else None,
                "qualifies": report.qualifies,
                "predicted_factor": str(report.predicted_factor) if report.predicted_factor else None,
                "factor_divides": report.factor_divides,
                "residual": report.residual.to_json_obj() if report.residual is not None else None,
                "factors_found": found,
                "bounds": bounds._asdict(),
                "verdict": "CONSISTENT" if report.consistent else "INCONSISTENT",
            },
        )
    else:
        lines = [f"eta: {eta}"]
        if report.rectangle:
            m, r = report.rectangle
            lines.append(f"rectangle: m={m}, r={r}")
        else:
            lines.append("rectangle: no")
        lines.append(f"qualifies (even copies of an odd part): {'yes' if report.qualifies else 'no'}")
        if report.qualifies:
            lines.append(f"predicted factor: {report.predicted_factor}")
            lines.append(f"factor divides numerator: {'yes' if report.factor_divides else 'NO'}")
            if report.residual is not None:
                lines.append(f"residual: {report.residual}")
        scanned = "residual" if report.qualifies and report.factor_divides else "numerator"
        within = f"max_a={bounds.max_a}, max_b={bounds.max_b}, max_d={bounds.max_d}"
        if found:
            lines.append(f"unitary factors of {scanned} within bounds ({within}):")
            lines.extend(f"  {u.describe()}" for u in report.factors_found)
        else:
            lines.append(f"unitary factors of {scanned} within bounds ({within}): none")
        lines.append(f"verdict: {'CONSISTENT' if report.consistent else 'INCONSISTENT'}")
        _emit(args, "\n".join(lines))
    return 0 if report.consistent else 1


def _resolve_budget(flag: int | None) -> int:
    """--budget, else MZETA_BUDGET, else the default; a negative budget is an
    input error that names its source."""
    if flag is not None:
        budget, source = flag, f"--budget {flag}"
    else:
        raw = os.environ.get("MZETA_BUDGET")
        if raw is None:
            return zeta.DEFAULT_BUDGET
        try:
            budget, source = int(raw), f"MZETA_BUDGET={raw!r}"
        except ValueError:
            raise ValueError(f"MZETA_BUDGET={raw!r} is not an integer")
    if budget < 0:
        raise ValueError(f"{source} is negative; a budget must be 0 or more")
    return budget


# Usage and help text wrap at 80 columns, whatever COLUMNS or the terminal
# says, so the CLI's output is the same everywhere.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=80 - 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzeta",
        formatter_class=_FORMATTER,
        description=(
            "Exact statistics on multiset, admissible, and signed permutations; "
            "genus zeta numerators; and verification of the identities they satisfy."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        help="maximum number of enumerated objects (default 10^7, or MZETA_BUDGET)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[common], formatter_class=_FORMATTER)

    p = add_parser("stats", help="statistics of one object")
    p.add_argument("--eta", help="composition, e.g. 3,2,2,3")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="multiset word, e.g. 4232314141 or 4,2,3,...")
    group.add_argument("--perm", help="permutation in one-line form, e.g. 6,8,10,2,4,3,5,1,7,9")
    group.add_argument("--signed", help="signed window, e.g. -2,1")
    p.add_argument("--type", choices=("B", "D"), default="B", help="signed family (default B)")
    p.add_argument("--stat", help="comma-separated subset of statistics to print")
    p.add_argument("--verbose", action="store_true", help="include intermediate sets")
    p.set_defaults(func=cmd_stats)

    p = add_parser("dist", help="joint distribution polynomial")
    p.add_argument("--domain", choices=zeta.DOMAINS, required=True)
    p.add_argument("--eta", help="composition for words/admissible domains")
    p.add_argument("--n", type=int, help="rank for the B/D domains")
    p.add_argument("--pair", required=True, help="statistic pair, e.g. denh,exc")
    p.set_defaults(func=cmd_dist)

    p = add_parser("verify", help="exhaustive identity checks")
    p.add_argument(
        "--check",
        required=True,
        choices=sorted(CHECKS_BY_ETA) + sorted(CHECKS_BY_N),
    )
    p.add_argument("--eta", help="single composition target")
    p.add_argument("--n", type=int, help="single rank target (signed checks)")
    p.add_argument(
        "--all-eta-up-to",
        type=int,
        metavar="N",
        help="sweep every composition of every n <= N (signed checks: every n <= N)",
    )
    p.set_defaults(func=cmd_verify)

    p = add_parser("zeta", help="evaluate or expand the rational form")
    p.add_argument("--eta", required=True)
    p.add_argument("--q", help="rational value for x, e.g. 2")
    p.add_argument("--t", help="rational value for y, e.g. 1/8")
    p.add_argument("--series-terms", type=int, help="print the first K y-series coefficients")
    p.set_defaults(func=cmd_zeta)

    p = add_parser("conjecture", help="unitary-factor report")
    p.add_argument("--eta", help="composition, e.g. 2,1")
    p.add_argument("--rect", metavar="R,M", help="rectangle with r copies of m")
    p.add_argument("--max-a", type=int, help="bound on the x-power of scan directions")
    p.add_argument("--max-b", type=int, help="bound on the y-power of scan directions")
    p.add_argument("--max-d", type=int, help="bound on the cyclotomic index")
    p.set_defaults(func=cmd_conjecture)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args leaves the parser as it
    found it, and building one costs about a millisecond."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.budget = _resolve_budget(args.budget)
        return args.func(args)
    except (
        zeta.BudgetError, zeta.InvariantError, ValueError, ZeroDivisionError, OverflowError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, zeta.BudgetError):
            return 3
        return 4 if isinstance(exc, zeta.InvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
