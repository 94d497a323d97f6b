"""Regenerate the benchmark's committed data from the current mzeta sources.

    python3 perfbench/make_reference.py

Writes data/numerators.json, the algebra workload's fixtures, computed with
mzeta's own w_numerator (which cross-checks two enumeration routes), and
data/reference.json, the digest of every checked fact of every workload on
DEFAULT_SEED.  Refuses to write if any op fails its verdict checks.  Run it
only when the program's output is meant to change, and review the diff.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from mzeta import zeta  # noqa: E402
from mzeta.multiset import Composition  # noqa: E402

# n = 10..12, including the qualifying rectangles (3,3,3,3) and (5,5).
FIXTURE_ETAS = (
    (5, 5),
    (4, 3, 3),
    (2, 2, 2, 2, 2),
    (6, 6),
    (4, 4, 4),
    (5, 4, 3),
    (3, 3, 3, 3),
    (4, 4, 2, 2),
)


def write_fixtures() -> None:
    entries = []
    for parts in FIXTURE_ETAS:
        obj = zeta.w_numerator(Composition(parts)).to_json_obj()
        entries.append({"eta": list(parts), "digest": workloads.digest(obj), "numerator": obj})
        print(f"fixture eta={parts}: {len(obj['terms'])} terms", file=sys.stderr)
    workloads.FIXTURES.parent.mkdir(exist_ok=True)
    workloads.FIXTURES.write_text(json.dumps({"numerators": entries}, indent=1) + "\n")


def reference_for(workload: str) -> dict[str, str]:
    digests: dict[str, str] = {}
    for op in workloads.build(workload, workloads.DEFAULT_SEED):
        try:
            outcome = ("ok", op.run())
        except Exception as exc:
            outcome = ("error", repr(exc))
        problems, found = workloads.judge(op, outcome, None, workloads.DEFAULT_SEED)
        if problems:
            raise SystemExit(f"{op.key}: {problems[0]}")
        digests.update(found)
    return dict(sorted(digests.items()))


def main() -> None:
    write_fixtures()
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = reference_for(workload)
        print(f"{workload}: {len(reference[workload])} facts", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
