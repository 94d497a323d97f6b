"""One untraced benchmark pass per workload, judged against the committed
reference digests (perfbench/data/reference.json): every op of the
numerator, algebra, signed and sweep workloads must reproduce its recorded
output.  sweep is the one workload that walks the words and the admissible
permutations.  One traced pass shows that the tracer still finds every
package name it patches."""
import contextlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["numerator", "algebra", "signed", "sweep"])
def test_worker_pass_matches_reference(workload):
    # Untraced, the worker writes no file; its result is one JSON line.
    done = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout)
    assert result["attempted"] > 0
    assert (result["failed"], result["problems"]) == (0, [])


def test_traced_pass_reports_layers():
    # The tracer replaces package functions by name (BiPoly.__init__,
    # UniPoly.__mul__, cyclotomic, ...), so a rename in src/ breaks it.
    # Traced, the worker also writes a spans file, removed here with its
    # directory when nothing else is in it.
    spans = WORKER.parent.parent / ".perfbench" / "algebra-seed0-pass0.spans.json"
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), "--workload", "algebra", "--seed", "0", "--trace"],
            capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        spans.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            spans.parent.rmdir()
    result = json.loads(done.stdout)
    assert result["failed"] == 0, result["problems"]
    assert "poly.BiPoly.init.busy_s" in result["layers"]
