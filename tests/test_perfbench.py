"""One untraced benchmark pass per workload that runs the numerator pipelines
or the signed kernels, judged against the committed reference digests
(perfbench/data/reference.json): every op of the numerator, algebra and
signed workloads must reproduce its recorded output."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["numerator", "algebra", "signed"])
def test_worker_pass_matches_reference(workload):
    # Untraced, the worker writes no file; its result is one JSON line.
    done = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout)
    assert result["attempted"] > 0
    assert (result["failed"], result["problems"]) == (0, [])
