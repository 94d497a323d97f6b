"""Self-test of the correctness gate.

    python3 perfbench/selftest.py

Runs one pass of the algebra workload twice, on a seed other than
DEFAULT_SEED: once as committed, where the gate must pass, and once with one
reference digest planted wrong, where the gate must fail and error_rate must
be above zero.  The planted digest belongs to a fact that does not depend on
the seed, so the gate checks it on every seed.  Exits 0 when both hold.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"


def run(*flags: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", "algebra", "--seed", "3", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    clean = run()
    planted = run("--plant-wrong-reference")
    error_rate = planted["failed"] / planted["attempted"]
    checks = {
        "committed reference passes": clean["failed"] == 0,
        "planted reference fails the gate": planted["failed"] > 0,
        "planted reference gives error_rate > 0": error_rate > 0,
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"planted pass: {planted['failed']}/{planted['attempted']} ops failed")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
