"""Print every end-to-end metric of every workload, with its unit and the
error rate, from one run per workload on the default seed, each as long as
run_seconds of BENCHMARK.json.

    python3 perfbench/report.py [--trace]

With --trace, each workload also gets a traced run and its per-layer metrics
are printed.
Exits 1 if any workload's outputs fail the correctness gate.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE.parent / "src"))
from workloads import DEFAULT_SEED  # noqa: E402


def run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    all_correct = True
    for w in SPEC["workloads"]:
        name = w["name"]
        result = run(name, 0)
        all_correct &= result["correct"]
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']}")
        print(f"  error_rate: {result['failed'] / result['attempted']:.6f} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric}: {m['value']:.6g} {m['unit']}")
        if args.trace:
            traced = run(name, 1)
            all_correct &= traced["correct"]
            for metric, m in traced["metrics"].items():
                print(f"  {metric}: {m['value']:.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
