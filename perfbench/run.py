"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload as a closed loop with one client: passes run one after
another, each in a fresh worker process (worker.py), until S seconds have
passed and at least MIN_PASSES passes are done.  With --trace 0 the last
stdout line holds the end-to-end metrics of BENCHMARK.json, every time scaled
to the reference host speed of calibration.py; with --trace 1 it alternates
untraced and traced passes and holds the per-layer metrics, unscaled.
Progress and a readable summary go to stderr.  The exit code is 0 whenever a
result line is printed; a checkout without the mzeta sources, or a worker
that crashes, exits with 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_PASSES = 3
# Set-up is short and noisy, so each pass is preceded by extra set-up-only
# spawns, spread over the run like the passes; setup_s is their median.
SETUP_PROBES_PER_PASS = 3
HARD_LIMIT_S = 165  # every run ends well inside the 180 s allowed


def tail_percentile(ops: int) -> float:
    """Highest percentile, in steps of 0.1, with at least ten of the
    workload's ops beyond it.  A workload has the same number of ops on every
    seed, so the percentile is fixed per workload."""
    return math.floor(1000 * (ops - 10) / ops) / 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker to completion; its JSON result with every time scaled
    to the reference host speed, and its unscaled pass_s as raw_pass_s."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(cmd)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["scale"] = calibration.REFERENCE_S / statistics.fmean(out["calib_s"])
    out["setup_s"] = (out["t_first"] - t_spawn) * out["scale"]
    if "pass_s" in out:
        out["raw_pass_s"] = out["pass_s"]
        out["pass_s"] *= out["scale"]
        out["latencies_ms"] = [lat * out["scale"] for lat in out["latencies_ms"]]
    return out


def run(args, spec: dict) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []

    def more() -> bool:
        # Per-layer metrics have no bound: one untraced/traced pair is enough.
        if args.trace:
            return not traced or time.monotonic() - start < args.seconds
        return len(plain) < MIN_PASSES or time.monotonic() - start < args.seconds

    setups: list[float] = []
    while more() and time.monotonic() < deadline:
        if not args.trace:
            for _ in range(SETUP_PROBES_PER_PASS):
                setups.append(spawn(args.workload, args.seed, deadline, "--setup-only")["setup_s"])
        # Traced pass k runs the ops in the same order as untraced pass k.
        index = ["--pass-index", str(len(plain))]
        plain.append(spawn(args.workload, args.seed, deadline, *index))
        log(f"pass {len(plain)}: {plain[-1]['pass_s']:.3f} s, failed {plain[-1]['failed']}")
        if args.trace:
            traced.append(spawn(args.workload, args.seed, deadline, "--trace", *index))
            log(f"traced pass {len(traced)}: {traced[-1]['pass_s']:.3f} s")

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            log(f"FAILED {problem}")

    if args.trace:
        layer_names = [m["name"] for m in spec["per_layer"]]
        emitted = set(traced[0]["layers"]) | {"trace.overhead_s"}
        if emitted != set(layer_names):
            raise WorkerError(f"per-layer metrics differ from BENCHMARK.json: {sorted(emitted ^ set(layer_names))}")
        medians = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        medians["trace.overhead_s"] = (
            statistics.median(p["pass_s"] for p in traced)
            - statistics.median(p["pass_s"] for p in plain)
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": medians[name], "unit": units[name]} for name in layer_names}
    else:
        setups += [p["setup_s"] for p in plain]
        # The host's speed switches between levels every few seconds, faster
        # than the calibration follows, so single latencies jump between
        # them; each op's mean over the passes averages the levels before the
        # median and the tail over ops are taken.
        per_op = [statistics.fmean(lats) for lats in zip(*(p["latencies_ms"] for p in plain))]
        pct = tail_percentile(len(per_op))
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p["pass_s"] for p in plain),
            "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": percentile(per_op, pct),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        log(
            f"{args.workload}: {len(plain)} passes of {len(per_op)} ops, op_tail_ms is p{pct}, "
            f"{len(setups)} set-up samples, unscaled pass_s "
            f"{statistics.median(p['raw_pass_s'] for p in plain):.6g} s, "
            f"host speed {statistics.median(1 / p['scale'] for p in plain):.4f} of reference"
        )
    log(f"error_rate: {failed}/{attempted} = {failed / attempted:.6f}")
    for name, m in metrics.items():
        log(f"  {name}: {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mzeta" / "__init__.py").is_file() or not spec_path.is_file():
        log(f"error: {ROOT} holds no mzeta sources (src/mzeta) or no BENCHMARK.json")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"error: unknown workload {args.workload!r}")
        return 2
    try:
        result = run(args, spec)
    except WorkerError as exc:
        log(f"error: {exc}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
