"""One timed pass of one workload, in a fresh interpreter.

run.py starts this file once per pass, so the process-wide caches of mzeta
start cold, as they do for every ``mzeta`` command.  Set-up (interpreter
start, ``import mzeta``, input generation, fixture and reference load) ends at
the monotonic timestamp ``t_first``, taken just before the first op.  Between
ops, and after a set-up probe, the worker times the calibration kernel
(calibration.py); those samples are outside every timed op.  The pass result
is one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N [--pass-index K]
        [--trace] [--setup-only] [--plant-wrong-reference]
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--plant-wrong-reference", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import mzeta

    if Path(mzeta.__file__).resolve().parent != SRC / "mzeta":
        raise SystemExit(f"imported mzeta from {mzeta.__file__}, not from {SRC}")
    import calibration
    import workloads

    ops = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()[args.workload]
    if args.plant_wrong_reference:
        reference = dict(reference)
        first = min(reference)
        reference[first] = "0" * 16
    if args.setup_only:
        t_first = time.monotonic()
        calib = [calibration.sample() for _ in range(calibration.SETUP_SAMPLES)]
        print(json.dumps({"t_first": t_first, "calib_s": calib}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # Results are kept in the builder's op order, whatever order ran them.
    outcomes = [None] * len(ops)
    latencies = [0.0] * len(ops)
    order = workloads.pass_order(args.workload, args.seed, args.pass_index, len(ops))
    t_first = time.monotonic()
    calib = [calibration.sample()]
    last_calib = time.perf_counter()
    for op_id, index in enumerate(order, start=1):
        op = ops[index]
        if time.perf_counter() - last_calib >= calibration.EVERY_S:
            calib.append(calibration.sample())
            last_calib = time.perf_counter()
        t0 = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(op_id, op.key, op.run)
            outcome = ("ok", result)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            outcome = ("error", repr(exc))
        latencies[index] = (time.perf_counter() - t0) * 1e3
        outcomes[index] = outcome
    calib.append(calibration.sample())
    pass_s = sum(latencies) / 1e3
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for op, outcome in zip(ops, outcomes):
        found, _ = workloads.judge(op, outcome, reference, args.seed)
        problems.extend(f"{op.key}: {p}" for p in found[:1])

    result = {
        "t_first": t_first,
        "pass_s": pass_s,
        "latencies_ms": latencies,
        "calib_s": calib,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems[:5],
        "peak_rss_mib": rss_mib,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, pass_s, workloads.SANITY_KEY)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}-pass{args.pass_index}.spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
