"""oscint benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each round in a fresh worker process,
as many as end nearest to ``S`` seconds (at least one), and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds); with ``--trace 1`` rounds alternate untraced and traced workers
and the metrics are the per-layer ones from the traced rounds.  Workloads:
rate-hold, batch-descent, circuit, cli-sweep (see README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("rate-hold", "batch-descent", "circuit", "cli-sweep")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {   # name -> (unit, better)
    "import.oscint_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "dynamics.simulate_s": ("s", "lower"),
    "dynamics.step_s": ("s", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.us_per_step": ("us", "lower"),
    "model.trajectory_mb": ("MB", "lower"),
    "batch.solve_s": ("s", "lower"),
    "batch.forward_s": ("s", "lower"),
    "batch.backward_s": ("s", "lower"),
    "batch.sweeps": ("count", "lower"),
    "batch.ms_per_sweep": ("ms", "lower"),
    "circuit.simulate_s": ("s", "lower"),
    "circuit.pfc_step_s": ("s", "lower"),
    "circuit.thalamic_step_s": ("s", "lower"),
    "circuit.steps": ("count", "lower"),
    "circuit.us_per_step": ("us", "lower"),
    "predict.series_s": ("s", "lower"),
    "predict.steps": ("count", "lower"),
    "weights.build_s": ("s", "lower"),
    "spectral.analyze_s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "output.csv_s": ("s", "lower"),
    "output.csv_mb": ("MB", "lower"),
    "output.csv_mb_per_s": ("MB/s", "higher"),
    "output.svg_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
SETUP_SAMPLES = 5           # import-only workers top setup_s up to this many
WORKER_TIMEOUT_S = 150
NO_NEW_ROUND_AFTER_S = 120  # keeps a whole run under three minutes


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def spawn(workload: str, seed: int, trace: bool) -> dict:
    """Run one worker to completion and return its JSON record."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--t0", repr(t0),
         "--out", str(OUT)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _round_sum(record: dict, key: str) -> float:
    return sum(op[key] for op in record["ops"])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(spawn(workload, seed, False))
        if trace:
            traced.append(spawn(workload, seed, True))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        # Stop at the round count that ends nearest to `seconds`.
        if elapsed + per_round / 2 >= seconds or elapsed + per_round > NO_NEW_ROUND_AFTER_S:
            break

    records = plain + traced
    ops = [op for record in records for op in record["ops"]]
    for op in ops:
        for text in ([op["failed"]] if op["failed"] else []) + op["problems"]:
            print(f"{workload}/{op['name']}: {text}", file=sys.stderr)
    result = {
        "correct": all(not op["problems"] for op in ops if not op["failed"]),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failed"]),
    }
    median = statistics.median
    if trace:
        names = traced[0]["layers"]
        values = {name: median(r["layers"][name] for r in traced) for name in names}
        values["trace.overhead_s"] = (median(_round_sum(r, "wall_s") for r in traced)
                                      - median(_round_sum(r, "wall_s") for r in plain))
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, (unit, _) in PER_LAYER.items()}
        return result

    setups = [r["setup_s"] for r in plain]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("none", seed, False)["setup_s"])
    values = {
        "setup_s": median(setups),
        "wall_s": median(_round_sum(r, "wall_s") for r in plain),
        "cpu_s": median(_round_sum(r, "cpu_s") for r in plain),
        "peak_rss_mb": median(max(op["peak_rss_mb"] for op in r["ops"]) for r in plain),
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative, default=11)
    parser.add_argument("--seconds", type=_nonnegative, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oscint" / "__init__.py").is_file():
        print(f"error: no oscint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
