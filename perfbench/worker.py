"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t0 MONOTONIC --out DIR

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up and ``import oscint``:
what every command-line invocation pays.  Only the standard library is
imported before ``oscint``.  Workload ``none`` stops after the import.

The last line of standard output is one JSON object with the round's
operations, and with the per-layer metrics when traced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.watch_imports({"oscint": "import.oscint", "scipy": "import.scipy"})
    sys.path.insert(0, str(SRC))
    import oscint  # noqa: F401
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s, "ops": []}
    if args.workload != "none":
        import workloads
        if tracer is not None:
            import layers
            layers.install(tracer)
        ops = workloads.WORKLOADS[args.workload](args.seed, args.out)
        record["ops"] = [vars(op) for op in ops]
        if tracer is not None:
            tracer.restore()
            record["layers"] = layers.metrics(tracer)
            tracer.dump(args.out / f"trace-{args.workload}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
