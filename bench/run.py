"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload lifelong_tucker4 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``
there and writes only under ``bench/``. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass. The line
before the result holds the full record: environment, set-up and pass
times, failed checks and output digests. The record, and the spans of a
traced run, are also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_library() -> None:
    """Import ``tucker_adapters`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tucker_adapters

    where = Path(tucker_adapters.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"tucker_adapters was imported from {where}, not {SRC}")


def main(argv=None) -> int:
    # one closed-loop client on one BLAS thread; must precede the numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"bench: cannot import the library: {exc}", file=sys.stderr)
        return 1
    import harness

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work_dir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    try:
        result, record, tracer = harness.run_workload(
            workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": harness.environment(ROOT), **record,
              "result": result}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
