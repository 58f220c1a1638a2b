"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record (the
environment, sample counts, raw times and, when traced, the bases of the
per-layer numbers) is written under `.perfbench/` in the checkout, and a
traced run writes its spans next to it.
"""

import argparse
import gzip
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import BLAS_THREAD_VARS  # noqa: E402  (imports no numpy)

# Pin BLAS to one thread before numpy loads; pool workers inherit this.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mpbnn", "__init__.py")):
        print(f"error: no mpbnn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    record = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("spans", None)
    if spans is not None:
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": bench.SPAN_FIELDS, "spans": spans}, fh)
    path = stem + ".json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {k: record[k] for k in ("workload", "seed", "error_rate", "timing", "environment")}
    summary["record"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary))
    print(json.dumps(bench.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
