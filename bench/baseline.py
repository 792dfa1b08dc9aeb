"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/baseline.json

For each workload and seed it runs `run.py --trace 0`, then one
`run.py --trace 1` on the first seed, one after another.  For every
end-to-end metric it records the median, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between the
quartiles as a share of the median.  Per-layer metrics come from the single
traced run.  Any run that fails or reports a failed item stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed items\n"
                 + proc.stdout)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        for seed in args.seeds:
            result = run(workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "values": vals}
        traced = run(workload, args.seeds[0], args.seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
