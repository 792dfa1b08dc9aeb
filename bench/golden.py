"""Record golden.json: the digest of each item's canonical output, for every
pair of every workload's domain, as the current source produces it.

    python3 bench/golden.py

Run it only when an output is meant to change; the benchmark counts any
item whose output differs from the recorded bytes as failed.  It takes a few
minutes on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import items  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for name, workload in WORKLOADS.items():
        run_item = items.ITEMS[name]
        golden[name] = {
            f"{lam},{n}": items.facts(name, lam, n, run_item(lam, n))["digest"]
            for lam, n in workload.domain()
        }
        print(f"{name}: {len(golden[name])} pairs", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
