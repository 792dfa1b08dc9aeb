"""One fresh, single-threaded process: set up, then run items in a closed loop.

Takes one JSON job as its only argument:

    {"workload": name, "pairs": [[lam, n], ...], "budget_s": float | null,
     "trace": bool, "setup_only": bool}

Set-up is the import of the package plus one warm-up item on a pair outside
the workload's domain; it ends with the line "ready" on stdout, which run.py
timestamps.  The loop then runs the pairs in order, one after the
other, until they run out or the items' summed latency reaches budget_s.
After set-up and after every item the worker times one calibration slice
(see `calibrate`).  Checks run after the loop.  The last stdout line is the
result as JSON.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def calibrate() -> float:
    """Seconds that one fixed slice of exact rational arithmetic takes now.

    The slice exercises what the items spend their time on (interpreter
    dispatch and big-integer arithmetic) but nothing of the package, so its
    duration tracks the speed the shared host lends this process at the
    moment, and no change to the package can move it.  The collector is off
    during the slice, so that garbage the package leaves does not bill it.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(5):
        acc = Fraction(0)
        for k in range(1, 100):
            acc += Fraction(k, k * k + 1) * Fraction(2 * k + 1, k + 3)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import gegentropy
    if not Path(gegentropy.__file__).resolve().is_relative_to(SRC):
        print(f"gegentropy imported from {gegentropy.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    import items
    from workloads import WORKLOADS

    name = job["workload"]
    workload = WORKLOADS[name]
    run_item = items.ITEMS[name]
    tracer = None
    if job["trace"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    warm = run_item(*workload.warmup)
    items.facts(name, *workload.warmup, warm)
    print("ready", flush=True)
    setup_calibration = sorted(calibrate() for _ in range(5))[2]
    if job["setup_only"]:
        print(json.dumps({"setup_calibration": setup_calibration}))
        return 0

    budget = job["budget_s"]
    records = []  # [lam, n, latency_s, error or None, facts or None]
    calibration = []
    busy = 0.0
    for item_id, (lam, n) in enumerate(job["pairs"]):
        if budget is not None and busy >= budget:
            break
        root = tracer.begin_item(item_id) if tracer else None
        error = result = None
        t0 = time.perf_counter()
        try:
            result = run_item(lam, n)
        except Exception as exc:  # an item that raises is a failed item
            error = f"lambda={lam} n={n}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_item(root)
        busy += latency
        f = None
        if error is None:
            try:
                f = items.facts(name, lam, n, result)
            except Exception as exc:
                error = f"lambda={lam} n={n}: unreadable output: {exc!r}"
        records.append([lam, n, latency, error, f])
        calibration.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    golden = json.loads((HERE / "golden.json").read_text())[name]
    failures = []
    failed_items = 0
    for lam, n, _, error, f in records:
        try:
            problems = [error] if error else items.check(name, lam, n, f, golden)
        except Exception as exc:  # a check that cannot run fails its item
            problems = [f"lambda={lam} n={n}: check raised {exc!r}"]
        failures += problems
        failed_items += bool(problems)
    out = {
        "latencies": [r[2] for r in records],
        "calibration": calibration,
        "setup_calibration": setup_calibration,
        "failed_items": failed_items,
        "failures": failures,
        "busy_s": busy,
        "peak_rss_mb": peak_rss_mb,
        "result_primes": max((r[4]["primes"] for r in records if r[4]), default=0),
    }
    if tracer:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
