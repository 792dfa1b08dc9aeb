"""The gegentropy benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload exact-large --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
src/ and needs no install.  Workloads and why each exists are in
workloads.py; what each item does and how it is checked is in items.py.

--trace 0 measures the end-to-end metrics.  Items run in a closed loop with
one caller, in fresh single-threaded worker processes, one after another.
A worker works through the seed's schedule until the items' summed latency
reaches --seconds; when it exhausts the schedule first, another fresh
worker starts the schedule again, so no pair repeats within a process.
Set-up (interpreter start, import, one warm-up item) is timed in every
worker and in extra set-up-only workers, SETUP_SAMPLES in all; setup_s is
their median.

Times are reported in reference-host units.  On a shared host (measured on
2 shared cores) the speed lent to one process drifts by 15-30% over seconds
to minutes, which would swamp the changes the benchmark exists to judge.
So each worker
times a fixed calibration slice of rational arithmetic that does not touch
the package (worker.calibrate) after set-up and after every item, and each
measured time t is reported as t * CALIBRATION_NOMINAL_S / c, where c is
the median of the calibration slices around it.  A time in these units is
what the item would have taken on the host at the speed it had when the
nominal slice was measured.  The raw wall-clock figures are printed on the
lines before the result.

--trace 1 measures the per-layer metrics.  A traced worker runs a fixed
prefix of the schedule (Workload.trace_items) with spans around every
public function of the package; an untraced worker then runs the same
prefix, and trace.overhead_ratio is traced over untraced items per second.

Every item's output is checked after its worker's timed loop (items.check);
an item that fails a check or raises counts in `failed`.  The last stdout
line is {"correct", "attempted", "failed", "metrics"}; the lines before it
say which pairs ran, which percentile latency_tail_ms is, and why any item
failed.  A worker that cannot start or dies makes the run exit non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, schedule  # noqa: E402

SRC_PACKAGE = HERE.parent / "src" / "gegentropy" / "__init__.py"
SETUP_SAMPLES = 7
#: Median duration of worker.calibrate() on the host the baseline was
#: recorded on (2 shared cores, CPython 3.11).
CALIBRATION_NOMINAL_S = 0.004
#: Calibration slices whose median scales one item: the item's own and two
#: on either side.
CALIBRATION_WINDOW = 5
#: A pool exhausted with less budget than this left ends the run.
MIN_PASS_S = 1.0
#: Every worker must end before this many seconds from the start of the run.
DEADLINE_S = 170.0
LAYERS = ("cli", "entropy", "exact", "gegenbauer", "quadrature")

END_TO_END = [
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: (metric, unit): function metrics are "<span>.calls" or "<span>.self_s".
PER_LAYER = [
    ("entropy.beta_vector.calls", "count"),
    ("entropy.beta_vector.self_s", "s"),
    ("entropy.assemble_entropy.self_s", "s"),
    ("gegenbauer.standard_coeff.calls", "count"),
    ("gegenbauer.pochhammer.calls", "count"),
    ("entropy.integrals_faa_di_bruno.self_s", "s"),
    ("entropy.integrals_standard_rep.self_s", "s"),
    ("entropy.integrals_series_log.self_s", "s"),
    ("entropy.normalize_entropy.self_s", "s"),
    ("quadrature.entropy_quadrature.self_s", "s"),
    ("gegenbauer.zero_angles.calls", "count"),
    ("gegenbauer.zero_angles.self_s", "s"),
    ("quadrature.quad_calls", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.panel_yield", "ratio"),
    ("exact.LogLinear.constructed", "count"),
    ("exact.log_linear_from.self_s", "s"),
    ("exact.ExactEntropy.evaluate.calls", "count"),
    ("exact.ExactEntropy.evaluate.self_s", "s"),
    ("exact.entropy_to_json_dict.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.format_exact_entropy.self_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("entropy.table_den_bits_max", "bits"),
    ("exact.result_primes", "count"),
    ("trace.overhead_ratio", "ratio"),
]


#: Spans whose total time (children included) shows where an item goes.
STAGES = ("cli.main", "entropy.integrals_series_log",
          "entropy.integrals_faa_di_bruno", "entropy.integrals_standard_rep",
          "entropy.assemble_entropy", "entropy.normalize_entropy",
          "quadrature.entropy_quadrature", "gegenbauer.zero_angles")
#: The stage each workload's why says dominates, and in which sense.
WHY_CLAIMS = {
    "exact-large": ("entropy.assemble_entropy", "majority"),
    "oracle-verify": ("quadrature.entropy_quadrature", "majority"),
    "route-crosscheck": ("entropy.integrals_faa_di_bruno", "largest"),
}


class WorkerError(Exception):
    pass


def run_worker(job: dict, deadline: float):
    """Start a fresh worker, time it to "ready", return (setup_s, result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GEGENTROPY_PRECISION", None)  # the golden bytes use the default
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             json.dumps(job)], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker passed the run's deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode} before finishing")
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def reference_times(result):
    """The worker's item latencies, each scaled to the reference speed."""
    cal, half = result["calibration"], CALIBRATION_WINDOW // 2
    return [t * CALIBRATION_NOMINAL_S
            / statistics.median(cal[max(0, i - half):i + half + 1])
            for i, t in enumerate(result["latencies"])]


def reference_setup(setup_s, result):
    return setup_s * CALIBRATION_NOMINAL_S / result["setup_calibration"]


def reference_speed(results):
    """Nominal over median calibration slice: above 1, the host ran fast."""
    return CALIBRATION_NOMINAL_S / statistics.median(
        c for r in results for c in r["calibration"])


def percentile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile, and how many values
    lie beyond the nearest-rank one.  The estimate is a Beta-weighted mean
    of all order statistics; items' costs come in clusters, and a single
    order statistic jumps between clusters as the item mix shifts slightly.
    """
    import mpmath  # a dependency of the package; imported only where needed

    xs, n, p = sorted(values), len(values), pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True))
           for i in range(n + 1)]
    estimate = sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))
    return estimate, n - max(1, -(-n * pct // 100))


def timed_run(name, pairs, seconds, deadline, log):
    job = {"workload": name, "pairs": pairs, "trace": False, "setup_only": False}
    budget = float(seconds)
    setups, results, probes = [], [], []
    while not results or (budget >= MIN_PASS_S
                          and len(results[-1]["latencies"]) == len(pairs)):
        setup_s, result = run_worker(dict(job, budget_s=budget), deadline)
        setups.append(setup_s)
        results.append(result)
        budget -= result["busy_s"]
    while len(setups) < SETUP_SAMPLES:
        probe = dict(job, budget_s=None, setup_only=True)
        setup_s, result = run_worker(probe, deadline)
        setups.append(setup_s)
        probes.append(result)

    raw = sorted(x for r in results for x in r["latencies"])
    latencies = sorted(x for r in results for x in reference_times(r))
    busy = sum(latencies)
    ref_setups = [reference_setup(s, r) for s, r in zip(setups, results + probes)]
    tail_pct = WORKLOADS[name].tail_pct
    tail, beyond = percentile(latencies, tail_pct)
    ran = len(results[0]["latencies"])
    log(f"{len(latencies)} items in {len(results)} worker(s); pairs run "
        f"(lambda,n): {' '.join(f'{l},{n}' for l, n in pairs[:ran])}")
    log(f"latency_tail_ms is p{tail_pct} over {len(latencies)} items "
        f"({beyond} beyond it)" + ("" if beyond >= 10 else
                                   "; fewer than 10 beyond, read with care"))
    log(f"wall clock: items_per_s {len(raw) / sum(raw):.4g}, "
        f"latency_p50_ms {percentile(raw, 50)[0] * 1e3:.4g}, "
        f"latency_tail_ms {percentile(raw, tail_pct)[0] * 1e3:.4g}, "
        f"setup_s {statistics.median(setups):.4g}; "
        f"host speed vs reference {reference_speed(results):.3f}")
    metrics = {
        "items_per_s": len(latencies) / busy,
        "latency_p50_ms": percentile(latencies, 50)[0] * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(ref_setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    return metrics, results


def traced_run(name, pairs, deadline, log):
    prefix = pairs[:WORKLOADS[name].trace_items]
    job = {"workload": name, "pairs": prefix, "budget_s": None,
           "setup_only": False}
    _, traced = run_worker(dict(job, trace=True), deadline)
    _, plain = run_worker(dict(job, trace=False), deadline)
    summary = traced["trace"]
    counts, wrapped = summary["counts"], set(summary["wrapped"])
    # Self times get the same reference-speed scaling as the end-to-end times.
    speed = reference_speed([traced])
    functions = {k: (calls, self_s * speed, total_s * speed)
                 for k, (calls, self_s, total_s) in summary["functions"].items()}
    total = sum(f[1] for f in functions.values())
    traced_s, plain_s = sum(reference_times(traced)), sum(reference_times(plain))

    metrics, absent = {}, []
    for metric, _ in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if field in ("calls", "self_s") and span not in LAYERS:
            if span not in wrapped:
                absent.append(span)
            calls, self_s, _ = functions.get(span, (0, 0.0, 0.0))
            metrics[metric] = calls if field == "calls" else self_s
    for layer in LAYERS:
        layer_self = sum(f[1] for k, f in functions.items()
                         if k.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = layer_self
    for counter in ("quadrature.quad_calls", "quadrature.panels",
                    "exact.LogLinear.constructed"):
        if counter not in wrapped:
            absent.append(counter)
        metrics[counter] = counts.get(counter, 0)
    quad_calls = metrics["quadrature.quad_calls"]
    metrics["quadrature.panel_yield"] = (
        metrics["quadrature.panels"] / quad_calls if quad_calls else 0.0)
    metrics["entropy.table_den_bits_max"] = summary["maxima"].get(
        "entropy.table_den_bits_max", 0)
    metrics["exact.result_primes"] = traced["result_primes"]
    metrics["trace.overhead_ratio"] = plain_s / traced_s

    log(f"traced {len(prefix)} items: {traced_s:.3f} s traced, {plain_s:.3f} s "
        f"untraced (reference units); pairs (lambda,n): "
        f"{' '.join(f'{l},{n}' for l, n in prefix)}")
    if absent:
        log(f"absent from this version of the package (reported as 0): "
            f"{', '.join(sorted(set(absent)))}")
    log("layer shares of item self time: " + ", ".join(
        f"{layer} {metrics[f'{layer}.self_s'] / total:.1%}" for layer in LAYERS))
    top = sorted(functions.items(), key=lambda kv: -kv[1][1])[:8]
    log("largest self times: " + ", ".join(
        f"{k} {f[1] / total:.1%}" for k, f in top))
    stages = {k: functions.get(k, (0, 0.0, 0.0))[2] / total for k in STAGES}
    log("share of item time, children included: " + ", ".join(
        f"{k} {v:.1%}" for k, v in stages.items()))
    claim, kind = WHY_CLAIMS[name]
    holds = (stages[claim] > 0.5 if kind == "majority"
             else all(stages[claim] >= v for v in stages.values()))
    log(f"why-check: {claim} is {'' if holds else 'NOT '}the {kind} "
        f"of item time ({stages[claim]:.1%})"
        + ("" if holds else "; this contradicts the workload's why"))
    return {m: metrics[m] for m, _ in PER_LAYER}, [traced, plain]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC_PACKAGE.is_file():
        print(f"error: no package source at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    # Exit through run_worker's cleanup, which kills the worker, on SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    pairs = schedule(WORKLOADS[args.workload], args.seed)

    def log(line):
        print(f"# {args.workload} seed={args.seed}: {line}")

    try:
        if args.trace:
            metrics, results = traced_run(args.workload, pairs, deadline, log)
            units = dict(PER_LAYER)
        else:
            metrics, results = timed_run(args.workload, pairs, args.seconds,
                                         deadline, log)
            units = dict(END_TO_END)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed_items"] for r in results)
    log(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    for line in [f for r in results for f in r["failures"]][:20]:
        log(f"FAIL {line}")
    for metric, value in metrics.items():
        log(f"{metric} = {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
