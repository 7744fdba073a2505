"""One workload process: set up, then run timed passes over a fixed case list.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready`` as
soon as the set-up is done (the parent times process start to that line) and
then, unless ``--mode setup``, one JSON line with every pass's latencies,
oracle outcomes and, for traced passes, per-layer counts and times, and the
host-speed probes taken between the untraced passes (see ``calibrate.py``).
"""

import os

# One BLAS thread: with two, CPU time and wall time both spread far more.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import jordanblocks  # noqa: E402

if not os.path.abspath(jordanblocks.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: imported jordanblocks from {jordanblocks.__file__}, not from {SRC}")

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def time_pass(workload) -> tuple:
    """Run every case of one pass, timing each call; nothing else is timed."""
    workload.start_pass()
    results, latencies = [], []
    for case in workload.cases:
        t0 = perf_counter()
        try:
            result = case.run()
        except Exception as exc:  # a case that raises is a failed case, not a crash
            result = exc
        latencies.append(perf_counter() - t0)
        results.append(result)
    return results, latencies


def check_pass(workload, results, latencies) -> dict:
    """Apply the oracle to one pass's results, outside the timed region."""
    ctx: dict = {}
    notes, errors = [], Counter()
    for case, result in zip(workload.cases, results):
        if isinstance(result, Exception):
            errors[type(result).__name__] += 1
            note = f"raised {type(result).__name__}: {result}"
        else:
            try:
                note = case.check(result, ctx)
            except Exception as exc:  # an oracle that cannot read the result fails the case
                note = f"oracle raised {type(exc).__name__}: {exc}"
        if note:
            notes.append(f"{case.kind}: {note}")
    return {"latencies": latencies, "failed": len(notes), "notes": notes[:5],
            "errors": dict(errors)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--traced-passes", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    trace = tracer.Tracer() if args.traced_passes else None
    if trace:
        trace.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.corrupt_oracle)
    setup_metrics = {}
    if trace:
        trace.uninstall()
        setup_metrics = trace.metrics()
    print("ready", flush=True)
    if args.mode == "setup":
        return

    check_pass(workload, *time_pass(workload))  # discarded warm-up pass
    probes = [calibrate.probe() for _ in range(calibrate.PROBES_PER_PASS)]
    passes = []
    for _ in range(args.passes):
        passes.append(check_pass(workload, *time_pass(workload)))
        probes += [calibrate.probe() for _ in range(calibrate.PROBES_PER_PASS)]
    traced = []
    for _ in range(args.traced_passes):
        trace.reset()
        trace.install()
        try:
            timed = time_pass(workload)
        finally:
            trace.uninstall()
        traced.append(dict(check_pass(workload, *timed), layers=trace.metrics()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "passes": passes,
        "probes": probes,
        "traced": traced,
        "setup_layers": setup_metrics,
        "work": workload.work(),
        "peak_rss_mb": peak_kb / 1024.0,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }), flush=True)


if __name__ == "__main__":
    main()
