#!/usr/bin/env python3
"""Benchmark of jordanblocks: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload ring-laws --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
Each workload runs in its own single-threaded worker process as a closed
loop: one case at a time, over a fixed case list made from the seed, for a
fixed number of passes (``--seconds`` divided by the workload's nominal pass
length at the seed, so a faster build does the same work in less time).
Every pass starts from the same cache state, one warm-up pass is discarded,
and every result is checked by an oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics; their times are scaled to a
reference host speed measured during the run (see ``calibrate.py``), and the
record line gives them unscaled too.  ``--trace 1`` runs the same
passes untraced and then traced (each layer's public functions wrapped from
outside, see ``tracer.py``), repeats one traced pass in a second process, and
fails unless the per-layer counts agree; it prints the per-layer metrics.
The line before the result is a record of the work done and the settings.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from tracer import STABLE_COUNTS  # noqa: E402

WORKLOADS = ("ring-laws", "adjoint", "multilinear-q")
#: Seconds one full-size pass takes at the seed on a 2-vCPU VM; sets the pass count.
PASS_SECONDS = {"ring-laws": 2.7, "adjoint": 2.9, "multilinear-q": 3.0}
MIN_PASSES = 2
#: Fresh processes whose start-to-ready time gives setup_s (median).
SETUP_SAMPLES = 5
#: A run must end within 180 s; workers are killed at this deadline.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "passed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CACHE_STATE = ("repring.clear_memo() before every pass; g2 subalgebra cache warmed "
               "in set-up for the adjoint primes; one discarded warm-up pass")


class BenchmarkError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_worker(args: list, deadline: float) -> tuple:
    """Run one worker to completion; return (seconds to its ready line, result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            cwd=ROOT, env=env)
    out, ready_s = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchmarkError("worker did not finish before the run deadline")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready_s is None and b"ready\n" in out:
                ready_s = time.perf_counter() - t0
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise BenchmarkError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.decode().splitlines()
    return ready_s, json.loads(lines[-1]) if len(lines) > 1 else None


def pass_rate(p: dict) -> float:
    return len(p["latencies"]) / sum(p["latencies"])


def unscaled_times(result: dict, setups: list) -> dict:
    latencies = [x for p in result["passes"] for x in p["latencies"]]
    return {
        "cases_per_s": statistics.median(pass_rate(p) for p in result["passes"]),
        "case_p50_ms": statistics.median(latencies) * 1e3,
        "case_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
    }


def end_to_end(times: dict, slowdown: float, result: dict) -> dict:
    """The metrics, with times scaled by the host's slowdown against the reference."""
    attempted = sum(len(p["latencies"]) for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    return {
        "cases_per_s": times["cases_per_s"] * slowdown,
        "case_p50_ms": times["case_p50_ms"] / slowdown,
        "case_p90_ms": times["case_p90_ms"] / slowdown,
        "passed_ratio": (attempted - failed) / attempted,
        "setup_s": times["setup_s"] / slowdown,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    traced = [p["layers"] for p in result["traced"]]
    out = {}
    for name in traced[0]:
        # a count keeps one pass's exact value; a time is the median over passes
        middle = statistics.median_low if layer_unit(name) == "count" else statistics.median
        out[name] = middle(t[name] for t in traced)
    # laws are built in set-up, so their cost is read from the traced set-up
    out["fgl.law_build_s"] = result["setup_layers"]["fgl.law_build_s"]
    out["trace.overhead_ratio"] = (statistics.median(pass_rate(p) for p in result["traced"])
                                   / statistics.median(pass_rate(p) for p in result["passes"]))
    return out


def check_counts(result: dict, repeat: dict) -> None:
    """Fail the run when the work counted per pass is not exactly repeatable."""
    runs = [p["layers"] for p in result["traced"]] + [p["layers"] for p in repeat["traced"]]
    for name in STABLE_COUNTS:
        values = [r[name] for r in runs]
        if len(set(values)) != 1:
            raise BenchmarkError(f"{name} differs between passes or processes: {values}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cases per workload, for the self-test")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: make one oracle expectation wrong")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "jordanblocks", "__init__.py")):
        print(f"error: no jordanblocks sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.corrupt_oracle:
        common.append("--corrupt-oracle")
    try:
        if args.trace:
            half = max(MIN_PASSES, passes // 2)
            _, result = run_worker(common + ["--passes", str(half),
                                             "--traced-passes", str(half)], deadline)
            _, repeat = run_worker(common + ["--passes", "0", "--traced-passes", "1"], deadline)
            check_counts(result, repeat)
            metrics = per_layer(result)
            units = {name: layer_unit(name) for name in metrics}
            checked = result["passes"] + result["traced"]
        else:
            setups, probes = [], []
            for _ in range(SETUP_SAMPLES - 1):
                probes += [calibrate.probe() for _ in range(calibrate.PROBES_PER_PASS)]
                setups.append(run_worker(common + ["--mode", "setup"], deadline)[0])
            ready_s, result = run_worker(common + ["--passes", str(passes)], deadline)
            setups.append(ready_s)
            probes += result["probes"]
            slowdown = statistics.median(probes) / calibrate.REFERENCE_S
            unscaled = unscaled_times(result, setups)
            metrics = end_to_end(unscaled, slowdown, result)
            units = END_TO_END_UNITS
            checked = result["passes"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(len(p["latencies"]) for p in checked)
    failed = sum(p["failed"] for p in checked)
    errors: Counter = Counter()
    for p in checked:
        errors.update(p["errors"])
    samples = len(result["passes"]) * result["work"]["cases_per_pass"]
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "timed_passes": len(result["passes"]),
        "traced_passes": len(result["traced"]),
        "work_per_pass": result["work"],
        "latency_samples": samples,
        "samples_beyond_p90": samples - int(0.9 * samples),
        "setup_samples": None if args.trace else [round(s, 4) for s in setups],
        "host_slowdown": None if args.trace else slowdown,
        "unscaled": None if args.trace else unscaled,
        "cache_state": CACHE_STATE,
        "threads": result["threads"],
        "nproc": os.cpu_count(),
        "exceptions": errors,
        "failure_notes": [n for p in checked for n in p["notes"]][:5],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
