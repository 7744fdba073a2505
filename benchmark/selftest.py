#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 benchmark/selftest.py

Runs every workload with ``--size tiny`` and checks that:

* every end-to-end and per-layer metric named in BENCHMARK.json is printed,
  with its unit, and no other metric is;
* the default seed and a second seed both pass every oracle;
* a corrupted oracle expectation shows up as ``passed_ratio`` < 1;
* two runs of one seed record the same work;
* the command fails, without printing a result, where the library's sources
  are missing.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT) -> tuple:
    proc = subprocess.run([sys.executable, os.path.join("benchmark", "run.py"),
                           "--seconds", "1", "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines: list) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            code, lines, err = run("--workload", name, "--seed", "1", "--trace", trace)
            expect(code == 0, f"{name} trace={trace} exits 0 {err[-300:]}")
            if code:
                continue
            res = result_of(lines)
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(printed == units[trace],
                   f"{name} trace={trace} prints every metric with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} trace={trace} seed 1 passes its oracle")
        code, lines, _ = run("--workload", name, "--seed", "2", "--trace", "0")
        expect(code == 0 and result_of(lines)["metrics"]["passed_ratio"]["value"] == 1.0,
               f"{name} seed 2 runs and passes")
        again = run("--workload", name, "--seed", "2", "--trace", "0")[1]
        expect(json.loads(lines[-2])["record"]["work_per_pass"]
               == json.loads(again[-2])["record"]["work_per_pass"],
               f"{name} seed 2 twice records the same work")
        code, lines, _ = run("--workload", name, "--seed", "1", "--trace", "0", "--corrupt-oracle")
        res = result_of(lines) if code == 0 else None
        expect(res is not None and res["metrics"]["passed_ratio"]["value"] < 1
               and not res["correct"], f"{name} corrupted oracle gives passed_ratio < 1")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run("--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--trace", "0", cwd=bare)
        expect(code != 0 and not any(line.startswith('{"correct"') for line in lines),
               "without the library's sources the command fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
