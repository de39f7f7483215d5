"""Fast self-check of the benchmark at a tiny input size.

    python3 perfbench/selfcheck.py

Asserts that every workload, untraced and traced, emits every metric
BENCHMARK.json names with its unit and passes its output checks; that a
seed reproduces identical inputs and another seed gives different ones;
that call counts repeat exactly between two traced runs; and that the
benchmark fails, without a result, when the program's sources are
missing.  Takes well under a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import workloads as w

HERE = Path(__file__).resolve().parent
BENCHMARK = w.ROOT / "BENCHMARK.json"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def bench(workload, trace, cwd=w.ROOT, seed=1):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(workload, trace):
    proc = bench(workload, trace)
    expect(proc.returncode == 0, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, result)
    expect(result["correct"] and result["failed"] == 0, proc.stdout)
    expect(result["attempted"] >= 1, "no op attempted")
    return result


def check_metrics(contract):
    counts = {}
    for workload in w.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = result_of(workload, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in contract[key]}
            expect(set(got) == set(want),
                   (workload, trace, set(got) ^ set(want)))
            for name, unit in want.items():
                expect(got[name]["unit"] == unit, (workload, name))
                expect(math.isfinite(got[name]["value"]), (workload, name))
            if trace:
                counts[workload] = {k: v["value"] for k, v in got.items()
                                    if k.endswith(".calls")}
        print(f"ok  {workload}: every metric emitted with its unit")
    again = result_of("symbols-small", 1)["metrics"]
    expect(counts["symbols-small"] == {k: v["value"] for k, v in again.items()
                                       if k.endswith(".calls")},
           "call counts differ between two traced runs")
    print("ok  call counts repeat between two traced runs")


def check_seeds():
    def inputs(workload, seed):
        cases = [c for rnd in islice(w.rounds(workload, seed), 20)
                 for c in rnd]
        return [w.case_spec(c) for c in cases]

    for workload in w.WORKLOADS:
        expect(inputs(workload, 7) == inputs(workload, 7), workload)
        expect(inputs(workload, 7) != inputs(workload, 8), workload)
    print("ok  a seed reproduces identical inputs; another seed differs")


def check_bare_directory():
    bare = w.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    try:
        proc = bench("symbols-small", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "exit code 0 without the program")
    expect('"correct"' not in proc.stdout, "a result without the program")
    print("ok  without the program the benchmark fails and prints no result")


def main():
    with open(BENCHMARK, encoding="utf-8") as f:
        contract = json.load(f)
    w.OUT.mkdir(exist_ok=True)
    check_seeds()
    check_metrics(contract)
    check_bare_directory()


if __name__ == "__main__":
    main()
