#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; takes about a minute.

1. A short-horizon smoke of all four workloads, untraced and traced: the
   result line has exactly the four keys, the run passes its
   correctness gate, and every metric BENCHMARK.json names is printed
   with its unit (end-to-end metrics untraced, per-layer metrics traced).
2. The correctness gate fails a run that is cut off before it drains.
3. Without the simulator's sources the benchmark exits non-zero and
   prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMOKE = ["--horizon-ms", "20"]


def run(args, cwd=ROOT, run_py=RUN):
    r = subprocess.run([sys.executable, run_py] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (lines[-1] if lines else ""), r


def result(line):
    obj = json.loads(line)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}, obj.keys()
    assert isinstance(obj["attempted"], int) and obj["attempted"] >= 1
    assert isinstance(obj["failed"], int)
    return obj


def check_metrics(obj, expected, what):
    got = obj["metrics"]
    assert set(got) == {m["name"] for m in expected}, (
        what, sorted(set(got) ^ {m["name"] for m in expected}))
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], (what, m["name"])
        assert isinstance(got[m["name"]]["value"], (int, float)), (what, m["name"])


def test_smoke(spec):
    # queue-heavy is not in BENCHMARK.json but still runs by name.
    names = [w["name"] for w in spec["workloads"]] + ["queue-heavy"]
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s trace=%d" % (name, trace)
            code, line, r = run(["--workload", name, "--seed", "1",
                                 "--seconds", "0.01", "--trace", str(trace)] + SMOKE)
            assert code == 0, (what, r.stdout[-2000:], r.stderr[-2000:])
            obj = result(line)
            assert obj["correct"] and obj["failed"] == 0, (what, obj)
            check_metrics(obj, spec[key], what)
            print("ok  smoke", what)


def test_undrained_fails():
    code, line, _ = run(["--workload", "poll-light", "--seed", "1", "--seconds", "0.01",
                         "--trace", "0", "--force-undrained"] + SMOKE)
    assert code != 0, "an undrained run must fail the gate"
    obj = result(line)
    assert not obj["correct"] and obj["failed"] > 0, obj
    print("ok  undrained run fails the gate")


def test_no_sources_fails():
    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        code, line, _ = run(["--workload", "poll-light", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                            cwd=bare, run_py=os.path.join(bare, "perfbench", "run.py"))
        assert code != 0 and not line.startswith("{"), (code, line)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no sources: non-zero exit, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    test_smoke(spec)
    test_undrained_fails()
    test_no_sources_fails()
    print("all perfbench tests passed")


if __name__ == "__main__":
    main()
