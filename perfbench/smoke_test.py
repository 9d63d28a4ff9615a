#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload at small scale with tracing off and on, and checks that
the last line is the result object, that every metric BENCHMARK.json names is
reported with its unit (and printed in the report), that the traced run's
self times add up to its run_s, that a planted digest mismatch is reported as
a failure, and that a process-global simulator switch makes the run refuse.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 42


def run(workload, trace, extra=(), env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--small", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("exit %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result, "\n".join(lines[:-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in [x["name"] for x in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, report = result_of(run(w, trace))
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(result["correct"] and result["failed"] == 0, "%s trace=%d correct" % (w, trace))
            check(got == want, "%s trace=%d reports exactly the %s metrics and units"
                  % (w, trace, section))
            check(all(name in report for name in want),
                  "%s trace=%d prints every metric name" % (w, trace))
            if trace == 0:
                check(all(result["metrics"][m]["value"] > 0 for m in want),
                      "%s end-to-end metrics are nonzero" % w)
            else:
                coverage = result["metrics"]["trace.coverage"]["value"]
                check(0.95 <= coverage <= 1.05,
                      "%s self times sum to run_s within 5%% (%.4f)" % (w, coverage))

    # A planted mismatch: the expected digest of one workload is wrong.
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    expected["digests"]["xok_wakeup@small"] = "0" * 16
    planted = os.path.join(ROOT, ".bench_build", "smoke-expected.json")
    os.makedirs(os.path.dirname(planted), exist_ok=True)
    with open(planted, "w") as f:
        json.dump(expected, f)
    result, report = result_of(run("xok_wakeup", 0, ["--expected", planted]))
    check(not result["correct"] and result["failed"] == result["attempted"],
          "planted digest mismatch fails every operation")
    check("FAIL" in report, "planted digest mismatch is reported")

    env = dict(os.environ, EXO_SCHED_STRIDE="0")
    refused = run("xok_wakeup", 0, env=env)
    check(refused.returncode != 0 and not refused.stdout.strip(),
          "a simulator switch in the environment makes the run refuse")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
