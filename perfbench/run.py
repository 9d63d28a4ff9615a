#!/usr/bin/env python3
"""Host-cost benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver from the checkout's sources (under .bench_build/, or
$CARGO_TARGET_DIR when set), runs the workload for S seconds of repeated
samples, checks every sample's simulated outputs, prints a human-readable
report and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (host time, CPU, memory); --trace 1
reports the per-layer metrics of a traced run and writes a Perfetto trace.
The end-to-end times are reference seconds: each sample's host time scaled by
the speed of the host at that moment, as timed by a fixed calibration block
run beside it (calibrate.h). Simulated results are checks, never metrics.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["lcc_install", "job_mix", "cheetah_fleet", "xok_wakeup"]

# Process-global simulator switches. Every number must measure the default
# configuration, so the benchmark refuses to run with any of them set.
SWITCHES = ["EXO_SCHED_STRIDE", "EXO_DEMUX_CACHE", "EXO_TCP_ADAPTIVE_RTO", "EXO_DISK_INTEGRITY"]

# Wall (and CPU) seconds of one calibration block on the reference host, a quiet
# 4-vCPU 2.1 GHz Xeon KVM guest. A sample that took t host seconds beside
# blocks of c seconds counts t * CAL_REF_S / c reference seconds.
CAL_REF_S = 0.05

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

APP_PROGRAMS = ["sh", "gzip", "gunzip", "sor", "tsp", "grep", "wc", "cksum", "pax", "gcc",
                "cp", "diff", "rm"]

PER_LAYER = (
    [
        ("hw.construct_s", "s"),
        ("hw.minflt", "count"),
        ("hw.disk_requests", "count"),
        ("hw.disk_merge_ratio", "ratio"),
        ("hw.disk_blocks", "count"),
        ("exos.boot_s", "s"),
        ("exos.file_s", "s"),
        ("exos.meta_s", "s"),
        ("exos.proc_s", "s"),
        ("exos.compute_s", "s"),
        ("exos.calls", "count"),
        ("exos.ns_per_call", "ns"),
        ("exos.syscalls", "count"),
        ("apps.self_s", "s"),
    ]
    + [("apps.%s.self_s" % p, "s") for p in APP_PROGRAMS]
    + [
        ("xok.sched_s", "s"),
        ("xok.syscall_s", "s"),
        ("xok.demux_s", "s"),
        ("xok.context_switches", "count"),
        ("sched.stride_picks", "count"),
        ("xok.ns_per_switch", "ns"),
        ("xok.predicate_evals", "count"),
        ("xok.predicate_skips", "count"),
        ("xok.wakeups_per_eval", "ratio"),
        ("xok.packets_demuxed", "count"),
        ("xok.demux_hit_ratio", "ratio"),
        ("xok.ns_per_packet", "ns"),
        ("udf.ns_per_run", "ns"),
        ("net.server_rx_s", "s"),
        ("net.client_rx_s", "s"),
        ("tcp.tx", "count"),
        ("tcp.retx", "count"),
        ("net.retx_ratio", "ratio"),
        ("http.requests_per_conn", "ratio"),
        ("http.ns_per_request", "ns"),
        ("cluster.self_s", "s"),
        ("cluster.rounds", "count"),
        ("cluster.msgs_per_round", "ratio"),
        ("cluster.ns_per_round", "ns"),
        ("sim.sim_s", "s"),
        ("sim.sim_s_per_s", "s/s"),
        ("trace.run_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
    ]
)

# Host-time buckets of the traced run; together they partition its run_s.
SELF_BUCKETS = ["exos.file_s", "exos.meta_s", "exos.proc_s", "exos.compute_s",
                "xok.sched_s", "xok.syscall_s", "xok.demux_s", "net.server_rx_s",
                "net.client_rx_s", "cluster.self_s"]


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    # For the smoke test: reduced scale, and a substitute expected-digest file.
    p.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                   help=argparse.SUPPRESS)
    return p.parse_args()


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found under %s; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        die("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench_driver"), build_dir


def run_driver(driver, args, trace_out):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        die("driver timed out")
    if proc.returncode != 0:
        die("driver exited with code %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def verdict(args, samples):
    """Checks every sample; returns (correct, attempted, failed, notes, pinned)."""
    key = args.workload + ("@small" if args.small else "")
    with open(args.expected) as f:
        expected = json.load(f)
    want = expected["digests"].get(key) if args.seed == expected["seed"] else None
    first = samples[0]["digest"]
    attempted = failed = 0
    notes = []
    for s in samples:
        bad = []
        if s["check"]:
            bad.append("invariant: " + s["check"])
        if want is not None and s["digest"] != want:
            bad.append("digest %s != expected %s" % (s["digest"], want))
        if s["digest"] != first:
            bad.append("digest %s differs from the first sample's %s" % (s["digest"], first))
        attempted += s["ops"]
        failed += s["ops"] if bad else s["failed_ops"]
        notes += ["%s sample: %s" % (s["kind"], b) for b in bad]
    return failed == 0 and not notes, max(attempted, 1), failed, notes, want is not None


def describe(name, unit, values):
    med = statistics.median(values)
    t = tail(values)
    tail_text = ("p%.0f %.6g" % t) if t else "p- (needs >10 samples)"
    print("  %-14s median %.6g %s   %s   n=%d" % (name, med, unit, tail_text, len(values)))


def reference(s, name):
    """A sample's host time in reference seconds."""
    cal = s["cal_cpu_s"] if name == "cpu_s" else s["cal_s"]
    return s[name] * CAL_REF_S / cal


def end_to_end(untraced, end):
    m = {name: statistics.median(reference(s, name) for s in untraced)
         for name in ("run_s", "setup_s", "cpu_s")}
    m["peak_rss_mb"] = end["peak_rss_kb"] / 1024.0
    return m


def per_layer(untraced, traced, udf):
    def mean(name):
        return statistics.fmean(s["layers"].get(name, 0.0) for s in traced)

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    run_untraced = statistics.median(s["run_s"] for s in untraced)
    run_traced = statistics.fmean(s["run_s"] for s in traced)
    m = {name: mean(name) for name, _ in PER_LAYER if not name.startswith("trace.")}
    apps = [n for n in traced[0]["layers"] if n.startswith("apps.") and n.endswith(".self_s")]
    m["apps.self_s"] = sum(mean(n) for n in apps)
    merged = mean("hw.disk_merged")
    m["hw.disk_merge_ratio"] = ratio(merged, merged + m["hw.disk_requests"])
    below = m["exos.file_s"] + m["exos.meta_s"] + m["exos.proc_s"] + m["exos.compute_s"]
    m["exos.ns_per_call"] = ratio(below, m["exos.calls"], 1e9)
    m["xok.ns_per_switch"] = ratio(m["xok.sched_s"], m["xok.context_switches"], 1e9)
    m["xok.wakeups_per_eval"] = ratio(mean("xok.wakeups"), m["xok.predicate_evals"])
    m["xok.demux_hit_ratio"] = ratio(mean("xok.demux_hits"), m["xok.packets_demuxed"])
    m["xok.ns_per_packet"] = ratio(m["xok.demux_s"], m["xok.packets_demuxed"], 1e9)
    m["udf.ns_per_run"] = udf
    m["net.retx_ratio"] = ratio(m["tcp.retx"], m["tcp.tx"])
    m["http.requests_per_conn"] = ratio(mean("http.completed"), mean("http.conns"))
    m["http.ns_per_request"] = ratio(run_untraced, mean("http.window_requests"), 1e9)
    m["cluster.msgs_per_round"] = ratio(mean("cluster.msgs"), m["cluster.rounds"])
    m["cluster.ns_per_round"] = ratio(run_untraced, m["cluster.rounds"], 1e9)
    m["sim.sim_s"] = traced[0]["sim_s"]
    m["sim.sim_s_per_s"] = ratio(m["sim.sim_s"], run_untraced)
    self_sum = m["apps.self_s"] + sum(m[b] for b in SELF_BUCKETS)
    m["trace.run_s"] = run_traced
    m["trace.self_sum_s"] = self_sum
    m["trace.coverage"] = ratio(self_sum, run_traced)
    m["trace.overhead"] = ratio(statistics.median(s["run_s"] for s in traced), run_untraced) - 1
    return m


def main():
    args = parse_args()
    set_switches = [s for s in SWITCHES if s in os.environ]
    if set_switches:
        die("refusing to run with %s set: every number must measure the default "
            "configuration" % ", ".join(set_switches), code=2)
    driver, build_dir = build()
    trace_out = None
    if args.trace == 1:
        trace_out = os.path.join(build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    lines = run_driver(driver, args, trace_out)
    samples = [l for l in lines if l["kind"] in ("warmup", "untraced", "traced")]
    untraced = [l for l in lines if l["kind"] == "untraced"]
    traced = [l for l in lines if l["kind"] == "traced"]
    end = next((l for l in lines if l["kind"] == "end"), None)
    udf = next((l["ns_per_run"] for l in lines if l["kind"] == "udf"), 0.0)
    if end is None or not untraced or (args.trace == 1 and not traced):
        die("driver output incomplete")

    correct, attempted, failed, notes, pinned = verdict(args, samples)
    print("perfbench %s seed=%d (%s) seconds=%g trace=%d" %
          (args.workload, args.seed, "digest pinned" if pinned else "invariants only",
           args.seconds, args.trace))
    print("  " + samples[0]["info"])
    print("  simulated seconds of the measured phase: %.9f (a check, not a metric)" %
          samples[0]["sim_s"])
    print("  failed_frac %.6g (%d of %d operations)" % (failed / attempted, failed, attempted))
    for note in notes[:20]:
        print("  FAIL " + note)

    if args.trace == 0:
        values = end_to_end(untraced, end)
        print("  host wall seconds, unscaled: run %.6g, setup %.6g; calibration block %.6g" %
              tuple(statistics.median(s[k] for s in untraced)
                    for k in ("run_s", "setup_s", "cal_s")))
        for name, unit in END_TO_END:
            series = ([reference(s, name) for s in untraced] if name != "peak_rss_mb"
                      else [values[name]])
            describe(name, unit, series)
        units = dict(END_TO_END)
    else:
        values = per_layer(untraced, traced, udf)
        units = dict(PER_LAYER)
        print("  per-layer, %d traced and %d untraced samples:" % (len(traced), len(untraced)))
        for name, unit in PER_LAYER:
            print("  %-24s %14.6g %s" % (name, values[name], unit))
        print("  traced run: self times sum to %.1f%% of its run_s; overhead %+.1f%%" %
              (100 * values["trace.coverage"], 100 * values["trace.overhead"]))
        print("  perfetto trace: %s" % trace_out)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
