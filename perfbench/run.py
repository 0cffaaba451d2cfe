#!/usr/bin/env python3
"""Host-performance benchmark of the uldma simulator (perfbench/README.md).

Builds perfbench/uldma_perfbench (Release) from the source tree, runs one
workload, checks its outputs, prints a human summary and, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload storm --seed 3 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--workload all runs every workload in turn and prefixes each metric with
its workload's name.
Run it from the repository root.  The build goes to $CARGO_TARGET_DIR,
or .bench_build when that is unset.  Exit status: 0 when every check
passed, 1 when a check failed, 2 when the build or the run broke.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import benchmath as bm  # noqa: E402

WORKLOADS = ("table1", "storm", "shards", "fuzz")
BASELINE_TABLE1 = "bench/baselines/BENCH_table1.json"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build and environment -------------------------------------------------

def build(build_dir):
    """Configure (once) and build uldma_perfbench; returns its path."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "perfbench", "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j2",
                  "--target", "uldma_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(2)
    return build_dir / "uldma_perfbench"


def cache_value(build_dir, key):
    cache = build_dir / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "?"


def compiler(build_dir):
    for path in sorted((build_dir / "CMakeFiles").glob(
            "*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in path.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith("set(%s " % key):
                    fields[key] = line.split('"')[1]
        if fields:
            return "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return "?"


def commit():
    """The git commit, or a digest of the sources when not in git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for root in ("src", "perfbench"):
        for path in sorted(pathlib.Path(root).rglob("*")):
            if path.is_file():
                digest.update(str(path).encode())
                digest.update(path.read_bytes())
    return "no git; source sha256 " + digest.hexdigest()[:16]


# --- metrics ---------------------------------------------------------------

def wall_rates(raw):
    """Completed work per host second of each iteration, as measured."""
    return [i["work"] / (i["wall_ns"] / 1e9) for i in raw["iterations"]]


def end_to_end(raw, human):
    """The end-to-end metrics (--trace 0).  Host times are rescaled to
    nominal host speed by the reference passes around each iteration."""
    iters = raw["iterations"]
    scale = bm.host_scale(raw["reference_ns"], len(iters))
    rates = [i["work"] / (i["wall_ns"] / 1e9 * f)
             for i, f in zip(iters, scale)]
    probes = len(raw["setup_ns"]) // len(iters)
    setup = [ns / 1e9 * scale[k // probes]
             for k, ns in enumerate(raw["setup_ns"])]
    rate_name = "fuzz_execs_per_s" if raw["workload"] == "fuzz" \
        else "xfers_per_host_s"
    human.append(("ops_per_ref_s (%s)" % rate_name, "1/s", rates, False))
    human.append(("setup_s", "s", setup, True))
    human.append(("as measured: ops_per_wall_s", "1/s", wall_rates(raw),
                  False))
    human.append(("as measured: iteration_s", "s",
                  [i["wall_ns"] / 1e9 for i in iters], True))
    human.append(("reference pass", "ms",
                  [ns / 1e6 for ns in raw["reference_ns"]], True))
    return {
        "setup_s": (bm.median(setup), "s"),
        "ops_per_ref_s": (bm.median(rates), "1/s"),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024.0, "MiB"),
    }


def simulated(raw):
    """Simulated results: they repeat exactly for a seed."""
    sim = raw["sim"]
    out = {
        "sim.e2e_p50_us": (sim.get("e2e_p50_us", 0.0), "sim_us"),
        "sim.e2e_p99_us": (sim.get("e2e_p99_us", 0.0), "sim_us"),
        "sim.xfers_per_sim_s": (sim.get("xfers_per_sim_s", 0.0), "1/sim_s"),
        "sim.fuzz_edges": (sim.get("edges", 0.0), "count"),
        "sim.table1_err_pct": (0.0, "%"),
    }
    rows = [(sim[k], sim["paper_us." + k[len("avg_us."):]])
            for k in sim if k.startswith("avg_us.")]
    if rows:
        out["sim.table1_err_pct"] = (bm.table1_err_pct(rows), "%")
    return out


def per_layer(raw):
    """The per-layer metrics (--trace 1), 0 where a workload does not
    exercise the layer."""
    traced = raw["traced"]
    prof = raw["profile"]
    iters = max(1, raw["profiled_iterations"])
    sc = raw["scalars"]
    av = raw["averages"]
    sim = raw["sim"]
    work = raw["iterations"][0]["work"]
    ms = 1e6

    def med(key):
        return bm.median([t[key] for t in traced]) if traced else 0.0

    def avg_mean(key, scale=1.0):
        cnt, total = av.get(key, {}).get("count", 0), \
            av.get(key, {}).get("sum", 0.0)
        return bm.ratio(total, cnt) * scale

    phases = [bm.attribute(t) for t in traced]
    run_ns = bm.inclusive_ns(prof, "machine.run") / iters
    events = bm.count(prof, "machine.step") / iters
    run_incl = bm.inclusive_ns(prof, "machine.run")
    plan_ns = med("plan_ns")
    pools = raw["pool"]
    node_ticks = raw["node_duration_us"] * raw["ticks_per_us"]
    rejects = sum(sc.get("dma." + k, 0) for k in (
        "rejections", "key_mismatches", "ring_rejects", "cap_rejects"))
    execs = sim.get("execs", 0.0)
    shrink = sim.get("shrink_execs", 0.0)
    tlb = sc.get("cpu.tlb.hits", 0) + sc.get("cpu.tlb.misses", 0)
    iotlb = sc.get("dma.iommu.iotlb_hits", 0) + \
        sc.get("dma.iommu.iotlb_misses", 0)
    untraced = bm.median([t["untraced_wall_ns"] for t in traced])
    wall = bm.median([t["wall_ns"] for t in traced])
    peak_mib = raw["peak_rss_kib"] / 1024.0
    is_fuzz = raw["workload"] == "fuzz"

    m = {
        "host.reference_ms": (bm.median(raw["reference_ns"]) / ms,
                              "host_ms"),
        "host.ops_per_wall_s": (bm.median(wall_rates(raw)), "1/s"),
        "workload.parse_ms": (med("parse_ns") / ms, "host_ms"),
        "workload.plan_ms": (plan_ns / ms, "host_ms"),
        "workload.setup_ms": (bm.median([p["setup"] for p in phases]) / ms,
                              "host_ms"),
        "workload.teardown_ms": (bm.median([p["teardown"] for p in phases])
                                 / ms, "host_ms"),
        "workload.merge_ms": ((bm.median([bm.merge_ns(p, plan_ns)
                                          for p in pools]) / ms)
                              if pools else 0.0, "host_ms"),
        "workload.worker_busy_frac": (bm.median([bm.busy_frac(p)
                                                 for p in pools])
                                      if pools else 0.0, "frac"),
        "workload.report_ms": (med("report_ns") / ms, "host_ms"),
        "core.run_ms": (run_ns / ms, "host_ms"),
        "core.loop_self_frac": (bm.ratio(bm.self_ns(prof, "machine.run"),
                                         run_incl), "frac"),
        "core.events": (events, "count"),
        "core.events_per_xfer": (bm.ratio(events, work), "count"),
        "core.ns_per_event": (bm.ratio(run_ns, events), "host_ns"),
        "core.init_build_ms": ((bm.median(raw["init_build_ns"]) / ms)
                               if raw["init_build_ns"] else 0.0, "host_ms"),
        "cpu.instr_per_xfer": (bm.ratio(sc.get("cpu.instructions", 0), work),
                               "count"),
        "cpu.uncached_loads_per_xfer": (bm.ratio(
            sc.get("cpu.uncached_loads", 0), work), "count"),
        "cpu.wb.drains": (sc.get("cpu.wb.drains", 0), "count"),
        "table1.instr_per_init": (sim.get("instr_per_init", 0.0), "count"),
        "table1.uncached_per_init": (sim.get("uncached_per_init", 0.0),
                                     "count"),
        "vm.tlb_hit_ratio": (bm.ratio(sc.get("cpu.tlb.hits", 0), tlb),
                             "frac"),
        "mem.bus_ops": (sc.get("bus.reads", 0) + sc.get("bus.writes", 0),
                        "count"),
        "mem.bus_latency_ns_mean": (avg_mean("bus.latency_ns"), "sim_ns"),
        "mem.bus_contended": (sc.get("bus.contended", 0), "count"),
        "mem.rss_mib_per_node": (peak_mib / max(1, raw["nodes_alive"]),
                                 "MiB"),
        "mem.bytes_moved_per_host_s": (bm.ratio(
            sc.get("dma.xfer.bytes_moved", 0), run_ns / 1e9), "B/host_s"),
        "dma.access_frac": (bm.ratio(bm.inclusive_ns(
            prof, "dma.access", under="machine.run"), run_incl), "frac"),
        "dma.transfer_complete_frac": (bm.ratio(bm.inclusive_ns(
            prof, "dma.transfer_complete", under="machine.run"), run_incl),
            "frac"),
        "dma.descr_per_doorbell": (bm.ratio(sc.get("dma.ring_descriptors", 0),
                                            sc.get("dma.ring_doorbells", 0)),
                                   "count"),
        "dma.reject_frac": (bm.ratio(rejects,
                                     sc.get("dma.initiations", 0) + rejects),
                            "frac"),
        "dma.xfer_busy_frac": (bm.ratio(sc.get("dma.xfer.busy_ticks", 0),
                                        node_ticks), "frac"),
        "dma.xfer_queue_wait_us_mean": (avg_mean("dma.xfer.queue_wait_us"),
                                        "sim_us"),
        "iommu.iotlb_hit_ratio": (bm.ratio(sc.get("dma.iommu.iotlb_hits", 0),
                                           iotlb), "frac"),
        "iommu.walks_per_xfer": (bm.ratio(sc.get("dma.iommu.walks", 0), work),
                                 "count"),
        "iommu.segments_per_xfer": (bm.ratio(sc.get("dma.iommu_segments", 0),
                                             work), "count"),
        "cap.arbiter_queue_wait_us_mean": (avg_mean(
            "dma.cap_arbiter.queue_wait_ticks",
            1.0 / raw["ticks_per_us"]), "sim_us"),
        "cap.credit_refills": (sc.get("dma.cap_arbiter.credit_refills", 0),
                               "count"),
        "cap.checks": (sc.get("dma.cap.checks", 0), "count"),
        "os.context_switches_per_xfer": (bm.ratio(
            sc.get("kernel.context_switches", 0), work), "count"),
        "os.context_switch_frac": (bm.ratio(bm.inclusive_ns(
            prof, "kernel.context_switch", under="machine.run"), run_incl),
            "frac"),
        "os.syscalls": (bm.count(prof, "kernel.syscall") / iters, "count"),
        "sim.stat_scalars": (raw["stat_scalars_per_machine"], "count"),
        "check.exec_us": ((bm.median([i["wall_ns"] / i["work"]
                                      for i in raw["iterations"]]) / 1e3)
                          if is_fuzz else 0.0, "host_us"),
        "check.run_schedule_us": ((bm.median(raw["run_schedule_ns"]) / 1e3)
                                  if raw["run_schedule_ns"] else 0.0,
                                  "host_us"),
        "check.shrink_frac": (bm.ratio(shrink, execs + shrink), "frac"),
        "check.corpus": (sim.get("corpus", 0.0), "count"),
        "check.edges_per_kexec": (bm.ratio(sim.get("edges", 0.0), execs)
                                  * 1e3, "count"),
        "trace.overhead_frac": (bm.ratio(wall, untraced) - 1.0, "frac"),
        "trace.unattributed_frac": (bm.median(
            [bm.ratio(p["unattributed"], t["wall_ns"])
             for p, t in zip(phases, traced)]), "frac"),
    }
    m.update(simulated(raw))
    return m, phases


# --- checks ----------------------------------------------------------------

def check_table1_baseline(raw, problems):
    """table1's four avg_us must equal the committed Table-1 baseline."""
    try:
        with open(BASELINE_TABLE1) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        problems.append("cannot read %s: %s" % (BASELINE_TABLE1, e))
        return
    base = {r["config"]["method"]: r["metrics"]["avg_us"]
            for r in doc["records"] if r["name"].startswith("table1/")}
    measured = {k[len("avg_us."):]: v for k, v in raw["sim"].items()
                if k.startswith("avg_us.")}
    if measured != base:
        problems.append("table1 avg_us %r != baseline %r"
                        % (measured, base))


# --- output ----------------------------------------------------------------

def print_human(raw, header, human, metrics, phases):
    for line in header:
        print(line)
    print("workload  : %s (seed %d) - %s" % (raw["workload"], raw["seed"],
                                              raw["input"]))
    for name, unit, values, higher_is_worse in human:
        p, value, n = bm.tail(values, higher_is_worse)
        tail = ("p%g %.6g" % (p if higher_is_worse else 100 - p, value)
                if p is not None else "tail n/a (<20 samples)")
        print("  %-30s median %-12.6g %s  n=%d  [%s]"
              % (name, bm.median(values), tail, n, unit))
    for name, (value, unit) in metrics.items():
        print("  %-30s %-12.6g [%s]" % (name, value, unit))
    if phases:
        print("  traced phases, share of wall over %d iteration(s):"
              % len(phases))
        total = sum(sum(p.values()) for p in phases)
        for key in phases[0]:
            print("    %-14s %.4f" % (key, bm.ratio(
                sum(p[key] for p in phases), total)))


def run_workload(binary, build_dir, workload, args):
    """Run one workload, print its summary, and return
    (correct, attempted, failed, metrics), or None when the run broke."""
    nproc = len(os.sched_getaffinity(0))
    load_start = os.getloadavg()[0]
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    load_end = os.getloadavg()[0]
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        log("perfbench: uldma_perfbench failed with exit code %d"
            % proc.returncode)
        return None
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    header = [
        "env       : nproc %d, loadavg %.2f -> %.2f, build %s, %s"
        % (nproc, load_start, load_end,
           cache_value(build_dir, "CMAKE_BUILD_TYPE"), compiler(build_dir)),
        "commit    : %s" % commit(),
    ]
    if max(load_start, load_end) > nproc:
        header.append("WARNING   : load average exceeded nproc; host "
                      "timings of this run are suspect")

    problems = list(raw["checks"]["messages"])
    if workload == "table1":
        check_table1_baseline(raw, problems)
    attempted = max(1, sum(i["attempted"] for i in raw["iterations"]))
    failed = (sum(i["failed"] for i in raw["iterations"]) +
              raw["checks"]["failed"] +
              len(problems) - len(raw["checks"]["messages"]))
    correct = proc.returncode == 0 and not problems and failed == 0

    human = []
    phases = []
    if args.trace:
        metrics, phases = per_layer(raw)
        shown = metrics
    else:
        metrics = end_to_end(raw, human)
        shown = {"peak_rss_mib": metrics["peak_rss_mib"]}
        shown.update((k, v) for k, v in simulated(raw).items() if v[0])
        shown["fail_frac"] = (bm.fail_frac(failed, attempted), "frac")
    print_human(raw, header, human, shown, phases)
    for p in problems:
        print("CHECK FAILED: %s" % p)
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = build(build_dir)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(binary, build_dir, workload, args)
        if result is None:
            return 2
        results.append(result)

    metrics = {}
    for workload, (_, _, _, m) in zip(workloads, results):
        prefix = workload + "." if len(workloads) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()})
    correct = all(r[0] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[1] for r in results),
        "failed": sum(r[2] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
