#!/usr/bin/env python3
"""The repository benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload local_ops --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the runtime and the
benchmark program aspenbench (perfbench/src) into .bench_build with
CMake. A run then launches jobs of the chosen workload back to back for
--seconds (each job is one fresh process or one fresh `aspen-run` job, all
with the run's seed), checks every job's outputs, and prints each metric
with its unit and sample count.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 every other job records spans around the runtime calls and the
metrics are the per-layer ones, including the tracing overhead. A full
record of the run (host facts, per-job values) goes to .bench_out/.
The exit status is 0 only for a run whose outputs were all correct.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
JOB_TIMEOUT_S = 60
MIN_JOBS = 3

# Each workload is one closed loop: PGAS ranks wait on their own completions.
# `ranks` is the aspen-run process count (a smp job runs its own fixed
# count); `upr` is GUPS updates per rank, to which the seed adds up to 3
# batches of 512, moving every rank's HPCC stream offset. `gups_passes` is
# odd: every pass replays the same stream, so an even count would restore
# the seeded table and its check could not fail. A run is many short jobs
# (0.7-2 s each on a 4-core host; 15 to 40 in a 30 s run), summarized over
# jobs. Table, bulk and probe sizes are constants of src/workload.hpp.
WORKLOADS = {
    "local_ops": dict(conduit="smp", env={}, plane="none", agg=False,
                      lat_batches=10000, upr=1 << 18, gups_passes=5),
    "shm_mix": dict(conduit="shm", ranks=4, env={}, plane="poll", agg=False,
                    lat_batches=10000, upr=1 << 18, gups_passes=9),
    "tcp_agg_mix": dict(conduit="tcp", ranks=4, env={"ASPEN_AGG": "1"},
                        plane="poll", agg=True, lat_batches=1000,
                        upr=1 << 16, gups_passes=5),
}

# The layer whose transport carries the latency probe's rpc on each conduit.
RPC_LAYER = {"smp": "gex", "shm": "shm", "tcp": "net"}


class BenchError(Exception):
    """The benchmark itself could not run (build or launch failure)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)


def rank_index(n, p):
    """0-based index of the nearest-rank p-th percentile of n sorted values."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return max(0, math.ceil(round(p / 100.0 * n, 6)) - 1)


def percentile(sorted_vals, p):
    return sorted_vals[rank_index(len(sorted_vals), p)]


def tail_percentile(n):
    """The highest percentile that has at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n - (rank_index(n, p) + 1) >= 10:
            return p
    return None


def p50_and_p99(samples, what):
    """Median and 99th percentile; refuses p99 without ten samples beyond."""
    vals = sorted(samples)
    tail = tail_percentile(len(vals))
    if tail is None or tail < 99.0:
        raise BenchError(f"{what}: {len(vals)} samples cannot support a p99")
    return percentile(vals, 50), percentile(vals, 99)


def median(vals):
    return statistics.median(vals) if vals else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Metric definitions
# ---------------------------------------------------------------------------

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
OVERHEAD = "bench.trace_overhead_ratio."

# Printed and recorded with every untraced run but left out of BENCHMARK.json:
# over ten seeds on a shared 4-vCPU host their spread on tcp_agg_mix reached
# 0.39-0.43 of the median, past the largest bound a metric may have, so a
# bound on them would refuse unchanged code.
TAIL = {
    "op_p99_ns": "ns",
    "defer_op_p99_ns": "ns",
}

AGG_FLUSHES = ("agg_flush_bytes", "agg_flush_frames", "agg_flush_age",
               "agg_flush_forced")


def job_end_to_end(ranks):
    """End-to-end values of one job: {metric: (value, samples)}."""
    r0 = ranks[0]
    lat = r0["lat"]
    if r0["conduit"] != "smp":
        t0 = r0["launch_ns"]
    else:
        t0 = min(r["spmd_call_ns"] for r in ranks)
    eager, defer = lat["eager"]["batch_ns"], lat["defer"]["batch_ns"]
    op50, op99 = p50_and_p99(eager, "op latency")
    d50, d99 = p50_and_p99(defer, "defer op latency")
    gups = r0["gups"]
    per_pass = gups["updates"] / len(gups["seconds"])
    mups = [per_pass / s / 1e6 for s in gups["seconds"]]
    return {
        "setup_s": ((max(r["ready_ns"] for r in ranks) - t0) / 1e9, 1),
        "op_p50_ns": (op50, len(eager)),
        "op_p99_ns": (op99, len(eager)),
        "defer_op_p50_ns": (d50, len(defer)),
        "defer_op_p99_ns": (d99, len(defer)),
        "gups_mups": (median(mups), len(mups)),
        "bulk_gbps": (sum(r["bulk"]["bytes"] for r in ranks)
                      / max(r["bulk"]["ns"] for r in ranks),
                      sum(r["bulk"]["msgs"] for r in ranks)),
        "peak_rss_mib": (sum(r["maxrss_kib"] for r in ranks
                             if r["owns_process"]) / 1024.0, 1),
    }


def end_to_end(jobs):
    """Median over a run's jobs of each per-job value, with the samples
    behind it. The median sheds the jobs a neighbour's load hit and the rare
    job whose waits park on the 1 ms idle bound."""
    return {m: (median([j[m][0] for j in jobs]), sum(j[m][1] for j in jobs))
            for m in {**END_TO_END, **TAIL}}


def counter_sum(ranks, phase, name):
    return sum(r["phases"][phase]["counters"].get(name, 0) for r in ranks)


def job_per_layer(ranks, conduit):
    """Per-layer values of one traced job."""
    r0 = ranks[0]
    spans = r0["spans"]
    m = {}
    for pass_name, prefix in (("eager", "core."), ("defer", "core.defer.")):
        p = r0["lat"][pass_name]
        usage = p["usage"]
        m[prefix + "inject_ns_p50"] = spans[pass_name + ".inject"]["self_p50_ns"]
        m[prefix + "wait_ns_p50"] = spans[pass_name + ".wait"]["self_p50_ns"]
        m[prefix + "when_all_ns_p50"] = spans[pass_name + ".when_all"]["self_p50_ns"]
        m[prefix + "ready_at_return_ratio"] = ratio(p["ready_at_return"],
                                                    p["eligible"])
        m[prefix + "allocs_per_op"] = ratio(usage["allocs"], p["ops"])
        m[prefix + "progress_calls_per_op"] = ratio(
            usage["counters"].get("progress_calls", 0), p["ops"])
        fresh = usage["counters"].get("cellpool_fresh", 0)
        if usage["allocs"] < fresh:
            raise BenchError(f"allocation hook saw {usage['allocs']} allocs "
                             f"but the cell pool reports {fresh} fresh cells")
    rtt = spans["eager.rpc"]["dur_p50_ns"]
    for layer in ("gex", "shm", "net"):
        m[layer + ".rpc_rtt_ns_p50"] = rtt if RPC_LAYER[conduit] == layer else 0
    # The parked probe: the only figure that covers a target parked in
    # endpoint::idle_wait, so it belongs to net.
    m["net.parked_rpc_rtt_ns_p50"] = (median(r0["parked_rpc_ns"])
                                      if conduit != "smp" else 0)
    m["gex.spmd_entry_ms"] = max(r["entry_ns"] - r["spmd_call_ns"]
                                 for r in ranks) / 1e6
    # barrier_ns holds the waits after the GUPS and bulk phases.
    m["gex.barrier_wait_ms"] = statistics.mean(
        sum(r["barrier_ns"]) for r in ranks) / 1e6
    # The parked probe's phase is left out of the counts: its parks would
    # swamp the context switches and kernel time of the other phases.
    phases = ("lat", "gups", "bulk")
    shm_sent = sum(counter_sum(ranks, ph, "shm_msgs_sent") for ph in phases)
    m["shm.ring_full_ratio"] = ratio(
        sum(counter_sum(ranks, ph, "shm_ring_full") for ph in phases), shm_sent)
    m["shm.bulk_staged_ratio"] = ratio(
        counter_sum(ranks, "bulk", "shm_bulk_staged"),
        counter_sum(ranks, "bulk", "shm_msgs_sent"))
    m["net.bootstrap_ms"] = ((max(r["entry_ns"] for r in ranks)
                              - r0["launch_ns"]) / 1e6
                             if conduit != "smp" else 0.0)
    updates = r0["gups"]["updates"]
    m["net.wire_bytes_per_update"] = ratio(
        counter_sum(ranks, "gups", "net_bytes_sent"), updates)
    owners = [r for r in ranks if r["owns_process"]]
    stime = sum(r["phases"][ph]["stime_us"] for r in owners for ph in phases)
    utime = sum(r["phases"][ph]["utime_us"] for r in owners for ph in phases)
    m["net.kernel_cpu_share"] = ratio(stime, stime + utime)
    nvcsw = sum(r["phases"][ph]["nvcsw"] for r in owners for ph in phases)
    attempted = sum(r["attempted"] for r in ranks)
    m["net.vol_ctx_switches_per_kop"] = ratio(nvcsw, attempted / 1000.0)
    m["net.sendq_high_water_bytes"] = max(r["sendq_high_water"] for r in ranks)
    m["net.rdzv_share"] = ratio(counter_sum(ranks, "bulk", "net_rdzv_sent"),
                                counter_sum(ranks, "bulk", "net_msgs_sent"))
    gups_flushes = sum(counter_sum(ranks, "gups", f) for f in AGG_FLUSHES)
    m["agg.frames_per_flush"] = ratio(
        counter_sum(ranks, "gups", "net_eager_sent"), gups_flushes)
    flushes = sum(counter_sum(ranks, ph, f) for ph in phases for f in AGG_FLUSHES)
    m["agg.age_flush_share"] = ratio(
        sum(counter_sum(ranks, ph, "agg_flush_age") for ph in phases), flushes)
    local_ms = [r["gups"]["local_ms"] for r in ranks]
    m["apps.gups.run_variant_ms"] = median([x for lm in local_ms for x in lm])
    m["apps.gups.rank_skew_ratio"] = median(
        [max(col) / min(col) for col in zip(*local_ms)])
    return m


# ---------------------------------------------------------------------------
# Build and jobs
# ---------------------------------------------------------------------------

def build():
    """Configures and builds aspenbench and aspen-run; returns their paths."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "aspenbench", "aspen-run"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT, check=False)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "aspenbench", BUILD / "aspen" / "aspen-run"


def scrubbed_env(extra):
    """The caller's environment without any inherited ASPEN_* knob (data
    plane, sampling, telemetry interval, watchdog, perturbation, shm, agg),
    plus the workload's declared settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ASPEN_", "PERFBENCH_"))}
    env.update(extra)
    return env


def job_seed_upr(wl, seed):
    return wl["upr"] + 512 * (seed % 4)


def reap_group(pgid):
    """Kills what is left of a job's process group (the launcher's ranks
    share it) and waits until no member remains."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise BenchError(f"processes of job group {pgid} survive SIGKILL")


def run_job(exe, launcher, wl, seed, trace, job_dir):
    """Runs one job. Returns (rank records or None if the job failed, ops
    the job planned). aspenbench writes its plan before the runtime starts,
    so a job that dies is charged for all its ops; one that never started
    is charged one."""
    job_dir.mkdir(parents=True, exist_ok=True)
    for f in job_dir.iterdir():
        f.unlink()
    args = [str(exe), "--conduit", wl["conduit"], "--seed", str(seed),
            "--trace", str(int(trace)), "--out", str(job_dir),
            "--lat-batches", str(wl["lat_batches"]),
            "--gups-upr", str(job_seed_upr(wl, seed)),
            "--gups-passes", str(wl["gups_passes"])]
    cmd = args if "ranks" not in wl else [str(launcher), "-n",
                                          str(wl["ranks"])] + args
    env = scrubbed_env(wl["env"])
    env["PERFBENCH_LAUNCH_NS"] = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    with open(job_dir / "stderr.log", "wb") as log:
        p = subprocess.Popen(cmd, env=env, stdout=log, stderr=log, cwd=ROOT,
                             start_new_session=True)
        try:
            rc = p.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            rc = "timeout"
    reap_group(p.pid)
    plan = {"nranks": 0, "ops": 1}
    if (job_dir / "plan.json").exists():
        plan = json.loads((job_dir / "plan.json").read_text())
    ranks = []
    for r in range(plan["nranks"]):
        f = job_dir / f"rank{r}.json"
        if f.exists():
            ranks.append(json.loads(f.read_text()))
    if rc != 0 or not ranks or len(ranks) != plan["nranks"]:
        tail = (job_dir / "stderr.log").read_text(errors="replace")[-2000:]
        print(f"job failed (exit {rc}, {len(ranks)} rank records):\n{tail}",
              file=sys.stderr)
        return None, plan["ops"]
    return ranks, plan["ops"]


def environment_problem(ranks, wl):
    r0 = ranks[0]
    seen = (r0["conduit"], r0["data_plane"], r0["agg"])
    want = (wl["conduit"], wl["plane"], wl["agg"])
    if seen != want:
        return f"rank 0 ran conduit/plane/agg {seen}, workload declares {want}"
    return None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def host_facts():
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, check=False)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    cache = read(BUILD / "CMakeCache.txt")
    def cache_value(key):
        for line in cache.splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "clocksource": read(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "kernel": platform.release(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "ASPEN_TELEMETRY": cache_value("ASPEN_TELEMETRY"),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(plain, traced, layer_jobs):
    """The run's metrics from its per-job values: {name: {value, unit,
    samples}}. Untraced runs report the end-to-end metrics and the tail
    figures; traced runs (with traced jobs) the per-layer metrics."""
    base = end_to_end(plain)
    if not traced:
        return {name: {"value": v, "unit": {**END_TO_END, **TAIL}[name],
                       "samples": n} for name, (v, n) in base.items()}
    tr = end_to_end(traced)
    record = {}
    for name, unit in PER_LAYER.items():
        if name.startswith(OVERHEAD):
            m = name[len(OVERHEAD):]
            v, n = ratio(tr[m][0], base[m][0]), len(traced)
        else:
            v, n = median([j[name] for j in layer_jobs]), len(layer_jobs)
        record[name] = {"value": v, "unit": unit, "samples": n}
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    wl = WORKLOADS[a.workload]
    try:
        exe, launcher = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    facts = host_facts()
    print("host: " + json.dumps(facts))

    job_dir = OUT / f"{a.workload}.job"
    ticks0 = cpu_ticks()
    start = time.monotonic()
    attempted = failed = 0
    problems = []
    plain, traced = [], []   # per-job end-to-end dicts
    layer_jobs = []          # per-job per-layer dicts
    k = 0
    while (time.monotonic() - start < a.seconds
           or len(plain) + len(traced) < (2 * MIN_JOBS if a.trace else MIN_JOBS)):
        trace_this = bool(a.trace) and k % 2 == 0
        k += 1
        try:
            ranks, planned = run_job(exe, launcher, wl, a.seed, trace_this,
                                     job_dir)
        except BenchError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            ranks, planned = None, 1
        if ranks is None:
            attempted += planned
            failed += planned
            problems.append("a job failed to run")
            break
        attempted += sum(r["attempted"] for r in ranks)
        failed += sum(r["failed"] for r in ranks)
        problem = environment_problem(ranks, wl)
        if sum(r["attempted"] for r in ranks) != planned:
            problem = (f"the job attempted {sum(r['attempted'] for r in ranks)}"
                       f" of {planned} planned ops")
        if problem:
            failed = attempted
            problems.append(problem)
            break
        try:
            (traced if trace_this else plain).append(job_end_to_end(ranks))
            if trace_this:
                layer_jobs.append(job_per_layer(ranks, wl["conduit"]))
        except BenchError as e:
            problems.append(str(e))
            break
    # CPU time the hypervisor gave to other guests: a run on a host busy
    # with neighbours reads slower, which is not the program's doing.
    ticks1 = cpu_ticks()
    facts["cpu_steal_share"] = ratio(ticks1[0] - ticks0[0],
                                     ticks1[1] - ticks0[1])
    if failed:
        problems.append(f"{failed} of {attempted} ops failed or were wrong")
    correct = not problems

    print(f"workload {a.workload}: {len(plain)} untraced + {len(traced)} "
          f"traced jobs in {time.monotonic() - start:.1f} s, seed {a.seed}")
    print(f"failed_op_ratio {ratio(failed, attempted):.6g} "
          f"(failed {failed} of {attempted} ops); "
          f"cpu steal {facts['cpu_steal_share']:.2%} of host CPU time")
    record = {}
    if correct:
        record = report(plain, traced, layer_jobs)
        jobs = len(layer_jobs) if a.trace else len(plain)
        for name, m in record.items():
            print(f"  {name:40s} {fmt(m['value']):>14s} {m['unit']:<13s} "
                  f"(n={m['samples']} over {jobs} jobs)")
    for p in problems:
        print(f"FAILED: {p}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                    "host": facts, "correct": correct, "attempted": attempted,
                    "failed": failed, "problems": problems,
                    "metrics": record,
                    "jobs": [{k: v for k, (v, _) in j.items()} for j in plain],
                    "per_layer_jobs": layer_jobs},
                   indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in record.items() if n not in TAIL},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
