"""Tests of perfbench/run.py: the percentile rule, metric emission against
BENCHMARK.json, the layer map, and environment hygiene.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import unittest
from pathlib import Path
from unittest import mock

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def fake_rank(r, n, conduit):
    """A rank record shaped like aspenbench's rank<r>.json."""
    usage = {"utime_us": 900, "stime_us": 100, "nvcsw": 3,
             "allocs": 40,
             "counters": {"progress_calls": 7, "cellpool_fresh": 2,
                          "net_bytes_sent": 4096, "net_eager_sent": 64,
                          "net_rdzv_sent": 2, "net_msgs_sent": 8,
                          "shm_msgs_sent": 10, "shm_ring_full": 1,
                          "shm_bulk_staged": 4, "agg_flush_age": 2,
                          "agg_flush_bytes": 6}}
    rec = {
        "rank": r, "nranks": n, "owns_process": conduit != "smp" or r == 0,
        "launch_ns": 1_000, "spmd_call_ns": 2_000, "entry_ns": 5_000 + r,
        "ready_ns": 9_000 + r, "conduit": conduit, "data_plane": "poll",
        "agg": False,
        "gups": {"updates": 4000, "seconds": [0.001, 0.002],
                 "local_ms": [1.0 + r, 2.0], "bad_entries": 0},
        "bulk": {"msgs": 4, "bytes": 4 << 18, "ns": 1_000_000 + r,
                 "bad_replies": 0, "bad_receipts": 0},
        "phases": {ph: usage for ph in ("lat", "park", "gups", "bulk")},
        "barrier_ns": [20, 30], "attempted": 100, "failed": 0,
        "maxrss_kib": 2048, "sendq_high_water": 512,
    }
    if r == 0:
        rec["parked_rpc_ns"] = [900.0 + i for i in range(128)]
        rec["lat"] = {p: {"ops": 31 * 40, "failed": 0, "eligible": 30 * 40,
                          "ready_at_return": 30 * 40 if p == "eager" else 0,
                          "usage": usage,
                          "batch_ns": [float(i) for i in range(1, 1001)]}
                      for p in ("eager", "defer")}
        rec["spans"] = {
            f"{p}.{s}": {"count": 5, "self_p50_ns": 11, "dur_p50_ns": 13,
                         "self_total_ns": 55, "dur_total_ns": 65}
            for p in ("eager", "defer")
            for s in ("op", "inject", "when_all", "wait", "rpc")}
    return rec


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(10_000), 99.9)
        self.assertEqual(run.tail_percentile(100_000), 99.99)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_p99_needs_ten_samples_beyond(self):
        p50, p99 = run.p50_and_p99(range(1000, 0, -1), "x")
        self.assertEqual((p50, p99), (500, 990))
        self.assertEqual(sum(1 for v in range(1, 1001) if v > p99), 10)
        with self.assertRaises(run.BenchError):
            run.p50_and_p99(range(999), "x")


def spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class Emission(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_is_emitted_with_a_unit(self):
        for conduit in ("smp", "shm", "tcp"):
            n = 2 if conduit == "smp" else 4
            ranks = [fake_rank(r, n, conduit) for r in range(n)]
            jobs = [run.job_end_to_end(ranks) for _ in range(3)]
            layers = [run.job_per_layer(ranks, conduit) for _ in range(3)]
            untraced = run.report(jobs, [], [])
            self.assertEqual(
                {k: m["unit"] for k, m in untraced.items() if k not in run.TAIL},
                spec_units("end_to_end"))
            traced = run.report(jobs, jobs, layers)
            self.assertEqual({k: m["unit"] for k, m in traced.items()},
                             spec_units("per_layer"))
            for name, m in untraced.items():
                self.assertGreater(m["value"], 0, name)
                self.assertGreater(m["samples"], 0, name)
            for name, m in traced.items():
                self.assertGreater(m["samples"], 0, name)
            self.assertEqual(traced["core.ready_at_return_ratio"]["value"], 1.0)
            self.assertEqual(
                traced["core.defer.ready_at_return_ratio"]["value"], 0.0)

    def test_allocation_cross_check(self):
        ranks = [fake_rank(r, 2, "smp") for r in range(2)]
        ranks[0]["lat"]["eager"]["usage"] = dict(
            ranks[0]["lat"]["eager"]["usage"], allocs=1)
        with self.assertRaises(run.BenchError):
            run.job_per_layer(ranks, "smp")

    def test_layer_map_names_real_metrics(self):
        e2e = set(run.END_TO_END) | set(run.TAIL)
        for m in SPEC["per_layer"]:
            entry = LAYERS[m["name"]]
            self.assertLessEqual(set(entry["moves"]), e2e, m["name"])
            self.assertLessEqual(set(entry["on"]) | set(entry["quiet_on"]),
                                 set(run.WORKLOADS), m["name"])
        self.assertEqual(set(LAYERS) - {"_doc"},
                         {m["name"] for m in SPEC["per_layer"]})


class GupsCheck(unittest.TestCase):
    def test_every_workload_runs_an_odd_pass_count(self):
        # Each pass replays the same stream: an even count restores the
        # seeded table, and the check against the replay could not fail.
        for name, wl in run.WORKLOADS.items():
            self.assertEqual(wl["gups_passes"] % 2, 1, name)


class Hygiene(unittest.TestCase):
    def test_inherited_knobs_are_scrubbed(self):
        stray = {"ASPEN_NET_URING": "1", "ASPEN_TRACE_SAMPLE": "8",
                 "ASPEN_TELEMETRY_INTERVAL_MS": "5", "ASPEN_WATCHDOG_MS": "1",
                 "ASPEN_PERTURB_SEED": "3", "ASPEN_SHM": "0",
                 "ASPEN_AGG": "0", "PATH": os.environ.get("PATH", "")}
        with mock.patch.dict(os.environ, stray, clear=True):
            env = run.scrubbed_env({"ASPEN_AGG": "1"})
        self.assertEqual({k for k in env if k.startswith("ASPEN_")},
                         {"ASPEN_AGG"})
        self.assertEqual(env["ASPEN_AGG"], "1")
        self.assertIn("PATH", env)

    def test_declared_plane_and_conduit_are_enforced(self):
        wl = run.WORKLOADS["tcp_agg_mix"]
        ranks = [fake_rank(r, 4, "tcp") for r in range(4)]
        ranks[0]["agg"] = True
        self.assertIsNone(run.environment_problem(ranks, wl))
        ranks[0]["data_plane"] = "uring"
        self.assertIsNotNone(run.environment_problem(ranks, wl))
        ranks[0]["data_plane"] = "poll"
        ranks[0]["conduit"] = "shm"
        self.assertIsNotNone(run.environment_problem(ranks, wl))


if __name__ == "__main__":
    unittest.main()
