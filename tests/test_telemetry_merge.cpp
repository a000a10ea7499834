// Cross-process telemetry aggregation: per-rank sidecar files written by
// separate processes (conduit::tcp jobs) round-trip through the sidecar
// parser and merge with sum/max semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "benchutil/telemetry_report.hpp"

namespace bench = aspen::bench;
using aspen::telemetry::counter;
using aspen::telemetry::snapshot;

namespace {

snapshot make_snapshot(std::uint64_t base) {
  snapshot s{};
  s.counters[static_cast<std::size_t>(counter::am_sent)] = base + 1;
  s.counters[static_cast<std::size_t>(counter::cx_eager_taken)] = base + 2;
  s.counters[static_cast<std::size_t>(counter::net_msgs_sent)] = base + 3;
  s.counters[static_cast<std::size_t>(counter::net_bytes_received)] =
      base * 1000;
  s.pq_high_water = base;
  s.pq_reserve_growths = base;
  s.pq_total_fired = 10 * base;
  s.lpc_mailbox_high_water = 100 - base;
  s.pq_fire_hist[0] = base;
  s.pq_fire_hist[3] = 2 * base;
  using aspen::telemetry::lat_stream;
  auto& amo_e = s.lat[static_cast<std::size_t>(lat_stream::amo_eager)];
  amo_e.buckets[7] = base + 5;
  amo_e.buckets[63] = base;  // saturating top bucket survives the sidecar
  amo_e.max_ns = 1000 * base;
  auto& fill = s.lat[static_cast<std::size_t>(lat_stream::agg_batch_fill)];
  fill.buckets[12] = 3 * base;
  fill.max_ns = 77 + base;
  return s;
}

TEST(TelemetryMerge, RankSidecarNaming) {
  EXPECT_EQ(bench::rank_sidecar_path("out/fig5", 3),
            "out/fig5.rank3.telemetry.json");
}

TEST(TelemetryMerge, SidecarRoundTripsThroughParser) {
  const std::string path =
      ::testing::TempDir() + "aspen_sidecar_roundtrip.json";
  const snapshot wrote = make_snapshot(7);
  ASSERT_TRUE(bench::write_telemetry_sidecar(path, "roundtrip", wrote));

  std::string name;
  snapshot read{};
  ASSERT_TRUE(bench::read_telemetry_sidecar(path, &name, &read));
  EXPECT_EQ(name, "roundtrip");
  for (std::size_t i = 0; i < aspen::telemetry::kCounterCount; ++i)
    EXPECT_EQ(read.counters[i], wrote.counters[i]) << "counter " << i;
  EXPECT_EQ(read.pq_high_water, wrote.pq_high_water);
  EXPECT_EQ(read.pq_reserve_growths, wrote.pq_reserve_growths);
  EXPECT_EQ(read.pq_total_fired, wrote.pq_total_fired);
  EXPECT_EQ(read.lpc_mailbox_high_water, wrote.lpc_mailbox_high_water);
  for (std::size_t i = 0; i < aspen::telemetry::kPqBatchBuckets; ++i)
    EXPECT_EQ(read.pq_fire_hist[i], wrote.pq_fire_hist[i]) << "bucket " << i;
  for (std::size_t s = 0; s < aspen::telemetry::kLatStreamCount; ++s)
    EXPECT_EQ(read.lat[s], wrote.lat[s]) << "lat stream " << s;
  // Full-structure equality: anything the sidecar dropped shows up here.
  EXPECT_EQ(read, wrote);
  std::remove(path.c_str());
}

TEST(TelemetryMerge, ReadRejectsNonSidecar) {
  snapshot s{};
  EXPECT_FALSE(
      bench::read_telemetry_sidecar("/nonexistent/sidecar.json", nullptr, &s));
  const std::string path = ::testing::TempDir() + "aspen_not_a_sidecar.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"something\": \"else\"}\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(bench::read_telemetry_sidecar(path, nullptr, &s));
  std::remove(path.c_str());
}

TEST(TelemetryMerge, MergeSumsCountersAndMaxesHighWaters) {
  const snapshot a = make_snapshot(3);
  const snapshot b = make_snapshot(40);
  const snapshot m = bench::merge_snapshots({a, b});
  EXPECT_EQ(m.get(counter::am_sent), (3 + 1) + (40 + 1));
  EXPECT_EQ(m.get(counter::net_msgs_sent), (3 + 3) + (40 + 3));
  EXPECT_EQ(m.pq_total_fired, 30u + 400u);
  EXPECT_EQ(m.pq_reserve_growths, 43u);
  EXPECT_EQ(m.pq_fire_hist[3], 2u * 43u);
  // High-water marks are per-process maxima, not sums.
  EXPECT_EQ(m.pq_high_water, 40u);
  EXPECT_EQ(m.lpc_mailbox_high_water, 97u);
  // Latency histograms: buckets add, max_ns maxes.
  using aspen::telemetry::lat_stream;
  const auto& amo_e =
      m.lat[static_cast<std::size_t>(lat_stream::amo_eager)];
  EXPECT_EQ(amo_e.buckets[7], (3u + 5u) + (40u + 5u));
  EXPECT_EQ(amo_e.buckets[63], 43u);
  EXPECT_EQ(amo_e.max_ns, 40'000u);
  EXPECT_EQ(m.lat[static_cast<std::size_t>(lat_stream::agg_batch_fill)].max_ns,
            117u);
}

TEST(TelemetryMerge, MergeRankSidecarsSkipsMissingRanks) {
  const std::string base = ::testing::TempDir() + "aspen_merge_job";
  ASSERT_TRUE(bench::write_telemetry_sidecar(
      bench::rank_sidecar_path(base, 0), "job", make_snapshot(1)));
  // Rank 1's sidecar is missing (crashed rank); rank 2's is present.
  ASSERT_TRUE(bench::write_telemetry_sidecar(
      bench::rank_sidecar_path(base, 2), "job", make_snapshot(2)));

  snapshot m{};
  EXPECT_EQ(bench::merge_rank_sidecars(base, 3, &m), 2);
  EXPECT_EQ(m.get(counter::cx_eager_taken), (1 + 2) + (2 + 2));
  EXPECT_EQ(m.pq_high_water, 2u);
  std::remove(bench::rank_sidecar_path(base, 0).c_str());
  std::remove(bench::rank_sidecar_path(base, 2).c_str());
}

}  // namespace
