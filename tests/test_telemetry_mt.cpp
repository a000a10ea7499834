// Multithreaded snapshot-stability regression (torn-read audit follow-up).
//
// aggregate() folds per-thread telemetry records that other threads mutate
// concurrently with plain stores, so a single fold can observe a torn
// mid-update view. bench::stable_aggregate() re-folds until two consecutive
// aggregates agree; under concurrent writers the values it returns must be
// monotone across calls (counters and histogram buckets only ever grow).
// Run under TSan via the telemetry_mt leg of the sanitizer build.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "benchutil/telemetry_report.hpp"
#include "core/telemetry.hpp"

namespace {

using aspen::telemetry::counter;
using aspen::telemetry::lat_stream;
using aspen::telemetry::snapshot;

TEST(TelemetryMt, StableAggregateIsMonotoneUnderWriters) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrote{0};
  constexpr int kWriters = 4;
  // Baseline before any writer exists — every write the threads make is
  // then part of end - start, making the post-join accounting exact.
  const snapshot start = aspen::bench::stable_aggregate();
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stop, &wrote, w] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        aspen::telemetry::count(counter::cx_eager_taken);
        aspen::telemetry::count(counter::am_sent, 2);
        aspen::telemetry::note_latency(lat_stream::agg_batch_fill,
                                       (n % 4096) + 1);
        aspen::telemetry::note_latency(
            lat_stream::progress_gap,
            std::uint64_t{1} << (n % 40));
        ++n;
      }
      wrote.fetch_add(n, std::memory_order_relaxed);
      (void)w;
    });
  }

  snapshot prev = start;
  for (int i = 0; i < 200; ++i) {
    const snapshot cur = aspen::bench::stable_aggregate();
    // Counters only grow.
    for (std::size_t c = 0; c < aspen::telemetry::kCounterCount; ++c)
      ASSERT_GE(cur.counters[c], prev.counters[c]) << "counter " << c;
    // Histogram buckets and the running max only grow.
    for (std::size_t s = 0; s < aspen::telemetry::kLatStreamCount; ++s) {
      for (std::size_t b = 0; b < aspen::telemetry::kLatBuckets; ++b)
        ASSERT_GE(cur.lat[s].buckets[b], prev.lat[s].buckets[b])
            << "stream " << s << " bucket " << b;
      ASSERT_GE(cur.lat[s].max_ns, prev.lat[s].max_ns) << "stream " << s;
    }
    prev = cur;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();

  // Quiesced: the final fold accounts for every write exactly once.
  const snapshot end = aspen::bench::stable_aggregate();
  const std::uint64_t n = wrote.load(std::memory_order_relaxed);
  EXPECT_EQ(end.get(counter::cx_eager_taken) -
                start.get(counter::cx_eager_taken),
            n);
  EXPECT_EQ(end.get(counter::am_sent) - start.get(counter::am_sent), 2 * n);
  EXPECT_EQ(end.lat_of(lat_stream::agg_batch_fill).total() -
                start.lat_of(lat_stream::agg_batch_fill).total(),
            n);
}

TEST(TelemetryMt, StableAggregateQuiescentIsExactFixpoint) {
  // With no writers running, one fold already equals the next: the loop
  // must terminate immediately and repeated calls must agree bit-for-bit.
  const snapshot a = aspen::bench::stable_aggregate();
  const snapshot b = aspen::bench::stable_aggregate();
  EXPECT_EQ(a, b);
}

}  // namespace
