// aspen::telemetry::lat histogram math: bucket boundaries, merge
// associativity, percentile extraction against a scalar reference, and the
// live-plane codec round-trip with latency fields populated. All of this
// file is build-independent (lat_hist is plain data in both configurations)
// except the registry test at the bottom, which asserts the recording hooks
// are no-ops when ASPEN_TELEMETRY is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/telemetry.hpp"
#include "core/telemetry_live.hpp"

using aspen::telemetry::disposition;
using aspen::telemetry::kLatBuckets;
using aspen::telemetry::kLatStreamCount;
using aspen::telemetry::lat_bucket;
using aspen::telemetry::lat_bucket_upper;
using aspen::telemetry::lat_hist;
using aspen::telemetry::lat_merge;
using aspen::telemetry::lat_stream;
using aspen::telemetry::op_class;
using aspen::telemetry::snapshot;
using aspen::telemetry::stream_of;

namespace {

TEST(LatBuckets, BoundaryRoundTrip) {
  // Bucket 0 holds [0, 2).
  EXPECT_EQ(lat_bucket(0), 0u);
  EXPECT_EQ(lat_bucket(1), 0u);
  EXPECT_EQ(lat_bucket(2), 1u);
  // Every power-of-two edge: 2^k opens bucket k, 2^k - 1 closes k-1,
  // 2^k + 1 stays in k.
  for (std::size_t k = 1; k < 63; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    EXPECT_EQ(lat_bucket(edge - 1), k - 1) << "k=" << k;
    EXPECT_EQ(lat_bucket(edge), k) << "k=" << k;
    EXPECT_EQ(lat_bucket(edge + 1), k) << "k=" << k;
  }
  // The top bucket saturates.
  EXPECT_EQ(lat_bucket(std::uint64_t{1} << 63), kLatBuckets - 1);
  EXPECT_EQ(lat_bucket(~std::uint64_t{0}), kLatBuckets - 1);
  // Upper bounds invert the bucket map: the bound itself lands in its own
  // bucket, and one past it lands in the next.
  for (std::size_t i = 0; i < kLatBuckets; ++i) {
    EXPECT_EQ(lat_bucket(lat_bucket_upper(i)), i) << "bucket " << i;
    if (i + 1 < kLatBuckets) {
      EXPECT_EQ(lat_bucket(lat_bucket_upper(i) + 1), i + 1) << "bucket " << i;
    }
  }
  EXPECT_EQ(lat_bucket_upper(kLatBuckets - 1), ~std::uint64_t{0});
}

lat_hist hist_of(std::initializer_list<std::uint64_t> samples) {
  lat_hist h{};
  for (const std::uint64_t s : samples) h.record(s);
  return h;
}

TEST(LatBuckets, MergeIsAssociativeAndCommutative) {
  const lat_hist a = hist_of({1, 2, 3, 1000});
  const lat_hist b = hist_of({7, 7, 7, 1u << 20});
  const lat_hist c = hist_of({0, ~std::uint64_t{0}});

  lat_hist ab_c = a;
  lat_merge(ab_c, b);
  lat_merge(ab_c, c);
  lat_hist bc = b;
  lat_merge(bc, c);
  lat_hist a_bc = a;
  lat_merge(a_bc, bc);
  EXPECT_EQ(ab_c, a_bc);

  lat_hist ba = b;
  lat_merge(ba, a);
  lat_hist ab = a;
  lat_merge(ab, b);
  EXPECT_EQ(ab, ba);

  EXPECT_EQ(ab_c.total(), 4u + 4u + 2u);
  EXPECT_EQ(ab_c.max_ns, ~std::uint64_t{0});
}

TEST(LatBuckets, PercentileMatchesScalarReference) {
  // Deterministic multiplicative-congruential stream spanning many buckets.
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 88172645463325252ull;
  lat_hist h{};
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t ns = x >> (x % 50);  // wide dynamic range
    samples.push_back(ns);
    h.record(ns);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    // Scalar reference: the histogram reports the bucket upper bound of
    // the ceil(p/100 * n)-th smallest sample.
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(samples.size()));
    if (static_cast<double>(rank) * 100.0 <
        p * static_cast<double>(samples.size()))
      ++rank;
    if (rank == 0) rank = 1;
    const std::uint64_t expect = lat_bucket_upper(lat_bucket(samples[rank - 1]));
    EXPECT_EQ(h.percentile_ns(p), expect) << "p=" << p;
  }
  // p == 100 is exact, not a bucket bound.
  EXPECT_EQ(h.percentile_ns(100.0), samples.back());
  EXPECT_EQ(h.max_ns, samples.back());
  EXPECT_EQ(lat_hist{}.percentile_ns(50.0), 0u);
}

TEST(LatBuckets, StreamGridCoversAllClasses) {
  EXPECT_EQ(stream_of(op_class::rma_put, disposition::eager),
            lat_stream::rma_put_eager);
  EXPECT_EQ(stream_of(op_class::amo, disposition::deferred),
            lat_stream::amo_deferred);
  EXPECT_EQ(stream_of(op_class::when_all, disposition::deferred),
            lat_stream::whenall_deferred);
  // Distinct, in-range streams for the whole grid.
  for (std::size_t c = 0; c < aspen::telemetry::kOpClassCount; ++c) {
    const auto e = stream_of(static_cast<op_class>(c), disposition::eager);
    const auto d = stream_of(static_cast<op_class>(c), disposition::deferred);
    EXPECT_NE(e, d);
    EXPECT_LT(static_cast<std::size_t>(d), kLatStreamCount);
  }
}

TEST(LatCodec, UpdateRoundTripsLatencyFields) {
  snapshot s{};
  s.counters[3] = 17;
  auto& rpc_d = s.lat[static_cast<std::size_t>(lat_stream::rpc_deferred)];
  rpc_d.buckets[0] = 1;
  rpc_d.buckets[13] = 5;
  rpc_d.buckets[kLatBuckets - 1] = 2;  // saturating bucket travels too
  rpc_d.max_ns = 123456789;
  auto& gap = s.lat[static_cast<std::size_t>(lat_stream::progress_gap)];
  gap.buckets[30] = 9;
  gap.max_ns = ~std::uint64_t{0};

  aspen::telemetry::live::gauges g;
  g.sendq_bytes = 11;
  g.staged_msgs = 2;
  std::vector<std::byte> body;
  aspen::telemetry::live::encode_update(s, g, body);

  snapshot out{};
  aspen::telemetry::live::gauges og;
  ASSERT_TRUE(aspen::telemetry::live::decode_update(body.data(), body.size(),
                                                    &out, &og));
  EXPECT_EQ(out, s);
  EXPECT_EQ(og.sendq_bytes, 11u);
  EXPECT_EQ(og.staged_msgs, 2u);
}

TEST(LatCodec, FieldSpaceCoversEveryStream) {
  // The flat field space must address all 13 streams x (64 buckets +
  // max_ns); a stream silently left out of the codec would break the live
  // == sidecar bit-identity invariant.
  EXPECT_EQ(aspen::telemetry::live::kFieldCount,
            aspen::telemetry::live::kLatFieldBase +
                kLatStreamCount * (kLatBuckets + 1));
}

TEST(LatRecording, HooksFollowBuildConfiguration) {
  const snapshot before = aspen::telemetry::aggregate();
  aspen::telemetry::note_latency(lat_stream::agg_batch_fill, 4096);
  aspen::telemetry::note_latency(lat_stream::agg_batch_fill, 5);
  const snapshot d = aspen::telemetry::aggregate() - before;
  const lat_hist& h = d.lat_of(lat_stream::agg_batch_fill);
  if (aspen::telemetry::compiled_in()) {
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.buckets[lat_bucket(4096)], 1u);
    EXPECT_GE(h.max_ns, 4096u);
  } else {
    // Compiled out: recording is a no-op and snapshots stay all-zero.
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.max_ns, 0u);
  }
}

}  // namespace
