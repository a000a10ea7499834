// Injection-site instrumentation (core/op_scope.hpp): every op draws once
// from its thread's rank-seeded stream, and only one op in
// telemetry::kTimedOneIn reads the clock and feeds a latency histogram.
// Counters stay exact; the sampled histograms are a deterministic function
// of the stream, and an otrace-sampled op is always timed.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/aspen.hpp"
#include "core/op_scope.hpp"
#include "core/otrace.hpp"

using namespace aspen;
using telemetry::counter;
using telemetry::lat_stream;

namespace {

constexpr std::uint64_t kN = 4096;

#if ASPEN_TELEMETRY_ENABLED

/// kN local rputs under `v` from a freshly reset draw stream; returns the
/// counter/histogram delta.
telemetry::snapshot run_puts(emulated_version v,
                             global_ptr<std::uint64_t> gp) {
  set_version_config(version_config::make(v));
  otrace::reset_sampling();
  const telemetry::snapshot before = telemetry::local_snapshot();
  for (std::uint64_t i = 0; i < kN; ++i) rput(i, gp).wait();
  return telemetry::local_snapshot() - before;
}

void expect_sampled(const telemetry::snapshot& d, lat_stream s) {
  const std::uint64_t timed = d.lat_of(s).total();
  EXPECT_GE(timed, kN / 32) << telemetry::to_string(s);
  EXPECT_LE(timed, kN / 8) << telemetry::to_string(s);
}

TEST(OpSampling, CountersExactLatencySampled) {
  aspen::spmd(1, [] {
    otrace::configure(0, 1 << 16, "op_sampling_test");
    auto gp = new_<std::uint64_t>(0);
    rput(std::uint64_t{0}, gp).wait();  // warm the pools

    const auto eager = run_puts(emulated_version::v2021_3_6_eager, gp);
    EXPECT_EQ(eager.get(counter::cx_eager_taken), kN);
    EXPECT_EQ(eager.get(counter::cx_deferred_queued), 0u);
    EXPECT_EQ(eager.get(counter::rma_put_local), kN);
    expect_sampled(eager, lat_stream::rma_put_eager);
    EXPECT_EQ(eager.lat_of(lat_stream::rma_put_deferred).total(), 0u);

    const auto deferred = run_puts(emulated_version::v2021_3_6_defer, gp);
    EXPECT_EQ(deferred.get(counter::cx_deferred_queued), kN);
    EXPECT_EQ(deferred.get(counter::cx_eager_taken), 0u);
    EXPECT_EQ(deferred.get(counter::rma_put_local), kN);
    expect_sampled(deferred, lat_stream::rma_put_deferred);
    EXPECT_EQ(deferred.lat_of(lat_stream::rma_put_eager).total(), 0u);

    // Same stream, same ops: the same ops are timed again.
    const auto eager2 = run_puts(emulated_version::v2021_3_6_eager, gp);
    EXPECT_EQ(eager2.lat_of(lat_stream::rma_put_eager).total(),
              eager.lat_of(lat_stream::rma_put_eager).total());
    const auto deferred2 = run_puts(emulated_version::v2021_3_6_defer, gp);
    EXPECT_EQ(deferred2.lat_of(lat_stream::rma_put_deferred).total(),
              deferred.lat_of(lat_stream::rma_put_deferred).total());
    delete_(gp);
  });
}

TEST(OpSampling, TracedOpsAreAlwaysTimed) {
  aspen::spmd(1, [] {
    otrace::configure(1, 1 << 16, "op_sampling_test");
    auto gp = new_<std::uint64_t>(0);
    const auto d = run_puts(emulated_version::v2021_3_6_eager, gp);
    EXPECT_EQ(d.get(counter::otrace_sampled), kN);
    EXPECT_EQ(d.get(counter::cx_eager_taken), kN);
    EXPECT_EQ(d.lat_of(lat_stream::rma_put_eager).total(), kN);
    otrace::configure(0, 1 << 16, "op_sampling_test");
    otrace::clear();
    delete_(gp);
  });
}

// The rpc issue stamp is the scope's sampled one: untimed rpcs carry 0 and
// their replies record nothing, so rpc_deferred is a 1-in-16 sample too
// while rpc_roundtrip stays exact.
TEST(OpSampling, RpcRoundTripsAreSampled) {
  aspen::spmd(1, [] {
    otrace::configure(0, 1 << 16, "op_sampling_test");
    otrace::reset_sampling();
    const telemetry::snapshot before = telemetry::local_snapshot();
    for (std::uint64_t i = 0; i < kN; ++i)
      EXPECT_EQ(rpc(0, [](std::uint64_t x) { return x + 1; }, i).wait(),
                i + 1);
    const telemetry::snapshot d = telemetry::local_snapshot() - before;
    EXPECT_EQ(d.get(counter::rpc_roundtrip), kN);
    expect_sampled(d, lat_stream::rpc_deferred);
  });
}

#else  // !ASPEN_TELEMETRY_ENABLED

static_assert(sizeof(telemetry::op_scope) == 1);

TEST(OpSamplingOff, NothingIsRecorded) {
  aspen::spmd(1, [] {
    auto gp = new_<std::uint64_t>(0);
    for (std::uint64_t i = 0; i < kN; ++i) rput(i, gp).wait();
    EXPECT_EQ(telemetry::local_snapshot(), telemetry::snapshot{});
    delete_(gp);
  });
}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace
