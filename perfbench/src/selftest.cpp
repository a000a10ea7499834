// Tests of the benchmark's own logic: span self time, the GUPS verifier,
// and seed determinism of the generated inputs.
#include <gtest/gtest.h>

#include "apps/gups/gups.hpp"
#include "core/aspen.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Checksum of the observations a correct runtime makes over `ops`.
std::uint64_t model_checksum(const std::vector<mix_op>& ops, mix_cells cells) {
  mix_model m{cells};
  std::uint64_t acc = 0;
  for (const mix_op& op : ops) {
    const auto o = m.step(op);
    acc = ((acc ^ o.a) * 0x100000001B3ull) ^ o.b;
  }
  return acc;
}

span at(span_name n, std::int32_t parent, std::int64_t a, std::int64_t b) {
  return {n, parent, a, b};
}

TEST(SelfTime, NestedSpansSubtractChildCoverage) {
  // root [0,100) > child [10,30) > grandchild [12,20); child [40,50).
  const std::vector<span> s = {
      at(span_name::gups, -1, 0, 100),
      at(span_name::gups_run_variant, 0, 10, 30),
      at(span_name::barrier, 1, 12, 20),
      at(span_name::gups_run_variant, 0, 40, 50),
  };
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<span> s = {
      at(span_name::bulk, -1, 100, 200),
      at(span_name::bulk_inject, 0, 90, 120),   // sticks out on the left
      at(span_name::bulk_wait, 0, 110, 150),    // overlaps the first
      at(span_name::bulk_wait, 0, 180, 260),    // sticks out on the right
  };
  const auto self = self_times(s);
  // Covered inside the parent: [100,150) and [180,200) = 70.
  EXPECT_EQ(self[0], 30);
  const auto sum = summarize(s);
  EXPECT_EQ(sum[static_cast<std::size_t>(span_name::bulk_wait)].count, 2u);
  EXPECT_EQ(sum[static_cast<std::size_t>(span_name::bulk)].self_total_ns, 30);
}

TEST(Seed, SameSeedSameOpsAndChecksum) {
  const auto a = make_mix(42, 5000);
  const auto b = make_mix(42, 5000);
  const auto c = make_mix(43, 5000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(model_checksum(a, initial_cells(42)),
            model_checksum(b, initial_cells(42)));
  EXPECT_NE(model_checksum(a, initial_cells(42)),
            model_checksum(c, initial_cells(43)));
  const auto pa = make_payload(42, 1, 0, 4099);
  EXPECT_EQ(checksum(pa.data(), pa.size()),
            checksum(make_payload(42, 1, 0, 4099).data(), pa.size()));
  EXPECT_NE(checksum(pa.data(), pa.size()),
            checksum(make_payload(43, 1, 0, 4099).data(), pa.size()));
  // Every batch holds the same multiset of kinds; only the order varies.
  ASSERT_EQ(a.size(), 5000 * kMixBatch);
  for (std::size_t b0 = 0; b0 < a.size(); b0 += kMixBatch) {
    std::array<std::size_t, kOpKinds> seen{};
    for (std::size_t i = b0; i < b0 + kMixBatch; ++i)
      seen[static_cast<std::size_t>(a[i].kind)]++;
    for (std::size_t k = 0; k < kOpKinds; ++k)
      ASSERT_EQ(seen[k], kMixCounts[k]) << "batch " << b0 / kMixBatch;
  }
  EXPECT_NE(a[0].kind == a[kMixBatch].kind && a[1].kind == a[kMixBatch + 1].kind &&
                a[2].kind == a[kMixBatch + 2].kind,
            true);
}

TEST(Seed, ModelTracksPutsAndCounter) {
  mix_model m{{7, 8, 100}};
  EXPECT_EQ(m.step({op_kind::rget, 0, 0}), (mix_model::observed{7, 0}));
  (void)m.step({op_kind::rput, 55, 0});
  EXPECT_EQ(m.step({op_kind::when_all_rget2, 0, 0}),
            (mix_model::observed{55, 8}));
  EXPECT_EQ(m.step({op_kind::fetch_add, 0, 5}), (mix_model::observed{100, 0}));
  EXPECT_EQ(m.step({op_kind::fetch_add_into, 0, 1}),
            (mix_model::observed{105, 0}));
  EXPECT_EQ(m.step({op_kind::rpc, 3, 0}),
            (mix_model::observed{rpc_reply(3), 0}));
}

TEST(GupsVerifier, CatchesOneFlippedEntry) {
  namespace g = aspen::apps::gups;
  constexpr std::uint64_t kSeed = 9;
  // One pass, and 5, the pass count of local_ops and tcp_agg_mix.
  for (const int passes : {1, 5}) {
    std::vector<std::uint64_t> bad_before(2), bad_after(2);
    aspen::spmd(2, [&] {
      g::params p;
      p.table_bits = 12;
      p.updates_per_rank = 3000;
      p.batch = 512;
      g::table t(p);
      const std::uint64_t lo = t.per_rank() * static_cast<std::uint64_t>(aspen::rank_me());
      for (std::uint64_t i = 0; i < t.per_rank(); ++i)
        t.local_slice()[i] = table_fill(kSeed, lo + i);
      aspen::barrier();
      for (int k = 0; k < passes; ++k)
        (void)g::run_variant(g::variant::amo_promises, t, p);
      const auto want = gups_expected(kSeed, p.table_bits, p.updates_per_rank,
                                      aspen::rank_n(), lo, t.per_rank());
      const auto me = static_cast<std::size_t>(aspen::rank_me());
      bad_before[me] = count_mismatches(t.local_slice(), want);
      if (me == 1) t.local_slice()[17] ^= std::uint64_t{1} << 40;
      bad_after[me] = count_mismatches(t.local_slice(), want);
      aspen::barrier();
    });
    EXPECT_EQ(bad_before[0] + bad_before[1], 0u) << "passes=" << passes;
    EXPECT_EQ(bad_after[0], 0u);
    EXPECT_EQ(bad_after[1], 1u);
  }
}

TEST(GupsVerifier, CatchesAVariantThatAppliesNothing) {
  // A variant that applies no update leaves the seeded fill; after any odd
  // number of passes the check must see it, at the sizes of a shm_mix job
  // (2^18 entries, about 2^18 updates per rank, 4 ranks).
  constexpr unsigned kBits = kGupsBits;
  constexpr std::uint64_t kN = std::uint64_t{1} << kBits;
  std::vector<std::uint64_t> fill(kN);
  for (std::uint64_t i = 0; i < kN; ++i) fill[i] = table_fill(3, i);
  const auto want = gups_expected(3, kBits, kN, 4, 0, kN);
  EXPECT_GT(count_mismatches(fill.data(), want), kN / 2);
  // The first entries too: the HPCC stream from starts(0) begins with small
  // powers of two, so a short replay over a small table must still differ.
  const auto small = gups_expected(3, 10, 500, 2, 0, 1024);
  EXPECT_GT(count_mismatches(fill.data(), small), 50u);
}

}  // namespace
