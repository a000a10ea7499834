// GUPS application tests: random-stream conformance, table partitioning,
// and update-correctness of every benchmark variant.
#include <gtest/gtest.h>

#include "apps/gups/gups.hpp"

namespace g = aspen::apps::gups;

namespace {

TEST(GupsStream, NextRandomMatchesHpccRecurrence) {
  // r' = (r << 1) ^ (POLY if the top bit was set)
  EXPECT_EQ(g::next_random(1), 2u);
  EXPECT_EQ(g::next_random(0x8000000000000000ull), 7u);
  EXPECT_EQ(g::next_random(0xC000000000000000ull),
            (0xC000000000000000ull << 1) ^ 7u);
}

TEST(GupsStream, StartsAtZeroIsOne) { EXPECT_EQ(g::starts(0), 1u); }

TEST(GupsStream, StartsMatchesSequentialAdvance) {
  // starts(n) must equal n applications of next_random from starts(0).
  std::uint64_t r = g::starts(0);
  for (int n = 1; n <= 200; ++n) {
    r = g::next_random(r);
    ASSERT_EQ(g::starts(n), r) << "position " << n;
  }
}

TEST(GupsStream, StartsJumpsAgree) {
  std::uint64_t r = g::starts(1000);
  for (int i = 0; i < 500; ++i) r = g::next_random(r);
  EXPECT_EQ(g::starts(1500), r);
}

TEST(GupsTable, LocatePartitionsEvenly) {
  aspen::spmd(4, [] {
    g::params p;
    p.table_bits = 12;
    g::table t(p);
    EXPECT_EQ(t.size(), 4096u);
    EXPECT_EQ(t.per_rank(), 1024u);
    for (std::uint64_t idx : {0ull, 1023ull, 1024ull, 4095ull}) {
      auto gp = t.locate(idx);
      EXPECT_EQ(gp.where(), static_cast<int>(idx / 1024));
      EXPECT_EQ(*gp.local(), idx);  // identity fill
    }
  });
}

TEST(GupsTable, CountErrorsDetectsCorruption) {
  aspen::spmd(2, [] {
    g::params p;
    p.table_bits = 10;
    g::table t(p);
    EXPECT_EQ(t.count_errors(), 0u);
    if (aspen::rank_me() == 0) {
      t.local_slice()[3] ^= 0xDEADBEEF;
      t.local_slice()[7] ^= 0xDEADBEEF;
    }
    EXPECT_EQ(t.count_errors(), 2u);
    t.fill_identity();
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

class GupsVariant : public ::testing::TestWithParam<g::variant> {};

// HPCC-style verification: XOR updates are self-inverse, so running the
// same update phase twice must restore the identity table. Atomic variants
// must be exact; unsynchronized RMA variants may lose updates under
// concurrency, so we allow the HPCC 1% error budget.
//
// That budget presumes HPCC's regime, a table much larger than the updates
// in flight. A batched update is lost when another rank's in-flight update
// to the same entry overlaps its read-then-write, so with the ranks fully
// overlapped each run loses about 2 * (ranks - 1) * batch updates per
// table-size worth of updates: ~1500 entries over the two runs below
// whatever the table size, against a budget of table size / 100. A 2^14
// table (budget 163) therefore failed whenever the four ranks ran truly in
// parallel; 2^20 (budget 10485) leaves a wide margin, and a look-ahead 32x
// wider still breaks it. Updates per run equal the table size, as before.
TEST_P(GupsVariant, DoubleRunRestoresIdentity) {
  const g::variant v = GetParam();
  aspen::spmd(4, [v] {
    g::params p;
    p.table_bits = 20;
    p.updates_per_rank = 1 << 18;
    p.batch = 128;
    g::table t(p);
    (void)g::run_variant(v, t, p);
    (void)g::run_variant(v, t, p);
    const std::uint64_t errors = t.count_errors();
    // Atomic variants are exact; the rpc variant is too (each update is
    // applied by the owner, serialized through its progress engine).
    const bool exact = v == g::variant::amo_promises ||
                       v == g::variant::amo_futures ||
                       v == g::variant::rpc_ff;
    if (exact) {
      EXPECT_EQ(errors, 0u);
    } else {
      EXPECT_LE(errors, t.size() / 100);
    }
  });
}

// Single-rank runs have no concurrency, so every variant must be exact.
TEST_P(GupsVariant, SingleRankIsExact) {
  const g::variant v = GetParam();
  aspen::spmd(1, [v] {
    g::params p;
    p.table_bits = 12;
    p.updates_per_rank = 1 << 12;
    p.batch = 64;
    g::table t(p);
    (void)g::run_variant(v, t, p);
    (void)g::run_variant(v, t, p);
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

// The immediately-applied variants (raw C++, manual localization, atomics)
// perform each XOR against the current table value, so on one rank they all
// produce the identical final table. The batched pure-RMA variants are
// excluded: a batch reads before it writes, so two same-batch updates to one
// index legitimately lose an update (the benchmark's documented relaxation).
TEST(GupsVariants, ImmediateVariantsProduceSameTableSingleRank) {
  aspen::spmd(1, [] {
    g::params p;
    p.table_bits = 12;
    p.updates_per_rank = 1 << 11;
    p.batch = 64;
    std::vector<std::uint64_t> reference;
    for (g::variant v :
         {g::variant::raw_cpp, g::variant::manual_localization,
          g::variant::amo_promises, g::variant::amo_futures}) {
      g::table t(p);
      (void)g::run_variant(v, t, p);
      std::vector<std::uint64_t> snapshot(t.local_slice(),
                                          t.local_slice() + t.per_rank());
      if (reference.empty()) {
        reference = snapshot;
      } else {
        EXPECT_EQ(snapshot, reference) << g::to_string(v);
      }
    }
  });
}

TEST(GupsResult, RatesComputedFromTime) {
  g::result r;
  r.seconds = 2.0;
  r.updates = 4'000'000'000ull;
  EXPECT_DOUBLE_EQ(r.gups(), 2.0);
  EXPECT_DOUBLE_EQ(r.mups(), 2000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GupsVariant, ::testing::ValuesIn(g::extended_variants()),
    [](const ::testing::TestParamInfo<g::variant>& info) {
      std::string name{g::to_string(info.param)};
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
