// GUPS application tests: random-stream conformance, table partitioning,
// and update-correctness of every benchmark variant.
#include <gtest/gtest.h>

#include <vector>

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

/// The table a serial XOR replay of ranks' HPCC stream slices produces,
/// starting from the identity fill (what one run of an exact variant must
/// leave behind).
std::vector<std::uint64_t> serial_replay(const g::params& p, int ranks) {
  const std::uint64_t size = std::uint64_t{1} << p.table_bits;
  std::vector<std::uint64_t> t(size);
  for (std::uint64_t i = 0; i < size; ++i) t[i] = i;
  for (int r = 0; r < ranks; ++r) {
    std::uint64_t ran = g::starts(static_cast<std::int64_t>(
        p.updates_per_rank * static_cast<std::uint64_t>(r)));
    for (std::uint64_t u = 0; u < p.updates_per_rank; ++u) {
      ran = g::next_random(ran);
      t[ran & (size - 1)] ^= ran;
    }
  }
  return t;
}

struct replay_diff {
  std::uint64_t vs_replay = 0;    ///< entries != the serial replay
  std::uint64_t vs_identity = 0;  ///< entries != the identity fill
};

/// Compare every rank's slice of `t` with `want` (collective).
replay_diff diff_against(g::table& t, const std::vector<std::uint64_t>& want) {
  aspen::barrier();
  const std::uint64_t base =
      t.per_rank() * static_cast<std::uint64_t>(aspen::rank_me());
  replay_diff d;
  for (std::uint64_t i = 0; i < t.per_rank(); ++i) {
    const std::uint64_t v = t.local_slice()[i];
    if (v != want[base + i]) ++d.vs_replay;
    if (v != base + i) ++d.vs_identity;
  }
  d.vs_replay = aspen::allreduce_sum(d.vs_replay);
  d.vs_identity = aspen::allreduce_sum(d.vs_identity);
  return d;
}

// One run of each variant (XOR is self-inverse, so the double-run tests
// above pass for a variant that writes nothing) checked against a serial
// replay of the same stream. Updates equal the table size, so a run
// changes over half of the entries; requiring more than a quarter catches
// a variant that applies nothing. The batched pure-RMA variants lose an
// update whenever two in one batch hit the same index, so they get the 1%
// budget and everything else must match exactly. Those collisions cluster
// where the stream is sparse (starts(0) begins with powers of two, whose
// low index bits coincide), so their count barely grows with the table: a
// serial model of the batching gives 1787 lost entries at 2^16 (budget
// 655) and 3121 at the 2^20 used here (budget 10485).
TEST(GupsVariants, SingleRunMatchesSerialReplay) {
  aspen::spmd(1, [] {
    g::params p;
    p.table_bits = 20;
    p.updates_per_rank = 1 << 20;
    p.batch = 64;
    const std::vector<std::uint64_t> want = serial_replay(p, 1);
    for (g::variant v : g::extended_variants()) {
      g::table t(p);
      (void)g::run_variant(v, t, p);
      const replay_diff d = diff_against(t, want);
      EXPECT_GT(d.vs_identity, t.size() / 4) << g::to_string(v);
      const bool batched_rma =
          v == g::variant::rma_promises || v == g::variant::rma_futures;
      if (batched_rma) {
        EXPECT_LE(d.vs_replay, t.size() / 100) << g::to_string(v);
      } else {
        EXPECT_EQ(d.vs_replay, 0u) << g::to_string(v);
      }
    }
  });
}

// On one rank rpc_ff applies every update directly (each target is the
// rank itself); two ranks send half of them as real fire-and-forget rpcs.
// Owners apply every update in their own progress engine, so the result is
// still exactly the serial replay of both ranks' streams.
TEST(GupsVariants, RpcFfAcrossRanksMatchesSerialReplay) {
  aspen::spmd(2, [] {
    g::params p;
    p.table_bits = 16;
    p.updates_per_rank = 1 << 15;
    p.batch = 64;
    const std::vector<std::uint64_t> want = serial_replay(p, 2);
    g::table t(p);
    (void)g::run_variant(g::variant::rpc_ff, t, p);
    const replay_diff d = diff_against(t, want);
    EXPECT_GT(d.vs_identity, t.size() / 4);
    EXPECT_EQ(d.vs_replay, 0u);
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
