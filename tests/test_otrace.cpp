// aspen::otrace unit tests: deterministic per-rank sampling, trace-id
// structure, flight-recorder ring recording and wraparound, scope nesting,
// the signal-safe dump, and the Perfetto export's flow-event pairing. Pure
// in-process — the cross-rank causal-chain assertions live in
// test_net_spmd.cpp (OtraceSpmd) under aspen-run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/op_scope.hpp"
#include "core/otrace.hpp"

namespace otrace = aspen::otrace;

namespace {

#if ASPEN_TELEMETRY_ENABLED

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Reset to a known state: sampling 1-in-1, a small ring, fresh decision
/// stream, no active trace, empty recorder.
void arm(std::uint32_t sample_n, const char* base = "otrace_test") {
  otrace::configure(sample_n, 1 << 16, base);
  otrace::set_thread_rank(3);
  otrace::reset_sampling();
  otrace::set_current(0);
  otrace::clear();
}

// Two threads make the process's first otrace call at the same moment. The
// loser of the configuration lock may take the unlocked fast path, so the
// winner must publish sample_n and the ring before `configured` becomes
// visible: both threads then see the environment's 1-in-1 sampling and
// record into a live ring. Declared first so it stays the first otrace call
// even in a whole-binary run; the test_otrace_first_call ctest leg runs it
// alone with ASPEN_TRACE_SAMPLE=1 (and under TSan in CI).
TEST(OtraceFirstCall, ConcurrentLazyConfigPublishesSampling) {
  const char* env = std::getenv("ASPEN_TRACE_SAMPLE");
  if (env == nullptr || std::string(env) != "1")
    GTEST_SKIP() << "needs ASPEN_TRACE_SAMPLE=1 in a fresh process";
  std::atomic<int> ready{0};
  std::uint64_t ids[2] = {0, 0};
  const auto first_call = [&](int i) {
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < 2) {
    }
    ids[i] = otrace::begin_op();
    otrace::note_id(ids[i], otrace::stage::inject);
  };
  std::thread a(first_call, 0);
  std::thread b(first_call, 1);
  a.join();
  b.join();
  EXPECT_EQ(otrace::sample_n(), 1u);
  EXPECT_NE(ids[0], 0u);
  EXPECT_NE(ids[1], 0u);
  EXPECT_EQ(otrace::records_appended(), 2u);
}

TEST(Otrace, DumpPathShape) {
  EXPECT_EQ(otrace::dump_path("aspen", 0), "aspen.rank0.otrace.json");
  EXPECT_EQ(otrace::dump_path("out/run7", 12), "out/run7.rank12.otrace.json");
}

TEST(Otrace, TraceIdCarriesRankAndMonotoneSeq) {
  arm(1);
  const std::uint64_t a = otrace::begin_op();
  const std::uint64_t b = otrace::begin_op();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(a >> 48, 3u);
  EXPECT_EQ(b >> 48, 3u);
  EXPECT_EQ((b & 0xFFFFFFFFFFFFull) - (a & 0xFFFFFFFFFFFFull), 1u);
}

TEST(Otrace, SamplingIsDeterministicPerRank) {
  // The decision stream is a pure function of the thread's rank: replaying
  // from the seed must reproduce the exact hit pattern, so two runs of the
  // same program sample the same operations.
  arm(5);
  constexpr int kDraws = 512;
  std::vector<bool> first;
  for (int i = 0; i < kDraws; ++i) first.push_back(otrace::begin_op() != 0);
  otrace::reset_sampling();
  std::vector<bool> second;
  for (int i = 0; i < kDraws; ++i) second.push_back(otrace::begin_op() != 0);
  EXPECT_EQ(first, second);

  // 1-in-5 sampling hits roughly kDraws/5 times — not all, not none.
  int hits = 0;
  for (bool h : first) hits += h ? 1 : 0;
  EXPECT_GT(hits, kDraws / 20);
  EXPECT_LT(hits, kDraws / 2);

  // A different rank seeds a different stream.
  otrace::set_thread_rank(7);
  otrace::reset_sampling();
  std::vector<bool> other;
  for (int i = 0; i < kDraws; ++i) other.push_back(otrace::begin_op() != 0);
  EXPECT_NE(first, other);
  otrace::set_thread_rank(3);
}

TEST(Otrace, SampleEveryOpWhenNIsOne) {
  arm(1);
  for (int i = 0; i < 64; ++i) EXPECT_NE(otrace::begin_op(), 0u);
}

TEST(Otrace, DisabledDrawsNothing) {
  arm(0);
  EXPECT_FALSE(otrace::enabled());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(otrace::begin_op(), 0u);
  // Notes against an explicit id still no-op on id 0.
  otrace::note_id(0, otrace::stage::inject, 1);
  EXPECT_EQ(otrace::records_appended(), 0u);
}

TEST(Otrace, RecorderKeepsStageOrderAndPayload) {
  arm(1);
  const std::uint64_t id = otrace::begin_op();
  ASSERT_NE(id, 0u);
  otrace::note_id(id, otrace::stage::inject);
  otrace::note_id(id, otrace::stage::am_send);
  otrace::note_id(id, otrace::stage::wire_eager, 0xABCD);
  otrace::note_id(id, otrace::stage::fulfill_deferred);
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].st, otrace::stage::inject);
  EXPECT_EQ(recs[1].st, otrace::stage::am_send);
  EXPECT_EQ(recs[2].st, otrace::stage::wire_eager);
  EXPECT_EQ(recs[2].aux, 0xABCDu);
  EXPECT_EQ(recs[3].st, otrace::stage::fulfill_deferred);
  for (const auto& r : recs) {
    EXPECT_EQ(r.trace, id);
    EXPECT_EQ(r.rank, 3);
    EXPECT_NE(r.t_ns, 0u);
  }
  // Timestamps never run backwards within one thread's appends.
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_GE(recs[i].t_ns, recs[i - 1].t_ns);
}

TEST(Otrace, CurrentScopeRoutesNotesAndRestores) {
  arm(1);
  {
    otrace::scope s(0x5001);
    EXPECT_EQ(otrace::current(), 0x5001u);
    otrace::note(otrace::stage::handler_run);
    {
      otrace::scope inner(0x5002);
      otrace::note(otrace::stage::lpc_hop);
    }
    EXPECT_EQ(otrace::current(), 0x5001u);
  }
  EXPECT_EQ(otrace::current(), 0u);
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].trace, 0x5001u);
  EXPECT_EQ(recs[1].trace, 0x5002u);
}

TEST(Otrace, OpScopeNestsOntoEnclosingTrace) {
  arm(1);
  {
    aspen::telemetry::op_scope outer(aspen::telemetry::op_class::rma_put);
    const std::uint64_t id = otrace::current();
    ASSERT_NE(id, 0u);  // sample_n == 1: always drawn
    {
      // A nested op (an rput issued from inside a sampled op's completion)
      // must NOT mint its own id — it stays on the enclosing chain.
      aspen::telemetry::op_scope inner(aspen::telemetry::op_class::rma_get);
      EXPECT_EQ(otrace::current(), id);
    }
    EXPECT_EQ(otrace::current(), id);
  }
  EXPECT_EQ(otrace::current(), 0u);
  // Only the outer scope recorded an inject.
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].st, otrace::stage::inject);
}

TEST(Otrace, RingWrapsKeepingTheNewestRecords) {
  // The flight recorder is a black box: overflow drops the OLDEST records.
  // 1<<12 bytes is the configure clamp floor; the slot count comes back
  // from ring_capacity().
  otrace::configure(1, 1 << 12, "otrace_test");
  otrace::set_thread_rank(3);
  otrace::set_current(0);
  otrace::clear();
  const std::uint64_t cap = otrace::ring_capacity();
  ASSERT_GE(cap, 64u);
  const std::uint64_t total = cap * 2 + 5;
  for (std::uint64_t i = 0; i < total; ++i)
    otrace::note_id(1, otrace::stage::inject, /*aux=*/i);
  EXPECT_EQ(otrace::records_appended(), total);
  const auto recs = otrace::snapshot_records();
  ASSERT_EQ(recs.size(), cap);
  // Oldest surviving record is append #(total - cap); newest is the last.
  EXPECT_EQ(recs.front().aux, total - cap);
  EXPECT_EQ(recs.back().aux, total - 1);
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_EQ(recs[i].aux, recs[i - 1].aux + 1);
}

TEST(Otrace, SignalSafeDumpWritesTheRing) {
  arm(1, "otrace_dump_test");
  otrace::note_id(0x77, otrace::stage::inject, 9);
  otrace::note_id(0x77, otrace::stage::fulfill_eager);
  otrace::dump_now();
  const std::string path = otrace::dump_path("otrace_dump_test", 3);
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << path << " was not written";
  EXPECT_NE(text.find("\"inject\""), std::string::npos);
  EXPECT_NE(text.find("\"fulfill_eager\""), std::string::npos);
  EXPECT_NE(text.find("0x77"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Otrace, ExportPairsFlowEventsAcrossTheWireEdge) {
  arm(1, "otrace_export_test");
  const std::uint64_t id = (std::uint64_t{3} << 48) | 1;
  const std::uint64_t edge = 0x0301000000000007ull;
  otrace::note_id(id, otrace::stage::inject);
  otrace::note_id(id, otrace::stage::wire_eager, edge);
  otrace::note_id(id, otrace::stage::wire_deliver, edge);
  otrace::note_id(id, otrace::stage::handler_run);
  const std::string path = otrace::dump_path("otrace_export_test", 3);
  ASSERT_TRUE(otrace::export_json(path, 3));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  // One 's' and one 'f' flow event, bound by the same edge id.
  char want[64];
  std::snprintf(want, sizeof want, "\"id\":\"0x%llx\"",
                static_cast<unsigned long long>(edge));
  const auto first = text.find(want);
  ASSERT_NE(first, std::string::npos);
  const auto second = text.find(want, first + 1);
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(text.find(want, second + 1), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"sample_n\":1"), std::string::npos);
}

TEST(Otrace, RendezvousStagesSaltTheirFlowIds) {
  arm(1, "otrace_rdzv_export");
  const std::uint64_t id = (std::uint64_t{3} << 48) | 2;
  const std::uint64_t fid = 0x0301000000000009ull;
  // Initiator-side RTS + DATA turns, target-side CTS turn and the
  // pre-salted delivery — the four stages of one rendezvous op.
  otrace::note_id(id, otrace::stage::wire_rts, fid);
  otrace::note_id(id, otrace::stage::wire_cts, fid);
  otrace::note_id(id, otrace::stage::wire_data, fid);
  otrace::note_id(id, otrace::stage::wire_deliver,
                  fid ^ otrace::kEdgeSaltData);
  const std::string path = otrace::dump_path("otrace_rdzv_export", 3);
  ASSERT_TRUE(otrace::export_json(path, 3));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  // Each leg's flow id appears exactly twice: RTS ('s' at the initiator,
  // 'f' at the target), CTS ('s' target, 'f' initiator), DATA ('s'
  // initiator, 'f' at the delivery).
  for (const std::uint64_t salt :
       {otrace::kEdgeSaltRts, otrace::kEdgeSaltCts, otrace::kEdgeSaltData}) {
    char want[64];
    std::snprintf(want, sizeof want, "\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(fid ^ salt));
    const auto first = text.find(want);
    ASSERT_NE(first, std::string::npos) << want;
    const auto second = text.find(want, first + 1);
    ASSERT_NE(second, std::string::npos) << want;
    EXPECT_EQ(text.find(want, second + 1), std::string::npos) << want;
  }
}

TEST(Otrace, StageNamesAreStableAndDistinct) {
  const otrace::stage all[] = {
      otrace::stage::inject,        otrace::stage::am_send,
      otrace::stage::wire_eager,    otrace::stage::wire_rts,
      otrace::stage::wire_cts,      otrace::stage::wire_data,
      otrace::stage::shm_push,      otrace::stage::agg_stage,
      otrace::stage::wire_deliver,  otrace::stage::handler_run,
      otrace::stage::lpc_hop,       otrace::stage::fulfill_eager,
      otrace::stage::fulfill_deferred,
  };
  std::vector<std::string> names;
  for (otrace::stage s : all) names.emplace_back(otrace::to_string(s));
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  EXPECT_EQ(names[0], "inject");
  EXPECT_EQ(names[12], "fulfill_deferred");
}

#else  // !ASPEN_TELEMETRY_ENABLED

// Compiled out: ids are always 0, scopes carry no state, nothing records.
static_assert(sizeof(otrace::scope) == 1);
static_assert(sizeof(aspen::telemetry::op_scope) == 1);

TEST(OtraceOff, EverythingCompilesToNothing) {
  EXPECT_FALSE(otrace::enabled());
  EXPECT_EQ(otrace::begin_op(), 0u);
  EXPECT_EQ(otrace::current(), 0u);
  otrace::note(otrace::stage::inject, 1);
  otrace::note_id(7, otrace::stage::am_send, 2);
  EXPECT_EQ(otrace::records_appended(), 0u);
  EXPECT_TRUE(otrace::snapshot_records().empty());
  EXPECT_FALSE(otrace::export_json("never_written.json", 0));
  // The unconditional helpers still work (crash-dump paths are compiled
  // in either way for the docs' sake).
  EXPECT_EQ(otrace::dump_path("aspen", 1), "aspen.rank1.otrace.json");
}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace
