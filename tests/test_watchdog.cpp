// Stall watchdog (telemetry_lat.hpp): report naming, trip/no-trip behavior
// on a stalled pending op, the SIGUSR1 forced-report path, and — under
// aspen-run with ASPEN_WATCHDOG_MS set (ctest net_spmd_watchdog_*) — a
// cross-process leg where one rank stops progressing and the waiting rank's
// watchdog must name itself in a health report.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aspen.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"

namespace wd = aspen::telemetry::watchdog;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void sleep_ms(unsigned ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Per-test report base under the gtest temp dir; each test cleans up the
/// rank-0 report it may have produced.
struct report_base {
  std::string base;
  explicit report_base(const char* tag)
      : base(::testing::TempDir() + "aspen_wd_" + tag) {
    std::remove(wd::report_path(base, 0).c_str());
  }
  ~report_base() { std::remove(wd::report_path(base, 0).c_str()); }
  [[nodiscard]] std::string rank0() const { return wd::report_path(base, 0); }
};

// The watchdog's configuration is published once through an atomic state
// word, after which enabled() is one load and never locks. Here reader
// threads make the process's first watchdog calls (enabled() and
// note_progress(), which may parse ASPEN_WATCHDOG_MS lazily) while another
// thread calls configure(): whichever wins the lock, the explicit
// configuration must be what every thread sees once it has returned, and
// a lazy parse must never overwrite it. Declared first so it stays the
// first watchdog call even in a whole-binary run; the
// test_watchdog_first_call ctest leg runs it alone with
// ASPEN_WATCHDOG_MS=1234 (and under TSan in CI).
TEST(WatchdogFirstCall, ConfigureWinsOverConcurrentLazyParse) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  const char* env = std::getenv("ASPEN_WATCHDOG_MS");
  if (env == nullptr || std::string(env) != "1234")
    GTEST_SKIP() << "needs ASPEN_WATCHDOG_MS=1234 in a fresh process";
  report_base rb("first_call");
  constexpr int kReaders = 3;
  constexpr std::uint64_t kConfiguredMs = 60'000;
  std::atomic<int> ready{0};
  std::atomic<bool> configured{false};
  std::atomic<bool> stop{false};
  std::atomic<int> stale{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kReaders + 1) {
      }
      std::uint64_t now = 1;
      while (!stop.load(std::memory_order_acquire)) {
        const bool after = configured.load(std::memory_order_acquire);
        const bool on = wd::enabled();
        wd::note_progress(++now);
        if (after && (!on || wd::threshold_ms() != kConfiguredMs))
          stale.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ready.fetch_add(1, std::memory_order_acq_rel);
  while (ready.load(std::memory_order_acquire) < kReaders + 1) {
  }
  wd::configure(kConfiguredMs, rb.base.c_str());
  configured.store(true, std::memory_order_release);
  sleep_ms(20);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(stale.load(), 0)
      << "a thread saw the lazy ASPEN_WATCHDOG_MS parse after configure()";
  EXPECT_TRUE(wd::enabled());
  EXPECT_EQ(wd::threshold_ms(), kConfiguredMs);
  EXPECT_EQ(wd::reports_written(), 0) << "nothing was pending";
  wd::configure(0, nullptr);
  EXPECT_FALSE(wd::enabled());
}

TEST(Watchdog, ReportPathNaming) {
  EXPECT_EQ(wd::report_path("out/job", 3), "out/job.rank3.health.json");
  EXPECT_EQ(wd::report_path("aspen", 0), "aspen.rank0.health.json");
}

TEST(Watchdog, ConfigureEnablesAndZeroDisables) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  wd::configure(250, "wdtest");
  EXPECT_TRUE(wd::enabled());
  EXPECT_EQ(wd::threshold_ms(), 250u);
  wd::configure(0, nullptr);
  EXPECT_FALSE(wd::enabled());
  EXPECT_EQ(wd::threshold_ms(), 0u);
  EXPECT_EQ(wd::track_op(aspen::telemetry::op_class::amo), 0u)
      << "a disabled watchdog must not hand out tracking handles";
}

TEST(Watchdog, TripsOnStalledPendingOp) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  report_base rb("trip");
  wd::configure(50, rb.base.c_str());
  const int before = wd::reports_written();

  const std::uint64_t id = wd::track_op(aspen::telemetry::op_class::rma_put);
  ASSERT_NE(id, 0u);
  sleep_ms(120);  // well past the 50 ms threshold (and the check throttle)
  wd::poll_check();

  EXPECT_EQ(wd::reports_written(), before + 1);
  const std::string body = slurp(rb.rank0());
  EXPECT_NE(body.find("\"reason\": \"oldest_op\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"oldest_op_class\": \"rma_put\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"pending_ops\": 1"), std::string::npos) << body;

  // One report per stall episode: the same stall must not spam.
  sleep_ms(60);
  wd::poll_check();
  EXPECT_EQ(wd::reports_written(), before + 1);

  wd::complete_op(id);
  wd::configure(0, nullptr);
}

TEST(Watchdog, CleanRunWritesNothing) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  report_base rb("clean");
  wd::configure(10'000, rb.base.c_str());
  const int before = wd::reports_written();

  const std::uint64_t id = wd::track_op(aspen::telemetry::op_class::amo);
  wd::complete_op(id);  // completes promptly: nothing is pending
  sleep_ms(5);
  wd::poll_check();

  EXPECT_EQ(wd::reports_written(), before);
  EXPECT_NE(::access(rb.rank0().c_str(), F_OK), 0)
      << "health report written on a healthy run";
  wd::configure(0, nullptr);
}

TEST(Watchdog, RequestReportForcesHealthyDump) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  report_base rb("forced");
  wd::configure(60'000, rb.base.c_str());
  const int before = wd::reports_written();

  // Nothing is stalled, but a report was requested (the SIGUSR1 handler
  // body calls exactly this), so the next check must dump unconditionally.
  wd::request_report();
  wd::poll_check();

  EXPECT_EQ(wd::reports_written(), before + 1);
  const std::string body = slurp(rb.rank0());
  EXPECT_NE(body.find("\"reason\": \"sigusr1\""), std::string::npos) << body;
  wd::configure(0, nullptr);
}

// ---------------------------------------------------------------------------
// Cross-process legs (ctest net_spmd_watchdog_trip / _clean): run under
// `aspen-run -n 2` with ASPEN_WATCHDOG_MS / ASPEN_WATCHDOG_REPORT set, plus
// ASPEN_TEST_STALL_MS on the trip leg. Rank 1 stops progressing for the
// stall window while rank 0 waits on a remote AMO; rank 0's watchdog must
// trip (naming rank 0, the rank whose op is stuck) iff the stall exceeds
// the threshold.
// ---------------------------------------------------------------------------

unsigned long env_ms(const char* name) {
  const char* s = std::getenv(name);
  return s == nullptr || *s == '\0' ? 0 : std::strtoul(s, nullptr, 10);
}

TEST(WatchdogTcp, StallTripsAndCleanDoesNot) {
  if (!aspen::net::endpoint::launched())
    GTEST_SKIP() << "not under aspen-run (see ctest net_spmd_watchdog_*)";
  const unsigned long wd_ms = env_ms("ASPEN_WATCHDOG_MS");
  const unsigned long stall_ms = env_ms("ASPEN_TEST_STALL_MS");
  const char* rb = std::getenv("ASPEN_WATCHDOG_REPORT");
  const std::string base = rb != nullptr && *rb != '\0' ? rb : "aspen";
  const bool expect_trip = stall_ms > wd_ms;
  // With telemetry compiled out (or the threshold unset) the region still
  // runs — under aspen-run every rank must reach the spmd bootstrap — and
  // only the report assertions are skipped at the end.
  const bool armed = aspen::telemetry::compiled_in() && wd_ms != 0;

  // Deterministic config (the same values the environment carries): the
  // smp tests above may have left the watchdog disabled in this process.
  if (armed) wd::configure(wd_ms, base.c_str());
  const int before = wd::reports_written();

  const char* nr = std::getenv(aspen::net::kEnvNranks);
  const int n = nr == nullptr ? 0 : std::atoi(nr);
  aspen::gex::config cfg;
  cfg.transport = aspen::gex::conduit::tcp;

  aspen::spmd(n, cfg, [stall_ms] {
    aspen::global_ptr<std::uint64_t> word;
    if (aspen::rank_me() == 1) word = aspen::new_<std::uint64_t>(0);
    word = aspen::broadcast(word, 1);
    aspen::atomic_domain<std::uint64_t> ad({aspen::gex::amo_op::fadd});
    aspen::barrier();
    if (aspen::rank_me() == 0) {
      // Let rank 1 actually reach its sleep first: issued immediately, the
      // AMO could still be served during rank 1's barrier-exit pumping.
      if (stall_ms != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stall_ms / 8));
      // The AMO targets rank 1, which is asleep: the op stays pending —
      // and the watchdog check rides our own progress spinning — until
      // rank 1 resumes serving requests.
      EXPECT_EQ(
          ad.fetch_add(word, 1, aspen::operation_cx::as_future()).wait(),
          0u);
    } else if (aspen::rank_me() == 1 && stall_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    aspen::barrier();
    if (aspen::rank_me() == 1) aspen::delete_(word);
  });

  const int rank = aspen::net::endpoint::instance()->self_rank();
  if (!armed)
    GTEST_SKIP() << "watchdog not armed in this build/configuration "
                    "(needs ASPEN_TELEMETRY=ON and ASPEN_WATCHDOG_MS)";
  const std::string report = wd::report_path(base, 0);
  if (rank == 0) {
    if (expect_trip) {
      EXPECT_GT(wd::reports_written(), before)
          << "stalled op never tripped the watchdog";
      const std::string body = slurp(report);
      EXPECT_NE(body.find("\"rank\": 0"), std::string::npos) << body;
      EXPECT_NE(body.find("\"reason\""), std::string::npos) << body;
      std::remove(report.c_str());
    } else {
      EXPECT_EQ(wd::reports_written(), before)
          << "clean run tripped the watchdog: " << slurp(report);
      EXPECT_NE(::access(report.c_str(), F_OK), 0);
    }
  }
  wd::configure(0, nullptr);
}

}  // namespace
