#include "core/telemetry_lat.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/log.hpp"
#include "core/otrace.hpp"
#include "core/telemetry.hpp"

#if ASPEN_TELEMETRY_ENABLED
#include <signal.h>  // sigaction (POSIX; <csignal> need not declare it)

#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#endif

namespace aspen::telemetry {

namespace {

constexpr const char* kLatStreamNames[] = {
    "rma_put_eager",
    "rma_put_deferred",
    "rma_get_eager",
    "rma_get_deferred",
    "rpc_eager",
    "rpc_deferred",
    "amo_eager",
    "amo_deferred",
    "whenall_eager",
    "whenall_deferred",
    "progress_gap",
    "agg_batch_fill",
};
static_assert(std::size(kLatStreamNames) == kLatStreamCount,
              "latency stream name table out of sync with the enum");

constexpr const char* kOpClassNames[] = {
    "rma_put", "rma_get", "rpc", "amo", "when_all",
};
static_assert(std::size(kOpClassNames) == kOpClassCount,
              "op_class name table out of sync with the enum");

// Same serialization-key discipline as the counter names: the sidecar
// parser looks streams up by name, so a duplicate or malformed entry would
// silently alias two histograms.
constexpr bool lat_names_well_formed() {
  for (std::size_t i = 0; i < kLatStreamCount; ++i) {
    const char* a = kLatStreamNames[i];
    if (a == nullptr || a[0] == '\0') return false;
    for (const char* p = a; *p != '\0'; ++p)
      if (!((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
            *p == '_'))
        return false;
    for (std::size_t j = i + 1; j < kLatStreamCount; ++j) {
      const char* b = kLatStreamNames[j];
      std::size_t k = 0;
      while (a[k] != '\0' && a[k] == b[k]) ++k;
      if (a[k] == b[k]) return false;  // both '\0': identical strings
    }
  }
  return true;
}
static_assert(lat_names_well_formed(),
              "latency stream names must be unique, non-empty snake_case");

// The op-class x disposition grid must line up with the enum prefix:
// stream_of() is pure index arithmetic.
static_assert(stream_of(op_class::rma_put, disposition::eager) ==
              lat_stream::rma_put_eager);
static_assert(stream_of(op_class::when_all, disposition::deferred) ==
              lat_stream::whenall_deferred);
static_assert(2 * kOpClassCount ==
              static_cast<std::size_t>(lat_stream::progress_gap));

}  // namespace

const char* to_string(lat_stream s) noexcept {
  return kLatStreamNames[static_cast<std::size_t>(s)];
}

const char* to_string(op_class c) noexcept {
  return kOpClassNames[static_cast<std::size_t>(c)];
}

namespace watchdog {

std::string report_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".health.json";
}

#if ASPEN_TELEMETRY_ENABLED

namespace {

struct pending_op {
  op_class cls;
  int rank;               ///< initiating rank (TLS rank at track time)
  std::uint64_t start_ns; ///< detail::trace_now_ns() at track time
};

struct wd_state {
  std::mutex mu;
  // Configuration (guarded by mu; the hot path reads only g_state).
  std::uint64_t threshold_ns = 0;
  std::string report_base = "aspen";
  // Pending-op registry (guarded by mu). Ordered map: ids are issued
  // monotonically, so begin() per rank scan finds the oldest fast enough
  // for a throttled check.
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, pending_op> pending;
  transport_probe probe;  ///< guarded by mu
  std::atomic<int> reports{0};
  std::atomic<bool> signal_installed{false};
  /// 0 healthy, 1 stall episode active, 2 recovered (health_state()).
  std::atomic<int> health{0};
};

/// Leaked like every telemetry registry: checks can run during static
/// destruction (a final progress drain in an atexit path).
wd_state& st() noexcept {
  static wd_state* s = new wd_state;
  return *s;
}

/// SIGUSR1 -> dump at the next check. sig_atomic_t, written only from the
/// handler and consumed with a plain read+clear in maybe_check.
volatile sig_atomic_t g_report_requested = 0;

struct wd_tls {
  int rank = 0;
  std::uint64_t last_progress_ns = 0;
  std::uint64_t next_check_ns = 0;
  bool in_stall = false;  ///< one report per stall episode
};

wd_tls& tls() noexcept {
  static thread_local wd_tls t;
  return t;
}

/// Publish the configuration just written under mu: a reader that sees
/// g_state != 0 never needs the lock.
void publish_locked(const wd_state& s) {
  g_state.v.store(s.threshold_ns != 0 ? 2 : 1, std::memory_order_release);
}

void ensure_configured_locked(wd_state& s) {
  if (g_state.v.load(std::memory_order_relaxed) != 0) return;
  const char* v = std::getenv("ASPEN_WATCHDOG_MS");
  if (v != nullptr && *v != '\0') {
    char* end = nullptr;
    const unsigned long long ms = std::strtoull(v, &end, 10);
    if (end != v && *end == '\0') {
      s.threshold_ns = static_cast<std::uint64_t>(ms) * 1'000'000u;
    } else {
      aspen::log(log_level::warn,
                 "watchdog: ignoring unparsable ASPEN_WATCHDOG_MS=\"%s\"", v);
    }
  }
  const char* base = std::getenv("ASPEN_WATCHDOG_REPORT");
  if (base != nullptr && *base != '\0') s.report_base = base;
  publish_locked(s);
}

std::uint64_t threshold_ns_locked(wd_state& s) {
  ensure_configured_locked(s);
  return s.threshold_ns;
}

extern "C" void wd_sigusr1_handler(int) { g_report_requested = 1; }

/// Dump one health report for `rank`. Called with `mu` NOT held (the
/// transport probe takes the endpoint's peer locks).
void write_report(int rank, const char* reason, std::uint64_t now_ns,
                  std::uint64_t threshold_ns, std::size_t pending_count,
                  std::uint64_t oldest_age_ns, const char* oldest_cls,
                  std::uint64_t gap_ns, const transport_status& ts) {
  wd_state& s = st();
  std::string path;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    path = report_path(s.report_base, rank);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"rank\": %d,\n  \"reason\": \"%s\",\n"
               "  \"threshold_ms\": %" PRIu64 ",\n"
               "  \"detected_at_ns\": %" PRIu64 ",\n"
               "  \"pending_ops\": %zu,\n"
               "  \"oldest_op_age_ms\": %" PRIu64 ",\n"
               "  \"oldest_op_class\": \"%s\",\n"
               "  \"progress_gap_ms\": %" PRIu64,
               rank, reason, threshold_ns / 1'000'000u, now_ns,
               pending_count, oldest_age_ns / 1'000'000u,
               oldest_cls == nullptr ? "none" : oldest_cls,
               gap_ns / 1'000'000u);
  if (ts.valid) {
    std::fprintf(f,
                 ",\n  \"transport\": {\n"
                 "    \"sendq_bytes\": %" PRIu64 ",\n"
                 "    \"staged_msgs\": %" PRIu64 ",\n"
                 "    \"oldest_sendq_age_ms\": %" PRIu64 ",\n"
                 "    \"shm_ring_depth_bytes\": %" PRIu64 ",\n"
                 "    \"shm_ring_high_water\": %" PRIu64 "%s%s\n  }",
                 ts.sendq_bytes, ts.staged_msgs,
                 ts.oldest_sendq_age_ns / 1'000'000u,
                 ts.shm_ring_depth_bytes, ts.shm_ring_high_water,
                 ts.detail_json.empty() ? "" : ",\n    ",
                 ts.detail_json.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  s.reports.fetch_add(1, std::memory_order_relaxed);
  aspen::log(log_level::error,
             "watchdog: rank %d %s (oldest op %" PRIu64 " ms, gap %" PRIu64
             " ms, %zu pending) -> %s",
             rank, reason, oldest_age_ns / 1'000'000u, gap_ns / 1'000'000u,
             pending_count, path.c_str());
  // A tripped watchdog is exactly the moment the flight recorder exists
  // for: dump the otrace ring next to the health report.
  otrace::dump_now();
}

void maybe_check(std::uint64_t now_ns, std::uint64_t prev_progress_ns) {
  wd_state& s = st();
  wd_tls& t = tls();
  // Time-throttle: at most one full scan per threshold/4 (>= 1ms).
  if (now_ns < t.next_check_ns && g_report_requested == 0) return;

  std::uint64_t threshold = 0;
  std::size_t pending_count = 0;
  std::uint64_t oldest_age = 0;
  const char* oldest_cls = nullptr;
  transport_probe probe;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    threshold = threshold_ns_locked(s);
    if (threshold == 0) return;
    for (const auto& [id, op] : s.pending) {
      if (op.rank != t.rank) continue;
      ++pending_count;
      const std::uint64_t age =
          now_ns > op.start_ns ? now_ns - op.start_ns : 0;
      if (age > oldest_age) {
        oldest_age = age;
        oldest_cls = to_string(op.cls);
      }
    }
    probe = s.probe;
  }
  std::uint64_t step = threshold / 4;
  if (step < 1'000'000u) step = 1'000'000u;
  t.next_check_ns = now_ns + step;

  install_signal_handler();

  const std::uint64_t gap =
      prev_progress_ns != 0 && now_ns > prev_progress_ns
          ? now_ns - prev_progress_ns
          : 0;
  const bool forced = g_report_requested != 0;
  if (forced) g_report_requested = 0;

  transport_status ts;
  const char* reason = nullptr;
  if (oldest_age > threshold) {
    reason = "oldest_op";
  } else if (pending_count > 0 && gap > threshold) {
    // A long progress gap is only a stall when work was actually waiting;
    // an idle rank between regions is not starved.
    reason = "progress_gap";
  }
  if (probe) {
    ts = probe();
    if (reason == nullptr && ts.valid &&
        ts.oldest_sendq_age_ns > threshold) {
      reason = "sendq_stall";
    }
  }

  if (reason == nullptr && !forced) {
    if (t.in_stall) s.health.store(2, std::memory_order_relaxed);
    t.in_stall = false;  // healthy: arm the next episode
    return;
  }
  if (forced) {
    write_report(t.rank, "sigusr1", now_ns, threshold, pending_count,
                 oldest_age, oldest_cls, gap, ts);
    return;
  }
  if (t.in_stall) return;  // already reported this episode
  t.in_stall = true;
  s.health.store(1, std::memory_order_relaxed);
  write_report(t.rank, reason, now_ns, threshold, pending_count, oldest_age,
               oldest_cls, gap, ts);
}

}  // namespace

void configure(std::uint64_t threshold_ms, const char* report_base) noexcept {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.threshold_ns = threshold_ms * 1'000'000u;
  s.report_base = report_base == nullptr ? "aspen" : report_base;
  publish_locked(s);
}

bool enabled_slow() noexcept {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  ensure_configured_locked(s);
  return g_state.v.load(std::memory_order_relaxed) == 2;
}

std::uint64_t threshold_ms() noexcept {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  return threshold_ns_locked(s) / 1'000'000u;
}

void set_thread_rank(int rank) noexcept {
  tls().rank = rank < 0 ? 0 : rank;
}

std::uint64_t track_op(op_class cls) noexcept {
  if (!enabled()) return 0;
  wd_state& s = st();
  const std::uint64_t now = detail::trace_now_ns();
  std::lock_guard<std::mutex> lk(s.mu);
  const std::uint64_t id = s.next_id++;
  s.pending.emplace(id, pending_op{cls, tls().rank, now});
  return id;
}

void complete_op(std::uint64_t id) noexcept {
  if (id == 0) return;
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.pending.erase(id);
}

void note_progress(std::uint64_t now_ns) noexcept {
  wd_tls& t = tls();
  const std::uint64_t prev = t.last_progress_ns;
  t.last_progress_ns = now_ns;
  if (!enabled()) return;
  maybe_check(now_ns, prev);
}

void poll_check() noexcept {
  if (!enabled()) return;
  const std::uint64_t now = detail::trace_now_ns();
  maybe_check(now, tls().last_progress_ns);
}

void request_report() noexcept { g_report_requested = 1; }

void install_signal_handler() noexcept {
  wd_state& s = st();
  bool expected = false;
  if (!s.signal_installed.compare_exchange_strong(
          expected, true, std::memory_order_relaxed))
    return;
  struct sigaction sa{};
  sa.sa_handler = &wd_sigusr1_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
}

void set_transport_probe(transport_probe probe) {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.probe = std::move(probe);
}

int reports_written() noexcept {
  return st().reports.load(std::memory_order_relaxed);
}

int health_state() noexcept {
  return st().health.load(std::memory_order_relaxed);
}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace watchdog

}  // namespace aspen::telemetry
