// aspen::telemetry::lat — completion-latency histograms and the stall
// watchdog.
//
// The paper's claim is about *latency*: eager notification completes an
// operation synchronously at the initiation site instead of deferring it to
// a later progress call. The counter plane (telemetry.hpp) records how many
// operations took each path; this header records how *long* each path took,
// as power-of-two log2-bucketed nanosecond histograms:
//
//   - issue->completion latency per op class (rma put/get, rpc, amo,
//     when_all), split by disposition — eager-inline vs deferred;
//   - wire send->staged-delivery latency per message (conduit::tcp, using
//     the bootstrap's clock-synced offsets);
//   - progress-call inter-arrival gaps per thread (the starvation signal);
//   - sendq residency per busy episode (queue-nonempty -> fully drained).
//
// A histogram is a fixed 64-bucket array (bucket i counts samples in
// [2^i, 2^(i+1)), saturating at the top) plus an exact running max.
// Buckets merge by bucket-wise add and the max by max — the same
// sum/high-water split snapshot::merge_into applies to counters — so
// histograms ride the live telemetry plane and the sidecar merge with the
// bit-identity invariant intact.
//
// The watchdog (ASPEN_WATCHDOG_MS) piggybacks on progress: each check scans
// this rank's oldest pending remote op, its own progress gap, and the
// transport's sendq-drain age, and dumps a per-rank health report
// ("<base>.rank<R>.health.json") when any exceeds the threshold — or on
// SIGUSR1. With ASPEN_TELEMETRY compiled out both the histograms and the
// watchdog compile to nothing (the types below remain so snapshots keep a
// stable layout).
//
// Deliberately dependency-free below <functional>/<string> so
// telemetry.hpp can include it ahead of the record definition.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#if !defined(ASPEN_TELEMETRY_ENABLED)
#if defined(ASPEN_TELEMETRY) && ASPEN_TELEMETRY
#define ASPEN_TELEMETRY_ENABLED 1
#else
#define ASPEN_TELEMETRY_ENABLED 0
#endif
#endif

namespace aspen::telemetry {

namespace detail {

/// A word on a 128-byte line pair of its own (alignas pads the struct to
/// 128 bytes). For the configuration words that every op or every
/// progress() call loads and almost nothing writes: an unrelated global
/// that another thread keeps writing must not share their line, or each of
/// its writes turns the next load into a coherence miss. 64 bytes is not
/// enough on x86: the L2 spatial prefetcher moves lines in aligned 128-byte
/// pairs, and a benchmark's malloc counter on the other half of
/// g_sample's pair added ~50 ns per local op (4-vCPU Xeon VM).
template <typename T>
struct alignas(128) own_line {
  T v{};
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Latency stream taxonomy
// ---------------------------------------------------------------------------

/// Operation classes whose issue->completion latency is recorded.
enum class op_class : std::size_t {
  rma_put,
  rma_get,
  rpc,
  amo,
  when_all,
  kCount,
};

inline constexpr std::size_t kOpClassCount =
    static_cast<std::size_t>(op_class::kCount);

/// Where the completion notification fired (the paper's core distinction).
enum class disposition : std::size_t {
  eager,     ///< delivered inline at the initiation site
  deferred,  ///< through the progress engine (queued or remote-async)
};

/// Every latency histogram stream. The first 2*kOpClassCount entries are
/// the op-class x disposition grid (stream_of below); the remainder are
/// the progress and aggregation streams.
enum class lat_stream : std::size_t {
  rma_put_eager,
  rma_put_deferred,
  rma_get_eager,
  rma_get_deferred,
  rpc_eager,  ///< structurally empty: an rpc() can never complete inline
  rpc_deferred,
  amo_eager,
  amo_deferred,
  whenall_eager,
  whenall_deferred,
  progress_gap,    ///< inter-arrival gap between progress() calls, per thread
  agg_batch_fill,  ///< aggregation batch age: first frame queued -> flush
  kCount,
};

inline constexpr std::size_t kLatStreamCount =
    static_cast<std::size_t>(lat_stream::kCount);

/// Stable snake_case name (JSON key / report label).
[[nodiscard]] const char* to_string(lat_stream s) noexcept;
[[nodiscard]] const char* to_string(op_class c) noexcept;
[[nodiscard]] constexpr const char* to_string(disposition d) noexcept {
  return d == disposition::eager ? "eager" : "deferred";
}

[[nodiscard]] constexpr lat_stream stream_of(op_class c,
                                             disposition d) noexcept {
  return static_cast<lat_stream>(2 * static_cast<std::size_t>(c) +
                                 (d == disposition::deferred ? 1 : 0));
}

// ---------------------------------------------------------------------------
// Bucket math
// ---------------------------------------------------------------------------

/// Power-of-two nanosecond buckets: bucket 0 holds [0, 2), bucket i>=1
/// holds [2^i, 2^(i+1)), bucket 63 saturates (holds everything >= 2^63).
inline constexpr std::size_t kLatBuckets = 64;

[[nodiscard]] constexpr std::size_t lat_bucket(std::uint64_t ns) noexcept {
  const std::size_t b =
      ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns) - 1);
  return b < kLatBuckets ? b : kLatBuckets - 1;
}

/// Largest latency a sample in bucket `i` can have (the value percentile
/// extraction reports — a conservative upper bound).
[[nodiscard]] constexpr std::uint64_t lat_bucket_upper(
    std::size_t i) noexcept {
  if (i >= kLatBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{2} << i) - 1;
}

// ---------------------------------------------------------------------------
// The histogram value type (rides inside telemetry::snapshot)
// ---------------------------------------------------------------------------

/// One latency histogram: 64 power-of-two buckets plus an exact running
/// max. Buckets are monotone sums (cross-rank merge adds, interval deltas
/// subtract); max_ns is a high-water mark (merge maxes, deltas keep the
/// minuend), exactly like snapshot::pq_high_water.
struct lat_hist {
  std::array<std::uint64_t, kLatBuckets> buckets{};
  std::uint64_t max_ns = 0;

  bool operator==(const lat_hist&) const = default;

  /// Record one sample (plain, non-atomic; the hot path goes through the
  /// per-thread record in telemetry.hpp instead).
  void record(std::uint64_t ns) noexcept {
    ++buckets[lat_bucket(ns)];
    if (ns > max_ns) max_ns = ns;
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t b : buckets) n += b;
    return n;
  }

  /// Upper-bound latency of the ceil(p/100 * total)-th smallest sample
  /// (p in (0, 100]); 0 when the histogram is empty. p == 100 returns the
  /// exact observed max rather than the top bucket's bound.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const noexcept {
    const std::uint64_t n = total();
    if (n == 0) return 0;
    if (p >= 100.0) return max_ns;
    std::uint64_t rank = static_cast<std::uint64_t>(p / 100.0 *
                                                    static_cast<double>(n));
    if (static_cast<double>(rank) * 100.0 < p * static_cast<double>(n))
      ++rank;  // ceil
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kLatBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return lat_bucket_upper(i);
    }
    return max_ns;  // unreachable
  }
};

/// Cross-rank merge: buckets add, max_ns maxes. The single definition
/// behind both telemetry::merge_into and the live-plane collector.
inline void lat_merge(lat_hist& into, const lat_hist& part) noexcept {
  for (std::size_t i = 0; i < kLatBuckets; ++i)
    into.buckets[i] += part.buckets[i];
  if (part.max_ns > into.max_ns) into.max_ns = part.max_ns;
}

/// Interval delta: buckets subtract; max_ns keeps the minuend (a running
/// max has no meaningful difference — same rule as pq_high_water).
inline void lat_subtract(lat_hist& from, const lat_hist& rhs) noexcept {
  for (std::size_t i = 0; i < kLatBuckets; ++i)
    from.buckets[i] -= rhs.buckets[i];
}

// ---------------------------------------------------------------------------
// Stall watchdog (ASPEN_WATCHDOG_MS)
// ---------------------------------------------------------------------------

namespace watchdog {

/// Point-in-time transport health supplied by the conduit::tcp endpoint
/// (unset on the smp conduit).
struct transport_status {
  bool valid = false;
  std::uint64_t sendq_bytes = 0;
  std::uint64_t staged_msgs = 0;
  /// Age of the oldest still-undrained send-queue busy episode (0 when
  /// every peer queue is drained).
  std::uint64_t oldest_sendq_age_ns = 0;
  /// Bytes currently resident in shared-memory rings (all peers, both
  /// directions; 0 off the shm conduit) and the process-lifetime
  /// per-peer-pair high-water mark — a stall with a pinned-high ring depth
  /// points at a consumer that stopped pumping.
  std::uint64_t shm_ring_depth_bytes = 0;
  std::uint64_t shm_ring_high_water = 0;
  /// Pre-rendered JSON fields for the health report (quiescence matrices).
  std::string detail_json;
};

using transport_probe = std::function<transport_status()>;

#if ASPEN_TELEMETRY_ENABLED

/// Explicit (re)configuration — overrides ASPEN_WATCHDOG_MS /
/// ASPEN_WATCHDOG_REPORT; threshold_ms == 0 disables. Used by tests; the
/// environment is parsed lazily on first use otherwise.
void configure(std::uint64_t threshold_ms, const char* report_base) noexcept;

/// Configuration state word: 0 until the first configuration (configure()
/// or the lazy environment parse) is published, then 1 = disabled,
/// 2 = enabled. Stored with release after the configuration it describes.
inline detail::own_line<std::atomic<std::uint8_t>> g_state;

/// enabled() before the first configuration: takes the lock and parses
/// the environment once.
[[nodiscard]] bool enabled_slow() noexcept;

/// One acquire load once configured; the lock is taken only until then.
[[nodiscard]] inline bool enabled() noexcept {
  const std::uint8_t v = g_state.v.load(std::memory_order_acquire);
  return v != 0 ? v == 2 : enabled_slow();
}
[[nodiscard]] std::uint64_t threshold_ms() noexcept;

/// Tag the calling thread with its rank (forwarded from
/// telemetry::set_thread_rank); reports name this rank.
void set_thread_rank(int rank) noexcept;

/// Register a pending remote operation; returns a nonzero handle while the
/// watchdog is enabled (0 otherwise — complete_op(0) is a no-op).
[[nodiscard]] std::uint64_t track_op(op_class cls) noexcept;
void complete_op(std::uint64_t id) noexcept;

/// Progress-engine heartbeat: records this thread's progress timestamp and
/// runs the (time-throttled) stall check. `now_ns` is
/// detail::trace_now_ns().
void note_progress(std::uint64_t now_ns) noexcept;

/// As note_progress but reads the clock itself; hook for transport pumps.
void poll_check() noexcept;

/// Ask for an unconditional health report at the next check (the SIGUSR1
/// handler body; also callable directly from tests).
void request_report() noexcept;

/// Install the SIGUSR1 handler (idempotent; done automatically the first
/// time an enabled watchdog checks).
void install_signal_handler() noexcept;

void set_transport_probe(transport_probe probe);

/// Health reports written by this process so far (test observability).
[[nodiscard]] int reports_written() noexcept;

/// Last-episode state: 0 = healthy (no stall episode yet), 1 = a stall
/// episode is active, 2 = stalled earlier but recovered. Rides the live
/// telemetry plane as the wd_state gauge (aspen-top's health glyph).
[[nodiscard]] int health_state() noexcept;

#else  // !ASPEN_TELEMETRY_ENABLED — the watchdog compiles out entirely.

inline void configure(std::uint64_t, const char*) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
[[nodiscard]] inline std::uint64_t threshold_ms() noexcept { return 0; }
inline void set_thread_rank(int) noexcept {}
[[nodiscard]] inline std::uint64_t track_op(op_class) noexcept { return 0; }
inline void complete_op(std::uint64_t) noexcept {}
inline void note_progress(std::uint64_t) noexcept {}
inline void poll_check() noexcept {}
inline void request_report() noexcept {}
inline void install_signal_handler() noexcept {}
inline void set_transport_probe(transport_probe) {}
[[nodiscard]] inline int reports_written() noexcept { return 0; }
[[nodiscard]] inline int health_state() noexcept { return 0; }

#endif

/// The per-rank health report path: "<base>.rank<R>.health.json".
[[nodiscard]] std::string report_path(const std::string& base, int rank);

}  // namespace watchdog

}  // namespace aspen::telemetry
