// aspen::otrace — sampled per-operation distributed tracing plus an
// always-on flight recorder.
//
// The counter plane says how many completions took each path and the
// latency plane says how long each path took in aggregate; neither can
// answer "why was *this* operation slow". otrace closes that gap: at
// injection each RMA/RPC/AMO draws a deterministic per-rank sample decision
// (ASPEN_TRACE_SAMPLE=N samples 1-in-N; "1/N" is accepted too; 0/unset is
// off). The decision comes from the same single draw per op that picks the
// 1-in-16 latency-timed ops (telemetry::op_scope, core/op_scope.hpp), and a
// sampled op is always timed. A sampled op gets a 64-bit trace id
//
//   id = (rank << 48) | local_seq
//
// carried across its entire causal chain: the eager AM frame (a trace word
// in every am_eager body; wire protocol v6), the RTS->CTS->DATA
// rendezvous legs (rdzv_body.trace, then keyed by token), shm ring records,
// agg-coalesced sub-frames, remote handler execution (reply AMs inherit the
// id through the execute() scope), and the final cx_state fulfillment —
// eager-inline or deferred through an op_record, including the cross-persona
// LPC hop.
//
// Every hop appends one fixed-size stage record to a process-global
// lock-free ring (ASPEN_TRACE_RING_BYTES, default 1 MiB). The ring is the
// flight recorder: it is never drained during the run, so at any instant it
// holds the most recent stage records — a black box. It dumps to
// "<base>.rank<R>.otrace.json" on watchdog trip, SIGSEGV/SIGABRT, or
// SIGUSR2 (async-signal-safe writer: open/write only), and at region exit
// the conduit::tcp endpoint exports the same records as Perfetto spans with
// flow events chaining every cross-rank hop (merge the per-rank files with
// bench::merge_rank_otraces). Timestamps are absolute steady-clock
// nanoseconds corrected by the bootstrap's clock-sync offset
// (telemetry::set_clock_sync), so all ranks of one job land on a single
// monotone timeline. otrace is the runtime's only per-op event recorder.
//
// With ASPEN_TELEMETRY compiled out the whole subsystem compiles to
// nothing: ids are always 0, scopes and notes are empty inlines, and the
// ring is never allocated. The wire still carries the (zero) trace word so
// ON and OFF builds interoperate frame-for-frame.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/telemetry.hpp"

namespace aspen::otrace {

// ---------------------------------------------------------------------------
// Stage taxonomy — one record per hop of a sampled op's causal chain
// ---------------------------------------------------------------------------

enum class stage : std::uint16_t {
  inject = 1,        ///< op sampled at its injection site (rma/rpc/amo entry)
  am_send,           ///< AM handed to the substrate's send path
  wire_eager,        ///< eager frame queued onto a peer socket
  wire_rts,          ///< rendezvous RTS queued (initiator)
  wire_cts,          ///< RTS processed, CTS queued (target)
  wire_data,         ///< CTS processed, DATA queued (initiator)
  shm_push,          ///< record pushed onto a shared-memory ring
  agg_stage,         ///< frame staged into an aggregation batch
  wire_deliver,      ///< staged AM released in-order to the substrate
  handler_run,       ///< AM handler executed on the target
  lpc_hop,           ///< completion routed cross-persona via LPC
  fulfill_eager,     ///< completion delivered inline at the injection site
  fulfill_deferred,  ///< completion fired through the progress engine
};

/// Stable snake_case stage name (Perfetto slice name / JSON key).
[[nodiscard]] const char* to_string(stage s) noexcept;

/// One decoded flight-recorder record (test/export view of a ring slot).
struct record_view {
  std::uint64_t trace = 0;  ///< trace id, (rank << 48) | seq
  std::uint64_t t_ns = 0;   ///< absolute steady ns, rank-0-normalized
  std::uint64_t aux = 0;    ///< stage-specific (wire edge id; see below)
  stage st = stage::inject;
  std::int16_t rank = -1;   ///< recording rank
  std::uint16_t tag = 0;    ///< recording thread tag (persona/thread)
};

/// The per-rank dump/export path: "<base>.rank<R>.otrace.json".
[[nodiscard]] std::string dump_path(const std::string& base, int rank);

/// Salts XORed onto a rendezvous message's wire edge id so the RTS, CTS and
/// DATA legs bind as three distinct Perfetto flows even though RTS and DATA
/// share one (src, dst, seq). Senders record aux = edge id pre-salted for
/// the *delivery*-bearing stages (wire_eager/shm_push/agg_stage/
/// wire_deliver use aux as-is); the exporter applies the rts/cts salts to
/// the mid-chain stages on both ends.
inline constexpr std::uint64_t kEdgeSaltData = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t kEdgeSaltRts = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kEdgeSaltCts = 0x165667B19E3779F9ull;

#if ASPEN_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Configuration and sampling
// ---------------------------------------------------------------------------

/// Explicit (re)configuration — overrides ASPEN_TRACE_SAMPLE /
/// ASPEN_TRACE_RING_BYTES / the dump base; sample_n == 0 disables. Used by
/// tests; the environment is parsed lazily on first use otherwise.
void configure(std::uint32_t sample_n, std::uint64_t ring_bytes,
               const char* base) noexcept;

namespace detail {

/// Sampling word: bit 0 set once the configuration (sample_n, ring, mask)
/// is published, sample_n in the bits above it. Stored with release after
/// the ring exists, so one acquire load answers "is tracing on" without the
/// configuration lock.
inline telemetry::detail::own_line<std::atomic<std::uint64_t>> g_sample;

/// sample_n() before the first configuration: takes the lock and parses the
/// environment once.
[[nodiscard]] std::uint32_t sample_n_slow() noexcept;

/// The calling thread's active trace id.
[[nodiscard]] inline std::uint64_t& tls_current() noexcept {
  static thread_local std::uint64_t cur = 0;
  return cur;
}

}  // namespace detail

/// The configured 1-in-N rate (0 = off).
[[nodiscard]] inline std::uint32_t sample_n() noexcept {
  const std::uint64_t w = detail::g_sample.v.load(std::memory_order_acquire);
  return (w & 1) != 0 ? static_cast<std::uint32_t>(w >> 1)
                      : detail::sample_n_slow();
}

/// sample_n() != 0.
[[nodiscard]] inline bool enabled() noexcept { return sample_n() != 0; }

/// Ring capacity in records (rounded down to a power of two).
[[nodiscard]] std::uint64_t ring_capacity() noexcept;

/// The configured dump/export base name (ASPEN_TELEMETRY_TRACE, else
/// ASPEN_WATCHDOG_REPORT, else "aspen"). Stable storage once configured.
[[nodiscard]] const char* dump_base() noexcept;

/// Tag the calling thread with its rank (forwarded from
/// telemetry::set_thread_rank). Seeds this thread's injection draw stream
/// (telemetry::detail::draw): the sequence of decisions drawn after
/// set_thread_rank(r) is a pure function of r, so runs replay identically.
void set_thread_rank(int rank) noexcept;

/// Reset the calling thread's draw stream to its seed (tests).
void reset_sampling() noexcept;

/// Mint a fresh trace id, (rank << 48) | seq, and count
/// counter::otrace_sampled. The injection scope (telemetry::op_scope) calls
/// it when its draw samples the op.
[[nodiscard]] std::uint64_t mint_id() noexcept;

/// Draw one sample decision from the calling thread's stream. Returns a
/// fresh trace id, or 0 when unsampled/disabled (no draw is taken then).
[[nodiscard]] std::uint64_t begin_op() noexcept;

/// The trace id active on this thread (0 none).
[[nodiscard]] inline std::uint64_t current() noexcept {
  return detail::tls_current();
}
inline void set_current(std::uint64_t id) noexcept {
  detail::tls_current() = id;
}

/// Append a stage record for an explicit trace id (no-op when 0). Used
/// where the id was captured earlier — op_records, deferred closures, wire
/// decode paths.
void note_id(std::uint64_t id, stage st, std::uint64_t aux = 0) noexcept;

/// Append a stage record for the active trace (no-op when none).
inline void note(stage st, std::uint64_t aux = 0) noexcept {
  if (const std::uint64_t id = current(); id != 0) note_id(id, st, aux);
}

/// RAII: set the active trace id, restore the previous on exit. Used by
/// am_message::execute so every AM handler (and any reply it sends) runs
/// under its message's trace.
class scope {
 public:
  explicit scope(std::uint64_t id) noexcept : saved_(current()) {
    set_current(id);
  }
  ~scope() { set_current(saved_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  std::uint64_t saved_;
};

// ---------------------------------------------------------------------------
// Stage recording (the flight recorder ring)
// ---------------------------------------------------------------------------

/// Record an eager (inline) fulfillment of the active trace, if any.
inline void note_fulfill_eager() noexcept {
  if (current() != 0) note(stage::fulfill_eager);
}

// ---------------------------------------------------------------------------
// Dump / export
// ---------------------------------------------------------------------------

/// Install the SIGUSR2 dump handler plus SIGSEGV/SIGABRT black-box hooks
/// (crash handlers chain to the previous disposition). Idempotent; no-op
/// while disabled.
void install_crash_handlers() noexcept;

/// Dump the ring to dump_path(base, rank) from a safe (non-signal)
/// context: the watchdog calls this when it writes a health report.
void dump_now() noexcept;

/// Async-signal-safe ring dump (open/write only); the SIGUSR2/SIGSEGV/
/// SIGABRT handler body. Exposed for tests.
void dump_signal_safe() noexcept;

/// Export the ring as a Perfetto Trace Event JSON file: one 'X' slice per
/// stage record (pid = recording rank, tid = thread tag) plus 's'/'f' flow
/// events binding every cross-rank hop. Returns false if the file cannot
/// be opened. Called by the endpoint at region exit.
bool export_json(const std::string& path, int rank);

/// Decode every committed ring slot, oldest first (tests and the
/// exporters).
[[nodiscard]] std::vector<record_view> snapshot_records();

/// Discard all recorded stages (tests; between spmd regions).
void clear() noexcept;

/// Total records appended so far (dropped-by-wraparound = total - capacity
/// when total exceeds ring_capacity()).
[[nodiscard]] std::uint64_t records_appended() noexcept;

#else  // !ASPEN_TELEMETRY_ENABLED — otrace compiles out entirely.

inline void configure(std::uint32_t, std::uint64_t, const char*) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
[[nodiscard]] inline std::uint32_t sample_n() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t ring_capacity() noexcept { return 0; }
[[nodiscard]] inline const char* dump_base() noexcept { return "aspen"; }
inline void set_thread_rank(int) noexcept {}
inline void reset_sampling() noexcept {}
[[nodiscard]] inline std::uint64_t mint_id() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t begin_op() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t current() noexcept { return 0; }
inline void set_current(std::uint64_t) noexcept {}

class scope {
 public:
  explicit scope(std::uint64_t) noexcept {}
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
};
static_assert(sizeof(scope) == 1,
              "with ASPEN_TELEMETRY off otrace scopes must carry no state");

inline void note(stage, std::uint64_t = 0) noexcept {}
inline void note_id(std::uint64_t, stage, std::uint64_t = 0) noexcept {}
inline void note_fulfill_eager() noexcept {}
inline void install_crash_handlers() noexcept {}
inline void dump_now() noexcept {}
inline void dump_signal_safe() noexcept {}
inline bool export_json(const std::string&, int) { return false; }
[[nodiscard]] inline std::vector<record_view> snapshot_records() {
  return {};
}
inline void clear() noexcept {}
[[nodiscard]] inline std::uint64_t records_appended() noexcept { return 0; }

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace aspen::otrace
