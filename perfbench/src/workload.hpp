// Seeded inputs and output checks of the benchmark workloads: the latency
// op mix, the GUPS table replay, and the bulk RPC payloads. Everything here
// is plain computation over the seed so the self-tests can run it without a
// job, and so two runs with one seed see identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64 step: advances `state` and returns the next output.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Mixes a seed with a stream tag into an independent splitmix64 state.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) noexcept;

// ---------------------------------------------------------------------------
// Latency op mix (phase a)
// ---------------------------------------------------------------------------

enum class op_kind : std::uint8_t {
  rput,            ///< 8-byte rput of `value` to cell x
  rget,            ///< rget of cell x; must return the last rput value
  fetch_add,       ///< fetch_add(`delta`) on counter c; returns the old value
  fetch_add_into,  ///< non-fetching fetch_add: old value lands in local memory
  when_all_rget2,  ///< when_all of rget(x) and rget(y)
  rpc,             ///< rpc round trip returning rpc_reply(value)
};
inline constexpr std::size_t kOpKinds = 6;

[[nodiscard]] const char* to_string(op_kind k) noexcept;

struct mix_op {
  op_kind kind;
  std::uint64_t value;  ///< rput payload / rpc argument
  std::uint64_t delta;  ///< fetch_add operand, in [1, 256]
  bool operator==(const mix_op&) const = default;
};

// Sizes every workload shares. What differs between workloads (conduit,
// latency batches, GUPS updates per rank and passes) is set per job.
inline constexpr int kSmpRanks = 2;            ///< ranks of a one-process job
inline constexpr unsigned kGupsBits = 18;      ///< 2^18 entries: 2 MiB, fits L2
inline constexpr std::size_t kBulkMsgs = 256;  ///< bulk rpcs per rank
inline constexpr std::size_t kBulkWindow = 4;  ///< bulk rpcs in flight
inline constexpr std::size_t kBulkBytes = 256 << 10;  ///< bulk payload size
/// Rpcs rank 0 sends to rank 1 blocked in future::wait() (the parked probe).
inline constexpr std::size_t kParkedRpcs = 64;

/// Ops of each kind in one timed batch: every batch holds the same multiset
/// in a seeded order, so batch means differ by timing, not by composition.
/// One rpc per batch keeps its round trip (in-process it costs as much as
/// dozens of eager ops) from burying the per-op cost of the other kinds.
inline constexpr std::size_t kMixCounts[kOpKinds] = {6, 6, 6, 6, 6, 1};
inline constexpr std::size_t kMixBatch = 31;

/// The seeded op sequence rank 0 issues in one latency pass: `batches`
/// consecutive batches of kMixBatch ops.
[[nodiscard]] std::vector<mix_op> make_mix(std::uint64_t seed,
                                           std::size_t batches);

/// What the rpc handler returns for argument `v` (checked on the initiator).
[[nodiscard]] constexpr std::uint64_t rpc_reply(std::uint64_t v) noexcept {
  return v * 0x9E3779B97F4A7C15ull + 1;
}

/// Initial contents of the three target cells {x, y, c} on rank 1.
struct mix_cells {
  std::uint64_t x, y, c;
};
[[nodiscard]] mix_cells initial_cells(std::uint64_t seed) noexcept;

/// The values a correct runtime returns for each op of the mix, computed
/// against plain memory. The benchmark checks every op against it; a
/// mismatch (an rget that missed the last rput, a fetch_add whose old value
/// is not the running counter) is a failed op.
struct mix_model {
  mix_cells cells;
  struct observed {
    std::uint64_t a = 0, b = 0;
    bool operator==(const observed&) const = default;
  };
  /// Expected observation of `op`, then applies its side effect.
  [[nodiscard]] observed step(const mix_op& op) noexcept;
};

// ---------------------------------------------------------------------------
// GUPS (phase b)
// ---------------------------------------------------------------------------

/// Seeded initial value of global table entry `idx`.
[[nodiscard]] std::uint64_t table_fill(std::uint64_t seed,
                                       std::uint64_t idx) noexcept;

/// Expected contents of global entries [lo, lo + n) after an odd number of
/// runs of a GUPS variant with exact updates over `nranks` ranks: the seeded
/// fill XOR-ed with every rank's HPCC stream, replayed serially. XOR
/// commutes, so the order the runtime applied the updates in does not
/// matter. Every run replays the same stream, so an even number of runs
/// restores the fill, and a check against it could not tell a variant that
/// applies nothing from a correct one: the benchmark runs odd counts only.
[[nodiscard]] std::vector<std::uint64_t> gups_expected(
    std::uint64_t seed, unsigned table_bits, std::uint64_t updates_per_rank,
    int nranks, std::uint64_t lo, std::uint64_t n);

/// Number of entries where `got` differs from `want`.
[[nodiscard]] std::uint64_t count_mismatches(
    const std::uint64_t* got, const std::vector<std::uint64_t>& want) noexcept;

// ---------------------------------------------------------------------------
// Bulk RPC payloads (phase c)
// ---------------------------------------------------------------------------

/// Seeded payload number `k` of rank `src` (`bytes` long).
[[nodiscard]] std::vector<std::uint8_t> make_payload(std::uint64_t seed,
                                                     int src, int k,
                                                     std::size_t bytes);

/// Order-sensitive checksum of a payload (FNV-1a over 64-bit words, then
/// the tail bytes).
[[nodiscard]] std::uint64_t checksum(const std::uint8_t* p,
                                     std::size_t n) noexcept;

}  // namespace perfbench
