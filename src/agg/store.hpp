// aspen::agg — RPC aggregation store (docs/AGG.md).
//
// An `agg_store<Fn, T>` buckets small user payloads per target rank and
// ships each bucket as ONE bulk AM whose handler invokes `fn` once per
// element on arrival — the upper layer of the aggregation fabric (the
// lower layer, per-peer wire coalescing, lives in net::endpoint behind
// ASPEN_AGG). Modeled on the `ablation_promise_agg` bench leg,
// generalized: where that leg hand-rolls one aggregation for promise
// fulfillments, this stores any trivially copyable element type and any
// shippable callable.
//
// Flushing is three-way, mirroring the wire layer's watermarks:
//  - bucket watermark: push() ships a bucket reaching cfg.bucket_elems;
//  - auto-flush: a progress hook (detail::add_progress_hook) ships any
//    bucket older than cfg.flush_us on the next progress() call;
//  - explicit: flush(target) / flush_all(), and the destructor.
//
// A store belongs to the thread that constructed it (the hook fires on
// that thread's progress() calls; no internal locking). Buckets are NOT
// tracked by the transport's quiescence protocol — call flush_all()
// before a barrier or region end that must observe every element, exactly
// as the ablation leg does.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/rpc.hpp"
#include "core/runtime.hpp"
#include "core/telemetry.hpp"

namespace aspen::agg {

/// Per-store tunables. The defaults match the wire layer's frame-count and
/// age watermarks (gex::agg_config) so one mental model covers both layers.
struct store_config {
  /// Ship a bucket once it holds this many elements.
  std::size_t bucket_elems = 128;
  /// Age watermark for the progress-driven auto-flush.
  std::uint64_t flush_us = 100;
  /// Register the progress hook; false = explicit flushing only.
  bool auto_flush = true;
};

namespace detail {

inline std::uint64_t now_ns() noexcept {
  // Own clock rather than telemetry's trace clock: the age watermark must
  // keep working when telemetry is compiled out (the trace clock is gone).
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Target-side unpack: callable bytes, element count, then the packed
/// elements; `fn` runs once per element in push order.
template <typename Fn, typename T>
void store_bulk_handler(gex::runtime&, int /*me*/, int src,
                        std::byte* payload, std::size_t len) {
  ser_reader r(payload, len);
  aspen::detail::aligned_fn<Fn> fn(r);
  const auto n = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    T v;
    r.read_bytes(&v, sizeof(T));
    if constexpr (std::is_invocable_v<Fn&, int, T>) {
      fn.get()(src, std::move(v));
    } else {
      fn.get()(std::move(v));
    }
  }
}

}  // namespace detail

template <typename Fn, typename T>
class agg_store {
  static_assert(aspen::detail::shippable_callable<Fn>,
                "agg_store callables must be trivially copyable (they ship "
                "by bytes with every bucket)");
  static_assert(std::is_trivially_copyable_v<T>,
                "agg_store elements ship by bytes");
  static_assert(std::is_invocable_v<Fn&, T> ||
                    std::is_invocable_v<Fn&, int, T>,
                "the handler must accept (T) or (source_rank, T)");

 public:
  explicit agg_store(Fn fn, store_config cfg = {})
      : fn_(std::move(fn)),
        cfg_(cfg),
        buckets_(static_cast<std::size_t>(rank_n())),
        open_ns_(static_cast<std::size_t>(rank_n()), 0) {
    if (cfg_.bucket_elems == 0) cfg_.bucket_elems = 1;
    if (cfg_.auto_flush)
      hook_id_ = aspen::detail::add_progress_hook([this]() -> std::size_t {
        std::size_t shipped = 0;
        const std::uint64_t now = detail::now_ns();
        const std::uint64_t age_ns = cfg_.flush_us * 1000u;
        for (std::size_t r = 0; r < buckets_.size(); ++r)
          if (!buckets_[r].empty() && now - open_ns_[r] >= age_ns)
            shipped += flush(static_cast<int>(r));
        return shipped;
      });
  }

  agg_store(const agg_store&) = delete;
  agg_store& operator=(const agg_store&) = delete;

  ~agg_store() {
    flush_all();
    if (hook_id_ != 0) aspen::detail::remove_progress_hook(hook_id_);
  }

  /// Bucket one element for `target` (self included — a self-targeted
  /// bucket ships through the same AM plane and runs the handler locally).
  void push(int target, const T& v) {
    auto& b = buckets_[static_cast<std::size_t>(target)];
    if (b.empty())
      open_ns_[static_cast<std::size_t>(target)] = detail::now_ns();
    b.push_back(v);
    telemetry::count(telemetry::counter::agg_store_elems);
    if (b.size() >= cfg_.bucket_elems) flush(target);
  }

  /// Ship `target`'s bucket now (no-op when empty). Returns elements sent.
  std::size_t flush(int target) {
    auto& b = buckets_[static_cast<std::size_t>(target)];
    if (b.empty()) return 0;
    const std::size_t n = b.size();
    ser_writer w(sizeof(Fn) + sizeof(std::uint64_t) + n * sizeof(T));
    aspen::detail::write_callable(w, fn_);
    w.write(static_cast<std::uint64_t>(n));
    w.write_bytes(b.data(), n * sizeof(T));
    telemetry::count(telemetry::counter::agg_store_buckets_shipped);
    // Overhead a standalone per-element AM would have paid that the bucket
    // amortizes: the 24-byte wire frame header, the 16-byte eager
    // preamble, and its own copy of the callable.
    telemetry::count(
        telemetry::counter::agg_bytes_saved,
        static_cast<std::uint64_t>(n - 1) * (40u + sizeof(Fn)));
    if (telemetry::compiled_in()) {
      const std::uint64_t opened =
          open_ns_[static_cast<std::size_t>(target)];
      if (opened != 0)
        telemetry::note_latency(telemetry::lat_stream::agg_batch_fill,
                                detail::now_ns() - opened);
    }
    aspen::detail::rank_context& c = aspen::detail::ctx();
    c.rt->send_am(target,
                  gex::am_message(&detail::store_bulk_handler<Fn, T>, c.rank,
                                  w.data(), w.size()));
    b.clear();
    open_ns_[static_cast<std::size_t>(target)] = 0;
    return n;
  }

  /// Ship every non-empty bucket. Returns elements sent.
  std::size_t flush_all() {
    std::size_t n = 0;
    for (std::size_t r = 0; r < buckets_.size(); ++r)
      n += flush(static_cast<int>(r));
    return n;
  }

  /// Elements currently bucketed (all targets).
  [[nodiscard]] std::size_t pending() const noexcept {
    std::size_t n = 0;
    for (const auto& b : buckets_) n += b.size();
    return n;
  }

  [[nodiscard]] const store_config& config() const noexcept { return cfg_; }

 private:
  Fn fn_;
  store_config cfg_;
  std::vector<std::vector<T>> buckets_;  ///< [nranks]
  std::vector<std::uint64_t> open_ns_;   ///< when each bucket opened
  std::uint64_t hook_id_ = 0;
};

}  // namespace aspen::agg
