// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around each call it makes into a runtime layer —
// nothing inside the runtime is instrumented. A span is (name, start, end,
// parent); spans of one rank live in one vector and are written out when
// the job ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, comparable across processes).
[[nodiscard]] std::int64_t now_ns() noexcept;

// X(name, label): the span names. Per-op spans exist once per latency pass
// (eager = the build's default factories, defer = as_defer_future()).
#define PERFBENCH_SPANS(X)                                     \
  X(setup, "setup")                                            \
  X(lat_eager, "lat.eager")                                    \
  X(lat_defer, "lat.defer")                                    \
  X(eager_op, "eager.op")                                      \
  X(eager_inject, "eager.inject")                              \
  X(eager_when_all, "eager.when_all")                          \
  X(eager_wait, "eager.wait")                                  \
  X(eager_rpc, "eager.rpc")                                    \
  X(defer_op, "defer.op")                                      \
  X(defer_inject, "defer.inject")                              \
  X(defer_when_all, "defer.when_all")                          \
  X(defer_wait, "defer.wait")                                  \
  X(defer_rpc, "defer.rpc")                                    \
  X(barrier, "barrier")                                        \
  X(gups, "gups")                                              \
  X(gups_run_variant, "gups.run_variant")                      \
  X(bulk, "bulk")                                              \
  X(bulk_inject, "bulk.inject")                                \
  X(bulk_wait, "bulk.wait")

enum class span_name : std::uint16_t {
#define PERFBENCH_ENUM(id, label) id,
  PERFBENCH_SPANS(PERFBENCH_ENUM)
#undef PERFBENCH_ENUM
      kCount
};
inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(span_name::kCount);

[[nodiscard]] const char* to_string(span_name n) noexcept;

struct span {
  span_name name;
  std::int32_t parent;  ///< index of the enclosing span, -1 at top level
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Records spans when on; when off, begin/end cost one predictable branch.
/// Single-threaded: one tracer per rank thread.
class tracer {
 public:
  explicit tracer(bool on) : on_(on) {}

  /// Allocates and touches storage for `expected` spans in all, keeping
  /// those recorded so far, so recording neither reallocates nor
  /// page-faults inside a timed batch.
  void reserve(std::size_t expected) {
    if (on_ && spans_.size() < expected) spans_.resize(expected);
  }

  std::int32_t begin(span_name n) {
    if (!on_) return -1;
    const auto i = static_cast<std::int32_t>(n_);
    put({n, open_, now_ns(), 0});
    open_ = i;
    return i;
  }
  void end(std::int32_t i) noexcept {
    if (i < 0) return;
    span& s = spans_[static_cast<std::size_t>(i)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  /// The recorded spans, in begin order. Ends recording.
  [[nodiscard]] const std::vector<span>& finish() {
    spans_.resize(n_);
    on_ = false;
    return spans_;
  }

  /// RAII span over a scope.
  class scope {
   public:
    scope(tracer& t, span_name n) : t_(t), i_(t.begin(n)) {}
    ~scope() { t_.end(i_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer& t_;
    std::int32_t i_;
  };

 private:
  void put(const span& s) {
    if (n_ == spans_.size())
      spans_.push_back(s);
    else
      spans_[n_] = s;
    ++n_;
  }

  bool on_;
  std::int32_t open_ = -1;
  std::size_t n_ = 0;
  std::vector<span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// sticking out of its parent counts only inside it). Children must appear
/// after their parent, in order of start time, as a tracer records them.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<span>& s);

/// Per-name summary of a span set.
struct span_summary {
  std::uint64_t count = 0;
  std::int64_t self_p50_ns = 0;
  std::int64_t dur_p50_ns = 0;
  std::int64_t self_total_ns = 0;
  std::int64_t dur_total_ns = 0;
};
[[nodiscard]] std::vector<span_summary> summarize(const std::vector<span>& s);

/// Writes spans as fixed 24-byte little-endian records
/// {u16 name, u16 rank, i32 parent, i64 start_ns, i64 end_ns}.
bool write_spans(const std::string& path, int rank,
                 const std::vector<span>& s);

}  // namespace perfbench
