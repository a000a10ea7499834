// telemetry::op_scope — the one instrumentation scope every communication
// entry point opens (rput, rget, bulk rget, the three atomic paths, rpc and
// rpc_ff).
//
// The paper's effect is tens of nanoseconds per op, so the scope must cost
// a few. It takes ONE draw per op from the thread's rank-seeded stream
// (telemetry::detail::draw) and derives every per-op decision from it:
//
//   - latency timing: one op in kTimedOneIn (16) stamps its issue time and
//     feeds the *_eager / *_deferred histograms; every other op reads no
//     clock at all. Counters are untouched by sampling and stay exact;
//   - otrace sampling: when ASPEN_TRACE_SAMPLE=N is on and no trace is
//     already active, the same draw decides 1-in-N; a sampled op mints a
//     trace id, records its inject stage and is always timed.
//
// It nests: the previous op context and trace id are restored on exit, so
// an op issued from inside another op's inline completion attributes
// correctly and stays on the enclosing trace. With ASPEN_TELEMETRY
// compiled out the scope is an empty object.
#pragma once

#include <cstdint>

#include "core/otrace.hpp"
#include "core/telemetry.hpp"

namespace aspen::telemetry {

#if ASPEN_TELEMETRY_ENABLED

class op_scope {
 public:
  explicit op_scope(op_class cls) noexcept
      : saved_op_(detail::tls_op()),
        saved_trace_(otrace::current()) {
    const std::uint32_t d = detail::draw();
    bool timed = d % kTimedOneIn == 0;
    if (saved_trace_ == 0) {
      if (const std::uint32_t n = otrace::sample_n(); n != 0 && d % n == 0) {
        otrace::set_current(otrace::mint_id());
        otrace::note(otrace::stage::inject);
        timed = true;
      }
    }
    detail::tls_op() = {timed ? detail::trace_now_ns() : 0, cls, true, timed};
  }
  ~op_scope() {
    detail::tls_op() = saved_op_;
    otrace::set_current(saved_trace_);
  }
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;

 private:
  detail::op_ctx saved_op_;
  std::uint64_t saved_trace_;
};

#else  // !ASPEN_TELEMETRY_ENABLED

class op_scope {
 public:
  explicit op_scope(op_class) noexcept {}
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;
};

static_assert(sizeof(op_scope) == 1,
              "with ASPEN_TELEMETRY off op scopes must carry no state");

#endif

}  // namespace aspen::telemetry
