// Remote procedure calls.
//
// rpc_ff(target, fn, args...) runs fn(args...) on the target rank inside its
// progress engine, fire-and-forget. rpc(target, fn, args...) additionally
// returns a future for fn's result, readied on the initiator when the reply
// arrives (always deferred — an RPC can never complete synchronously).
// Callbacks returning a future are unwrapped: the reply is sent once the
// inner future readies on the target.
//
// `fn` must be trivially copyable (it is shipped by bytes); arguments and
// results must be serializable (serialization.hpp).
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/cx_state.hpp"
#include "core/op_scope.hpp"
#include "core/serialization.hpp"

namespace aspen {

namespace detail {

/// Serialize a callable's bytes. Captureless (empty) callables have no
/// initialized state — write a fixed zero byte of the same size instead of
/// their indeterminate padding (also silences -Wmaybe-uninitialized).
template <typename Fn>
void write_callable(ser_writer& w, const Fn& fn) {
  if constexpr (std::is_empty_v<Fn>) {
    static_assert(sizeof(Fn) == 1);
    w.write(std::uint8_t{0});
  } else {
    w.write_bytes(&fn, sizeof(Fn));
  }
}

/// Callables shipped by bytes must be memcpy-safe. We check trivial copy
/// construction + destruction rather than std::is_trivially_copyable
/// because GCC 12 mis-reports the latter for closure types that have been
/// mentioned inside a std::tuple (as every completion list does).
template <typename Fn>
inline constexpr bool shippable_callable =
    std::is_trivially_copy_constructible_v<Fn> &&
    std::is_trivially_destructible_v<Fn>;

/// Copy a trivially-copyable callable out of a (possibly misaligned)
/// payload into aligned storage and return a reference.
template <typename Fn>
struct aligned_fn {
  alignas(Fn) std::byte storage[sizeof(Fn)];
  explicit aligned_fn(ser_reader& r) { r.read_bytes(storage, sizeof(Fn)); }
  [[nodiscard]] Fn& get() noexcept { return *reinterpret_cast<Fn*>(storage); }
};

template <typename... U>
void rpc_reply_handler(gex::runtime&, int /*me*/, int /*src*/,
                       std::byte* payload, std::size_t len) {
  ser_reader r(payload, len);
  auto* c = reinterpret_cast<cell<U...>*>(r.read<std::uint64_t>());
  // Issue timestamp echoed by the target (initiator clock; 0 when the rpc
  // was not timed or the initiator was built without telemetry).
  const auto issue_ns = r.read<std::uint64_t>();
  if constexpr (sizeof...(U) > 0) {
    c->set_value_tuple(r.read<std::tuple<U...>>());
  }
  // Readying the cell is the rpc's completion; the reply AM carried the
  // trace, so this lands on the initiating op's causal chain.
  otrace::note(otrace::stage::fulfill_deferred);
  c->satisfy(1);
  c->drop_ref();
  telemetry::note_since(telemetry::lat_stream::rpc_deferred, issue_ns);
}

/// Serialize and send the reply that fulfills `cell_bits` on `initiator`.
/// `issue_ns` is the initiator-clock issue timestamp echoed back verbatim
/// so the initiator can record round-trip latency without clock math.
template <typename... U>
void send_rpc_reply(int me, int initiator, std::uint64_t cell_bits,
                    std::uint64_t issue_ns, const std::tuple<U...>& vals) {
  ser_writer w(2 * sizeof(std::uint64_t) + 64);
  w.write(cell_bits);
  w.write(issue_ns);
  if constexpr (sizeof...(U) > 0) w.write(vals);
  detail::ctx().rt->send_am(
      initiator,
      gex::am_message(&rpc_reply_handler<U...>, me, w.data(), w.size()));
}

template <typename Fn, typename ArgsTuple>
void rpc_ff_request_handler(gex::runtime&, int /*me*/, int /*src*/,
                            std::byte* payload, std::size_t len) {
  ser_reader r(payload, len);
  aligned_fn<Fn> fn(r);
  ArgsTuple args = r.read<ArgsTuple>();
  std::apply(fn.get(), std::move(args));
}

template <typename Fn, typename ArgsTuple, typename... U>
void rpc_request_handler(gex::runtime&, int me, int src, std::byte* payload,
                         std::size_t len) {
  ser_reader r(payload, len);
  const auto cell_bits = r.read<std::uint64_t>();
  const auto issue_ns = r.read<std::uint64_t>();
  aligned_fn<Fn> fn(r);
  ArgsTuple args = r.read<ArgsTuple>();
  using R = decltype(std::apply(fn.get(), std::move(args)));
  if constexpr (is_future_v<R>) {
    future<U...> res = std::apply(fn.get(), std::move(args));
    if (res.ready()) {
      send_rpc_reply<U...>(me, src, cell_bits, issue_ns, res.result_tuple());
    } else {
      res.then([me, src, cell_bits, issue_ns](U... vals) {
        send_rpc_reply<U...>(me, src, cell_bits, issue_ns,
                             std::tuple<U...>(vals...));
      });
    }
  } else if constexpr (std::is_void_v<R>) {
    std::apply(fn.get(), std::move(args));
    send_rpc_reply<>(me, src, cell_bits, issue_ns, std::tuple<>{});
  } else {
    R v = std::apply(fn.get(), std::move(args));
    send_rpc_reply<std::decay_t<R>>(me, src, cell_bits, issue_ns,
                                    std::tuple<std::decay_t<R>>(std::move(v)));
  }
}

/// Shared implementation for rpc_ff and remote_cx::as_rpc dispatch.
template <typename Fn, typename ArgsTuple>
void send_rpc_ff_tuple(int target, const Fn& fn, const ArgsTuple& args) {
  static_assert(shippable_callable<Fn>,
                "rpc callables must be trivially copyable");
  telemetry::op_scope os(telemetry::op_class::rpc);
  telemetry::count(telemetry::counter::rpc_ff_sent);
  ser_writer w(sizeof(Fn) + 64);
  write_callable(w, fn);
  w.write(args);
  detail::rank_context& c = detail::ctx();
  c.rt->send_am(target,
                gex::am_message(&rpc_ff_request_handler<Fn, ArgsTuple>, c.rank,
                                w.data(), w.size()));
}

/// future<U...> type produced by an rpc whose callback returns R.
template <typename R>
struct rpc_future {
  using type = then_result_t<R>;
};

/// Map a future<U...>-returning callback to the matching request handler.
template <typename Fn, typename ArgsTuple, typename... U>
gex::am_handler rpc_handler_for_future(future<U...>*) {
  return &rpc_request_handler<Fn, ArgsTuple, U...>;
}

}  // namespace detail

/// Run fn(args...) on `target` during its progress engine; no reply.
template <typename Fn, typename... Args>
void rpc_ff(int target, Fn fn, Args&&... args) {
  using ArgsTuple = std::tuple<std::decay_t<Args>...>;
  static_assert((serializable<Args> && ...),
                "rpc arguments must be serializable");
  detail::send_rpc_ff_tuple(target, fn,
                            ArgsTuple(std::forward<Args>(args)...));
}

/// Run fn(args...) on `target`; returns a future for the result, readied on
/// the initiator when the reply arrives.
template <typename Fn, typename... Args>
auto rpc(int target, Fn fn, Args&&... args) {
  static_assert(detail::shippable_callable<Fn>,
                "rpc callables must be trivially copyable");
  static_assert((serializable<Args> && ...),
                "rpc arguments must be serializable");
  using ArgsTuple = std::tuple<std::decay_t<Args>...>;
  using R = std::invoke_result_t<Fn, std::decay_t<Args>...>;
  using RFut = typename detail::rpc_future<R>::type;
  using RCell = typename detail::rfut_traits<RFut>::cell_t;

  telemetry::op_scope os(telemetry::op_class::rpc);
  telemetry::count(telemetry::counter::rpc_roundtrip);
  auto* c = new RCell();
  c->deps = 1;
  c->add_ref();  // the in-flight reply's reference

  ser_writer w(2 * sizeof(std::uint64_t) + sizeof(Fn) + 64);
  w.write(reinterpret_cast<std::uint64_t>(c));
  // Issue timestamp, echoed back in the reply: the op scope's sampled stamp,
  // 0 for an untimed rpc. Always written (0 when telemetry is compiled out)
  // so the request layout is build-independent.
  w.write(telemetry::op_issue_ns());
  detail::write_callable(w, fn);
  w.write(ArgsTuple(std::forward<Args>(args)...));

  detail::rank_context& rc = detail::ctx();
  gex::am_handler h;
  if constexpr (detail::is_future_v<R>) {
    h = detail::rpc_handler_for_future<Fn, ArgsTuple>(static_cast<R*>(nullptr));
  } else if constexpr (std::is_void_v<R>) {
    h = &detail::rpc_request_handler<Fn, ArgsTuple>;
  } else {
    h = &detail::rpc_request_handler<Fn, ArgsTuple, std::decay_t<R>>;
  }
  rc.rt->send_am(target, gex::am_message(h, rc.rank, w.data(), w.size()));
  return RFut(c, /*add_ref=*/false);
}

}  // namespace aspen
