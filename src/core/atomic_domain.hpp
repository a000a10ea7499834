// atomic_domain<T> — remote atomic memory operations.
//
// An atomic domain is constructed collectively with the set of opcodes it
// will perform (mirroring UPC++/GASNet-EX, where the set determines the
// coherence protocol — e.g. whether NIC offload is possible). All atomics
// go through the domain; unlike RMA they can never be manually localized,
// because correctness requires a single coherency domain (paper §II-B).
//
// Three families of operations:
//   - value-producing ("fetching"): fetch_add, exchange, load, ... —
//     the operation completion carries the fetched value, so even eager
//     completion must allocate a cell for future notification;
//   - side-effect-only: add, store, bit_xor, ... — value-less completions;
//   - NEW non-fetching variants of fetching ops (paper §III-B):
//     fetch_add_into(gp, v, dst) etc. deposit the fetched value through
//     `dst` and complete value-less, enabling zero-allocation eager
//     completion and loop-conjoinable futures. Available only when
//     version_config::nonfetching_atomics is set (they did not exist in
//     2021.3.0).
#pragma once

#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "core/op_scope.hpp"
#include "core/rma.hpp"
#include "gex/amo.hpp"

namespace aspen {

namespace detail {

// Reply handlers (run on the initiator inside progress).

template <typename T>
void amo_fetch_reply_handler(gex::runtime&, int, int, std::byte* p,
                             std::size_t len) {
  ser_reader r(p, len);
  auto* rec = reinterpret_cast<op_record<T>*>(r.read<std::uint64_t>());
  (void)r.read<std::uint64_t>();  // extra, unused
  rec->fulfill(r.read<T>());
}

inline void amo_void_reply_handler(gex::runtime&, int, int, std::byte* p,
                                   std::size_t len) {
  ser_reader r(p, len);
  auto* rec = reinterpret_cast<op_record<>*>(r.read<std::uint64_t>());
  rec->fulfill();
}

/// Non-fetching variant: deposit the fetched value through the local
/// destination pointer carried in `extra`, then complete value-less.
template <typename T>
void amo_into_reply_handler(gex::runtime&, int, int, std::byte* p,
                            std::size_t len) {
  ser_reader r(p, len);
  auto* rec = reinterpret_cast<op_record<>*>(r.read<std::uint64_t>());
  auto* dst = reinterpret_cast<T*>(r.read<std::uint64_t>());
  *dst = r.read<T>();
  rec->fulfill();
}

/// Request handler (runs on the owner): applies the op in the owner's
/// coherency domain and ships the prior value back.
/// Payload: [u64 reply_h][u64 rec][u64 addr][u64 extra][u8 op][T op1][T op2]
template <typename T>
void amo_request_handler(gex::runtime&, int /*me*/, int src, std::byte* p,
                         std::size_t len) {
  ser_reader r(p, len);
  auto reply_h = reinterpret_cast<gex::am_handler>(r.read<std::uint64_t>());
  const auto rec = r.read<std::uint64_t>();
  auto* addr = reinterpret_cast<T*>(r.read<std::uint64_t>());
  const auto extra = r.read<std::uint64_t>();
  const auto op = static_cast<gex::amo_op>(r.read<std::uint8_t>());
  const T op1 = r.read<T>();
  const T op2 = r.read<T>();
  const T old = gex::apply_amo(addr, op, op1, op2);
  send_rma_reply(ctx(), src, reply_h, rec, extra, &old, sizeof(T));
}

template <typename T>
void send_amo_request(rank_context& c, int owner, gex::am_handler reply_h,
                      void* rec, std::uint64_t extra, T* addr,
                      gex::amo_op op, T op1, T op2) {
  ser_writer w(4 * sizeof(std::uint64_t) + 1 + 2 * sizeof(T));
  w.write(reinterpret_cast<std::uint64_t>(reply_h));
  w.write(reinterpret_cast<std::uint64_t>(rec));
  w.write(reinterpret_cast<std::uint64_t>(addr));
  w.write(extra);
  w.write(static_cast<std::uint8_t>(op));
  w.write(op1);
  w.write(op2);
  c.rt->send_am(owner, gex::am_message(&amo_request_handler<T>, c.rank,
                                       w.data(), w.size()));
}

}  // namespace detail

template <gex::amo_type T>
class atomic_domain {
 public:
  /// Construct collectively with the set of operations this domain will
  /// perform. Issuing an unregistered op is a logic error.
  explicit atomic_domain(std::initializer_list<gex::amo_op> ops)
      : atomic_domain(std::vector<gex::amo_op>(ops)) {}

  explicit atomic_domain(const std::vector<gex::amo_op>& ops) {
    for (gex::amo_op op : ops) {
      if constexpr (std::is_floating_point_v<T>) {
        if (!gex::amo_valid_for_floating(op))
          throw std::invalid_argument(
              "atomic_domain<floating>: bitwise op not supported");
      }
      mask_ |= bit(op);
    }
  }

  atomic_domain(const atomic_domain&) = delete;
  atomic_domain& operator=(const atomic_domain&) = delete;
  atomic_domain(atomic_domain&&) noexcept = default;
  atomic_domain& operator=(atomic_domain&&) noexcept = default;

  // ---- value-producing (fetching) operations -----------------------------

  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto load(global_ptr<T> gp, Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::load, gp, T{}, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_add(global_ptr<T> gp, T v,
                 Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::fadd, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_sub(global_ptr<T> gp, T v,
                 Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::fsub, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_inc(global_ptr<T> gp, Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::finc, gp, T{}, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_dec(global_ptr<T> gp, Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::fdec, gp, T{}, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_xor(global_ptr<T> gp, T v,
                 Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::fxor, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_and(global_ptr<T> gp, T v,
                 Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::fand, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_or(global_ptr<T> gp, T v,
                Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::fbor, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto exchange(global_ptr<T> gp, T v,
                Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::swap, gp, v, T{}, std::move(cxs));
  }
  /// Compare-and-swap; the completion carries the *prior* value (equal to
  /// `expected` iff the swap happened).
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto compare_exchange(global_ptr<T> gp, T expected, T desired,
                        Cxs cxs = operation_cx::as_future()) const {
    return fetch_op(gex::amo_op::cswap, gp, expected, desired,
                    std::move(cxs));
  }

  // ---- side-effect-only operations (value-less completion) ---------------

  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto store(global_ptr<T> gp, T v, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::store, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto add(global_ptr<T> gp, T v, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::add, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto sub(global_ptr<T> gp, T v, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::sub, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto inc(global_ptr<T> gp, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::inc, gp, T{}, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto dec(global_ptr<T> gp, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::dec, gp, T{}, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto bit_xor(global_ptr<T> gp, T v, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::bxor, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto bit_and(global_ptr<T> gp, T v, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::band, gp, v, T{}, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto bit_or(global_ptr<T> gp, T v, Cxs cxs = operation_cx::as_future()) const {
    return void_op(gex::amo_op::bor, gp, v, T{}, std::move(cxs));
  }

  // ---- NEW: non-fetching variants that deposit the value to memory -------

  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto load_into(global_ptr<T> gp, T* dst,
                 Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::load, gp, T{}, T{}, dst, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_add_into(global_ptr<T> gp, T v, T* dst,
                      Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::fadd, gp, v, T{}, dst, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_sub_into(global_ptr<T> gp, T v, T* dst,
                      Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::fsub, gp, v, T{}, dst, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_inc_into(global_ptr<T> gp, T* dst,
                      Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::finc, gp, T{}, T{}, dst, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto fetch_xor_into(global_ptr<T> gp, T v, T* dst,
                      Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::fxor, gp, v, T{}, dst, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto exchange_into(global_ptr<T> gp, T v, T* dst,
                     Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::swap, gp, v, T{}, dst, std::move(cxs));
  }
  template <typename Cxs = detail::completions<
                detail::future_cx<detail::event_operation_t>>>
  auto compare_exchange_into(global_ptr<T> gp, T expected, T desired, T* dst,
                             Cxs cxs = operation_cx::as_future()) const {
    return into_op(gex::amo_op::cswap, gp, expected, desired, dst,
                   std::move(cxs));
  }

 private:
  static constexpr std::uint32_t bit(gex::amo_op op) noexcept {
    return std::uint32_t{1} << static_cast<unsigned>(op);
  }

  void check_registered(gex::amo_op op) const {
    if ((mask_ & bit(op)) == 0)
      throw std::logic_error(
          "atomic_domain: operation was not declared at construction");
  }

  template <typename Cxs>
  auto fetch_op(gex::amo_op op, global_ptr<T> gp, T op1, T op2,
                Cxs cxs) const -> detail::cx_return_t<Cxs, T> {
    check_registered(op);
    telemetry::op_scope os(telemetry::op_class::amo);
    telemetry::count(telemetry::counter::amo_fetching);
    detail::rank_context& c = detail::ctx();
    detail::no_remote_cx rs;
    if (detail::rma_target_local(c, gp.where())) {
      const T old = gex::apply_amo(gp.raw(), op, op1, op2);
      return detail::collapse_futs(
          detail::process_sync_tuple<T>(std::move(cxs), rs, old));
    }
    detail::op_record<T>* rec = nullptr;
    auto futs = detail::process_async_tuple<T>(std::move(cxs), rs, rec);
    detail::send_amo_request<T>(c, gp.where(),
                                &detail::amo_fetch_reply_handler<T>, rec, 0,
                                gp.raw(), op, op1, op2);
    return detail::collapse_futs(std::move(futs));
  }

  template <typename Cxs>
  auto void_op(gex::amo_op op, global_ptr<T> gp, T op1, T op2,
               Cxs cxs) const -> detail::cx_return_t<Cxs> {
    check_registered(op);
    telemetry::op_scope os(telemetry::op_class::amo);
    telemetry::count(telemetry::counter::amo_sideeffect);
    detail::rank_context& c = detail::ctx();
    detail::no_remote_cx rs;
    if (detail::rma_target_local(c, gp.where())) {
      (void)gex::apply_amo(gp.raw(), op, op1, op2);
      return detail::collapse_futs(
          detail::process_sync_tuple<>(std::move(cxs), rs));
    }
    detail::op_record<>* rec = nullptr;
    auto futs = detail::process_async_tuple<>(std::move(cxs), rs, rec);
    detail::send_amo_request<T>(c, gp.where(),
                                &detail::amo_void_reply_handler, rec, 0,
                                gp.raw(), op, op1, op2);
    return detail::collapse_futs(std::move(futs));
  }

  template <typename Cxs>
  auto into_op(gex::amo_op op, global_ptr<T> gp, T op1, T op2, T* dst,
               Cxs cxs) const -> detail::cx_return_t<Cxs> {
    check_registered(op);
    telemetry::op_scope os(telemetry::op_class::amo);
    telemetry::count(telemetry::counter::amo_nonfetching);
    detail::rank_context& c = detail::ctx();
    if (!c.ver.nonfetching_atomics)
      throw std::logic_error(
          "non-fetching atomics are not available in this library version "
          "(introduced after 2021.3.0)");
    detail::no_remote_cx rs;
    if (detail::rma_target_local(c, gp.where())) {
      *dst = gex::apply_amo(gp.raw(), op, op1, op2);
      return detail::collapse_futs(
          detail::process_sync_tuple<>(std::move(cxs), rs));
    }
    detail::op_record<>* rec = nullptr;
    auto futs = detail::process_async_tuple<>(std::move(cxs), rs, rec);
    detail::send_amo_request<T>(c, gp.where(),
                                &detail::amo_into_reply_handler<T>, rec,
                                reinterpret_cast<std::uint64_t>(dst),
                                gp.raw(), op, op1, op2);
    return detail::collapse_futs(std::move(futs));
  }

  std::uint32_t mask_ = 0;
};

}  // namespace aspen
