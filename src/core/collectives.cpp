#include "core/collectives.hpp"

#include "net/endpoint.hpp"

namespace aspen {

namespace detail {

bool coll_wire_active() noexcept {
  const auto t = ctx().rt->cfg().transport;
  return t == gex::conduit::tcp || t == gex::conduit::shm;
}

std::vector<std::vector<std::byte>> coll_wire_exchange(
    std::uint64_t key, std::uint64_t seq, const std::vector<int>& members,
    const std::vector<std::byte>& mine) {
  net::endpoint* ep = net::endpoint::instance();
  assert(ep != nullptr && "wire collective outside a tcp spmd region");
  return ep->exchange(key, seq, members, mine,
                      [] { return aspen::progress(); });
}

std::vector<std::vector<std::byte>> coll_wire_exchange(
    std::uint64_t key, std::uint64_t seq,
    const std::vector<std::byte>& mine) {
  const int n = ctx().rt->nranks();
  std::vector<int> members(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) members[static_cast<std::size_t>(r)] = r;
  return coll_wire_exchange(key, seq, members, mine);
}

void coll_rendezvous() {
  rank_context& c = ctx();
  coll_state& cs = c.w->coll();
  if (coll_wire_active()) {
    (void)coll_wire_exchange(kWorldCollWireKey, cs.wire_seq++, {});
    return;
  }
  const int n = c.rt->nranks();
  const std::uint64_t my_phase = cs.phase.load(std::memory_order_relaxed);
  if (cs.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
    cs.arrived.store(0, std::memory_order_relaxed);
    cs.phase.fetch_add(1, std::memory_order_release);
  } else {
    for (std::size_t idle = 0;
         cs.phase.load(std::memory_order_acquire) == my_phase;) {
      if (aspen::progress() == 0) {
        if (++idle >= 64) wait_yield();
      } else {
        idle = 0;
      }
    }
  }
}

/// Re-armed once per progress entry until the epoch completes. Bound to
/// the initiating persona: the barrier future becomes ready only on a
/// thread holding it.
void arm_async_barrier_poll(cell<>* c, coll_state* cs, std::uint64_t epoch) {
  current_persona().enqueue_deferred([c, cs, epoch] {
    if (cs->async_done_epoch.load(std::memory_order_acquire) > epoch) {
      c->satisfy(1);
      c->drop_ref();
    } else {
      arm_async_barrier_poll(c, cs, epoch);
    }
  });
}

/// Socket-conduit variant: the done watermark lives on the endpoint (rank 0
/// releases epochs over the wire).
void arm_async_barrier_poll_wire(cell<>* c, std::uint64_t epoch) {
  current_persona().enqueue_deferred([c, epoch] {
    if (net::endpoint::instance()->async_done_epoch() > epoch) {
      c->satisfy(1);
      c->drop_ref();
    } else {
      arm_async_barrier_poll_wire(c, epoch);
    }
  });
}

}  // namespace detail

void barrier() {
  detail::coll_rendezvous();
}

future<> barrier_async() {
  detail::rank_context& c = detail::ctx();
  detail::coll_state& cs = c.w->coll();
  const int n = c.rt->nranks();
  const std::uint64_t epoch = c.next_async_epoch++;

  if (detail::coll_wire_active()) {
    net::endpoint* ep = net::endpoint::instance();
    // Ring-capacity guard, matching the in-process conduits' bound on
    // outstanding epochs.
    while (epoch >= ep->async_done_epoch() +
                        detail::coll_state::kAsyncEpochRing) {
      aspen::progress();
    }
    ep->async_arrive(epoch);
    if (ep->async_done_epoch() > epoch) {
      // Rank 0 as the last arriver learns of completion synchronously —
      // the eager path survives the socket conduit.
      return make_future();
    }
    auto* cell = new detail::cell<>();
    cell->deps = 1;
    cell->add_ref();  // the poll task's reference
    detail::arm_async_barrier_poll_wire(cell, epoch);
    return future<>(cell, /*add_ref=*/false);
  }

  // Ring-capacity guard: wait (with progress) until the slot is free.
  while (epoch >= cs.async_done_epoch.load(std::memory_order_acquire) +
                      detail::coll_state::kAsyncEpochRing) {
    aspen::progress();
  }

  auto& slot =
      cs.async_arrived[epoch % detail::coll_state::kAsyncEpochRing];
  if (slot.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
    slot.store(0, std::memory_order_relaxed);
    // Epochs complete in order, so this increment publishes exactly
    // epoch+1 as the done watermark.
    cs.async_done_epoch.fetch_add(1, std::memory_order_release);
  }

  if (cs.async_done_epoch.load(std::memory_order_acquire) > epoch) {
    return make_future();  // last arriver: eager, pooled, allocation-free
  }
  auto* cell = new detail::cell<>();
  cell->deps = 1;
  cell->add_ref();  // the poll task's reference
  detail::arm_async_barrier_poll(cell, &cs, epoch);
  return future<>(cell, /*add_ref=*/false);
}

}  // namespace aspen
