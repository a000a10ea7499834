// Cell-recycling pool tests (ASPEN extension).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/aspen.hpp"
#include "gex/mpsc_queue.hpp"

#if defined(__SANITIZE_THREAD__)
#define ASPEN_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ASPEN_TEST_TSAN 1
#endif
#endif
#ifndef ASPEN_TEST_TSAN
#define ASPEN_TEST_TSAN 0
#endif

using namespace aspen;

namespace {

TEST(RecyclingPool, AllocateAndFreeRoundTrip) {
  detail::recycling_pool pool;
  void* a = pool.allocate(100, /*recycle=*/true);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xCD, 100);
  pool.deallocate(a);
  EXPECT_EQ(pool.cached_blocks(), 1u);
  void* b = pool.allocate(100, true);
  EXPECT_EQ(a, b);  // recycled
  EXPECT_EQ(pool.recycled_count(), 1u);
  pool.deallocate(b);
}

TEST(RecyclingPool, DisabledModeBypassesFreelist) {
  detail::recycling_pool pool;
  void* a = pool.allocate(64, /*recycle=*/false);
  pool.deallocate(a);
  EXPECT_EQ(pool.cached_blocks(), 0u);  // malloc-tagged block was freed
  EXPECT_EQ(pool.recycled_count(), 0u);
}

TEST(RecyclingPool, SizeClassesSeparated) {
  detail::recycling_pool pool;
  void* small = pool.allocate(40, true);   // class 0 (<= 64)
  void* large = pool.allocate(400, true);  // class 6 (385-448)
  pool.deallocate(small);
  pool.deallocate(large);
  // A same-class request reuses the cached block...
  void* mid = pool.allocate(390, true);
  EXPECT_EQ(mid, large);
  // ...while a different class must not steal from another freelist.
  void* other = pool.allocate(200, true);
  EXPECT_NE(other, small);
  pool.deallocate(mid);
  pool.deallocate(other);
  void* tiny = pool.allocate(8, true);
  EXPECT_EQ(tiny, small);
  pool.deallocate(tiny);
}

TEST(RecyclingPool, OversizeRequestsFallBackToMalloc) {
  detail::recycling_pool pool;
  void* big = pool.allocate(10'000, true);
  ASSERT_NE(big, nullptr);
  std::memset(big, 1, 10'000);
  pool.deallocate(big);
  EXPECT_EQ(pool.cached_blocks(), 0u);  // too large to cache
}

TEST(RecyclingPool, HugeRequestThrowsInsteadOfWrapping) {
  detail::recycling_pool pool;
  // sizeof(header) + SIZE_MAX wraps to a few bytes; it must not succeed.
  EXPECT_THROW((void)pool.allocate(SIZE_MAX, /*recycle=*/true),
               std::bad_alloc);
  EXPECT_THROW((void)pool.allocate(SIZE_MAX - 8, /*recycle=*/false),
               std::bad_alloc);
  // No object can exceed PTRDIFF_MAX bytes either.
  EXPECT_THROW((void)pool.allocate(static_cast<std::size_t>(PTRDIFF_MAX),
                                   /*recycle=*/true),
               std::bad_alloc);
  EXPECT_EQ(pool.fresh_count(), 0u);
}

TEST(RecyclingPool, FlagFlipMidstreamIsSafe) {
  detail::recycling_pool pool;
  void* a = pool.allocate(64, true);   // pool-tagged
  void* b = pool.allocate(64, false);  // malloc-tagged
  // Frees honor each block's own origin regardless of current mode.
  pool.deallocate(b);
  pool.deallocate(a);
  EXPECT_EQ(pool.cached_blocks(), 1u);
  void* c = pool.allocate(64, true);
  EXPECT_EQ(c, a);
  pool.deallocate(c);
}

TEST(RecyclingPool, ManyBlocksChurn) {
  detail::recycling_pool pool;
  std::vector<void*> blocks;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 200; ++i)
      blocks.push_back(pool.allocate(static_cast<std::size_t>(32 + i), true));
    for (void* p : blocks) pool.deallocate(p);
    blocks.clear();
  }
  EXPECT_GT(pool.recycled_count(), 500u);
}

TEST(RecyclingPool, CrossThreadHandoffContention) {
  // Blocks allocated from one thread's pool are handed to another thread
  // (via an MPSC queue, as the persona LPC return leg does with completion
  // state) and deallocated into *that* thread's pool. Origin headers must
  // keep every free safe, and the telemetry invariant must hold: each
  // allocate is counted exactly once, as fresh or recycled.
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 3'000;
  const auto before = telemetry::aggregate();

  aspen::gex::mpsc_queue<void*> handoff;
  std::atomic<int> produced{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      detail::recycling_pool pool;
      for (int i = 0; i < kPerProducer; ++i) {
        // Vary the size class; every other block churns locally first so
        // the producer's own freelist also sees contention-era reuse.
        const std::size_t bytes = 32 + static_cast<std::size_t>((t + i) % 7) * 64;
        void* p = pool.allocate(bytes, /*recycle=*/true);
        if ((i & 1) != 0) {
          pool.deallocate(p);
          p = pool.allocate(bytes, true);
        }
        handoff.push(p);
      }
      produced.fetch_add(kPerProducer, std::memory_order_release);
      // The pool dies here; blocks in flight are owned by the consumer now.
    });
  }

  detail::recycling_pool consumer_pool;
  std::size_t freed = 0;
  std::vector<void*> batch;
  const std::size_t expect =
      static_cast<std::size_t>(kProducers) * kPerProducer;
  while (freed < expect) {
    batch.clear();
    if (handoff.drain_into(batch) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (void* p : batch) {
      consumer_pool.deallocate(p);  // cross-thread free, origin-tagged
      ++freed;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(freed, expect);
  EXPECT_GT(consumer_pool.cached_blocks(), 0u);

  // Handed-off blocks are live inventory for the consumer.
  void* reused = consumer_pool.allocate(32, true);
  ASSERT_NE(reused, nullptr);
  EXPECT_EQ(consumer_pool.recycled_count(), 1u);
  consumer_pool.deallocate(reused);

  if (telemetry::compiled_in()) {
    const auto d = telemetry::aggregate() - before;
    // Each of the expect + kProducers*kPerProducer/2 churn allocs (+1 reuse
    // above) is fresh or recycled, never both, never dropped.
    const std::uint64_t total_allocs =
        expect + expect / 2 + 1;
    EXPECT_EQ(d.get(telemetry::counter::cellpool_fresh) +
                  d.get(telemetry::counter::cellpool_recycled),
              total_allocs);
    EXPECT_GE(d.get(telemetry::counter::cellpool_recycled), expect / 2);
  }
}

// --- end-to-end behavior under the runtime flag -------------------------------

TEST(CellRecycling, DeferredOpsReuseCells) {
  aspen::spmd(1, [] {
    version_config v = version_config::make(emulated_version::v2021_3_6_defer);
    v.cell_recycling = true;
    set_version_config(v);
    auto gp = new_<std::uint64_t>(0);
    // Warm one cell through the pool.
    rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    const auto recycled_before = detail::tls_cell_pool().recycled_count();
    for (int i = 0; i < 100; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    EXPECT_GE(detail::tls_cell_pool().recycled_count(),
              recycled_before + 99);
    delete_(gp);
  });
}

TEST(CellRecycling, ResultsUnaffected) {
#if ASPEN_TEST_TSAN
  // The blind rputs below race across ranks by design (HPCC-style lost
  // updates are permitted); TSan rightly flags the conflicting memcpys.
  GTEST_SKIP() << "intentionally racy unsynchronized-RMA test";
#endif
  aspen::spmd(2, [] {
    version_config v = version_config::make(emulated_version::v2021_3_6_eager);
    v.cell_recycling = true;
    set_version_config(v);
    auto gp = new_<std::uint64_t>(0);
    auto dir0 = broadcast(gp, 0);
    promise<> p;
    for (std::uint64_t i = 1; i <= 50; ++i)
      rput(i, dir0, operation_cx::as_promise(p));
    p.finalize().wait();
    barrier();
    EXPECT_EQ(rget(dir0).wait(), 50u);
    // Valued gets cycle through pooled cells; values must stay exact.
    for (std::uint64_t i = 0; i < 200; ++i)
      ASSERT_EQ(rget(dir0).wait(), 50u);
    barrier();
    delete_(gp);
  });
}

TEST(CellRecycling, OffInAllEmulatedPaperVersions) {
  for (auto ver : {emulated_version::v2021_3_0,
                   emulated_version::v2021_3_6_defer,
                   emulated_version::v2021_3_6_eager}) {
    EXPECT_FALSE(version_config::make(ver).cell_recycling);
  }
}

}  // namespace
