// Recycling allocator for internal promise cells — an ASPEN extension in
// the direction of the paper's stated future work ("additional
// optimizations inside the implementation that should transparently further
// reduce overheads associated with operations that can be satisfied
// on-node").
//
// Deferred notification and value-carrying eager completion both pay one
// heap allocation per operation for the internal cell. This pool replaces
// malloc/free with a per-thread size-class freelist: a cell freed by one
// operation is handed, still warm, to the next. Each block carries an
// 8-byte header recording its size class (or "from malloc"), so blocks are
// always returned to wherever they came from even if the enabling flag
// (version_config::cell_recycling, an ASPEN extension knob — default off to
// stay faithful to the paper's builds) is toggled mid-run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/telemetry.hpp"

namespace aspen::detail {

class recycling_pool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 8;  // 64, 128, ..., 512 bytes
  static constexpr std::size_t kMaxBytes = kGranule * kClasses;
  /// Cap per class so an allocation burst cannot hold memory forever.
  static constexpr std::size_t kMaxPerClass = 4096;

  ~recycling_pool() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      block* b = free_[c];
      while (b != nullptr) {
        block* next = b->next;
        std::free(b);
        b = next;
      }
      free_[c] = nullptr;
      count_[c] = 0;
    }
  }

  /// Allocate `bytes` of payload. `recycle` selects pooled vs plain malloc
  /// for *new* blocks; frees always honor the block's own origin header.
  [[nodiscard]] void* allocate(std::size_t bytes, bool recycle) {
    const std::size_t cls = class_of(bytes);
    if (recycle && cls < kClasses && free_[cls] != nullptr) {
      block* b = free_[cls];
      free_[cls] = b->next;
      --count_[cls];
      ++recycled_;
      telemetry::count(telemetry::counter::cellpool_recycled);
      return payload_of(b);
    }
    const std::size_t payload =
        cls < kClasses ? (cls + 1) * kGranule : bytes;
    // Past PTRDIFF_MAX no object fits, and near SIZE_MAX the header
    // addition would wrap and malloc a tiny block.
    if (payload > static_cast<std::size_t>(PTRDIFF_MAX) - sizeof(block))
      throw std::bad_alloc();
    auto* b = static_cast<block*>(std::malloc(sizeof(block) + payload));
    if (b == nullptr) throw std::bad_alloc();
    b->cls = recycle && cls < kClasses ? static_cast<std::int64_t>(cls) : -1;
    ++fresh_;
    telemetry::count(telemetry::counter::cellpool_fresh);
    return payload_of(b);
  }

  void deallocate(void* p) noexcept {
    if (p == nullptr) return;
    block* b = block_of(p);
    const std::int64_t cls = b->cls;
    if (cls >= 0 && count_[static_cast<std::size_t>(cls)] < kMaxPerClass) {
      b->next = free_[static_cast<std::size_t>(cls)];
      free_[static_cast<std::size_t>(cls)] = b;
      ++count_[static_cast<std::size_t>(cls)];
      return;
    }
    std::free(b);
  }

  /// Diagnostics for tests/benchmarks.
  [[nodiscard]] std::uint64_t recycled_count() const noexcept {
    return recycled_;
  }
  [[nodiscard]] std::uint64_t fresh_count() const noexcept { return fresh_; }
  [[nodiscard]] std::size_t cached_blocks() const noexcept {
    std::size_t n = 0;
    for (std::size_t c : count_) n += c;
    return n;
  }

 private:
  struct alignas(std::max_align_t) block {
    union {
      block* next;        // while on a freelist
      std::int64_t pad_;  // keeps the union trivially usable
    };
    std::int64_t cls;  // size class, or -1 = plain malloc block
  };

  static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }
  static void* payload_of(block* b) noexcept { return b + 1; }
  static block* block_of(void* p) noexcept {
    return static_cast<block*>(p) - 1;
  }

  std::array<block*, kClasses> free_{};
  std::array<std::size_t, kClasses> count_{};
  std::uint64_t recycled_ = 0;
  std::uint64_t fresh_ = 0;
};

/// The calling thread's cell pool.
[[nodiscard]] inline recycling_pool& tls_cell_pool() noexcept {
  static thread_local recycling_pool pool;
  return pool;
}

}  // namespace aspen::detail
