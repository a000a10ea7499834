#include "workload.hpp"

#include <cstring>
#include <utility>

#include "apps/gups/gups.hpp"

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) noexcept {
  std::uint64_t s = seed ^ (tag * 0xD1B54A32D192ED03ull);
  return splitmix64(s);
}

const char* to_string(op_kind k) noexcept {
  switch (k) {
    case op_kind::rput:
      return "rput";
    case op_kind::rget:
      return "rget";
    case op_kind::fetch_add:
      return "fetch_add";
    case op_kind::fetch_add_into:
      return "fetch_add_into";
    case op_kind::when_all_rget2:
      return "when_all_rget2";
    case op_kind::rpc:
      return "rpc";
  }
  return "?";
}

std::vector<mix_op> make_mix(std::uint64_t seed, std::size_t batches) {
  std::vector<op_kind> batch;
  for (std::size_t k = 0; k < kOpKinds; ++k)
    batch.insert(batch.end(), kMixCounts[k], static_cast<op_kind>(k));
  std::uint64_t s = derive(seed, 1);
  std::vector<mix_op> ops;
  ops.reserve(batches * kMixBatch);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = batch.size() - 1; i > 0; --i)
      std::swap(batch[i], batch[splitmix64(s) % (i + 1)]);
    for (const op_kind k : batch) {
      const std::uint64_t r = splitmix64(s);
      ops.push_back({k, splitmix64(s), r % 256 + 1});
    }
  }
  return ops;
}

mix_cells initial_cells(std::uint64_t seed) noexcept {
  std::uint64_t s = derive(seed, 2);
  mix_cells c{};
  c.x = splitmix64(s);
  c.y = splitmix64(s);
  c.c = splitmix64(s) >> 8;  // headroom: the counter only grows
  return c;
}

mix_model::observed mix_model::step(const mix_op& op) noexcept {
  switch (op.kind) {
    case op_kind::rput:
      cells.x = op.value;
      return {};
    case op_kind::rget:
      return {cells.x, 0};
    case op_kind::fetch_add:
    case op_kind::fetch_add_into: {
      const std::uint64_t old = cells.c;
      cells.c += op.delta;
      return {old, 0};
    }
    case op_kind::when_all_rget2:
      return {cells.x, cells.y};
    case op_kind::rpc:
      return {rpc_reply(op.value), 0};
  }
  return {};
}

std::uint64_t table_fill(std::uint64_t seed, std::uint64_t idx) noexcept {
  std::uint64_t s = derive(seed, 3) ^ (idx * 0xA0761D6478BD642Full);
  return splitmix64(s);
}

std::vector<std::uint64_t> gups_expected(std::uint64_t seed,
                                         unsigned table_bits,
                                         std::uint64_t updates_per_rank,
                                         int nranks, std::uint64_t lo,
                                         std::uint64_t n) {
  namespace g = aspen::apps::gups;
  std::vector<std::uint64_t> want(n);
  for (std::uint64_t i = 0; i < n; ++i) want[i] = table_fill(seed, lo + i);
  const std::uint64_t mask = (std::uint64_t{1} << table_bits) - 1;
  for (int r = 0; r < nranks; ++r) {
    // Rank r's slice of the HPCC stream, as apps::gups draws it.
    std::uint64_t ran = g::starts(
        static_cast<std::int64_t>(updates_per_rank * static_cast<std::uint64_t>(r)));
    for (std::uint64_t u = 0; u < updates_per_rank; ++u) {
      ran = g::next_random(ran);
      const std::uint64_t idx = ran & mask;
      if (idx - lo < n) want[idx - lo] ^= ran;
    }
  }
  return want;
}

std::uint64_t count_mismatches(const std::uint64_t* got,
                               const std::vector<std::uint64_t>& want) noexcept {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) bad += got[i] != want[i];
  return bad;
}

std::vector<std::uint8_t> make_payload(std::uint64_t seed, int src, int k,
                                       std::size_t bytes) {
  std::uint64_t s = derive(seed, 4 + (static_cast<std::uint64_t>(src) << 8) +
                                      static_cast<std::uint64_t>(k));
  std::vector<std::uint8_t> p(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t w = splitmix64(s);
    for (std::size_t j = 0; j < 8 && i + j < bytes; ++j)
      p[i + j] = static_cast<std::uint8_t>(w >> (8 * j));
  }
  return p;
}

std::uint64_t checksum(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001B3ull;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

}  // namespace perfbench
