#include "spans.hpp"

#include <algorithm>
#include <ctime>

namespace perfbench {

std::int64_t now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const char* to_string(span_name n) noexcept {
  static constexpr const char* kLabels[] = {
#define PERFBENCH_LABEL(id, label) label,
      PERFBENCH_SPANS(PERFBENCH_LABEL)
#undef PERFBENCH_LABEL
  };
  const auto i = static_cast<std::size_t>(n);
  return i < kSpanNames ? kLabels[i] : "?";
}

std::vector<std::int64_t> self_times(const std::vector<span>& s) {
  const std::size_t n = s.size();
  std::vector<std::int64_t> covered(n, 0);
  // Right edge of the children union seen so far, per parent. Children
  // arrive in start order, so a running union is exact.
  std::vector<std::int64_t> reach(n);
  for (std::size_t i = 0; i < n; ++i) reach[i] = s[i].start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i].parent < 0) continue;
    const auto p = static_cast<std::size_t>(s[i].parent);
    const std::int64_t lo = std::max(s[i].start_ns, reach[p]);
    const std::int64_t hi = std::min(s[i].end_ns, s[p].end_ns);
    if (hi > lo) {
      covered[p] += hi - lo;
      reach[p] = hi;
    }
  }
  std::vector<std::int64_t> self(n);
  for (std::size_t i = 0; i < n; ++i)
    self[i] = s[i].end_ns - s[i].start_ns - covered[i];
  return self;
}

namespace {
std::int64_t median(std::vector<std::int64_t>& v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}
}  // namespace

std::vector<span_summary> summarize(const std::vector<span>& s) {
  const std::vector<std::int64_t> self = self_times(s);
  std::vector<span_summary> out(kSpanNames);
  std::vector<std::vector<std::int64_t>> selfs(kSpanNames), durs(kSpanNames);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto k = static_cast<std::size_t>(s[i].name);
    const std::int64_t d = s[i].end_ns - s[i].start_ns;
    selfs[k].push_back(self[i]);
    durs[k].push_back(d);
    out[k].count++;
    out[k].self_total_ns += self[i];
    out[k].dur_total_ns += d;
  }
  for (std::size_t k = 0; k < kSpanNames; ++k) {
    out[k].self_p50_ns = median(selfs[k]);
    out[k].dur_p50_ns = median(durs[k]);
  }
  return out;
}

bool write_spans(const std::string& path, int rank,
                 const std::vector<span>& s) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const span& x : s) {
    unsigned char rec[24];
    const auto put = [&rec](std::size_t at, std::uint64_t v, std::size_t n) {
      for (std::size_t b = 0; b < n; ++b)
        rec[at + b] = static_cast<unsigned char>(v >> (8 * b));
    };
    put(0, static_cast<std::uint16_t>(x.name), 2);
    put(2, static_cast<std::uint16_t>(rank), 2);
    put(4, static_cast<std::uint32_t>(x.parent), 4);
    put(8, static_cast<std::uint64_t>(x.start_ns), 8);
    put(16, static_cast<std::uint64_t>(x.end_ns), 8);
    ok = ok && std::fwrite(rec, sizeof rec, 1, f) == 1;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
