#include "apps/matching/matcher.hpp"

#include <algorithm>

#include "benchutil/timer.hpp"

namespace aspen::apps::matching {

// ---------------------------------------------------------------------------
// Sequential reference: greedy on globally sorted edges.
// ---------------------------------------------------------------------------

std::vector<vid> solve_sequential(const csr_graph& g) {
  std::vector<edge> edges = g.edge_list();
  std::sort(edges.begin(), edges.end(), [](const edge& a, const edge& b) {
    if (a.w != b.w) return a.w > b.w;
    // Deterministic tie-break consistent with heavier(): smaller endpoint
    // pair first.
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  std::vector<vid> mate(static_cast<std::size_t>(g.num_vertices()),
                        kUnmatched);
  for (const edge& e : edges) {
    if (mate[static_cast<std::size_t>(e.u)] == kUnmatched &&
        mate[static_cast<std::size_t>(e.v)] == kUnmatched) {
      mate[static_cast<std::size_t>(e.u)] = e.v;
      mate[static_cast<std::size_t>(e.v)] = e.u;
    }
  }
  return mate;
}

double matching_weight(const csr_graph& g, const std::vector<vid>& mate) {
  double total = 0.0;
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const vid m = mate[static_cast<std::size_t>(v)];
    if (m > v) {  // count each matched pair once
      const auto ns = g.neighbors(v);
      const auto ws = g.weights(v);
      for (std::size_t i = 0; i < ns.size(); ++i) {
        if (ns[i] == m) {
          total += ws[i];
          break;
        }
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Distributed pointer-based locally-dominant matching.
// ---------------------------------------------------------------------------

std::vector<vid> solve_distributed(const dist_graph& g, solve_stats& stats) {
  const vid lo = g.lo();
  const vid owned = g.owned();
  const auto nranks = rank_n();
  const auto me = rank_me();

  // Shared per-rank slices of candidate[] and matched[], plus directories.
  auto cand_slice = new_array<vid>(static_cast<std::size_t>(std::max<vid>(owned, 1)));
  auto match_slice = new_array<vid>(static_cast<std::size_t>(std::max<vid>(owned, 1)));
  std::vector<global_ptr<vid>> cand_dir(static_cast<std::size_t>(nranks));
  std::vector<global_ptr<vid>> match_dir(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    cand_dir[static_cast<std::size_t>(r)] = broadcast(cand_slice, r);
    match_dir[static_cast<std::size_t>(r)] = broadcast(match_slice, r);
  }
  vid* cand = cand_slice.local();
  vid* matched = match_slice.local();

  auto remote_ptr = [&](const std::vector<global_ptr<vid>>& dir, vid u) {
    const int owner = g.owner_of(u);
    return dir[static_cast<std::size_t>(owner)] +
           static_cast<std::ptrdiff_t>(u - static_cast<vid>(owner) * g.block());
  };

  // Per-vertex cursor into the heaviest-first adjacency.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(owned), 0);
  for (vid i = 0; i < owned; ++i) {
    cand[i] = kUnmatched;
    matched[i] = g.degree(i) == 0 ? kExhausted : kUnmatched;
  }

  stats = solve_stats{};
  barrier();
  bench::stopwatch sw;

  // Scratch reused across rounds.
  std::vector<vid> wave, next_wave, proposers;
  std::vector<vid> read_buf;
  for (vid i = 0; i < owned; ++i)
    if (matched[i] == kUnmatched) wave.push_back(lo + i);

  std::vector<vid> alive = wave;
  int rounds = 0;
  while (true) {
    std::uint64_t changes = 0;

    // Phase A: advance each alive vertex's candidate past dead neighbors
    // (in waves so each hop's reads are batched under one promise).
    wave = alive;
    while (!wave.empty()) {
      read_buf.assign(wave.size(), kUnmatched);
      promise<> p;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const vid v = wave[i];
        const vid u = g.neighbors(v - lo)[cursor[static_cast<std::size_t>(v - lo)]];
        if (g.owner_of(u) == me) {
          read_buf[i] = matched[u - lo];
          ++stats.direct_reads;
        } else {
          rget(remote_ptr(match_dir, u), &read_buf[i], 1,
               operation_cx::as_promise(p));
          ++stats.rma_gets;
        }
      }
      p.finalize().wait();
      next_wave.clear();
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const vid v = wave[i];
        const auto li = static_cast<std::size_t>(v - lo);
        const vid u = g.neighbors(v - lo)[cursor[li]];
        const vid mu = read_buf[i];
        if (mu != kUnmatched && mu != v) {
          // Neighbor is matched elsewhere or exhausted: skip it.
          ++cursor[li];
          ++changes;
          if (cursor[li] == g.degree(v - lo)) {
            matched[v - lo] = kExhausted;
            cand[v - lo] = kExhausted;
          } else {
            next_wave.push_back(v);
          }
        } else if (cand[li] != u) {
          cand[li] = u;
          ++changes;
        }
      }
      wave.swap(next_wave);
    }

    // Phase B: detect mutual proposals.
    proposers.clear();
    for (const vid v : alive)
      if (matched[v - lo] == kUnmatched && cand[v - lo] >= 0)
        proposers.push_back(v);
    read_buf.assign(proposers.size(), kUnmatched);
    {
      promise<> p;
      for (std::size_t i = 0; i < proposers.size(); ++i) {
        const vid u = cand[proposers[i] - lo];
        if (g.owner_of(u) == me) {
          read_buf[i] = cand[u - lo];
          ++stats.direct_reads;
        } else {
          rget(remote_ptr(cand_dir, u), &read_buf[i], 1,
               operation_cx::as_promise(p));
          ++stats.rma_gets;
        }
      }
      p.finalize().wait();
    }
    for (std::size_t i = 0; i < proposers.size(); ++i) {
      const vid v = proposers[i];
      if (read_buf[i] == v) {
        matched[v - lo] = cand[v - lo];
        ++changes;
      }
    }

    // Compact the alive set.
    std::erase_if(alive, [&](vid v) { return matched[v - lo] != kUnmatched; });

    ++rounds;
    if (allreduce_sum(changes) == 0) break;
  }

  const double local_seconds = sw.seconds();
  barrier();
  stats.rounds = rounds;
  stats.seconds = allreduce_max(local_seconds);

  std::vector<vid> result(matched, matched + owned);
  for (vid& m : result)
    if (m == kExhausted) m = kUnmatched;
  barrier();
  deallocate(cand_slice);
  deallocate(match_slice);
  barrier();
  return result;
}

std::vector<vid> gather_mates(const dist_graph& g,
                              const std::vector<vid>& local) {
  std::vector<vid> full;
  full.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (int r = 0; r < rank_n(); ++r) {
    const std::vector<vid> part =
        broadcast_vector(rank_me() == r ? local : std::vector<vid>{}, r);
    full.insert(full.end(), part.begin(), part.end());
  }
  return full;
}

}  // namespace aspen::apps::matching
