// Supplementary sweep — GUPS vs process count (paper §IV-B ran 1, 2, 4, 8,
// 16 processes and reported that "results for other process counts show the
// same trends" as the 16-process figures). This bench substantiates that
// claim on the reproduction: for each power-of-two rank count it reports
// the pure-RMA-with-promises eager/defer speedup and the RMA-with-futures
// speedup, which must stay >1 across the sweep.
//
// With ASPEN_BENCH_SHM=1 the sweep appends a real-process leg: it re-execs
// itself under `aspen-run` on conduit::tcp and conduit::shm and reports
// MUPS, the job-wide cx_eager_taken count, and the table checksum for each
// — the shm fabric must beat tcp on MUPS, multiply cx_eager_taken (every
// mapped-peer update completes eagerly, not just the 1/n self-targeted
// ones), and land a bit-identical table.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/gups/gups.hpp"
#include "benchutil/options.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"

namespace {
using namespace aspen;
namespace g = aspen::apps::gups;

// Child contract for the real-process legs: "<conduit>:<result-path>".
constexpr const char* kNetChildEnv = "ASPEN_GUPS_SWEEP_NET";

g::params net_params(const aspen::bench::options& opt) {
  g::params p;
  p.table_bits = 16;
  // Every update crosses a process boundary; a lighter workload than the
  // in-process sweep still gives stable MUPS.
  p.updates_per_rank = static_cast<std::uint64_t>(
      16'384 * std::max(1.0, opt.scale));
  p.batch = 512;
  return p;
}

std::uint64_t table_checksum(g::table& t) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < t.per_rank(); ++i)
    acc ^= t.local_slice()[i] * 0x9E3779B97F4A7C15ull + i;
  return acc;
}

/// One rank of the re-exec'd `aspen-run` job: run eager GUPS on the
/// requested conduit, then rank 0 writes
/// "<mups> <cx_eager> <checksum> <agg_frames>".
int run_net_child(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return 1;
  const bool shm = spec.substr(0, colon) == "shm";
  const std::string result = spec.substr(colon + 1);
  const char* nr = std::getenv(net::kEnvNranks);
  const int nranks = nr != nullptr ? std::atoi(nr) : 2;
  const auto opt = aspen::bench::options::from_env();
  const g::params p = net_params(opt);

  gex::config gcfg;
  gcfg.transport = shm ? gex::conduit::shm : gex::conduit::tcp;

  double mups = 0;
  std::uint64_t cx_eager = 0, checksum = 0, agg_frames = 0;
  aspen::spmd(nranks, gcfg, [&] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    g::table tbl(p);
    const auto before = telemetry::local_snapshot();
    std::vector<double> samples;
    for (std::size_t s = 0; s < opt.samples; ++s)
      samples.push_back(g::run_variant(g::variant::amo_promises, tbl, p).seconds);
    const auto d = telemetry::local_snapshot() - before;
    if (std::getenv("ASPEN_GUPS_SWEEP_DEBUG") != nullptr) {
      const auto g = [&d](telemetry::counter c) {
        return static_cast<unsigned long long>(d.get(c));
      };
      std::fprintf(
          stderr,
          "[sweep r%d] progress=%llu bytes_tx=%llu partial=%llu\n",
          rank_n() >= 0 ? aspen::rank_me() : -1,
          g(telemetry::counter::progress_calls),
          g(telemetry::counter::net_bytes_sent),
          g(telemetry::counter::net_partial_writes));
    }
    const double secs =
        aspen::bench::summarize_best(std::move(samples), opt.keep).mean;
    mups = static_cast<double>(p.updates_per_rank) *
           static_cast<double>(rank_n()) / secs / 1e6;
    cx_eager =
        allreduce_sum(d.get(telemetry::counter::cx_eager_taken));
    agg_frames =
        allreduce_sum(d.get(telemetry::counter::agg_frames_coalesced));
    checksum = allreduce_sum(table_checksum(tbl));
    barrier();
  });

  net::endpoint* ep = net::endpoint::instance();
  if (ep->self_rank() == 0) {
    std::ofstream f(result);
    if (!f) return 1;
    f << mups << ' ' << cx_eager << ' ' << checksum << ' ' << agg_frames
      << '\n';
    if (!f) return 1;
  }
  return 0;
}

struct net_leg {
  bool ok = false;
  double mups = 0;
  std::uint64_t cx_eager = 0;
  std::uint64_t checksum = 0;
  std::uint64_t agg_frames = 0;
};

/// `tag` names the result file so legs that reuse a conduit under different
/// env (the ASPEN_AGG on/off pair) don't clobber each other's rows.
net_leg run_net_leg(const char* self_hint, const char* conduit, int nranks,
                    const char* tag = nullptr) {
  net_leg leg;
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) {
    std::snprintf(self, sizeof self, "%s", self_hint);
  } else {
    self[n] = '\0';
  }
  std::string launcher;
  if (const char* env = std::getenv("ASPEN_RUN")) {
    launcher = env;
  } else {
    const std::string dir(self, std::string(self).find_last_of('/'));
    launcher = dir + "/../src/aspen-run";
  }
  if (::access(launcher.c_str(), X_OK) != 0) {
    std::cout << "conduit::" << conduit
              << " leg skipped: launcher not found at " << launcher
              << " (set ASPEN_RUN to override).\n";
    return leg;
  }
  const std::string result = std::string("gups_rank_sweep.") +
                             (tag != nullptr ? tag : conduit) + ".row";
  ::setenv(kNetChildEnv, (std::string(conduit) + ":" + result).c_str(), 1);
  const std::string cmd =
      launcher + " -n " + std::to_string(nranks) + " " + self;
  const int rc = std::system(cmd.c_str());
  ::unsetenv(kNetChildEnv);
  if (rc != 0) {
    std::cout << "conduit::" << conduit << " leg failed (exit " << rc
              << "), skipping.\n";
    return leg;
  }
  std::ifstream f(result);
  f >> leg.mups >> leg.cx_eager >> leg.checksum >> leg.agg_frames;
  leg.ok = static_cast<bool>(f);
  if (!leg.ok)
    std::cout << "conduit::" << conduit
              << " leg produced no result row, skipping.\n";
  return leg;
}

/// The ASPEN_BENCH_SHM leg: eager GUPS over real processes on tcp and shm,
/// MUPS + job-wide cx_eager_taken side by side.
void run_net_sweep(const char* self_hint, const aspen::bench::options& opt) {
  if (aspen::bench::env_size_t("ASPEN_BENCH_SHM", 0) == 0) return;
  const int nranks = std::min(std::max(opt.ranks, 2), 8);
  std::cout << "\nreal-process GUPS (eager, " << nranks
            << " ranks via aspen-run):\n";
  const net_leg tcp = run_net_leg(self_hint, "tcp", nranks);
  const net_leg shm = run_net_leg(self_hint, "shm", nranks);
  if (!tcp.ok || !shm.ok) return;

  aspen::bench::table t(
      {"conduit", "MUPS", "cx_eager_taken (job)", "table checksum"});
  char m[32], e[32], c[32];
  std::snprintf(m, sizeof m, "%.2f", tcp.mups);
  std::snprintf(e, sizeof e, "%llu",
                static_cast<unsigned long long>(tcp.cx_eager));
  std::snprintf(c, sizeof c, "%016llx",
                static_cast<unsigned long long>(tcp.checksum));
  t.add_row({"tcp", m, e, c});
  std::snprintf(m, sizeof m, "%.2f", shm.mups);
  std::snprintf(e, sizeof e, "%llu",
                static_cast<unsigned long long>(shm.cx_eager));
  std::snprintf(c, sizeof c, "%016llx",
                static_cast<unsigned long long>(shm.checksum));
  t.add_row({"shm", m, e, c});
  t.print(std::cout);

  std::cout << "shm vs tcp MUPS: "
            << aspen::bench::format_speedup(shm.mups / tcp.mups)
            << "; cx_eager_taken " << shm.cx_eager << " vs " << tcp.cx_eager
            << "\n";
  std::cout << (shm.checksum == tcp.checksum
                    ? "table checksums bit-identical across conduits\n"
                    : "WARNING: table checksum diverged between shm and "
                      "tcp\n");
  std::cout << "expectation: shm beats tcp on MUPS and multiplies "
               "cx_eager_taken — on tcp only the 1/n self-targeted updates "
               "complete eagerly, on shm every mapped-peer update does.\n";
}

/// The ASPEN_BENCH_AGG leg: eager GUPS on conduit::tcp with the wire
/// aggregation fabric off and on (docs/AGG.md), plus a conduit::shm
/// reference row. Aggregation must raise tcp MUPS (the batched injection
/// pattern coalesces each 512-update batch into a handful of flushes),
/// coalesce a nonzero number of frames, and keep the table bit-identical.
void run_agg_sweep(const char* self_hint, const aspen::bench::options& opt) {
  if (aspen::bench::env_size_t("ASPEN_BENCH_AGG", 0) == 0) return;
  const int nranks = std::min(std::max(opt.ranks, 4), 8);
  std::cout << "\nreal-process GUPS, wire aggregation off vs on (eager, "
            << nranks << " ranks via aspen-run):\n";
  ::setenv("ASPEN_AGG", "0", 1);
  const net_leg plain = run_net_leg(self_hint, "tcp", nranks, "tcp_noagg");
  ::setenv("ASPEN_AGG", "1", 1);
  const net_leg agg = run_net_leg(self_hint, "tcp", nranks, "tcp_agg");
  const net_leg shm = run_net_leg(self_hint, "shm", nranks, "shm_agg");
  ::unsetenv("ASPEN_AGG");
  if (!plain.ok || !agg.ok) return;

  aspen::bench::table t({"leg", "MUPS", "agg_frames_coalesced (job)",
                         "table checksum"});
  auto add = [&](const char* name, const net_leg& leg) {
    char m[32], a[32], c[32];
    std::snprintf(m, sizeof m, "%.2f", leg.mups);
    std::snprintf(a, sizeof a, "%llu",
                  static_cast<unsigned long long>(leg.agg_frames));
    std::snprintf(c, sizeof c, "%016llx",
                  static_cast<unsigned long long>(leg.checksum));
    t.add_row({name, m, a, c});
  };
  add("tcp ASPEN_AGG=0", plain);
  add("tcp ASPEN_AGG=1", agg);
  if (shm.ok) add("shm ASPEN_AGG=1", shm);
  t.print(std::cout);

  std::cout << "agg vs plain tcp MUPS: "
            << aspen::bench::format_speedup(agg.mups / plain.mups) << "\n";
  std::cout << (agg.checksum == plain.checksum &&
                        (!shm.ok || agg.checksum == shm.checksum)
                    ? "table checksums bit-identical with aggregation\n"
                    : "WARNING: table checksum diverged under "
                      "aggregation\n");
  std::cout << (agg.agg_frames > 0
                    ? "agg_frames_coalesced > 0 under ASPEN_AGG=1\n"
                    : "WARNING: ASPEN_AGG=1 coalesced no frames\n");
  std::cout << "expectation: coalescing each 512-update injection batch "
               "into a few wire flushes beats one syscall per update.\n";
}

}  // namespace

int main(int, char** argv) {
  if (const char* spec = std::getenv(kNetChildEnv);
      spec != nullptr && aspen::net::endpoint::launched())
    return run_net_child(spec);

  const auto opt = aspen::bench::options::from_env();
  aspen::bench::print_figure_header(
      std::cout, "S-IV.B (sweep)",
      "GUPS eager-vs-defer speedup across process counts",
      opt.describe());

  aspen::bench::table t({"ranks", "RMA+promise defer (MUPS)",
                         "RMA+promise eager (MUPS)", "speedup",
                         "RMA+future eager/defer"});

  for (int ranks = 1; ranks <= opt.ranks; ranks *= 2) {
    g::params p;
    p.table_bits = 18;
    p.updates_per_rank = static_cast<std::uint64_t>(
        65'536 * std::max(1.0, opt.scale));
    p.batch = 512;

    double mups_defer = 0, mups_eager = 0, fut_ratio = 0;
    // One spmd per rank count (table construction is collective).
    aspen::spmd(ranks, [&] {
      g::table tbl(p);
      auto mups = [&](emulated_version ver, g::variant var) {
        set_version_config(version_config::make(ver));
        barrier();
        std::vector<double> samples;
        for (std::size_t s = 0; s < opt.samples; ++s)
          samples.push_back(g::run_variant(var, tbl, p).seconds);
        const double secs =
            aspen::bench::summarize_best(std::move(samples), opt.keep).mean;
        return static_cast<double>(p.updates_per_rank) *
               static_cast<double>(rank_n()) / secs / 1e6;
      };
      const double pd =
          mups(emulated_version::v2021_3_6_defer, g::variant::rma_promises);
      const double pe =
          mups(emulated_version::v2021_3_6_eager, g::variant::rma_promises);
      const double fd =
          mups(emulated_version::v2021_3_6_defer, g::variant::rma_futures);
      const double fe =
          mups(emulated_version::v2021_3_6_eager, g::variant::rma_futures);
      if (rank_me() == 0) {
        mups_defer = pd;
        mups_eager = pe;
        fut_ratio = fe / fd;
      }
      barrier();
    });

    char c0[16], c1[32], c2[32];
    std::snprintf(c0, sizeof(c0), "%d", ranks);
    std::snprintf(c1, sizeof(c1), "%.2f", mups_defer);
    std::snprintf(c2, sizeof(c2), "%.2f", mups_eager);
    t.add_row({c0, c1, c2,
               aspen::bench::format_speedup(mups_eager / mups_defer),
               aspen::bench::format_speedup(fut_ratio)});
  }

  t.print(std::cout);
  std::cout << "paper claim: the eager advantage holds at every process "
               "count (\"same trends\").\n";

  run_net_sweep(argv[0], opt);
  run_agg_sweep(argv[0], opt);
  return 0;
}
