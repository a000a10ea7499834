// aspenbench — one job of a benchmark workload (see perfbench/README.md).
//
//   aspenbench --conduit smp --seed N --out DIR SIZES
//   aspen-run -n 4 aspenbench --conduit shm|tcp --seed N --out DIR SIZES
//   SIZES: --lat-batches B --gups-upr U --gups-passes P (P odd) [--trace 1]
//
// After the runtime is set up, every rank generates its seeded inputs and
// runs four phases, each closed by a barrier:
//   (a) latency: rank 0 issues a seeded mix of rput / rget / fetch_add /
//       fetch_add_into / when_all(rget, rget) / rpc against rank 1 with one
//       op in flight, once with the default completion factories and once
//       with as_defer_future(); every result is checked. Rank 1 polls
//       progress() meanwhile;
//   (p) parked probe: rank 0 sends rpcs to rank 1, which blocks in
//       future::wait() as an application rank waiting on a completion
//       would, with a pause before each rpc so the target's wait loop has
//       gone idle and parked;
//   (b) GUPS: apps::gups::run_variant(amo_promises) over a seeded table,
//       checked against a serial XOR replay of every rank's HPCC stream;
//   (c) bulk: rpcs carrying a seeded payload to rank+1 with a small window;
//       the handler checksums the payload and replies with the sum.
// Rank 0's process writes DIR/plan.json (job size and ops planned) before
// the runtime starts; each rank writes DIR/rank<r>.json (and
// DIR/spans.r<r>.bin with --trace 1).
// Counts come from telemetry::local_snapshot deltas, getrusage and the
// allocation hook below; times from the benchmark's own clock reads around
// each runtime call.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "apps/gups/gups.hpp"
#include "core/aspen.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"
#include "spans.hpp"
#include "workload.hpp"

// ---------------------------------------------------------------------------
// Allocation hook: counts every heap allocation of the process. The cell
// pool calls std::malloc directly, so malloc is hooked, not operator new
// (which lands here too). free is left to glibc: the chunks are glibc's.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

extern "C" {
void* __libc_malloc(std::size_t n);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* p, std::size_t n);

void* malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return __libc_malloc(n);
}
void* calloc(std::size_t n, std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return __libc_calloc(n, size);
}
void* realloc(void* p, std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return __libc_realloc(p, n);
}
}

namespace {

using namespace aspen;
using namespace perfbench;
namespace g = aspen::apps::gups;
using u64 = std::uint64_t;

struct args {
  std::string conduit, out;
  u64 seed = 0;
  bool trace = false;
  std::size_t lat_batches = 0;
  u64 gups_upr = 0;
  u64 gups_passes = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "aspenbench: %s\n", why);
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    const auto num = [&] { return std::strtoull(v, nullptr, 10); };
    if (k == "--conduit") a.conduit = v;
    else if (k == "--seed") a.seed = num();
    else if (k == "--trace") a.trace = num() != 0;
    else if (k == "--out") a.out = v;
    else if (k == "--lat-batches") a.lat_batches = num();
    else if (k == "--gups-upr") a.gups_upr = num();
    else if (k == "--gups-passes") a.gups_passes = num();
    else usage(("unknown option " + k).c_str());
  }
  if (a.conduit != "smp" && a.conduit != "shm" && a.conduit != "tcp")
    usage("--conduit must be smp, shm or tcp");
  if (a.out.empty()) usage("--out is required");
  if (a.lat_batches == 0 || a.gups_upr == 0)
    usage("--lat-batches and --gups-upr must be positive");
  // Every pass replays the same HPCC stream: an even count restores the
  // seeded fill, and the table check could not fail.
  if (a.gups_passes % 2 == 0) usage("--gups-passes must be odd");
  return a;
}

/// Ops one job attempts over all its ranks (each rank's record counts its
/// own share): the two latency passes and the parked probe on rank 0, GUPS
/// updates and bulk rpcs on every rank.
u64 planned_ops(const args& a, int nranks) {
  return 2 * a.lat_batches * kMixBatch + kParkedRpcs +
         static_cast<u64>(nranks) * (a.gups_upr * a.gups_passes + kBulkMsgs);
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class json {
 public:
  json& key(const char* k) {
    sep();
    s_ += '"';
    s_ += k;
    s_ += "\":";
    fresh_ = true;
    return *this;
  }
  json& num(double v) {
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    return raw(b);
  }
  json& num(u64 v) { return raw(std::to_string(v)); }
  json& num(std::int64_t v) { return raw(std::to_string(v)); }
  json& str(const std::string& v) { return raw('"' + v + '"'); }
  json& boolean(bool v) { return raw(v ? "true" : "false"); }
  json& open(char c) {
    sep();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  json& close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  template <typename T>
  json& array(const std::vector<T>& v) {
    open('[');
    for (const T& x : v) num(x);
    return close(']');
  }
  [[nodiscard]] const std::string& text() const noexcept { return s_; }

 private:
  json& raw(const std::string& v) {
    sep();
    s_ += v;
    return *this;
  }
  void sep() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Per-phase process accounting
// ---------------------------------------------------------------------------

struct usage_mark {
  std::int64_t utime_us = 0, stime_us = 0, nvcsw = 0;
  static usage_mark take() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    usage_mark m;
    m.utime_us = ru.ru_utime.tv_sec * 1'000'000 + ru.ru_utime.tv_usec;
    m.stime_us = ru.ru_stime.tv_sec * 1'000'000 + ru.ru_stime.tv_usec;
    m.nvcsw = ru.ru_nvcsw;
    return m;
  }
};

struct mark {
  usage_mark ru;
  telemetry::snapshot tel;
  u64 allocs = 0;
  static mark take() {
    return {usage_mark::take(), telemetry::local_snapshot(),
            g_allocs.load(std::memory_order_relaxed)};
  }
};

void write_delta(json& j, const char* phase, const mark& a, const mark& b) {
  j.key(phase).open('{');
  j.key("utime_us").num(b.ru.utime_us - a.ru.utime_us);
  j.key("stime_us").num(b.ru.stime_us - a.ru.stime_us);
  j.key("nvcsw").num(b.ru.nvcsw - a.ru.nvcsw);
  j.key("allocs").num(b.allocs - a.allocs);
  j.key("counters").open('{');
  const telemetry::snapshot d = b.tel - a.tel;
  for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
    const auto id = static_cast<telemetry::counter>(c);
    if (d.get(id) != 0) j.key(telemetry::to_string(id)).num(d.get(id));
  }
  j.close('}').close('}');
}

// ---------------------------------------------------------------------------
// Phase (a): the latency mix
// ---------------------------------------------------------------------------

struct targets {
  global_ptr<u64> x, y, c;
};

struct pass_out {
  std::vector<double> batch_ns;  ///< mean ns per op of each batch
  u64 ops = 0, failed = 0;
  u64 eligible = 0;         ///< non-rpc ops: those that can complete eagerly
  u64 ready_at_return = 0;  ///< of those, futures ready when the call returned
  mark before, after;
};

template <bool Defer>
auto cx() {
  if constexpr (Defer)
    return operation_cx::as_defer_future();
  else
    return operation_cx::as_future();
}

template <bool Defer>
pass_out run_pass(const std::vector<mix_op>& ops, const targets& t,
                  const atomic_domain<u64>& ad, mix_model& model,
                  tracer& tr) {
  constexpr std::size_t batch = kMixBatch;
  constexpr span_name kPass = Defer ? span_name::lat_defer : span_name::lat_eager;
  constexpr span_name kOp = Defer ? span_name::defer_op : span_name::eager_op;
  constexpr span_name kRpc = Defer ? span_name::defer_rpc : span_name::eager_rpc;
  constexpr span_name kInject =
      Defer ? span_name::defer_inject : span_name::eager_inject;
  constexpr span_name kWhenAll =
      Defer ? span_name::defer_when_all : span_name::eager_when_all;
  constexpr span_name kWait = Defer ? span_name::defer_wait : span_name::eager_wait;

  pass_out o;
  o.batch_ns.reserve(ops.size() / batch + 1);
  o.before = mark::take();
  tracer::scope pass_span(tr, kPass);
  for (std::size_t b0 = 0; b0 < ops.size(); b0 += batch) {
    const std::size_t b1 = std::min(ops.size(), b0 + batch);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = b0; i < b1; ++i) {
      const mix_op& op = ops[i];
      tracer::scope op_span(tr, op.kind == op_kind::rpc ? kRpc : kOp);
      mix_model::observed got;
      bool ready = false;
      switch (op.kind) {
        case op_kind::rput: {
          future<> f;
          {
            tracer::scope s(tr, kInject);
            f = rput(op.value, t.x, cx<Defer>());
          }
          ready = f.ready();
          tracer::scope s(tr, kWait);
          f.wait();
          break;
        }
        case op_kind::rget: {
          future<u64> f;
          {
            tracer::scope s(tr, kInject);
            f = rget(t.x, cx<Defer>());
          }
          ready = f.ready();
          tracer::scope s(tr, kWait);
          got.a = f.wait();
          break;
        }
        case op_kind::fetch_add: {
          future<u64> f;
          {
            tracer::scope s(tr, kInject);
            f = ad.fetch_add(t.c, op.delta, cx<Defer>());
          }
          ready = f.ready();
          tracer::scope s(tr, kWait);
          got.a = f.wait();
          break;
        }
        case op_kind::fetch_add_into: {
          u64 old = 0;
          future<> f;
          {
            tracer::scope s(tr, kInject);
            f = ad.fetch_add_into(t.c, op.delta, &old, cx<Defer>());
          }
          ready = f.ready();
          {
            tracer::scope s(tr, kWait);
            f.wait();
          }
          got.a = old;
          break;
        }
        case op_kind::when_all_rget2: {
          future<u64> fx, fy;
          {
            tracer::scope s(tr, kInject);
            fx = rget(t.x, cx<Defer>());
            fy = rget(t.y, cx<Defer>());
          }
          future<u64, u64> f;
          {
            tracer::scope s(tr, kWhenAll);
            f = when_all(fx, fy);
          }
          ready = f.ready();
          tracer::scope s(tr, kWait);
          const auto [vx, vy] = f.wait();
          got = {vx, vy};
          break;
        }
        case op_kind::rpc: {
          future<u64> f;
          {
            tracer::scope s(tr, kInject);
            f = rpc(1, [](u64 v) { return rpc_reply(v); }, op.value);
          }
          tracer::scope s(tr, kWait);
          got.a = f.wait();
          break;
        }
      }
      if (op.kind != op_kind::rpc) {
        ++o.eligible;
        o.ready_at_return += ready ? 1 : 0;
      }
      o.failed += got == model.step(op) ? 0 : 1;
    }
    o.batch_ns.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(b1 - b0));
  }
  o.ops = ops.size();
  o.after = mark::take();
  return o;
}

void write_pass(json& j, const char* name, const pass_out& p) {
  j.key(name).open('{');
  j.key("ops").num(p.ops);
  j.key("failed").num(p.failed);
  j.key("eligible").num(p.eligible);
  j.key("ready_at_return").num(p.ready_at_return);
  j.key("batch_ns").array(p.batch_ns);
  write_delta(j, "usage", p.before, p.after);
  j.close('}');
}

// ---------------------------------------------------------------------------
// Phase (c): bulk rpcs
// ---------------------------------------------------------------------------

/// Set on rank 1 when rank 0 finishes the latency phase.
thread_local bool t_lat_done = false;

/// Rank 1's wait during the parked probe: the promise it blocks on, and
/// whether rank 0 has ended the probe (which may happen before the wait).
thread_local promise<>* t_park = nullptr;
thread_local bool t_park_done = false;

void end_park() {
  t_park_done = true;
  if (t_park != nullptr) t_park->fulfill_anonymous(1);
}

/// Receipt checksum failures seen by this rank's handlers.
thread_local u64 t_bulk_bad_receipts = 0;

u64 bulk_handler(const std::vector<std::uint8_t>& buf, u64 want) {
  const u64 sum = checksum(buf.data(), buf.size());
  if (sum != want) ++t_bulk_bad_receipts;
  return sum;
}

// ---------------------------------------------------------------------------
// One rank
// ---------------------------------------------------------------------------

struct process_facts {
  std::int64_t spmd_call_ns = 0;
  std::int64_t launch_ns = 0;  ///< when the launcher was forked (0 for smp)
};

void rank_body(const args& a, const process_facts& pf) {
  const std::int64_t t_entry = now_ns();
  const int me = rank_me();
  const int n = rank_n();
  if (n < 2) throw std::runtime_error("aspenbench needs at least 2 ranks");
  // In one process (smp) the ranks share the process's rusage and malloc
  // count; rank 0 alone reports them.
  const bool owns_process = a.conduit != "smp" || me == 0;
  tracer tr(a.trace);
  json j;
  j.open('{');
  j.key("rank").num(static_cast<u64>(me));
  j.key("nranks").num(static_cast<u64>(n));
  j.key("owns_process").boolean(owns_process);
  j.key("launch_ns").num(pf.launch_ns);
  j.key("spmd_call_ns").num(pf.spmd_call_ns);
  j.key("entry_ns").num(t_entry);

  // ---- runtime setup (timed as setup_s): the runtime objects the phases
  // use. The benchmark's own inputs are generated after it.
  const std::int32_t setup_span = tr.begin(span_name::setup);
  atomic_domain<u64> ad({gex::amo_op::fadd, gex::amo_op::bxor, gex::amo_op::load});
  global_ptr<u64> cells;
  if (me == 1) cells = new_array<u64>(3);
  cells = broadcast(cells, 1);
  const targets tg{cells, cells + 1, cells + 2};

  g::params gp;
  gp.table_bits = kGupsBits;
  gp.updates_per_rank = a.gups_upr;
  gp.batch = 512;
  g::table tbl(gp);

  std::string seen_conduit = "smp", plane = "none";
  bool agg = false;
  if (net::endpoint* ep = net::endpoint::instance(); ep != nullptr) {
    seen_conduit = ep->shm_peer((me + 1) % n) ? "shm" : "tcp";
    plane = ep->data_plane();
    agg = ep->cfg().agg.enabled;
  }
  barrier();
  tr.end(setup_span);
  j.key("ready_ns").num(now_ns());
  j.key("conduit").str(seen_conduit);
  j.key("data_plane").str(plane);
  j.key("agg").boolean(agg);

  // ---- seeded inputs
  if (me == 1) {
    const mix_cells c0 = initial_cells(a.seed);
    cells.local()[0] = c0.x;
    cells.local()[1] = c0.y;
    cells.local()[2] = c0.c;
  }
  const u64 lo = tbl.per_rank() * static_cast<u64>(me);
  for (u64 i = 0; i < tbl.per_rank(); ++i)
    tbl.local_slice()[i] = table_fill(a.seed, lo + i);
  constexpr int kPayloads = 4;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<u64> sums;
  for (int k = 0; k < kPayloads; ++k) {
    payloads.push_back(make_payload(a.seed, me, k, kBulkBytes));
    sums.push_back(checksum(payloads.back().data(), kBulkBytes));
  }
  const std::vector<mix_op> ops =
      me == 0 ? make_mix(a.seed, a.lat_batches) : std::vector<mix_op>{};
  // At most four spans per latency op (op, inject, when_all, wait) per pass,
  // plus a few per GUPS pass and bulk message.
  tr.reserve(me == 0 ? 2 * 4 * a.lat_batches * kMixBatch + 1024 + 3 * kBulkMsgs
                     : 1024 + 3 * kBulkMsgs);
  barrier();

  u64 attempted = 0, failed = 0;
  std::vector<std::int64_t> barrier_ns;
  const auto timed_barrier = [&] {
    tracer::scope s(tr, span_name::barrier);
    const std::int64_t t0 = now_ns();
    barrier();
    barrier_ns.push_back(now_ns() - t0);
  };

  // ---- (a) latency. The target, rank 1, polls progress() until rank 0
  // says it is done, rather than blocking in future::wait(): a rank blocked
  // there parks in the endpoint after 64 idle polls, and on conduit::shm a
  // parked rank wakes on socket bytes or its 1 ms bound, not on ring pushes.
  // Those parks would turn this probe into a measure of the bound; phase (p)
  // measures that path on its own.
  const mark m0 = mark::take();
  if (me == 1) {
    while (!t_lat_done) (void)progress();
  } else if (me == 0) {
    mix_model model{initial_cells(a.seed)};
    const pass_out eager =
        run_pass<false>(ops, tg, ad, model, tr);
    const pass_out defer = run_pass<true>(ops, tg, ad, model, tr);
    attempted += eager.ops + defer.ops;
    failed += eager.failed + defer.failed;
    j.key("lat").open('{');
    write_pass(j, "eager", eager);
    write_pass(j, "defer", defer);
    j.close('}');
    rpc_ff(1, [] { t_lat_done = true; });
  }
  barrier();
  const mark m1 = mark::take();

  // ---- (p) parked probe: rank 1 blocks in future::wait() until rank 0 has
  // sent its rpcs; rank 0 pauses before each so rank 1's wait loop goes
  // idle and parks. The other ranks wait in the barrier.
  if (me == 1) {
    promise<> done;
    done.require_anonymous(1);
    if (t_park_done)
      done.fulfill_anonymous(1);
    else
      t_park = &done;
    done.finalize().wait();
    t_park = nullptr;
  } else if (me == 0) {
    std::vector<double> rtt_ns;
    rtt_ns.reserve(kParkedRpcs);
    for (std::size_t i = 0; i < kParkedRpcs; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      const u64 v = ops[i % ops.size()].value;
      const std::int64_t t0 = now_ns();
      const u64 got = rpc(1, [](u64 x) { return rpc_reply(x); }, v).wait();
      rtt_ns.push_back(static_cast<double>(now_ns() - t0));
      failed += got == rpc_reply(v) ? 0 : 1;
    }
    attempted += kParkedRpcs;
    j.key("parked_rpc_ns").array(rtt_ns);
    rpc_ff(1, end_park);
  }
  barrier();
  const mark m2 = mark::take();

  // ---- (b) GUPS
  std::vector<double> gups_seconds, gups_local_ms;
  {
    tracer::scope s(tr, span_name::gups);
    for (u64 k = 0; k < a.gups_passes; ++k) {
      tracer::scope r(tr, span_name::gups_run_variant);
      const std::int64_t t0 = now_ns();
      const g::result res = g::run_variant(g::variant::amo_promises, tbl, gp);
      gups_local_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      gups_seconds.push_back(res.seconds);
    }
  }
  timed_barrier();
  const mark m3 = mark::take();
  const u64 gups_bad = count_mismatches(
      tbl.local_slice(),
      gups_expected(a.seed, kGupsBits, a.gups_upr, n, lo, tbl.per_rank()));
  attempted += a.gups_upr * a.gups_passes;
  failed += gups_bad;
  j.key("gups").open('{');
  j.key("updates").num(a.gups_upr * a.gups_passes * static_cast<u64>(n));
  j.key("seconds").array(gups_seconds);
  j.key("local_ms").array(gups_local_ms);
  j.key("bad_entries").num(gups_bad);
  j.close('}');

  // ---- (c) bulk
  const int target = (me + 1) % n;
  u64 bulk_bad_replies = 0;
  const std::int64_t tb0 = now_ns();
  {
    tracer::scope s(tr, span_name::bulk);
    std::deque<std::pair<future<u64>, u64>> inflight;
    const auto retire = [&] {
      tracer::scope w(tr, span_name::bulk_wait);
      const u64 got = inflight.front().first.wait();
      bulk_bad_replies += got == inflight.front().second ? 0 : 1;
      inflight.pop_front();
    };
    for (std::size_t m = 0; m < kBulkMsgs; ++m) {
      const std::size_t k = m % kPayloads;
      {
        tracer::scope inj(tr, span_name::bulk_inject);
        inflight.emplace_back(rpc(target, bulk_handler, payloads[k], sums[k]),
                              sums[k]);
      }
      if (inflight.size() >= kBulkWindow) retire();
    }
    while (!inflight.empty()) retire();
  }
  const std::int64_t tb1 = now_ns();
  timed_barrier();
  const mark m4 = mark::take();
  attempted += kBulkMsgs;
  failed += bulk_bad_replies + t_bulk_bad_receipts;
  j.key("bulk").open('{');
  j.key("msgs").num(static_cast<u64>(kBulkMsgs));
  j.key("bytes").num(static_cast<u64>(kBulkMsgs * kBulkBytes));
  j.key("ns").num(tb1 - tb0);
  j.key("bad_replies").num(bulk_bad_replies);
  j.key("bad_receipts").num(t_bulk_bad_receipts);
  j.close('}');

  j.key("phases").open('{');
  write_delta(j, "lat", m0, m1);
  write_delta(j, "park", m1, m2);
  write_delta(j, "gups", m2, m3);
  write_delta(j, "bulk", m3, m4);
  j.close('}');
  j.key("barrier_ns").array(barrier_ns);
  j.key("attempted").num(attempted);
  j.key("failed").num(failed);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  j.key("maxrss_kib").num(static_cast<u64>(ru.ru_maxrss));
  u64 sendq_hw = 0;
  if (net::endpoint* ep = net::endpoint::instance(); ep != nullptr)
    sendq_hw = ep->sendq_high_water();
  j.key("sendq_high_water").num(sendq_hw);

  if (a.trace) {
    const std::vector<span>& spans = tr.finish();
    const std::vector<span_summary> sum = summarize(spans);
    j.key("spans").open('{');
    for (std::size_t k = 0; k < kSpanNames; ++k) {
      if (sum[k].count == 0) continue;
      j.key(to_string(static_cast<span_name>(k))).open('{');
      j.key("count").num(sum[k].count);
      j.key("self_p50_ns").num(sum[k].self_p50_ns);
      j.key("dur_p50_ns").num(sum[k].dur_p50_ns);
      j.key("self_total_ns").num(sum[k].self_total_ns);
      j.key("dur_total_ns").num(sum[k].dur_total_ns);
      j.close('}');
    }
    j.close('}');
    const std::string sp = a.out + "/spans.r" + std::to_string(me) + ".bin";
    if (!write_spans(sp, me, spans))
      throw std::runtime_error("cannot write " + sp);
  }
  j.close('}');

  const std::string path = a.out + "/rank" + std::to_string(me) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const bool ok = std::fputs(j.text().c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("cannot write " + path);
  barrier();
}

}  // namespace

int main(int argc, char** argv) {
  const args a = parse(argc, argv);
  process_facts pf;
  if (const char* l = std::getenv("PERFBENCH_LAUNCH_NS"))
    pf.launch_ns = std::strtoll(l, nullptr, 10);
  gex::config gcfg;
  int nranks = kSmpRanks;
  bool plans = true;  // this process writes the job's plan
  if (a.conduit == "smp") {
    gcfg.transport = gex::conduit::smp;
  } else {
    gcfg.transport = a.conduit == "shm" ? gex::conduit::shm : gex::conduit::tcp;
    const char* nr = std::getenv(net::kEnvNranks);
    const char* r = std::getenv(net::kEnvRank);
    if (nr == nullptr || r == nullptr)
      usage("--conduit shm/tcp must run under aspen-run");
    nranks = std::atoi(nr);
    plans = std::atoi(r) == 0;
  }
  if (plans) {
    const std::string path = a.out + "/plan.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) usage(("cannot write " + path).c_str());
    std::fprintf(f, "{\"nranks\":%d,\"ops\":%llu}", nranks,
                 static_cast<unsigned long long>(planned_ops(a, nranks)));
    if (std::fclose(f) != 0) usage(("cannot write " + path).c_str());
  }
  try {
    pf.spmd_call_ns = now_ns();
    aspen::spmd(nranks, gcfg, [&] { rank_body(a, pf); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aspenbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
