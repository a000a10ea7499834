// aspen::net wire-protocol tests: frame round-trips for every kind, torn
// (byte-at-a-time) reads, malformed-header rejection, handler deltas, the
// ASPEN_NET_* environment overrides, and the poll plane's byte-stream
// contract over a socketpair. Pure in-process: no aspen-run (see
// test_net_spmd.cpp and the net_spmd_n* ctest entries for the
// cross-process legs).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/telemetry.hpp"
#include "core/telemetry_live.hpp"
#include "net/poll_plane.hpp"
#include "net/wire.hpp"

namespace net = aspen::net;
namespace live = aspen::telemetry::live;
using aspen::telemetry::snapshot;

namespace {

constexpr std::size_t kMaxFrame = 1 << 20;

net::frame_header make_header(net::frame_kind k, std::uint32_t payload_len) {
  net::frame_header h;
  h.kind = static_cast<std::uint16_t>(k);
  h.src = 3;
  h.payload_len = payload_len;
  h.aux = 0xABCD;
  h.seq = 42;
  return h;
}

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(NetWire, HeaderLayoutIsFixed) {
  EXPECT_EQ(sizeof(net::frame_header), 24u);
  net::frame_header h;
  EXPECT_EQ(h.magic, net::kMagic);
}

TEST(NetWire, EveryKindRoundTrips) {
  const net::frame_kind kinds[] = {
      net::frame_kind::hello,        net::frame_kind::table,
      net::frame_kind::ident,        net::frame_kind::am_eager,
      net::frame_kind::am_rts,       net::frame_kind::am_cts,
      net::frame_kind::am_data,      net::frame_kind::coll_contrib,
      net::frame_kind::coll_result,  net::frame_kind::async_arrive,
      net::frame_kind::async_release, net::frame_kind::bye,
      net::frame_kind::telemetry,    net::frame_kind::clock_probe,
      net::frame_kind::clock_reply,
  };
  std::vector<std::byte> stream;
  std::vector<std::vector<std::byte>> payloads;
  std::uint64_t seq = 0;
  for (net::frame_kind k : kinds) {
    // Distinct payload per kind (including empty for the control kinds).
    std::vector<std::byte> p;
    if (k == net::frame_kind::am_eager || k == net::frame_kind::am_data ||
        k == net::frame_kind::coll_contrib ||
        k == net::frame_kind::coll_result) {
      p.resize(16 + seq);
      for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = static_cast<std::byte>((i * 7 + seq) & 0xFF);
    } else if (k == net::frame_kind::am_rts) {
      net::rdzv_body b;
      b.token = 9;
      b.handler_delta = 0x1234;
      b.total_len = 1 << 16;
      p.resize(sizeof(b));
      std::memcpy(p.data(), &b, sizeof(b));
    }
    net::frame_header h = make_header(k, static_cast<std::uint32_t>(p.size()));
    h.seq = seq++;
    net::encode_frame(stream, h, p.data(), p.size());
    payloads.push_back(std::move(p));
  }

  net::decoder dec(kMaxFrame);
  dec.feed(stream.data(), stream.size());
  std::size_t i = 0;
  net::frame f;
  while (dec.try_next(f)) {
    ASSERT_LT(i, std::size(kinds));
    EXPECT_EQ(f.kind(), kinds[i]);
    EXPECT_EQ(f.hdr.src, 3);
    EXPECT_EQ(f.hdr.aux, 0xABCDu);
    EXPECT_EQ(f.hdr.seq, i);
    EXPECT_EQ(f.payload, payloads[i]);
    ++i;
  }
  EXPECT_FALSE(dec.in_error()) << dec.error();
  EXPECT_EQ(i, std::size(kinds));
  EXPECT_EQ(dec.buffered(), 0u);
}

// The decoder must assemble frames fed one byte at a time — the shape of a
// maximally torn TCP stream (short reads land mid-header and mid-payload).
TEST(NetWire, TornOneByteFeedReassembles) {
  std::vector<std::byte> stream;
  const auto p1 = bytes_of("hello, torn world");
  const auto p2 = bytes_of("x");
  net::encode_frame(stream,
                    make_header(net::frame_kind::am_eager,
                                static_cast<std::uint32_t>(p1.size())),
                    p1.data(), p1.size());
  net::encode_frame(stream,
                    make_header(net::frame_kind::am_data,
                                static_cast<std::uint32_t>(p2.size())),
                    p2.data(), p2.size());
  net::encode_frame(stream, make_header(net::frame_kind::bye, 0), nullptr, 0);

  net::decoder dec(kMaxFrame);
  std::vector<net::frame> got;
  net::frame f;
  for (std::byte b : stream) {
    dec.feed(&b, 1);
    while (dec.try_next(f)) got.push_back(std::move(f));
  }
  ASSERT_FALSE(dec.in_error()) << dec.error();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].kind(), net::frame_kind::am_eager);
  EXPECT_EQ(got[0].payload, p1);
  EXPECT_EQ(got[1].kind(), net::frame_kind::am_data);
  EXPECT_EQ(got[1].payload, p2);
  EXPECT_EQ(got[2].kind(), net::frame_kind::bye);
  EXPECT_TRUE(got[2].payload.empty());
  EXPECT_EQ(dec.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// Trace-context codec (wire protocol v5: the otrace word in every AM body).
// ---------------------------------------------------------------------------

TEST(NetWire, EagerPrefixRoundTripsThroughTornFeed) {
  net::eager_body in;
  in.handler_delta = 0x1234;
  in.send_ns = 987654321;
  in.trace = (std::uint64_t{3} << 48) | 77;  // rank 3, seq 77
  const auto user = bytes_of("payload after the prefix");
  std::vector<std::byte> body(net::kEagerPrefixBytes + user.size());
  std::memcpy(body.data(), &in, sizeof in);
  std::memcpy(body.data() + net::kEagerPrefixBytes, user.data(), user.size());
  std::vector<std::byte> stream;
  net::encode_frame(stream,
                    make_header(net::frame_kind::am_eager,
                                static_cast<std::uint32_t>(body.size())),
                    body.data(), body.size());

  net::decoder dec(kMaxFrame);
  std::vector<net::frame> got;
  net::frame f;
  for (std::byte b : stream) {
    dec.feed(&b, 1);
    while (dec.try_next(f)) got.push_back(std::move(f));
  }
  ASSERT_EQ(got.size(), 1u);
  net::eager_body out;
  ASSERT_TRUE(net::decode_eager_prefix(got[0].payload.data(),
                                       got[0].payload.size(), &out));
  EXPECT_EQ(out.handler_delta, in.handler_delta);
  EXPECT_EQ(out.send_ns, in.send_ns);
  EXPECT_EQ(out.trace, in.trace);
  EXPECT_EQ(got[0].payload.size() - net::kEagerPrefixBytes, user.size());
  EXPECT_EQ(std::memcmp(got[0].payload.data() + net::kEagerPrefixBytes,
                        user.data(), user.size()),
            0);
}

TEST(NetWire, EagerPrefixRejectsRuntPayload) {
  // A zero-length AM still carries the full 24-byte prefix; anything
  // shorter is a runt and must be rejected, not sliced.
  net::eager_body full{};
  std::vector<std::byte> body(net::kEagerPrefixBytes);
  std::memcpy(body.data(), &full, sizeof full);
  net::eager_body out;
  EXPECT_TRUE(net::decode_eager_prefix(body.data(), body.size(), &out));
  for (std::size_t len = 0; len < net::kEagerPrefixBytes; ++len)
    EXPECT_FALSE(net::decode_eager_prefix(body.data(), len, &out))
        << len << "-byte runt decoded";
}

TEST(NetWire, RdzvBodyRoundTripsAndRejectsSizeMismatch) {
  net::rdzv_body in;
  in.token = 41;
  in.handler_delta = 0xBEEF;
  in.total_len = std::uint64_t{1} << 33;
  in.send_ns = 123456789;
  in.trace = (std::uint64_t{250} << 48) | 0xFFFFFFFFFFFFull;
  std::vector<std::byte> p(sizeof in);
  std::memcpy(p.data(), &in, sizeof in);

  net::rdzv_body out;
  ASSERT_TRUE(net::decode_rdzv_body(p.data(), p.size(), &out));
  EXPECT_EQ(out.token, in.token);
  EXPECT_EQ(out.handler_delta, in.handler_delta);
  EXPECT_EQ(out.total_len, in.total_len);
  EXPECT_EQ(out.send_ns, in.send_ns);
  EXPECT_EQ(out.trace, in.trace);

  // An RTS body is exactly sizeof(rdzv_body) — prefixes and trailing bytes
  // are both protocol errors (a v4 sender's 32-byte body lands here).
  for (std::size_t len = 0; len < p.size(); ++len)
    EXPECT_FALSE(net::decode_rdzv_body(p.data(), len, &out));
  p.push_back(std::byte{0});
  EXPECT_FALSE(net::decode_rdzv_body(p.data(), p.size(), &out));
}

/// A coalesced flush (ASPEN_AGG, docs/AGG.md) emits N back-to-back frames
/// in ONE write; the batch must decode as the same N individual frames, in
/// seq order, with nothing left buffered.
TEST(NetWire, CoalescedBatchDecodesAsIndividualFrames) {
  constexpr std::size_t kFrames = 64;
  std::vector<std::byte> batch;
  std::vector<std::vector<std::byte>> payloads;
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::vector<std::byte> p(1 + (i % 13));
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<std::byte>((i * 31 + j) & 0xFF);
    net::frame_header h = make_header(net::frame_kind::am_eager,
                                      static_cast<std::uint32_t>(p.size()));
    h.seq = i;
    net::encode_frame(batch, h, p.data(), p.size());
    payloads.push_back(std::move(p));
  }

  net::decoder dec(kMaxFrame);
  dec.feed(batch.data(), batch.size());
  net::frame f;
  std::size_t i = 0;
  while (dec.try_next(f)) {
    ASSERT_LT(i, kFrames);
    EXPECT_EQ(f.kind(), net::frame_kind::am_eager);
    EXPECT_EQ(f.hdr.seq, i);
    EXPECT_EQ(f.payload, payloads[i]);
    ++i;
  }
  ASSERT_FALSE(dec.in_error()) << dec.error();
  EXPECT_EQ(i, kFrames);
  EXPECT_EQ(dec.buffered(), 0u);
}

/// The same coalesced batch torn at EVERY byte boundary: recv() may split a
/// multi-frame write anywhere, including between two frames of the batch
/// and inside any header or payload.
TEST(NetWire, CoalescedBatchSurvivesTornFeedAtEveryBoundary) {
  constexpr std::size_t kFrames = 8;
  std::vector<std::byte> batch;
  std::vector<std::vector<std::byte>> payloads;
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::vector<std::byte> p(3 + 5 * i);
    for (std::size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<std::byte>((i * 131 + j * 17) & 0xFF);
    net::frame_header h = make_header(net::frame_kind::am_eager,
                                      static_cast<std::uint32_t>(p.size()));
    h.seq = i;
    net::encode_frame(batch, h, p.data(), p.size());
    payloads.push_back(std::move(p));
  }

  for (std::size_t split = 0; split <= batch.size(); ++split) {
    net::decoder dec(kMaxFrame);
    std::vector<net::frame> got;
    net::frame f;
    dec.feed(batch.data(), split);
    while (dec.try_next(f)) got.push_back(std::move(f));
    dec.feed(batch.data() + split, batch.size() - split);
    while (dec.try_next(f)) got.push_back(std::move(f));
    ASSERT_FALSE(dec.in_error()) << "split=" << split << ": " << dec.error();
    ASSERT_EQ(got.size(), kFrames) << "split=" << split;
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(got[i].hdr.seq, i) << "split=" << split;
      EXPECT_EQ(got[i].payload, payloads[i]) << "split=" << split;
    }
    EXPECT_EQ(dec.buffered(), 0u) << "split=" << split;
  }
}

TEST(NetWire, OversizedPayloadIsRejected) {
  net::frame_header h = make_header(net::frame_kind::am_eager,
                                    static_cast<std::uint32_t>(kMaxFrame) + 1);
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
  EXPECT_NE(dec.error().find("oversized"), std::string::npos) << dec.error();
  // Sticky: feeding more valid bytes cannot clear the error.
  std::vector<std::byte> stream;
  net::encode_frame(stream, make_header(net::frame_kind::bye, 0), nullptr, 0);
  dec.feed(stream.data(), stream.size());
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, BadMagicIsRejected) {
  net::frame_header h = make_header(net::frame_kind::bye, 0);
  h.magic = 0xDEAD;
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, UnknownKindIsRejected) {
  net::frame_header h = make_header(net::frame_kind::bye, 0);
  h.kind = 999;
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, PartialHeaderIsNotAFrame) {
  net::frame_header h = make_header(net::frame_kind::ident, 0);
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h) - 1);
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_FALSE(dec.in_error());
  EXPECT_EQ(dec.buffered(), sizeof(h) - 1);
}

TEST(NetWire, KindNamesAreDistinct) {
  EXPECT_STREQ(net::kind_name(net::frame_kind::am_eager), "am_eager");
  EXPECT_STREQ(net::kind_name(net::frame_kind::am_rts), "am_rts");
  EXPECT_STRNE(net::kind_name(net::frame_kind::hello),
               net::kind_name(net::frame_kind::bye));
}

void dummy_handler(aspen::gex::runtime&, int, int, std::byte*, std::size_t) {}

TEST(NetWire, HandlerDeltaRoundTrips) {
  const std::uintptr_t anchor = net::text_anchor();
  EXPECT_NE(anchor, 0u);
  EXPECT_EQ(net::text_anchor(), anchor);  // stable within a process
  const std::uint64_t delta = net::encode_handler(&dummy_handler, anchor);
  EXPECT_EQ(net::decode_handler(delta, anchor), &dummy_handler);
}

TEST(NetWire, ApplyEnvOverridesAndClamps) {
  aspen::gex::net_config base;
  setenv("ASPEN_NET_EAGER_MAX", "1024", 1);
  setenv("ASPEN_NET_MAX_FRAME", "0x100000", 1);
  setenv("ASPEN_NET_SEGMENT_BASE", "0x2b0000000000", 1);
  aspen::gex::net_config got = net::apply_env(base);
  EXPECT_EQ(got.eager_max, 1024u);
  EXPECT_EQ(got.max_frame, std::size_t{1} << 20);
  EXPECT_EQ(got.segment_base, 0x2b0000000000ull);

  // eager_max can never exceed max_frame (an eager frame IS one frame).
  setenv("ASPEN_NET_EAGER_MAX", "0x200000", 1);
  got = net::apply_env(base);
  EXPECT_LE(got.eager_max, got.max_frame);

  unsetenv("ASPEN_NET_EAGER_MAX");
  unsetenv("ASPEN_NET_MAX_FRAME");
  unsetenv("ASPEN_NET_SEGMENT_BASE");
  got = net::apply_env(base);
  EXPECT_EQ(got.eager_max, base.eager_max);
  EXPECT_EQ(got.max_frame, base.max_frame);
  EXPECT_EQ(got.segment_base, base.segment_base);

  aspen::gex::net_config deaf = base;
  deaf.honor_env = false;
  setenv("ASPEN_NET_EAGER_MAX", "1", 1);
  got = net::apply_env(deaf);
  EXPECT_EQ(got.eager_max, base.eager_max);
  unsetenv("ASPEN_NET_EAGER_MAX");
}

TEST(NetWire, ApplyEnvParsesAggregationKnobs) {
  aspen::gex::net_config base;
  EXPECT_FALSE(base.agg.enabled);  // aggregation is opt-in
  EXPECT_EQ(base.sendq_max, 0u);   // send queue unbounded by default

  setenv("ASPEN_AGG", "1", 1);
  setenv("ASPEN_AGG_BYTES", "0x8000", 1);
  setenv("ASPEN_AGG_FRAMES", "32", 1);
  setenv("ASPEN_AGG_FLUSH_US", "250", 1);
  setenv("ASPEN_NET_SENDQ_MAX", "0x100000", 1);
  aspen::gex::net_config got = net::apply_env(base);
  EXPECT_TRUE(got.agg.enabled);
  EXPECT_EQ(got.agg.max_bytes, std::size_t{1} << 15);
  EXPECT_EQ(got.agg.max_frames, 32u);
  EXPECT_EQ(got.agg.flush_us, 250u);
  EXPECT_EQ(got.sendq_max, std::size_t{1} << 20);

  // A batch must hold at least one maximal eager frame, the frame
  // watermark at least one frame, and a nonzero sendq bound at least one
  // flushed batch (else injectors would park forever).
  setenv("ASPEN_AGG_BYTES", "16", 1);
  setenv("ASPEN_AGG_FRAMES", "0", 1);
  setenv("ASPEN_NET_SENDQ_MAX", "1", 1);
  got = net::apply_env(base);
  EXPECT_GE(got.agg.max_bytes,
            got.eager_max + sizeof(net::frame_header));
  EXPECT_GE(got.agg.max_frames, 1u);
  EXPECT_GE(got.sendq_max,
            got.agg.max_bytes + 2 * sizeof(net::frame_header));

  // ASPEN_AGG=0 disarms even with the tuning knobs set.
  setenv("ASPEN_AGG", "0", 1);
  got = net::apply_env(base);
  EXPECT_FALSE(got.agg.enabled);

  unsetenv("ASPEN_AGG");
  unsetenv("ASPEN_AGG_BYTES");
  unsetenv("ASPEN_AGG_FRAMES");
  unsetenv("ASPEN_AGG_FLUSH_US");
  unsetenv("ASPEN_NET_SENDQ_MAX");
  got = net::apply_env(base);
  EXPECT_FALSE(got.agg.enabled);
  EXPECT_EQ(got.agg.max_bytes, base.agg.max_bytes);
  EXPECT_EQ(got.sendq_max, 0u);
}

// ---------------------------------------------------------------------------
// Telemetry update frames (the live-aggregation payload codec).
// ---------------------------------------------------------------------------

/// A deterministic snapshot with values spread across the whole flat field
/// space (counters, histogram, scalars) so codec bugs in any region show.
snapshot make_snap(std::uint64_t seed) {
  snapshot s{};
  for (std::size_t i = seed % 3; i < aspen::telemetry::kCounterCount; i += 3)
    s.counters[i] = seed * 1000 + i;
  for (std::size_t i = 0; i < aspen::telemetry::kPqBatchBuckets; i += 2)
    s.pq_fire_hist[i] = seed + i;
  s.pq_high_water = seed * 7;
  s.pq_reserve_growths = seed;
  s.pq_total_fired = seed * 13 + 1;
  s.lpc_mailbox_high_water = seed * 3;
  return s;
}

bool snap_eq(const snapshot& a, const snapshot& b) {
  return a.counters == b.counters && a.pq_fire_hist == b.pq_fire_hist &&
         a.pq_high_water == b.pq_high_water &&
         a.pq_reserve_growths == b.pq_reserve_growths &&
         a.pq_total_fired == b.pq_total_fired &&
         a.lpc_mailbox_high_water == b.lpc_mailbox_high_water;
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

TEST(NetWire, TelemetryUpdateRoundTrips) {
  const snapshot in = make_snap(5);
  live::gauges gin;
  gin.sendq_bytes = 12345;
  gin.sendq_high_water = 999999;
  gin.staged_msgs = 7;
  gin.lpc_mailbox_depth = 3;
  gin.wd_state = 2;  // stalled-then-recovered
  std::vector<std::byte> body;
  live::encode_update(in, gin, body);

  snapshot out{};
  live::gauges gout;
  ASSERT_TRUE(live::decode_update(body.data(), body.size(), &out, &gout));
  EXPECT_TRUE(snap_eq(in, out));
  EXPECT_EQ(gout.sendq_bytes, gin.sendq_bytes);
  EXPECT_EQ(gout.sendq_high_water, gin.sendq_high_water);
  EXPECT_EQ(gout.staged_msgs, gin.staged_msgs);
  EXPECT_EQ(gout.lpc_mailbox_depth, gin.lpc_mailbox_depth);
  EXPECT_EQ(gout.wd_state, gin.wd_state);

  // The all-zero update (an idle interval) is 6 bytes and round-trips too.
  std::vector<std::byte> empty;
  live::encode_update(snapshot{}, live::gauges{}, empty);
  EXPECT_EQ(empty.size(), 6u);
  ASSERT_TRUE(live::decode_update(empty.data(), empty.size(), &out, &gout));
  EXPECT_TRUE(snap_eq(out, snapshot{}));
}

TEST(NetWire, TelemetryUpdateSurvivesTornFrameFeed) {
  const snapshot in = make_snap(9);
  live::gauges gin;
  gin.sendq_bytes = 1;
  std::vector<std::byte> body;
  live::encode_update(in, gin, body);
  std::vector<std::byte> stream;
  net::encode_frame(stream,
                    make_header(net::frame_kind::telemetry,
                                static_cast<std::uint32_t>(body.size())),
                    body.data(), body.size());

  net::decoder dec(kMaxFrame);
  std::vector<net::frame> got;
  net::frame f;
  for (std::byte b : stream) {
    dec.feed(&b, 1);
    while (dec.try_next(f)) got.push_back(std::move(f));
  }
  ASSERT_FALSE(dec.in_error()) << dec.error();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].kind(), net::frame_kind::telemetry);
  snapshot out{};
  live::gauges gout;
  ASSERT_TRUE(live::decode_update(got[0].payload.data(),
                                  got[0].payload.size(), &out, &gout));
  EXPECT_TRUE(snap_eq(in, out));
  EXPECT_EQ(gout.sendq_bytes, 1u);
}

TEST(NetWire, TelemetryUpdateRejectsMalformedInput) {
  const snapshot in = make_snap(3);
  std::vector<std::byte> body;
  live::encode_update(in, live::gauges{}, body);

  // Every strict prefix runs out of varints somewhere.
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_FALSE(live::decode_update(body.data(), len, nullptr, nullptr))
        << "prefix of " << len << " bytes decoded";

  // Trailing bytes after a complete update are garbage, not padding.
  std::vector<std::byte> padded = body;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(
      live::decode_update(padded.data(), padded.size(), nullptr, nullptr));

  auto with_pairs = [](std::initializer_list<std::pair<std::uint64_t,
                                                       std::uint64_t>> ps) {
    std::vector<std::byte> b;
    put_varint(b, ps.size());
    for (const auto& [idx, val] : ps) {
      put_varint(b, idx);
      put_varint(b, val);
    }
    for (int g = 0; g < 5; ++g) put_varint(b, 0);  // gauges
    return b;
  };
  // Non-increasing field indices (canonical form is strictly ascending).
  auto bad = with_pairs({{5, 1}, {3, 1}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  bad = with_pairs({{5, 1}, {5, 1}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  // Explicit zero values are never encoded.
  bad = with_pairs({{2, 0}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  // Field index out of range.
  bad = with_pairs({{live::kFieldCount, 1}});
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
  // Pair count exceeding the field space.
  bad.clear();
  put_varint(bad, live::kFieldCount + 1);
  EXPECT_FALSE(live::decode_update(bad.data(), bad.size(), nullptr, nullptr));
}

TEST(NetWire, OversizedTelemetryFrameIsRejected) {
  net::frame_header h = make_header(
      net::frame_kind::telemetry, static_cast<std::uint32_t>(kMaxFrame) + 1);
  net::decoder dec(kMaxFrame);
  dec.feed(&h, sizeof(h));
  net::frame f;
  EXPECT_FALSE(dec.try_next(f));
  EXPECT_TRUE(dec.in_error());
}

TEST(NetWire, TelemetryDeltaMergeIsAssociativeAndCommutative) {
  const snapshot a = make_snap(1), b = make_snap(2), c = make_snap(4);

  snapshot ab{};
  aspen::telemetry::merge_into(ab, a);
  aspen::telemetry::merge_into(ab, b);
  snapshot ba{};
  aspen::telemetry::merge_into(ba, b);
  aspen::telemetry::merge_into(ba, a);
  EXPECT_TRUE(snap_eq(ab, ba));

  snapshot ab_c = ab;
  aspen::telemetry::merge_into(ab_c, c);
  snapshot bc{};
  aspen::telemetry::merge_into(bc, b);
  aspen::telemetry::merge_into(bc, c);
  snapshot a_bc = bc;
  aspen::telemetry::merge_into(a_bc, a);
  EXPECT_TRUE(snap_eq(ab_c, a_bc));
}

// The live plane's core invariant, in miniature: a rank that ships
// interval deltas (cumulative-total differences, high-waters absolute)
// reassembles to exactly the totals a post-hoc sidecar would have carried.
TEST(NetWire, FinalFlushEqualsSidecarTotals) {
  // Three monotone cumulative checkpoints of one rank's counters.
  snapshot s1 = make_snap(2);
  snapshot s2 = s1;
  s2.counters[0] += 10;
  s2.pq_high_water += 5;
  s2.pq_total_fired += 3;
  snapshot s3 = s2;
  s3.counters[1] += 1;
  s3.pq_fire_hist[0] += 2;
  s3.lpc_mailbox_high_water += 8;

  // What take_update_delta() ships at each checkpoint.
  const snapshot d1 = s1 - snapshot{};
  const snapshot d2 = s2 - s1;
  const snapshot d3 = s3 - s2;

  snapshot acc{};
  aspen::telemetry::merge_into(acc, d1);
  aspen::telemetry::merge_into(acc, d2);
  aspen::telemetry::merge_into(acc, d3);
  EXPECT_TRUE(snap_eq(acc, s3));
}

// ---------------------------------------------------------------------------
// The poll plane's byte-stream contract.
// ---------------------------------------------------------------------------

/// Pump sink that concatenates everything the plane delivers.
struct collect_sink {
  std::vector<std::byte> bytes;
  int eof_rank = -1;
  void on_bytes(int, const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    bytes.insert(bytes.end(), p, p + len);
  }
  void on_eof(int rank) { eof_rank = rank; }
};

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xFF);
  return v;
}

// Two planes bridged by a socketpair play ranks 0 and 1: the sender
// flushes a mix of small and large buffers (some larger than one recv
// chunk), and the receiver must observe the exact concatenation in order,
// then a clean EOF once the sender's socket closes.
TEST(NetWire, PollPlaneStreamsBytesInOrder) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sp), 0);
  net::poll_plane tx(2);
  net::poll_plane rx(2);
  tx.attach(1, sp[0]);
  rx.attach(0, sp[1]);

  std::vector<std::byte> expect;
  collect_sink rx_sink;
  const std::size_t sizes[] = {17, 400, 9000, 100 * 1024, 3, 64 * 1024};
  unsigned seed = 0;
  for (std::size_t n : sizes) {
    std::vector<std::byte> out = pattern(n, ++seed);
    expect.insert(expect.end(), out.begin(), out.end());
    std::size_t off = 0;
    // Drain the receiver between partial flushes so the socket buffer
    // never stays full; the EAGAIN residue stays queued in `out`.
    for (int spin = 0; spin < 20000 && off < out.size(); ++spin) {
      tx.flush(1, out, off);
      rx.pump(rx_sink);
    }
    EXPECT_EQ(off, out.size());
  }
  for (int spin = 0; spin < 20000 && rx_sink.bytes.size() < expect.size();
       ++spin)
    rx.pump(rx_sink);
  ASSERT_EQ(rx_sink.bytes.size(), expect.size());
  EXPECT_EQ(rx_sink.bytes, expect);

  // Close the sender's socket: the receiver's next pumps must report EOF.
  tx.detach(1);
  ::close(sp[0]);
  for (int spin = 0; spin < 20000 && rx_sink.eof_rank < 0; ++spin)
    rx.pump(rx_sink);
  EXPECT_EQ(rx_sink.eof_rank, 0);
  rx.detach(0);
  ::close(sp[1]);
}

}  // namespace
