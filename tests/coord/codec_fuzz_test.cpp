// Hostile-input hardening for the coordination-fabric codecs: the
// delta-digest list, the verdict rollup, the catch-up snapshot and the
// catch-up broadcast. Every strict prefix of a valid encoding must throw
// (never crash, never over-read, never allocate unboundedly), the full
// encoding must round-trip exactly, and seeded byte corruption must land
// in throw-or-valid — nothing else.
#include <gtest/gtest.h>

#include "coord/digest_store.hpp"
#include "dvm/digest_delta.hpp"
#include "runtime/dist_proto.hpp"

namespace tulkun {
namespace {

std::vector<dvm::DigestDelta> sample_deltas() {
  dvm::DigestDelta anchor;
  anchor.device = 3;
  anchor.full = true;
  anchor.added = {"", "row-a", std::string(300, 'x')};
  dvm::DigestDelta delta;
  delta.device = 0xffffffffu;
  delta.removed = {"gone", "gone"};
  delta.added = {"fresh"};
  dvm::DigestDelta empty;
  empty.device = 9;
  return {anchor, delta, empty};
}

runtime::VerdictEntry sample_entry(std::uint32_t rank) {
  runtime::VerdictEntry e;
  e.rank = rank;
  e.violations = 2;
  e.deltas = sample_deltas();
  // Every shipped field distinct and non-zero, so truncation and
  // re-encoding cover each one.
  auto& m = e.metrics;
  m.jobs = 11;
  m.frames = 7;
  m.envelopes = 5;
  m.frame_bytes = 1234;
  m.transfer_cache_hits = 13;
  m.transfer_cache_misses = 17;
  m.channel_roots = 19;
  m.channel_nodes_shipped = 23;
  m.channel_resets = 29;
  m.gc_runs = 31;
  m.gc_reclaimed_nodes = 37;
  m.lec_delta_seconds = 0.25;
  m.recompute_seconds = 0.5;
  m.emit_seconds = 0.75;
  m.transport.frames_sent = 42;
  m.transport.bytes_sent = 43;
  m.transport.frames_received = 44;
  m.transport.bytes_received = 45;
  m.transport.reconnects = 46;
  m.transport.heartbeat_misses = 47;
  m.transport.protocol_errors = 48;
  m.transport.send_queue_depth = 49;
  m.transport.send_queue_peak = 50;
  m.transport.backpressure_events = 2;
  e.world_rebuilds = 1;
  e.snapshot_rows_adopted = 3;
  return e;
}

TEST(CoordCodecFuzzTest, DigestDeltaEveryPrefixThrows) {
  const auto deltas = sample_deltas();
  const auto wire = dvm::encode_digest_deltas(deltas);
  ASSERT_GT(wire.size(), 8u);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(
        (void)dvm::decode_digest_deltas({wire.data(), len}),
        dvm::CodecError)
        << "prefix " << len << " of " << wire.size();
  }
  EXPECT_EQ(dvm::decode_digest_deltas(wire), deltas);
}

TEST(CoordCodecFuzzTest, DigestDeltaTrailingBytesThrow) {
  auto wire = dvm::encode_digest_deltas(sample_deltas());
  wire.push_back(0);
  EXPECT_THROW((void)dvm::decode_digest_deltas(wire), dvm::CodecError);
}

TEST(CoordCodecFuzzTest, DigestDeltaHostileCountsThrow) {
  // A declared element count far beyond the buffer must be rejected
  // before any allocation sized from it.
  std::vector<std::uint8_t> wire(12, 0xff);
  EXPECT_THROW((void)dvm::decode_digest_deltas(wire), dvm::CodecError);
}

void expect_every_prefix_throws(const runtime::DistMsg& msg) {
  const auto wire = runtime::encode_dist(msg);
  ASSERT_GT(wire.size(), 4u);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW((void)runtime::decode_dist({wire.data(), len}), Error)
        << "prefix " << len << " of " << wire.size();
  }
  // The untruncated frame re-encodes byte-identically.
  const auto back = runtime::encode_dist(runtime::decode_dist(wire));
  EXPECT_EQ(back, wire);
}

TEST(CoordCodecFuzzTest, RollupEveryPrefixThrows) {
  runtime::DistRollup rollup;
  rollup.epoch = 3;
  rollup.seq = 17;
  rollup.entries = {sample_entry(2), sample_entry(5)};
  expect_every_prefix_throws(rollup);
}

TEST(CoordCodecFuzzTest, RollupEntryMetricsRoundTrip) {
  runtime::DistRollup rollup;
  rollup.entries = {sample_entry(4)};
  const auto back = std::get<runtime::DistRollup>(
      runtime::decode_dist(runtime::encode_dist(rollup)));
  ASSERT_EQ(back.entries.size(), 1u);
  const auto& want = rollup.entries[0];
  const auto& got = back.entries[0];
  EXPECT_EQ(got.rank, 4u);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.deltas, want.deltas);
  EXPECT_EQ(got.world_rebuilds, want.world_rebuilds);
  EXPECT_EQ(got.snapshot_rows_adopted, want.snapshot_rows_adopted);
  const auto& w = want.metrics;
  const auto& g = got.metrics;
  EXPECT_EQ(g.jobs, w.jobs);
  EXPECT_EQ(g.frames, w.frames);
  EXPECT_EQ(g.envelopes, w.envelopes);
  EXPECT_EQ(g.frame_bytes, w.frame_bytes);
  EXPECT_EQ(g.transfer_cache_hits, w.transfer_cache_hits);
  EXPECT_EQ(g.transfer_cache_misses, w.transfer_cache_misses);
  EXPECT_EQ(g.channel_roots, w.channel_roots);
  EXPECT_EQ(g.channel_nodes_shipped, w.channel_nodes_shipped);
  EXPECT_EQ(g.channel_resets, w.channel_resets);
  EXPECT_EQ(g.gc_runs, w.gc_runs);
  EXPECT_EQ(g.gc_reclaimed_nodes, w.gc_reclaimed_nodes);
  EXPECT_EQ(g.lec_delta_seconds, w.lec_delta_seconds);
  EXPECT_EQ(g.recompute_seconds, w.recompute_seconds);
  EXPECT_EQ(g.emit_seconds, w.emit_seconds);
  EXPECT_EQ(g.transport.frames_sent, w.transport.frames_sent);
  EXPECT_EQ(g.transport.bytes_sent, w.transport.bytes_sent);
  EXPECT_EQ(g.transport.frames_received, w.transport.frames_received);
  EXPECT_EQ(g.transport.bytes_received, w.transport.bytes_received);
  EXPECT_EQ(g.transport.reconnects, w.transport.reconnects);
  EXPECT_EQ(g.transport.heartbeat_misses, w.transport.heartbeat_misses);
  EXPECT_EQ(g.transport.protocol_errors, w.transport.protocol_errors);
  EXPECT_EQ(g.transport.send_queue_depth, w.transport.send_queue_depth);
  EXPECT_EQ(g.transport.send_queue_peak, w.transport.send_queue_peak);
  EXPECT_EQ(g.transport.backpressure_events, w.transport.backpressure_events);
}

TEST(CoordCodecFuzzTest, SnapshotEveryPrefixThrows) {
  runtime::DistSnapshot snap;
  snap.epoch = 2;
  snap.collect_seq = 9;
  snap.rows = sample_deltas();
  expect_every_prefix_throws(snap);
}

TEST(CoordCodecFuzzTest, CatchupEveryPrefixThrows) {
  runtime::DistCatchup cu;
  cu.epoch = 4;
  cu.next_phase = 6;
  cu.reborn = {1, 5};
  expect_every_prefix_throws(cu);
}

TEST(CoordCodecFuzzTest, CorruptedRollupBytesThrowOrDecode) {
  runtime::DistRollup rollup;
  rollup.epoch = 1;
  rollup.seq = 2;
  rollup.entries = {sample_entry(1)};
  const auto wire = runtime::encode_dist(rollup);
  // Deterministic single-byte corruption sweep: every outcome must be a
  // clean throw or a structurally valid message (asan/ubsan guard the
  // "nothing else" part).
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      auto bad = wire;
      bad[i] = static_cast<std::uint8_t>(bad[i] ^ flip);
      try {
        (void)runtime::decode_dist(bad);
      } catch (const Error&) {
        // Expected for most corruptions.
      }
    }
  }
}

}  // namespace
}  // namespace tulkun
