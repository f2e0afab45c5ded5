// Cross-process span propagation: trace contexts and trace blobs round-trip
// through dist_proto (including hostile truncation), and a 3-rank inproc
// DistributedRuntime run yields a merged trace with causally-linked,
// rank-tagged spans from every rank.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "eval/dist_run.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "runtime/dist_proto.hpp"

namespace tulkun::obs {
namespace {

TEST(DistProtoTraceTest, BeginCarriesTraceContext) {
  runtime::DistBegin b;
  b.epoch = 2;
  b.phase = 5;
  b.trace_id = 0xdeadbeefcafe;
  b.parent_span = 0x1234567890ab;
  const auto bytes = runtime::encode_dist(b);
  const auto back = std::get<runtime::DistBegin>(runtime::decode_dist(bytes));
  EXPECT_EQ(back.epoch, b.epoch);
  EXPECT_EQ(back.phase, b.phase);
  EXPECT_EQ(back.trace_id, b.trace_id);
  EXPECT_EQ(back.parent_span, b.parent_span);
}

TEST(DistProtoTraceTest, DataCarriesTraceContext) {
  runtime::DistData d;
  d.epoch = 1;
  d.dst_device = 17;
  d.frame = {1, 2, 3, 4};
  d.trace_id = 0xabc;
  d.parent_span = 0xdef;
  const auto bytes = runtime::encode_dist(d);
  const auto back = std::get<runtime::DistData>(runtime::decode_dist(bytes));
  EXPECT_EQ(back.frame, d.frame);
  EXPECT_EQ(back.trace_id, d.trace_id);
  EXPECT_EQ(back.parent_span, d.parent_span);
}

TEST(DistProtoTraceTest, RollupEntriesCarryTraceBlobAndTransportMetrics) {
  TraceSnapshot snap;
  snap.names = {"x"};
  ThreadTrace t;
  Record r;
  r.span_id = 9;
  r.name_id = 0;
  r.rank = 3;
  t.records.push_back(r);
  snap.threads.push_back(std::move(t));

  runtime::DistRollup roll;
  roll.epoch = 1;
  roll.seq = 7;
  runtime::VerdictEntry v;
  v.rank = 3;
  v.violations = 1;
  v.deltas.push_back({3, true, {}, {"row"}});
  v.metrics.transport.frames_sent = 10;
  v.metrics.transport.send_queue_depth = 4;
  v.metrics.transport.send_queue_peak = 8;
  v.metrics.transport.backpressure_events = 2;
  v.trace = serialize_trace(snap);
  roll.entries.push_back(std::move(v));

  const auto bytes = runtime::encode_dist(roll);
  const auto back = std::get<runtime::DistRollup>(runtime::decode_dist(bytes));
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.seq, 7u);
  const auto& link = back.entries[0].metrics.transport;
  EXPECT_EQ(link.frames_sent, 10u);
  EXPECT_EQ(link.send_queue_depth, 4u);
  EXPECT_EQ(link.send_queue_peak, 8u);
  EXPECT_EQ(link.backpressure_events, 2u);
  const auto got = deserialize_trace(back.entries[0].trace);
  ASSERT_EQ(got.threads.size(), 1u);
  ASSERT_EQ(got.threads[0].records.size(), 1u);
  EXPECT_EQ(got.threads[0].records[0].span_id, 9u);
  EXPECT_EQ(got.threads[0].records[0].rank, 3u);
}

TEST(DistProtoTraceTest, TruncatedMessagesThrow) {
  runtime::DistBegin b;
  b.trace_id = 0x1;
  b.parent_span = 0x2;
  const auto bytes = runtime::encode_dist(b);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)runtime::decode_dist({bytes.data(), n}), Error)
        << "prefix length " << n;
  }

  runtime::DistRollup roll;
  runtime::VerdictEntry v;
  v.trace = serialize_trace(TraceSnapshot{});
  roll.entries.push_back(std::move(v));
  const auto vb = runtime::encode_dist(roll);
  for (std::size_t n = 0; n < vb.size(); ++n) {
    EXPECT_THROW((void)runtime::decode_dist({vb.data(), n}), Error)
        << "prefix length " << n;
  }
}

/// Name of `r` resolved against its snapshot's intern table.
std::string name_of(const TraceSnapshot& snap, const Record& r) {
  return r.name_id < snap.names.size() ? snap.names[r.name_id] : "";
}

TEST(DistTraceTest, ThreeRankInprocRunMergesCausallyLinkedTraces) {
  if (!kTraceCompiledIn) GTEST_SKIP() << "built with TULKUN_TRACE=OFF";
  set_trace_enabled(true);
  (void)drain_snapshot();  // start from a clean cursor

  eval::HarnessOptions opts;
  opts.max_destinations = 2;
  eval::DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.device_procs = 3;
  dist.n_updates = 4;
  dist.collect_trace = true;
  const auto res = eval::dist_run(eval::dataset("INet2"), opts, dist);
  set_trace_enabled(false);

  ASSERT_FALSE(res.traces.empty());

  // Every rank contributed rank-tagged records, and device-side phase
  // spans adopted trace ids the coordinator minted.
  std::set<std::uint32_t> ranks;
  std::set<std::uint64_t> coordinator_traces;
  std::size_t total = 0;
  for (const auto& snap : res.traces) {
    for (const auto& t : snap.threads) {
      for (const auto& r : t.records) {
        ranks.insert(r.rank);
        ++total;
        if (name_of(snap, r) == "dist.phase") {
          coordinator_traces.insert(r.trace_id);
        }
      }
    }
  }
  EXPECT_GT(total, 0u);
  for (std::uint32_t rank = 0; rank <= 3; ++rank) {
    EXPECT_TRUE(ranks.count(rank)) << "no records from rank " << rank;
  }
  // One minted trace id per phase: burst + 4 updates.
  EXPECT_EQ(coordinator_traces.size(), 5u);
  EXPECT_FALSE(coordinator_traces.count(0));

  std::size_t linked = 0;
  for (const auto& snap : res.traces) {
    for (const auto& t : snap.threads) {
      for (const auto& r : t.records) {
        if (name_of(snap, r) != "dist.device_phase") continue;
        EXPECT_TRUE(coordinator_traces.count(r.trace_id))
            << "device phase span not under a coordinator trace";
        EXPECT_NE(r.parent_span, 0u);
        ++linked;
      }
    }
  }
  // 3 ranks x 5 phases (modulo ring overwrites, which this small run
  // cannot trigger: 8192 records/thread).
  EXPECT_EQ(linked, 15u);

  // The merged timeline exports as Chrome trace JSON with all four
  // process tracks.
  std::ostringstream os;
  write_chrome_trace(os, res.traces);
  const std::string json = os.str();
  for (std::uint32_t rank = 0; rank <= 3; ++rank) {
    EXPECT_NE(json.find("\"rank " + std::to_string(rank) + "\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace tulkun::obs
