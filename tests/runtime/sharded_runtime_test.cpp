#include "runtime/sharded_runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "pred/atom_set.hpp"
#include "spec/builtins.hpp"
#include "testutil/figure2.hpp"

namespace tulkun::runtime {
namespace {

using testutil::Figure2;

class ShardedRuntimeTest : public ::testing::Test {
 protected:
  Figure2 fig;
  spec::Builtins b{fig.topo, fig.space()};
  planner::Planner planner{fig.topo, fig.space()};

  [[nodiscard]] dvm::EngineConfig shards(std::size_t n) const {
    dvm::EngineConfig cfg;
    cfg.runtime_shards = n;
    return cfg;
  }

  void initialize_all(ShardedRuntime& rt) {
    for (DeviceId d = 0; d < fig.topo.device_count(); ++d) {
      rt.post_initialize(d, fig.net.table(d));
    }
    rt.wait_quiescent();
  }
};

TEST_F(ShardedRuntimeTest, LocalizeInvariantTransfersPacketSpace) {
  packet::PacketSpace other;
  const auto inv = b.waypoint(fig.P1(), fig.S, fig.W, fig.D);
  const auto local = localize_invariant(inv, other);
  EXPECT_EQ(local.packet_space.manager(), &other.manager());
  EXPECT_DOUBLE_EQ(local.packet_space.count(), inv.packet_space.count());
  EXPECT_EQ(local.ingress_set, inv.ingress_set);
}

TEST_F(ShardedRuntimeTest, WireRuleExtraMatchLandsInDeviceSpace) {
  // A rule's extra match crosses as bytes and is rebuilt in the space of
  // the device that hosts the rule, never shared with the caller's.
  fib::Rule rule;
  rule.priority = 7;
  rule.dst_prefix = fig.p1;
  rule.extra_match = fig.space().dst_port(80);
  rule.action = fib::Action::forward(fig.D);
  const WireRule wire = to_wire(rule);
  EXPECT_FALSE(wire.rule.extra_match.has_value());
  EXPECT_FALSE(wire.extra_bytes.empty());

  DeviceHost host(fig.topo, {fig.A}, {}, /*deltas=*/false);
  host.initialize(fig.A, {&wire, 1},
                  [](DeviceId, std::vector<std::uint8_t>) {});
  const auto& v = host.verifier(fig.A);
  ASSERT_EQ(v.fib().size(), 1u);
  const fib::Rule& got = *v.fib().all().front();
  ASSERT_TRUE(got.extra_match.has_value());
  EXPECT_EQ(got.extra_match->manager(),
            v.lec().entries().front().pred.manager());
  EXPECT_NE(got.extra_match->manager(), &fig.space().manager());
  EXPECT_DOUBLE_EQ(got.extra_match->count(), rule.extra_match->count());
}

TEST_F(ShardedRuntimeTest, BlobHostDropsDeltaFramesAsProtocolErrors) {
  // A DistributedRuntime rank's host ships and accepts only blobs: a frame
  // carrying node-ID deltas counts as a protocol error and changes nothing.
  // Atoms off so dst-only predicates take the BDD path.
  const bool atoms_were = pred::atom_path_enabled();
  pred::set_atom_path_enabled(false);
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  std::vector<DeviceId> all;
  for (DeviceId d = 0; d < fig.topo.device_count(); ++d) all.push_back(d);
  DeviceHost deltas(fig.topo, all, {}, /*deltas=*/true);
  DeviceHost blobs(fig.topo, all, {}, /*deltas=*/false);
  deltas.install(plan);
  blobs.install(plan);
  using Frames = std::vector<std::pair<DeviceId, std::vector<std::uint8_t>>>;
  const auto into = [](Frames& out) {
    return [&out](DeviceId dst, std::vector<std::uint8_t> f) {
      out.emplace_back(dst, std::move(f));
    };
  };
  Frames delta_frames;
  Frames blob_frames;
  const auto table = to_wire(fig.net.table(fig.D));
  deltas.initialize(fig.D, table, into(delta_frames));
  blobs.initialize(fig.D, table, into(blob_frames));
  EXPECT_FALSE(delta_frames.empty());
  EXPECT_EQ(delta_frames.size(), blob_frames.size());

  Frames sink;
  for (const auto& [dst, f] : blob_frames) blobs.deliver(dst, f, into(sink));
  const auto before = blobs.metrics();
  EXPECT_EQ(before.transport.protocol_errors, 0u);
  for (const auto& [dst, f] : delta_frames) blobs.deliver(dst, f, into(sink));
  const auto after = blobs.metrics();
  EXPECT_EQ(after.transport.protocol_errors, delta_frames.size());
  EXPECT_EQ(after.jobs, before.jobs);
  EXPECT_EQ(after.frames, before.frames);
  pred::set_atom_path_enabled(atoms_were);
}

TEST_F(ShardedRuntimeTest, DistributedVerdictMatchesPaper) {
  // Devices share worker threads but not BDD spaces; every predicate
  // crosses shards through the wire codec, batched into frames. Verdicts
  // must match the single-threaded engines (paper §2.2).
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  ShardedRuntime rt(fig.topo);
  rt.install(plan);
  initialize_all(rt);
  EXPECT_FALSE(rt.violations().empty());

  rt.post_rule_update(fig.B, fig.b_reroute_to_w());
  rt.wait_quiescent();
  EXPECT_TRUE(rt.violations().empty());
}

TEST_F(ShardedRuntimeTest, OneShardMatchesManyShards) {
  // The pool size is a throughput knob, never a semantics knob: one
  // worker and one-per-device must reach identical verdicts.
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  for (const std::size_t n : {std::size_t{1}, fig.topo.device_count()}) {
    ShardedRuntime rt(fig.topo, shards(n));
    ASSERT_LE(rt.shard_count(), fig.topo.device_count());
    rt.install(plan);
    initialize_all(rt);
    EXPECT_EQ(rt.violations().size(), 1u) << n << " shards";

    rt.post_rule_update(fig.B, fig.b_reroute_to_w());
    rt.wait_quiescent();
    EXPECT_TRUE(rt.violations().empty()) << n << " shards";
  }
}

TEST_F(ShardedRuntimeTest, ManyUpdatesStayConsistent) {
  const auto plan = planner.plan(b.reachability(fig.P1(), fig.S, fig.D));
  ShardedRuntime rt(fig.topo, shards(2));
  rt.install(plan);
  initialize_all(rt);
  EXPECT_TRUE(rt.violations().empty());

  // Alternate breaking and fixing W's route; end in the fixed state.
  for (int round = 0; round < 5; ++round) {
    fib::Rule bad;
    bad.priority = 100 + round;
    bad.dst_prefix = fig.p1;
    bad.action = fib::Action::drop();
    rt.post_rule_update(fig.W, fib::FibUpdate::insert(fig.W, bad));

    fib::Rule good;
    good.priority = 200 + round;
    good.dst_prefix = fig.p1;
    good.action = fib::Action::forward(fig.D);
    rt.post_rule_update(fig.W, fib::FibUpdate::insert(fig.W, good));
  }
  rt.wait_quiescent();
  EXPECT_TRUE(rt.violations().empty());
}

TEST_F(ShardedRuntimeTest, InsertHandleReceivesRuleId) {
  const auto plan = planner.plan(b.reachability(fig.P1(), fig.S, fig.D));
  ShardedRuntime rt(fig.topo, shards(1));
  rt.install(plan);
  initialize_all(rt);

  // Insert a drop rule, read the assigned id off the handle, erase it.
  fib::Rule bad;
  bad.priority = 100;
  bad.dst_prefix = fig.p1;
  bad.action = fib::Action::drop();
  const auto handle =
      rt.post_rule_update(fig.W, fib::FibUpdate::insert(fig.W, bad));
  rt.wait_quiescent();
  EXPECT_FALSE(rt.violations().empty());

  rt.post_rule_update(fig.W, fib::FibUpdate::erase(fig.W, handle->rule_id));
  rt.wait_quiescent();
  EXPECT_TRUE(rt.violations().empty());
}

TEST_F(ShardedRuntimeTest, QuiescenceNeverMissesTheLastDecrement) {
  // Regression guard for the enqueue/finish_one rework: hammer short
  // work waves; a missed wakeup on the final decrement would hang a
  // wait_quiescent() forever, so run the waves under a watchdog.
  const auto plan = planner.plan(b.reachability(fig.P1(), fig.S, fig.D));
  ShardedRuntime rt(fig.topo, shards(2));
  rt.install(plan);
  initialize_all(rt);

  auto waves = std::async(std::launch::async, [&] {
    for (int wave = 0; wave < 100; ++wave) {
      fib::Rule good;
      good.priority = static_cast<std::uint32_t>(1000 + wave);
      good.dst_prefix = fig.p1;
      good.action = fib::Action::forward(fig.D);
      const auto handle =
          rt.post_rule_update(fig.W, fib::FibUpdate::insert(fig.W, good));
      rt.wait_quiescent();
      rt.post_rule_update(fig.W,
                          fib::FibUpdate::erase(fig.W, handle->rule_id));
      rt.wait_quiescent();
    }
  });
  ASSERT_EQ(waves.wait_for(std::chrono::seconds(120)),
            std::future_status::ready)
      << "wait_quiescent() hung: lost quiescence wakeup";
  waves.get();
  EXPECT_TRUE(rt.violations().empty());
}

TEST_F(ShardedRuntimeTest, MetricsObserveBatchingAndTransferCache) {
  // Dst-only predicates ship as interval atoms and never touch the
  // serialize cache; pin the cache behavior on the BDD wire path.
  const bool atoms_were_enabled = pred::atom_path_enabled();
  pred::set_atom_path_enabled(false);
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  ShardedRuntime rt(fig.topo, shards(2));
  rt.install(plan);
  initialize_all(rt);
  rt.post_rule_update(fig.B, fig.b_reroute_to_w());
  rt.wait_quiescent();

  const auto m = rt.metrics();
  ASSERT_EQ(m.jobs_per_shard.size(), rt.shard_count());
  std::uint64_t per_shard_total = 0;
  for (const auto n : m.jobs_per_shard) per_shard_total += n;
  EXPECT_EQ(per_shard_total, m.jobs);
  EXPECT_GT(m.jobs, 0u);
  EXPECT_GT(m.frames, 0u);
  EXPECT_GE(m.envelopes, m.frames);  // frames coalesce >= 1 envelope each
  EXPECT_GT(m.frame_bytes, 0u);
  // Every frame predicate went through the per-shard delta channels (which
  // supersede the serialize cache on this path — the cache stays as the
  // channel-less fallback used by DistributedRuntime).
  EXPECT_GT(m.channel_roots, 0u);
  EXPECT_GT(m.channel_nodes_shipped, 0u);
  EXPECT_EQ(m.transfer_cache_hits + m.transfer_cache_misses, 0u);
  EXPECT_FALSE(m.queue_wait_seconds.empty());
  pred::set_atom_path_enabled(atoms_were_enabled);
}

}  // namespace
}  // namespace tulkun::runtime
