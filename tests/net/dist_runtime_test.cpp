// DistributedRuntime over the loopback InProcTransport: the full
// coordinator/device protocol (phases, termination probes, verdict and
// digest collection) without sockets or forks, differentially checked
// against ShardedRuntime.
#include <gtest/gtest.h>

#include "dist_testutil.hpp"

namespace tulkun::eval {
namespace {

HarnessOptions small_opts() {
  HarnessOptions opts;
  opts.max_destinations = 2;  // keep the BDD work small; topology unchanged
  return opts;
}

TEST(DistRuntimeTest, InprocThreeProcessesMatchShardedRuntime) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.device_procs = 3;
  dist.n_updates = kUpdates;
  const auto res = dist_run(spec, opts, dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.resets, 0u);
  ASSERT_EQ(res.rows.size(), base.rows.size());
  EXPECT_EQ(res.rows, base.rows);
  EXPECT_EQ(res.incremental_wall_seconds.size(), kUpdates);
  EXPECT_GT(res.metrics.transport.frames_sent, 0u);
}

TEST(DistRuntimeTest, InprocCollectingRanksMatchNoGcBaseline) {
  // Ranks collect their device spaces past the threshold, and the digest
  // must not notice: byte-identical to a sharded run that never collects.
  const auto& spec = dataset("INet2");
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, small_opts(), kUpdates);

  const testutil::AtomsOff atoms_off;
  DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.device_procs = 3;
  dist.n_updates = kUpdates;
  const auto res = dist_run(spec, testutil::collecting(small_opts()), dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  EXPECT_GT(res.metrics.gc_runs, 0u);
}

TEST(DistRuntimeTest, InprocTreePushesEndPhasesOnFewerWaves) {
  // Fanout 2 over 3 ranks: rank 1 merges rank 3's pushes with its own
  // before the root sees them.
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 20;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.device_procs = 3;
  dist.fanout = 2;
  dist.n_updates = kUpdates;
  testutil::UpdateWaves waves(dist);
  const auto res = dist_run(spec, opts, dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  // On waves alone, every update phase takes two settled ones.
  EXPECT_LT(waves.count(), 2 * kUpdates);
}

TEST(DistRuntimeTest, WorldBuilderIsDeterministicAcrossInstances) {
  // Epoch-replay recovery and cross-process digest equality both rest on
  // every process deriving the identical world from (dataset, options).
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  Harness h1(spec, opts);
  Harness h2(spec, opts);
  const auto w1 = h1.world_builder(5)();
  const auto w2 = h2.world_builder(5)();

  EXPECT_EQ(w1.plans.size(), w2.plans.size());
  ASSERT_EQ(w1.tables.size(), w2.tables.size());
  ASSERT_EQ(w1.steps.size(), w2.steps.size());
  for (std::size_t i = 0; i < w1.steps.size(); ++i) {
    EXPECT_EQ(w1.steps[i].update.device, w2.steps[i].update.device);
    EXPECT_EQ(w1.steps[i].update.kind, w2.steps[i].update.kind);
    EXPECT_EQ(w1.steps[i].erase_of, w2.steps[i].erase_of);
  }
}

TEST(DistRuntimeTest, InprocRejectsChaosKill) {
  // The chaos hook _exits a process; only the forked transports support it.
  DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.kills = {{1, 1}};
  EXPECT_THROW((void)dist_run(dataset("INet2"), small_opts(), dist), Error);
}

}  // namespace
}  // namespace tulkun::eval
