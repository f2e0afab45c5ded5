// Multi-process differential tests: a coordinator plus three device
// processes over Unix-domain sockets must converge to verdicts and state
// digests byte-identical to an in-process ShardedRuntime, including when a
// device process is killed mid-run and re-forked.
//
// This binary forks/execs itself as the device processes, so it carries a
// custom main() that routes the --tulkun-device-proc re-exec before gtest.
#include <gtest/gtest.h>

#include "dist_testutil.hpp"

namespace tulkun::eval {
namespace {

HarnessOptions small_opts() {
  HarnessOptions opts;
  opts.max_destinations = 2;
  return opts;
}

TEST(DistDifferentialTest, UdsThreeProcessesMatchShardedRuntime) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 3;
  dist.n_updates = kUpdates;
  const auto res = dist_run(spec, opts, dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.resets, 0u);
  ASSERT_EQ(res.rows.size(), base.rows.size());
  EXPECT_EQ(res.rows, base.rows);
  EXPECT_GT(res.metrics.transport.frames_sent, 0u);
  EXPECT_GT(res.metrics.transport.bytes_received, 0u);
}

TEST(DistDifferentialTest, UdsTreePushesEndPhasesOnFewerWaves) {
  // Fanout 2 over 3 forked ranks: rank 1 merges rank 3's pushes with its
  // own. The coordinator, and with it the wave counter, is this process.
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 20;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
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

TEST(DistDifferentialTest, ForkedRanksRunTheCallersConfiguration) {
  // The engine config and the atom switch reach forked ranks: they collect
  // past the threshold, ship BDD blobs through the transfer cache, and
  // report both counters back through collect.
  const auto& spec = dataset("INet2");
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, small_opts(), kUpdates);

  const testutil::AtomsOff atoms_off;
  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 3;
  dist.n_updates = kUpdates;
  const auto res = dist_run(spec, testutil::collecting(small_opts()), dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  EXPECT_GT(res.metrics.gc_runs, 0u);
  EXPECT_GT(res.metrics.transfer_cache_misses, 0u);
}

TEST(DistDifferentialTest, KilledDeviceProcessReconvergesIdentically) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 2;
  dist.n_updates = kUpdates;
  dist.kills = {{1, 2}};  // rank 1 _exits when phase 2 begins
  const auto res = dist_run(spec, opts, dist);

  // The supervisor re-forked the rank, the coordinator bumped the epoch and
  // replayed, and the surviving senders redialed with backoff.
  EXPECT_GE(res.resets, 1u);
  EXPECT_GE(res.metrics.transport.reconnects, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
}

TEST(DistDifferentialTest, RebuiltRanksKeepCumulativeCounters) {
  // A legacy reset rebuilds every rank's host, yet a rank reports counters
  // over its whole life: the survivor's exceed those of a run without the
  // kill by everything it did before the reset.
  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 2;
  dist.n_updates = 6;
  const auto clean = dist_run(dataset("INet2"), small_opts(), dist);
  dist.kills = {{1, 2}};  // rank 1 _exits when phase 2 begins
  const auto killed = dist_run(dataset("INet2"), small_opts(), dist);

  ASSERT_EQ(clean.entries.size(), 2u);
  ASSERT_EQ(killed.entries.size(), 2u);
  const auto& survivor = killed.entries[1];
  EXPECT_EQ(survivor.rank, 2u);
  EXPECT_GE(survivor.world_rebuilds, 1u);
  EXPECT_GT(survivor.metrics.jobs, clean.entries[1].metrics.jobs);
  EXPECT_GT(survivor.metrics.frames, clean.entries[1].metrics.frames);
}

}  // namespace
}  // namespace tulkun::eval

int main(int argc, char** argv) {
  // Forked device-process re-exec path: runs the device role to completion.
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
