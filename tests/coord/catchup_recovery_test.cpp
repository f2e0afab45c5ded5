// Snapshot catch-up recovery differential: a forked UDS run with a
// 3-level tree (P=6, fanout=2) kills both an aggregator (rank 1) and a
// leaf (rank 5) mid-run under light transport chaos. In Catchup mode the
// reborn ranks must rejoin from an ancestor's digest snapshot plus the
// survivors' send-log replay — survivors never rebuild their worlds — and
// the converged digest must stay byte-identical to the in-process
// ShardedRuntime replay and to Legacy whole-run recovery. A star run whose
// ranks collect their BDD spaces checks that a reborn rank's replay holds
// up among survivors that already collected.
//
// This binary forks/execs itself as the device processes, so it carries a
// custom main() that routes the --tulkun-device-proc re-exec before gtest.
#include <gtest/gtest.h>

#include "net/dist_testutil.hpp"

namespace tulkun::eval {
namespace {

HarnessOptions small_opts() {
  HarnessOptions opts;
  opts.max_destinations = 2;
  return opts;
}

DistOptions tree_kill_run(std::size_t updates) {
  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 6;
  dist.n_updates = updates;
  dist.fanout = 2;
  // Collect after every phase so the aggregator mirrors and the root store
  // hold snapshot rows by the time the kills land.
  dist.collect_every_phase = true;
  dist.kills.push_back({1, 2});  // aggregator, Begin(phase 2)
  dist.kills.push_back({5, 3});  // leaf, Begin(phase 3)
  return dist;
}

TEST(CatchupRecoveryTest, AggregatorAndLeafKillsConvergeFromSnapshots) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 5;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  auto dist = tree_kill_run(kUpdates);
  dist.recovery = runtime::RecoveryMode::Catchup;
  dist.anchor_every = 0;  // deltas between anchors; snapshots still full
  dist.chaos.loss = 0.02;
  dist.chaos.dup = 0.02;
  const auto res = dist_run(spec, opts, dist);

  EXPECT_GE(res.resets, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);

  ASSERT_EQ(res.entries.size(), 6u);
  for (const auto& e : res.entries) {
    // Catch-up never rebuilds anybody's world: survivors keep theirs and a
    // reborn process's initial build doesn't count as a rebuild.
    EXPECT_EQ(e.world_rebuilds, 0u) << "rank " << e.rank;
    if (e.rank == 1 || e.rank == 5) {
      EXPECT_GT(e.snapshot_rows_adopted, 0u) << "rank " << e.rank;
    } else {
      EXPECT_EQ(e.snapshot_rows_adopted, 0u) << "rank " << e.rank;
    }
  }
}

TEST(CatchupRecoveryTest, RebornRankReplaysAmongCollectingSurvivors) {
  // Every rank collects its device spaces; the reborn rank replays its
  // phases from the wire-form rules after the survivors have collected.
  const auto& spec = dataset("INet2");
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, small_opts(), kUpdates);

  const testutil::AtomsOff atoms_off;
  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 3;
  dist.n_updates = kUpdates;
  dist.recovery = runtime::RecoveryMode::Catchup;
  dist.kills = {{1, 2}};  // rank 1 _exits when phase 2 begins
  const auto res = dist_run(spec, testutil::collecting(small_opts()), dist);

  EXPECT_GE(res.resets, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  EXPECT_GT(res.metrics.gc_runs, 0u);
}

TEST(CatchupRecoveryTest, LegacyAndCatchupAgreeByteForByte) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 5;

  auto legacy = tree_kill_run(kUpdates);
  legacy.recovery = runtime::RecoveryMode::Legacy;
  const auto legacy_res = dist_run(spec, opts, legacy);

  auto catchup = tree_kill_run(kUpdates);
  catchup.recovery = runtime::RecoveryMode::Catchup;
  const auto catchup_res = dist_run(spec, opts, catchup);

  EXPECT_GE(legacy_res.resets, 1u);
  EXPECT_GE(catchup_res.resets, 1u);
  EXPECT_EQ(catchup_res.rows, legacy_res.rows);
  EXPECT_EQ(catchup_res.violations, legacy_res.violations);

  // Legacy replays everyone: the killed ranks' survivors rebuilt at least
  // once, which is exactly the cost catch-up exists to avoid.
  std::uint64_t legacy_rebuilds = 0;
  for (const auto& e : legacy_res.entries) legacy_rebuilds += e.world_rebuilds;
  EXPECT_GT(legacy_rebuilds, 0u);
}

}  // namespace
}  // namespace tulkun::eval

int main(int argc, char** argv) {
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
