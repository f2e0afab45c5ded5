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

}  // namespace
}  // namespace tulkun::eval

int main(int argc, char** argv) {
  // Forked device-process re-exec path: runs the device role to completion.
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
