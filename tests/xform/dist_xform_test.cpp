// Rewrite-enabled multi-process differential runs: a coordinator plus
// device processes over Unix-domain sockets, driven by churn streams whose
// inserts carry NAT shifts, tunnel encap/decap pairs and ECMP fan-out,
// must converge to state digests byte-identical to the fault-free
// in-process oracle — including through a mid-run rank kill, and including
// with the xform subsystem switched off (--xform=0 control).
//
// This binary forks/execs itself as the device processes, so it carries a
// custom main() that routes the --tulkun-device-proc re-exec before gtest.
#include <gtest/gtest.h>

#include "net/dist_testutil.hpp"
#include "obs/registry.hpp"
#include "xform/rewrite.hpp"

namespace tulkun::eval {
namespace {

HarnessOptions small_opts() {
  HarnessOptions opts;
  opts.max_destinations = 2;
  return opts;
}

scenario::ChurnProfile xform_churn(std::uint32_t profile,
                                   std::size_t events) {
  scenario::ChurnProfile churn;
  churn.seed = 42;
  churn.events = events;
  churn.xform_profile = profile;
  churn.xform_fraction = 0.5;
  churn.acl_fraction = 0.25;  // multi-field LEC predicates in the stream
  return churn;
}

TEST(DistXformTest, NatProfileUdsThreeProcessesMatchOracle) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  const auto churn = xform_churn(/*NAT edge*/ 1, 6);
  const auto base =
      testutil::sharded_baseline(spec, opts, churn.events, &churn);

  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 3;
  dist.n_updates = churn.events;
  dist.churn = churn;
  const auto res = dist_run(spec, opts, dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.resets, 0u);
  ASSERT_EQ(res.rows.size(), base.rows.size());
  EXPECT_EQ(res.rows, base.rows);
}

TEST(DistXformTest, TunnelProfileSurvivesRankKillByteIdentically) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  const auto churn = xform_churn(/*tunnel core*/ 2, 6);
  const auto base =
      testutil::sharded_baseline(spec, opts, churn.events, &churn);

  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 3;
  dist.n_updates = churn.events;
  dist.churn = churn;
  dist.kills = {{1, 2}};  // rank 1 _exits when phase 2 begins
  const auto res = dist_run(spec, opts, dist);

  // The re-forked rank rebuilt the same rewrite-carrying world and the
  // epoch replay reconverged on it.
  EXPECT_GE(res.resets, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
}

TEST(DistXformTest, EcmpSprayInprocMatchesOracle) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  const auto churn = xform_churn(/*ECMP spray*/ 3, 8);
  const auto base =
      testutil::sharded_baseline(spec, opts, churn.events, &churn);

  DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.device_procs = 2;
  dist.n_updates = churn.events;
  dist.churn = churn;
  const auto res = dist_run(spec, opts, dist);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
}

TEST(DistXformTest, KillSwitchPropagatesToDeviceProcesses) {
  // --xform=0 control: the coordinator's process-global switch must reach
  // every forked rank (spawn_child mirrors it into argv), or rank worlds
  // would disagree with the oracle the moment the box index diverges.
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  const auto churn = xform_churn(/*no shaping*/ 0, 5);

  xform::set_xform_enabled(false);
  const auto base =
      testutil::sharded_baseline(spec, opts, churn.events, &churn);
  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 3;
  dist.n_updates = churn.events;
  dist.churn = churn;
  const auto res = dist_run(spec, opts, dist);
  xform::set_xform_enabled(true);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
}

TEST(DistXformTest, GrayAggregatorFallbackCollectsDirect) {
  // A three-level tree (root 0; interior 1,2; leaves 3..6) whose interior
  // rank 1 goes gray: every frame over its links crawls by 300 ms, so a
  // relayed rollup from its subtree takes ~4 gray hops (~1.2 s) — past
  // the collect fallback's 4-miss trigger (~0.75 s cumulative patience)
  // but inside the probe waves' 2 s max window, so phases still
  // terminate (slow-not-DEAD is the scenario). The coordinator must fall
  // back to direct child collection (counted in coord_gray_direct_total)
  // and still converge byte-identically.
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  const auto churn = xform_churn(/*NAT edge*/ 1, 2);
  const auto base =
      testutil::sharded_baseline(spec, opts, churn.events, &churn);

  const std::uint64_t direct_before =
      obs::Registry::instance().counter("coord_gray_direct_total").value();

  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = 6;
  dist.fanout = 2;
  dist.n_updates = churn.events;
  dist.churn = churn;
  dist.chaos.seed = 7;
  dist.chaos.gray_rank = 1;
  dist.chaos.gray_delay_s = 0.3;
  const auto res = dist_run(spec, opts, dist);

  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  const std::uint64_t direct_after =
      obs::Registry::instance().counter("coord_gray_direct_total").value();
  EXPECT_GT(direct_after, direct_before)
      << "the gray-aggregator fallback never fired";
}

}  // namespace
}  // namespace tulkun::eval

int main(int argc, char** argv) {
  // Forked device-process re-exec path: runs the device role to completion.
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
