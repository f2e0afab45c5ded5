#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "eval/report.hpp"
#include "eval/workload.hpp"
#include "scenario/workload.hpp"
#include "topo/generators.hpp"

namespace tulkun::eval {
namespace {

TEST(Datasets, RegistryHasThirteen) {
  const auto& all = all_datasets();
  ASSERT_EQ(all.size(), 13u);
  EXPECT_EQ(all.front().name, "INet2");
  EXPECT_EQ(all.back().name, "NGDC");
  EXPECT_THROW((void)dataset("nope"), Error);
  EXPECT_EQ(dataset("FT-48").kind, "DC");
  EXPECT_EQ(wan_lan_datasets().size(), 11u);
}

TEST(Datasets, TopologiesBuildWithPublishedShapes) {
  const auto& inet2 = dataset("INet2");
  const auto t = build_topology(inet2);
  EXPECT_EQ(t.device_count(), 9u);
  EXPECT_EQ(t.link_count(), 13u);

  const auto ft = build_topology(dataset("FT-48"));
  EXPECT_EQ(ft.device_count(), 80u);  // scaled k=8
}

TEST(Datasets, RuleCountSensitivityPairs) {
  HarnessOptions opts;
  Harness a1(dataset("AT1-1"), opts);
  Harness a2(dataset("AT1-2"), opts);
  // Same topology...
  EXPECT_EQ(a1.topology().device_count(), a2.topology().device_count());
  EXPECT_EQ(a1.topology().link_count(), a2.topology().link_count());
  // ...but AT1-2 carries several times the rules.
  EXPECT_GT(a2.total_rules(), a1.total_rules() * 3);
}

TEST(FibSynth, EveryPairRoutedAndDelivered) {
  const auto t = build_topology(dataset("INet2"));
  const auto net = synthesize(t, SynthOptions{2, 0, 1});
  // Every device has one rule per destination prefix in the network.
  const std::size_t total_prefixes = t.all_prefix_attachments().size();
  for (DeviceId d = 0; d < t.device_count(); ++d) {
    EXPECT_EQ(net.table(d).size(), total_prefixes);
  }
  // Delivery rule at each owner.
  for (const auto& [dev, prefix] : t.all_prefix_attachments()) {
    bool delivers = false;
    for (const auto* r : net.table(dev).all()) {
      if (r->dst_prefix == prefix &&
          r->action.forwards_to(fib::kExternalPort)) {
        delivers = true;
      }
    }
    EXPECT_TRUE(delivers);
  }
}

TEST(FibSynth, EcmpWidthRespected) {
  const auto t = topo::fat_tree(4);
  const auto net = synthesize(t, SynthOptions{2, 0, 1});
  for (DeviceId d = 0; d < t.device_count(); ++d) {
    for (const auto* r : net.table(d).all()) {
      EXPECT_LE(r->action.next_hops.size(), 2u);
      if (r->action.next_hops.size() > 1) {
        EXPECT_EQ(r->action.type, fib::ActionType::Any);
      }
    }
  }
}

TEST(FibSynth, ExtraRulesInflateCount) {
  const auto t = build_topology(dataset("INet2"));
  const auto base = synthesize(t, SynthOptions{2, 0, 1});
  const auto fat = synthesize(t, SynthOptions{2, 3, 1});
  EXPECT_GT(fat.total_rules(), base.total_rules() * 3);
}

TEST(Workload, RandomUpdatesBalanced) {
  const auto t = build_topology(dataset("INet2"));
  const auto plan = scenario::legacy_plan(t, 100, 5);
  ASSERT_EQ(plan.steps.size(), 100u);
  std::size_t erases = 0;
  for (const auto& s : plan.steps) {
    if (s.update.kind == fib::FibUpdate::Kind::Erase) {
      ++erases;
      ASSERT_GE(s.erase_of, 0);
      EXPECT_EQ(plan.steps[static_cast<std::size_t>(s.erase_of)]
                    .update.kind,
                fib::FibUpdate::Kind::Insert);
    }
  }
  EXPECT_GT(erases, 10u);
  EXPECT_LT(erases, 90u);
}

TEST(Workload, UpdatesReplayCleanly) {
  const auto t = build_topology(dataset("INet2"));
  auto net = synthesize(t, SynthOptions{2, 0, 1});
  auto plan = scenario::legacy_plan(t, 60, 6);
  std::vector<std::uint64_t> ids(plan.steps.size(), 0);
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    auto upd = plan.steps[i].update;
    if (plan.steps[i].erase_of >= 0) {
      upd.rule_id = ids[static_cast<std::size_t>(plan.steps[i].erase_of)];
    }
    (void)fib::apply_update(net, upd);
    ids[i] = upd.rule_id;
  }
  SUCCEED();
}

TEST(Workload, FaultScenesSizedAndSubsetsClosed) {
  const auto t = build_topology(dataset("B4-13"));
  const auto scenes = sample_fault_scenes(t, 20, 3, 9);
  EXPECT_LE(scenes.size(), 20u);
  for (const auto& s : scenes) {
    EXPECT_GE(s.failed.size(), 1u);
    EXPECT_LE(s.failed.size(), 3u);
  }
  const auto closed = with_subsets(scenes);
  for (const auto& s : closed) {
    for (std::size_t mask_size = 1; mask_size < s.failed.size();
         ++mask_size) {
      // Each strict subset must be present.
      // (Spot-check single-link subsets.)
      for (const auto& link : s.failed) {
        const auto single = spec::FaultScene::of({link});
        EXPECT_NE(std::find(closed.begin(), closed.end(), single),
                  closed.end());
      }
    }
  }
}

TEST(Harness, SmallDatasetRunsToolRows) {
  HarnessOptions opts;
  opts.max_destinations = 3;
  Harness h(dataset("INet2"), opts);
  const auto result = h.run(/*with_baselines=*/true, /*n_updates=*/10);
  ASSERT_EQ(result.rows.size(), 6u);  // Tulkun + 5 baselines
  EXPECT_EQ(result.rows[0].tool, "Tulkun");
  for (const auto& row : result.rows) {
    EXPECT_GT(row.burst_seconds, 0.0) << row.tool;
    EXPECT_EQ(row.violations, 0u) << row.tool;  // clean plane
    if (!row.memory_out) {
      EXPECT_EQ(row.incremental_seconds.size(), 10u) << row.tool;
    }
  }
}

TEST(Harness, FaultRunProducesScenes) {
  HarnessOptions opts;
  opts.max_destinations = 2;
  Harness h(dataset("INet2"), opts);
  const auto result = h.run_faults(/*n_scenes=*/3, /*updates_per_scene=*/3,
                                   /*with_baselines=*/false);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].scene_seconds.size(), result.scenes);
  EXPECT_EQ(result.rows[0].incremental_seconds.size(), 3u * result.scenes);
}

TEST(Harness, PlanLatencyGrowsWithK) {
  HarnessOptions opts;
  opts.max_destinations = 2;
  Harness h(dataset("INet2"), opts);
  const auto k0 = h.plan_latency(0, 512);
  const auto k1 = h.plan_latency(1, 512);
  EXPECT_EQ(k0.scenes, 1u);
  EXPECT_GT(k1.scenes, k0.scenes);
  EXPECT_GT(k1.seconds, 0.0);
}

TEST(Harness, OverheadCdfsPopulated) {
  HarnessOptions opts;
  opts.max_destinations = 2;
  Harness h(dataset("INet2"), opts);
  const auto oh = h.measure_overhead(switch_profiles().front(), 5);
  EXPECT_EQ(oh.init_seconds.size(), h.topology().device_count());
  EXPECT_EQ(oh.init_memory.size(), h.topology().device_count());
  EXPECT_EQ(oh.msg_seconds.size(), h.topology().device_count());
  EXPECT_GT(oh.per_message_seconds.size(), 0u);
  // CPU loads are valid fractions.
  EXPECT_LE(oh.init_cpu.max(), 1.0);
  EXPECT_GE(oh.init_cpu.min(), 0.0);
}

TEST(Report, PrintersProduceTables) {
  HarnessOptions opts;
  opts.max_destinations = 2;
  Harness h(dataset("INet2"), opts);
  std::vector<Harness::Result> results{h.run(false, 5)};
  std::ostringstream os;
  print_burst_table(os, results);
  print_under_threshold_table(os, results, 0.010);
  print_quantile_table(os, results, 0.80);
  const auto text = os.str();
  EXPECT_NE(text.find("Figure 11a"), std::string::npos);
  EXPECT_NE(text.find("INet2"), std::string::npos);
  EXPECT_NE(text.find("Tulkun"), std::string::npos);
}

TEST(Report, CdfPrinter) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i * 1e-3);
  std::ostringstream os;
  print_cdf(os, "test", s, true);
  EXPECT_NE(os.str().find("p80="), std::string::npos);
  EXPECT_NE(os.str().find("p100="), std::string::npos);
}

}  // namespace
}  // namespace tulkun::eval
