// Differential property test for the prefix-indexed hot path: drive the
// same random FIB-update stream through two simulators — one with the
// destination index enabled, one forced onto the linear full-scan path —
// and assert the LoC / CIB / out_sent tables and the verdicts are
// identical after every step.
//
// Both simulators share one PacketSpace, so BDD refs are directly
// comparable, and run with cpu_scale = 0 so event ordering is a pure
// function of posting order (identical across the two runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "eval/fib_synth.hpp"
#include "fib/prefix_index.hpp"
#include "runtime/event_sim.hpp"
#include "scenario/workload.hpp"
#include "spec/builtins.hpp"
#include "topo/generators.hpp"

namespace tulkun {
namespace {

/// Restores the process-global index toggle no matter how the test exits.
struct IndexToggleGuard {
  ~IndexToggleGuard() { fib::set_prefix_index_enabled(true); }
};

/// Canonicalizes every hosted table of one device: the tables hold
/// disjoint predicates, so sorting rows makes the unspecified iteration
/// order irrelevant.
std::vector<std::string> canonical_tables(verifier::OnDeviceVerifier& v) {
  // Invariant ids are assigned by a global counter, so the two simulators
  // see different raw ids for the same invariant; renumber them densely
  // (installation order matches across the two sims).
  const auto snapshots = v.engine_snapshots();
  std::vector<InvariantId> ids;
  for (const auto& [raw, nodes] : snapshots) ids.push_back(raw);
  std::sort(ids.begin(), ids.end());
  const auto dense = [&](InvariantId raw) {
    return std::lower_bound(ids.begin(), ids.end(), raw) - ids.begin();
  };

  std::vector<std::string> rows;
  for (const auto& [raw_inv, nodes] : snapshots) {
    const auto inv = dense(raw_inv);
    for (const auto& ns : nodes) {
      std::ostringstream node_key;
      node_key << inv << "|" << ns.id << "|";
      const std::string prefix = node_key.str();
      for (const auto& e : ns.loc) {
        std::ostringstream os;
        os << "loc|" << prefix << e.pred.ref() << "|"
           << e.down_pred.ref() << "|" << e.action.to_string() << "|"
           << e.counts.to_string();
        rows.push_back(os.str());
      }
      for (const auto& e : ns.out_sent) {
        std::ostringstream os;
        os << "out|" << prefix << e.pred.ref() << "|"
           << e.counts.to_string();
        rows.push_back(os.str());
      }
      for (const auto& [down, entries] : ns.cib_in) {
        for (const auto& e : entries) {
          std::ostringstream os;
          os << "cib|" << prefix << down << "|" << e.pred.ref() << "|"
             << e.counts.to_string();
          rows.push_back(os.str());
        }
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> canonical_violations(
    const runtime::EventSimulator& sim) {
  // Same dense renumbering as canonical_tables: raw invariant ids differ
  // between the sims, but they are monotone in (shared) install order.
  const auto violations = sim.violations();
  std::vector<InvariantId> ids;
  for (const auto& v : violations) ids.push_back(v.invariant);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  std::vector<std::string> rows;
  for (const auto& v : violations) {
    std::ostringstream os;
    os << (std::lower_bound(ids.begin(), ids.end(), v.invariant) -
           ids.begin())
       << "|" << v.device << "|" << v.node << "|" << v.pred.ref() << "|"
       << v.counts.to_string() << "|" << v.reason;
    rows.push_back(os.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(DifferentialIndex, IndexedMatchesLinearScanUnderChurn) {
  IndexToggleGuard guard;
  fib::index_counters_reset();
  constexpr std::size_t kUpdates = 1000;
  constexpr std::uint64_t kSeed = 11;
  constexpr std::size_t kMaxDestinations = 3;

  const auto topo = topo::synthetic_wan("w", 8, 13, kSeed);
  auto net = eval::synthesize(topo, eval::SynthOptions{2, 0, kSeed});

  runtime::SimConfig cfg;
  cfg.cpu_scale = 0.0;  // deterministic event ordering across both runs
  runtime::EventSimulator indexed(topo, cfg);
  runtime::EventSimulator linear(topo, cfg);
  indexed.make_devices(net.space());
  linear.make_devices(net.space());

  planner::Planner planner(topo, net.space());
  spec::Builtins b(topo, net.space());
  std::size_t destinations = 0;
  for (DeviceId dst = 0;
       dst < topo.device_count() && destinations < kMaxDestinations; ++dst) {
    if (topo.prefixes(dst).empty()) continue;
    ++destinations;
    auto space = net.space().none();
    for (const auto& p : topo.prefixes(dst)) {
      space |= net.space().dst_prefix(p);
    }
    std::vector<DeviceId> ingresses;
    for (DeviceId d = 0; d < topo.device_count(); ++d) {
      if (d != dst && !topo.prefixes(d).empty()) ingresses.push_back(d);
    }
    for (auto* sim : {&indexed, &linear}) {
      auto inv = b.multi_ingress_reachability(space, ingresses, dst);
      spec::LengthFilter f;
      f.cmp = spec::LengthFilter::Cmp::Le;
      f.base = spec::LengthFilter::Base::Shortest;
      f.offset = 2;
      inv.behavior.path.filters.push_back(f);
      sim->install(planner.plan(std::move(inv)));
    }
  }
  ASSERT_GT(destinations, 0u);

  const auto run_step =
      [&](runtime::EventSimulator& sim, bool enable, double& now,
          const fib::FibUpdate* upd) {
        fib::set_prefix_index_enabled(enable);
        if (upd == nullptr) {
          for (DeviceId d = 0; d < topo.device_count(); ++d) {
            sim.post_initialize(d, net.table(d), now);
          }
        }
        if (upd != nullptr) sim.post_rule_update(upd->device, *upd, now);
        now = std::max(now, sim.run());
      };
  const auto expect_equal = [&](std::size_t step) {
    for (DeviceId d = 0; d < topo.device_count(); ++d) {
      ASSERT_EQ(canonical_tables(indexed.device(d)),
                canonical_tables(linear.device(d)))
          << "device " << d << " diverged after step " << step;
    }
    ASSERT_EQ(canonical_violations(indexed), canonical_violations(linear))
        << "verdicts diverged after step " << step;
  };

  double now_indexed = 0.0;
  double now_linear = 0.0;
  run_step(indexed, /*enable=*/true, now_indexed, nullptr);
  run_step(linear, /*enable=*/false, now_linear, nullptr);
  expect_equal(0);

  // Both simulators' devices took a copy of the tables at initialization;
  // posting the same recorded stream to both keeps them in lockstep.
  const auto plan = scenario::legacy_plan(topo, kUpdates, kSeed + 1);
  std::vector<std::shared_ptr<const fib::FibUpdate>> handles_indexed(
      plan.steps.size());
  std::vector<std::shared_ptr<const fib::FibUpdate>> handles_linear(
      plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const auto& step = plan.steps[i];

    auto upd = step.update;
    if (step.erase_of >= 0) {
      upd.rule_id = handles_indexed[step.erase_of]->rule_id;
    }
    fib::set_prefix_index_enabled(true);
    handles_indexed[i] =
        indexed.post_rule_update(upd.device, upd, now_indexed);
    now_indexed = std::max(now_indexed, indexed.run());

    upd = step.update;
    if (step.erase_of >= 0) {
      upd.rule_id = handles_linear[step.erase_of]->rule_id;
    }
    fib::set_prefix_index_enabled(false);
    handles_linear[i] = linear.post_rule_update(upd.device, upd, now_linear);
    now_linear = std::max(now_linear, linear.run());

    expect_equal(i + 1);
  }

  // Sanity: the indexed run actually exercised the index (queries landed
  // on the pruned path, not the full-scan fallback).
  const auto counters = fib::index_counters_snapshot();
  std::uint64_t pruned_queries = 0;
  for (const auto& c : counters) pruned_queries += c.queries - c.full_scans;
  EXPECT_GT(pruned_queries, 0u);
}

}  // namespace
}  // namespace tulkun
