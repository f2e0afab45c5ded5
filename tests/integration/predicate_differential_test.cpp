// Differential property test for the predicate tiers: drive the same
// random FIB-update stream through two simulators — one on the interval-
// atom fast path, one forced onto the BDD tier — and assert the LoC / CIB
// / out_sent tables and the verdicts are identical after every step.
//
// Both simulators share one PacketSpace, so materialized BDD refs are
// directly comparable (canonical manager), and run with cpu_scale = 0 so
// event ordering is a pure function of posting order. Mid-run the atom
// sim's fast path is switched off for a window and back on, planting
// BDD-born predicates in its state: the demotion guard (atom operands
// falling back to the BDD tier) and the recovery path both get exercised
// under churn, not just in unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "eval/fib_synth.hpp"
#include "pred/atom_set.hpp"
#include "runtime/event_sim.hpp"
#include "scenario/workload.hpp"
#include "spec/builtins.hpp"
#include "topo/generators.hpp"

namespace tulkun {
namespace {

/// Restores the process-global atom switches no matter how the test exits.
struct AtomToggleGuard {
  ~AtomToggleGuard() {
    pred::set_atom_path_enabled(true);
    pred::set_atom_lockstep_check(false);
  }
};

/// Canonicalizes every hosted table of one device (same scheme as the
/// prefix-index differential: dense invariant renumbering + sorted rows).
/// pred.ref() materializes atom-tier sets into the shared manager, where
/// canonicity makes equal functions identical refs.
std::vector<std::string> canonical_tables(verifier::OnDeviceVerifier& v) {
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
        os << "loc|" << prefix << e.pred.ref() << "|" << e.down_pred.ref()
           << "|" << e.action.to_string() << "|" << e.counts.to_string();
        rows.push_back(os.str());
      }
      for (const auto& e : ns.out_sent) {
        std::ostringstream os;
        os << "out|" << prefix << e.pred.ref() << "|" << e.counts.to_string();
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

TEST(DifferentialPredicate, AtomTierMatchesBddTierUnderChurn) {
  AtomToggleGuard guard;
  pred::atom_counters_reset();
  constexpr std::size_t kUpdates = 1000;
  constexpr std::uint64_t kSeed = 17;
  constexpr std::size_t kMaxDestinations = 3;
  // The atom sim runs BDD-only inside this window, planting mixed-tier
  // state that the guard has to demote around once atoms come back on.
  constexpr std::size_t kWindowBegin = 400;
  constexpr std::size_t kWindowEnd = 500;
  // Lockstep-verify the first atom-tier steps op by op (heavy; bounded).
  constexpr std::size_t kLockstepSteps = 50;

  const auto topo = topo::synthetic_wan("w", 8, 13, kSeed);
  auto net = eval::synthesize(topo, eval::SynthOptions{2, 0, kSeed});

  runtime::SimConfig cfg;
  cfg.cpu_scale = 0.0;  // deterministic event ordering across both runs
  runtime::EventSimulator atoms(topo, cfg);
  runtime::EventSimulator bdds(topo, cfg);
  atoms.make_devices(net.space());
  bdds.make_devices(net.space());

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
    for (auto* sim : {&atoms, &bdds}) {
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

  const auto expect_equal = [&](std::size_t step) {
    for (DeviceId d = 0; d < topo.device_count(); ++d) {
      ASSERT_EQ(canonical_tables(atoms.device(d)),
                canonical_tables(bdds.device(d)))
          << "device " << d << " diverged after step " << step;
    }
    ASSERT_EQ(canonical_violations(atoms), canonical_violations(bdds))
        << "verdicts diverged after step " << step;
  };

  double now_atoms = 0.0;
  double now_bdds = 0.0;
  pred::set_atom_path_enabled(true);
  for (DeviceId d = 0; d < topo.device_count(); ++d) {
    atoms.post_initialize(d, net.table(d), now_atoms);
  }
  now_atoms = std::max(now_atoms, atoms.run());
  pred::set_atom_path_enabled(false);
  for (DeviceId d = 0; d < topo.device_count(); ++d) {
    bdds.post_initialize(d, net.table(d), now_bdds);
  }
  now_bdds = std::max(now_bdds, bdds.run());
  expect_equal(0);

  // Both simulators' devices took a copy of the tables at initialization;
  // posting the same recorded stream to both keeps them in lockstep.
  const auto plan = scenario::legacy_plan(topo, kUpdates, kSeed + 1);
  std::vector<std::shared_ptr<const fib::FibUpdate>> handles_atoms(
      plan.steps.size());
  std::vector<std::shared_ptr<const fib::FibUpdate>> handles_bdds(
      plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const auto& step = plan.steps[i];
    const bool in_window = i >= kWindowBegin && i < kWindowEnd;

    auto upd = step.update;
    if (step.erase_of >= 0) {
      upd.rule_id = handles_atoms[step.erase_of]->rule_id;
    }
    pred::set_atom_path_enabled(!in_window);
    pred::set_atom_lockstep_check(i < kLockstepSteps);
    handles_atoms[i] = atoms.post_rule_update(upd.device, upd, now_atoms);
    now_atoms = std::max(now_atoms, atoms.run());
    pred::set_atom_lockstep_check(false);

    upd = step.update;
    if (step.erase_of >= 0) {
      upd.rule_id = handles_bdds[step.erase_of]->rule_id;
    }
    pred::set_atom_path_enabled(false);
    handles_bdds[i] = bdds.post_rule_update(upd.device, upd, now_bdds);
    now_bdds = std::max(now_bdds, bdds.run());

    expect_equal(i + 1);
  }

  // Sanity: both tiers and both guard directions actually ran.
  const auto c = pred::atom_counters_snapshot();
  EXPECT_GT(c.atom_hits, 0u);         // fast path taken
  EXPECT_GT(c.bdd_fallbacks, 0u);     // BDD tier taken (reference sim + window)
  EXPECT_GT(c.demotions, 0u);         // atom operands hit the fallback
  EXPECT_GT(c.materializations, 0u);  // lazy atom -> BDD crossings happened

  // Promotion recovers the interval form of a BDD-born dst-only predicate.
  // TEST-NET-3: guaranteed absent from the workload, so this exact BDD has
  // never been through the (memoized) promote path before.
  pred::set_atom_path_enabled(false);
  const auto bdd_born =
      net.space().dst_prefix(packet::Ipv4Prefix::parse("203.0.113.0/29"));
  ASSERT_EQ(bdd_born.atom_ref(), pred::kNoAtom);
  pred::set_atom_path_enabled(true);
  const auto promoted = net.space().wrap(bdd_born.ref());
  EXPECT_NE(promoted.atom_ref(), pred::kNoAtom);
  EXPECT_GT(pred::atom_counters_snapshot().promotions, c.promotions);
}

}  // namespace
}  // namespace tulkun
