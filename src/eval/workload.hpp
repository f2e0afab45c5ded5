// Incremental-update plans and fault-scene workload generators (§9.2,
// §9.3.3, §9.3.4). The update streams themselves come from src/scenario/
// (scenario::legacy_plan and scenario::ChurnGenerator).
#pragma once

#include "eval/fib_synth.hpp"
#include "spec/ast.hpp"

namespace tulkun::eval {

/// A scripted stream of FIB updates.
struct UpdatePlan {
  /// The update stream in application order. Erase entries reference the
  /// i-th insert via `erase_of` (resolved to rule ids as inserts happen).
  struct Step {
    fib::FibUpdate update;
    std::int32_t erase_of = -1;  // >= 0: erase the rule of that insert step
  };
  std::vector<Step> steps;
};

/// Samples `count` fault scenes with 1..max_links failed links (the paper
/// samples 50 scenes of <= 3 links from Microsoft WAN failure statistics).
[[nodiscard]] std::vector<spec::FaultScene> sample_fault_scenes(
    const topo::Topology& topo, std::size_t count, std::uint32_t max_links,
    std::uint64_t seed);

/// Adds every non-empty subset of each scene (deduplicated), so that links
/// failing one at a time always land on a precomputed scene.
[[nodiscard]] std::vector<spec::FaultScene> with_subsets(
    const std::vector<spec::FaultScene>& scenes);

}  // namespace tulkun::eval
