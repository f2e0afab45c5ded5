// Shared baseline for the distributed differential tests: drive a plain
// in-process ShardedRuntime through exactly the world every distributed
// process rebuilds locally, and digest the converged state.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "eval/dist_run.hpp"
#include "obs/registry.hpp"
#include "pred/atom_set.hpp"
#include "scenario/soak.hpp"

namespace tulkun::eval::testutil {

struct ShardedBaseline {
  std::vector<std::string> rows;
  std::uint64_t violations = 0;
};

/// Thin wrapper over the library-side oracle (scenario::oracle_digest):
/// the soak runner and these tests must judge convergence against the
/// exact same replay, or a soak pass would prove nothing.
inline ShardedBaseline sharded_baseline(
    const DatasetSpec& spec, const HarnessOptions& opts,
    std::size_t n_updates, const scenario::ChurnProfile* churn = nullptr) {
  Harness harness(spec, opts);
  auto digest = scenario::oracle_digest(harness, n_updates, churn);
  return ShardedBaseline{std::move(digest.rows), digest.violations};
}

/// Turns the atom tier off for one scope, so dst-only predicates build BDD
/// nodes for collections to find and ship as blobs. Forked ranks inherit
/// the setting through the launcher.
struct AtomsOff {
  bool was = pred::atom_path_enabled();
  AtomsOff() { pred::set_atom_path_enabled(false); }
  ~AtomsOff() { pred::set_atom_path_enabled(was); }
};

/// Relayed probe waves the coordinator in this process sends during a
/// run's update phases. Construct before dist_run, read after. The burst
/// is left out: it spans the ranks' world builds, which waves poll at the
/// fallback interval however quiescence is detected.
class UpdateWaves {
 public:
  explicit UpdateWaves(DistOptions& dist) {
    dist.hooks.on_phase = [this](std::size_t phase,
                                 const runtime::DistCoordinator::PhaseOutcome&) {
      if (phase == 0) after_burst_ = sent();
    };
  }
  [[nodiscard]] std::uint64_t count() const { return sent() - after_burst_; }

 private:
  static std::uint64_t sent() {
    return obs::Registry::instance().counter("coord_probe_waves").value();
  }
  std::uint64_t after_burst_ = 0;
};

/// Options whose ranks collect their BDD spaces far below steady state.
inline HarnessOptions collecting(HarnessOptions opts) {
  opts.engine.bdd_gc_node_threshold = 64;
  return opts;
}

}  // namespace tulkun::eval::testutil
