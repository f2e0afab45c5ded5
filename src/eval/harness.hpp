// Evaluation harness: runs Tulkun and the centralized baselines on one
// dataset under the paper's scenarios (§9.2-§9.4) and collects the rows
// the figures report.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "baseline/centralized.hpp"
#include "eval/datasets.hpp"
#include "eval/workload.hpp"
#include "planner/planner.hpp"
#include "runtime/distributed.hpp"
#include "runtime/event_sim.hpp"
#include "scenario/workload.hpp"

namespace tulkun::eval {

struct HarnessOptions {
  /// WAN/LAN invariant: (<= shortest + slack)-hop loop-free, blackhole-free
  /// all-pair reachability (§9.2). DC datasets use (== shortest).
  std::uint32_t slack = 2;
  std::uint32_t ecmp_width = 2;
  std::uint64_t seed = 42;
  double cpu_scale = 1.0;
  /// Baseline auxiliary-memory budget: beyond it a tool reports memory-out
  /// (reproduces Delta-net's NGDC behaviour at our scale).
  std::size_t memory_budget = 1ull << 31;
  /// Bound per-dataset work: verify at most this many destination devices
  /// (0 = all). The same sample drives every tool.
  std::size_t max_destinations = 0;
  /// Fraction of incremental inserts that are Drop-class (blackhole a
  /// random prefix): a /0-hull workload profile the destination-hull index
  /// cannot prune. See scenario::legacy_plan.
  double drop_fraction = 0.0;
  /// Per-device engine knobs, forwarded to the simulator's verifiers and
  /// to the sharded runtime (whose pool size is engine.runtime_shards).
  dvm::EngineConfig engine;
  /// Planning concurrency for plan_all (PlanService workers, including the
  /// calling thread; 1 = serial, 0 = one per hardware thread). Output is
  /// byte-identical across worker counts.
  std::size_t plan_workers = 1;
  /// PlanService incremental mode (false replans everything per commit;
  /// the plans of one batch commit are identical either way).
  bool plan_incremental = true;
};

/// The §9.4 switch models, expressed as CPU slowdown factors relative to
/// the host (x86 Mellanox/UfiSpace/Edgecore; ARM Centec is the slowest).
struct SwitchProfile {
  std::string name;
  double cpu_scale;
};
[[nodiscard]] const std::vector<SwitchProfile>& switch_profiles();

class Harness {
 public:
  Harness(DatasetSpec spec, HarnessOptions opts);

  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const HarnessOptions& options() const { return opts_; }
  [[nodiscard]] std::size_t total_rules();
  [[nodiscard]] const std::vector<DeviceId>& destinations() const {
    return dsts_;
  }

  struct ToolRow {
    std::string tool;
    double burst_seconds = 0.0;
    bool memory_out = false;
    std::size_t violations = 0;
    Samples incremental_seconds;
  };
  struct Result {
    std::string dataset;
    std::size_t devices = 0;
    std::size_t links = 0;
    std::size_t rules = 0;
    double tulkun_plan_seconds = 0.0;
    std::vector<ToolRow> rows;  // Tulkun first, then baselines
  };

  /// Figure 11: burst verification, then `n_updates` incremental updates.
  Result run(bool with_baselines, std::size_t n_updates);

  struct FaultToolRow {
    std::string tool;
    Samples scene_seconds;        // Fig 12a: verify whole net per scene
    Samples incremental_seconds;  // Fig 12b/c: updates under scenes
  };
  struct FaultResult {
    std::string dataset;
    std::size_t scenes = 0;
    double tulkun_plan_seconds = 0.0;
    std::vector<FaultToolRow> rows;
  };

  /// Figure 12: `n_scenes` sampled fault scenes (<= 3 links), each with
  /// `updates_per_scene` incremental updates.
  FaultResult run_faults(std::size_t n_scenes, std::size_t updates_per_scene,
                         bool with_baselines);

  struct DeviceOverhead {
    Samples init_seconds;    // Fig 14: per-device initialization time
    Samples init_memory;     // bytes
    Samples init_cpu;        // CPU load in [0,1]
    Samples msg_seconds;     // Fig 15: per-device total msg processing
    Samples msg_memory;
    Samples msg_cpu;
    Samples per_message_seconds;
  };
  /// Figures 14/15: replays initialization and the DVM message trace,
  /// measuring per-device cost under one switch profile.
  DeviceOverhead measure_overhead(const SwitchProfile& profile,
                                  std::size_t n_updates);

  /// All §9.4 switch profiles from ONE host measurement: every profile is
  /// a pure CPU slowdown factor, so durations are measured once at host
  /// speed and scaled per profile (4x cheaper than four measured runs).
  std::vector<std::pair<SwitchProfile, DeviceOverhead>> measure_overhead_all(
      std::size_t n_updates);

  struct DistributedRun {
    double burst_wall_seconds = 0.0;     // wall clock, not virtual time
    Samples incremental_wall_seconds;
    std::size_t violations = 0;
    std::size_t shards = 0;
    runtime::RuntimeMetrics metrics;
  };
  /// Replays the Figure 11 scenario on the sharded worker-pool runtime
  /// (wall-clock; opts.engine.runtime_shards selects the pool size).
  DistributedRun run_distributed(std::size_t n_updates);

  /// Deterministic world constructor for the multi-process
  /// DistributedRuntime: plans, initial FIBs and the update stream, all
  /// derived from this harness's dataset + options. Every process in a
  /// distributed run calls an identical builder and obtains an equivalent
  /// world (same plan order, same rule ids, same update steps), which is
  /// what makes epoch-replay recovery sound. The builder outlives `this`
  /// only if the Harness does; keep the Harness alive for the run.
  ///
  /// `churn` selects the scenario:: churn generator for the update stream
  /// (its events count is overridden by n_updates when n_updates != 0);
  /// nullptr keeps the default scenario::legacy_plan stream.
  [[nodiscard]] runtime::WorldBuilder world_builder(
      std::size_t n_updates, const scenario::ChurnProfile* churn = nullptr);

  /// The update stream every replay path drains: the churn generator when
  /// `churn` is set, else the legacy stream (seed + 1, like always).
  [[nodiscard]] UpdatePlan update_plan(
      std::size_t n_updates, double drop_fraction = 0.0,
      const scenario::ChurnProfile* churn = nullptr) const;

  /// Figure 13: planner latency to compute the k-link-failure tolerant
  /// DPVNets. Returns (seconds, scenes, capped?).
  struct PlanLatency {
    double seconds = 0.0;
    std::size_t scenes = 0;
    bool capped = false;
  };
  PlanLatency plan_latency(std::uint32_t k, std::size_t max_scenes);

 private:
  /// Per-destination invariant: all prefix-owning ingresses, regex
  /// `.* <dst>`, loop-free, the dataset's length filter.
  [[nodiscard]] spec::Invariant dst_invariant(packet::PacketSpace& space,
                                              DeviceId dst) const;
  /// Plans every destination invariant through a PlanService (parallel
  /// when opts_.plan_workers != 1; plans are identical regardless).
  [[nodiscard]] std::vector<planner::InvariantPlan> plan_all(
      packet::PacketSpace& space, const spec::FaultSpec& faults,
      double* seconds) const;

  struct TulkunRun {
    std::unique_ptr<packet::PacketSpace> space;
    std::unique_ptr<runtime::EventSimulator> sim;
    double burst_seconds = 0.0;
    double plan_seconds = 0.0;
    double now = 0.0;  // virtual time reached
  };
  TulkunRun start_tulkun(const spec::FaultSpec& faults);

  /// The measurement behind measure_overhead*: host CPU speed (scale 1).
  DeviceOverhead measure_overhead_host(std::size_t n_updates);

  DatasetSpec spec_;
  HarnessOptions opts_;
  topo::Topology topo_;
  std::vector<DeviceId> dsts_;
  std::optional<std::size_t> rules_cache_;
  /// world_builder cache, keyed by (n_updates, churn profile): an inproc
  /// distributed run calls the builder once per rank, and planning the
  /// world P times over is pure waste — every call is deterministic and
  /// returns an equivalent world. The cached world carries a localize_mu
  /// so concurrent ranks serialize their build-time reads of the shared
  /// spaces (see DistWorld). Entries live as long as the Harness.
  std::mutex world_cache_mu_;
  std::map<std::string, runtime::DistWorld> world_cache_;
};

}  // namespace tulkun::eval
