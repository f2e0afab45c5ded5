// The per-device DVM engine: executes this device's counting tasks for one
// invariant, maintains its CIBs, and produces the UPDATE/SUBSCRIBE messages
// mandated by the protocol (§5).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dpvnet/dpvnet.hpp"
#include "dvm/cib.hpp"
#include "fib/lec.hpp"
#include "spec/ast.hpp"

namespace tulkun::dvm {

/// A detected data-plane error.
struct Violation {
  InvariantId invariant = 0;
  DeviceId device = kNoDevice;
  NodeId node = kNoNode;
  packet::PacketSet pred;
  count::CountSet counts;  // empty for local-contract violations
  std::string reason;
};

struct EngineConfig {
  /// Apply Proposition 1 minimal counting information to outgoing results
  /// (ablation toggle for bench_mincount).
  bool minimize_counting_info = true;
  /// Worker-pool size of runtime::ShardedRuntime (0 = one worker per
  /// hardware thread). Ignored by the engines themselves; carried here so
  /// one config object travels from CLI/env through harness to runtime.
  std::size_t runtime_shards = 0;
  /// When nonzero, runtime::ShardedRuntime mark/sweep-collects a device's
  /// BDD space whenever its live-node count crosses this threshold
  /// (0 = never). Ignored by EventSimulator, whose spaces are shared with
  /// the caller and therefore have roots the runtime cannot enumerate.
  std::size_t bdd_gc_node_threshold = 0;
};

struct EngineStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t subscribes_sent = 0;
  std::uint64_t entries_recomputed = 0;
  /// Wall time in the LocCIB recompute step (subtract + re-derive).
  double recompute_seconds = 0.0;
  /// Wall time building/diffing CIBOut and emitting UPDATEs.
  double emit_seconds = 0.0;
};

/// All DVM state of one device for one invariant. The runtime owns one
/// DeviceEngine per (device, invariant) pair, feeds it events, and ships
/// the returned envelopes to neighbor devices.
class DeviceEngine {
 public:
  DeviceEngine(DeviceId dev, const dpvnet::DpvNet& dag,
               const spec::Invariant& inv, InvariantId inv_id,
               packet::PacketSpace& space, EngineConfig cfg = {});

  /// True when this device hosts at least one DPVNet node or ingress.
  [[nodiscard]] bool participates() const {
    return !nodes_.empty() || is_source_device_;
  }

  /// Installs/replaces the device's LEC table (initialization / burst
  /// update). Returns protocol messages to transmit.
  std::vector<Envelope> set_lec(fib::LecTable lec);

  /// Applies incremental LEC deltas after a local rule update.
  std::vector<Envelope> on_lec_deltas(const std::vector<fib::LecDelta>& deltas,
                                      fib::LecTable lec);

  /// Handles a received UPDATE addressed to a node on this device.
  std::vector<Envelope> on_update(const UpdateMessage& msg);

  /// Handles a received SUBSCRIBE (packet transformation support).
  std::vector<Envelope> on_subscribe(const SubscribeMessage& msg);

  /// Switches the active fault scene (after §6 flooding synchronization)
  /// and recounts along the scene's sub-DAG.
  std::vector<Envelope> on_scene_change(std::size_t scene);

  [[nodiscard]] std::size_t active_scene() const { return scene_; }

  /// Current violations at this device: behavior violations at hosted
  /// source nodes, plus local-contract violations for equal/subset atoms.
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  /// Verification results at hosted source nodes: per ingress, the counting
  /// entries over the invariant's packet space.
  [[nodiscard]] std::vector<std::pair<DeviceId, std::vector<CountEntry>>>
  source_results() const;

  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Test/debug copy of one hosted node's tables, in unspecified order
  /// (the tables hold disjoint predicates, so order carries no meaning).
  struct NodeSnapshot {
    NodeId id = kNoNode;
    std::vector<LocEntry> loc;
    std::vector<CountEntry> out_sent;
    std::map<NodeId, std::vector<CountEntry>> cib_in;
  };
  [[nodiscard]] std::vector<NodeSnapshot> node_snapshots() const;

  /// Appends every BDD ref this engine pins (gc root enumeration).
  void collect_refs(std::vector<bdd::NodeRef>& out) const;

 private:
  struct NodeState {
    NodeId id = kNoNode;
    std::map<NodeId, CibIn> cib_in;  // per downstream node
    LocStore loc;
    // Last transmitted upstream, prefix-indexed for the old×new diff, with
    // its predicate union cached so emit_updates need not re-fold it.
    fib::RegionIndexed<CountEntry> out_sent{fib::IndexKind::OutSent};
    packet::PacketSet out_cover;
    packet::PacketSet scope;  // inv space ∪ subscribed regions
    std::map<NodeId, packet::PacketSet> sub_sent;  // per child: subscribed
  };

  /// Scene-valid downstream edges of a node.
  [[nodiscard]] std::vector<const dpvnet::DpvEdge*> live_children(
      const dpvnet::DpvNode& node) const;

  /// Recomputes LocCIB rows covering `region` at `ns` (Equations 1-2) and
  /// appends any resulting UPDATE/SUBSCRIBE envelopes to `out`.
  void recompute(NodeState& ns, const packet::PacketSet& region,
                 std::vector<Envelope>& out);

  /// Computes fresh LocCIB rows for `region` from the LEC table and CIBIn.
  [[nodiscard]] std::vector<LocEntry> compute_region(
      NodeState& ns, const packet::PacketSet& region,
      std::vector<Envelope>& out);

  /// Rebuilds CIBOut for `ns`, diffs against out_sent, and emits UPDATEs
  /// to all upstream devices when the results changed.
  void emit_updates(NodeState& ns, std::vector<Envelope>& out);

  /// Re-evaluates behavior satisfaction at hosted source nodes and local
  /// contracts; refreshes violations_.
  void refresh_verdicts();

  /// Local-contract checks for equal/subset atoms (§4.2: minimal counting
  /// information is empty — verification is communication-free).
  void check_local_contracts();

  [[nodiscard]] count::CountVec accept_indicator(
      const dpvnet::DpvNode& node) const;

  DeviceId dev_;
  const dpvnet::DpvNet* dag_;
  const spec::Invariant* inv_;
  InvariantId inv_id_;
  packet::PacketSpace* space_;
  EngineConfig cfg_;

  std::vector<const spec::Behavior*> atoms_;
  std::size_t arity_ = 0;
  bool counting_mode_ = true;  // false for equal/subset local contracts
  bool is_source_device_ = false;

  fib::LecTable lec_;
  std::vector<NodeState> nodes_;              // nodes hosted on this device
  std::map<NodeId, std::size_t> node_index_;  // NodeId -> nodes_ index
  std::size_t scene_ = 0;

  std::vector<Violation> violations_;
  EngineStats stats_;
};

}  // namespace tulkun::dvm
