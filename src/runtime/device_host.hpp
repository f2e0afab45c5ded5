// The device side of a real-execution runtime, written once. A DeviceHost
// holds the devices one thread drives, each a private PacketSpace with its
// OnDeviceVerifier, so every predicate a device learns arrives through the
// DVM codec exactly as it would over a link between switches. It also owns
// that thread's SerializeCache, ChannelEncoders and send counters.
// ShardedRuntime drives one host per shard thread and DeviceProcess one
// per rank; around it they differ only in queues, termination and wire.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "dvm/codec.hpp"
#include "planner/planner.hpp"
#include "runtime/metrics.hpp"
#include "verifier/verifier.hpp"

namespace tulkun::runtime {

/// Re-encodes an invariant's packet space into `target` (regexes, ingress
/// sets, and fault scenes carry no BDD state and copy verbatim).
[[nodiscard]] spec::Invariant localize_invariant(const spec::Invariant& inv,
                                                 packet::PacketSpace& target);

/// A rule with its extra match flattened to wire bytes, so rules cross
/// threads and processes without sharing a BDD manager.
struct WireRule {
  fib::Rule rule;  // extra_match cleared; rebuilt from extra_bytes
  std::vector<std::uint8_t> extra_bytes;  // empty = prefix-only rule
};

/// Flattens a rule, or a table in match order; reads only their space.
[[nodiscard]] WireRule to_wire(const fib::Rule& rule);
[[nodiscard]] std::vector<WireRule> to_wire(const fib::FibTable& fib);

class DeviceHost {
 public:
  /// Takes one encoded frame bound for device `dst`.
  using Send = std::function<void(DeviceId dst, std::vector<std::uint8_t>)>;

  /// With `deltas`, BDD predicates leave as node-ID delta streams and each
  /// device decodes its senders' streams, so every frame must arrive once
  /// and in emission order; otherwise they leave as self-contained blobs
  /// and delta-form predicates are rejected on arrival.
  DeviceHost(const topo::Topology& topo, const std::vector<DeviceId>& devices,
             const dvm::EngineConfig& cfg, bool deltas);

  /// Localizes `plan` into every hosted device; reads the plan's space.
  void install(const planner::InvariantPlan& plan);

  // One call per event: runs the device's verifier, hands one frame per
  // destination to `send`, then collects the device's space once it
  // crosses the config's bdd_gc_node_threshold.
  void initialize(DeviceId dev, std::span<const WireRule> fib,
                  const Send& send);
  /// An insert's rule is rebuilt from `rule`; the id the device assigns is
  /// written back into `update.rule_id`.
  void update(DeviceId dev, fib::FibUpdate& update, const WireRule& rule,
              const Send& send);
  /// Drops a frame for a device not hosted here, and counts an undecodable
  /// one as a protocol error.
  void deliver(DeviceId dev, std::span<const std::uint8_t> frame,
               const Send& send);

  [[nodiscard]] const verifier::OnDeviceVerifier& verifier(
      DeviceId dev) const {
    return *devices_.at(dev).verifier;
  }

  /// Send, cache and channel counters plus per-device compute and GC.
  [[nodiscard]] RuntimeMetrics metrics() const;

 private:
  struct Device {
    std::unique_ptr<packet::PacketSpace> space;
    std::unique_ptr<verifier::OnDeviceVerifier> verifier;
    // Per-source delta decoders bound to the space (null with blobs);
    // their stream tables are gc roots.
    std::unique_ptr<dvm::ChannelDecoders> channels;
  };

  void finish(Device& d, std::vector<dvm::Envelope> out, const Send& send);

  dvm::EngineConfig cfg_;
  bool deltas_;
  std::map<DeviceId, Device> devices_;
  bdd::SerializeCache cache_;
  dvm::ChannelEncoders encoders_;
  RuntimeMetrics counters_;  // jobs, sends and protocol errors
};

}  // namespace tulkun::runtime
