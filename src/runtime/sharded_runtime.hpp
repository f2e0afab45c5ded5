// Sharded worker-pool runtime: a fixed-size pool of OS threads (default
// hardware_concurrency) executes all simulated devices. Each shard thread
// drives one DeviceHost (private per-device BDD spaces, batched per-
// destination frames), so envelopes cross shard boundaries as encoded
// wire bytes.
//
// This runtime demonstrates that the verifiers are genuinely distributed:
// no shared predicate state exists between devices — every predicate a
// device learns arrives through the DVM codec, exactly as it would over a
// TCP connection between switches. The event simulator is the measurement
// vehicle; this runtime is the fidelity/correctness vehicle (tests assert
// both produce identical verdicts) and the throughput vehicle (wall-clock
// benches drive it with a configurable shard count).
//
// Devices hash onto shards; a shard drains its MPSC queue FIFO, so
// per-device job ordering is preserved (a device always lands on the same
// shard). In-flight accounting is a single atomic with one condition
// variable signalled only on the zero transition.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fib/update_stream.hpp"
#include "runtime/device_host.hpp"

namespace tulkun::runtime {

class ShardedRuntime {
 public:
  /// `cfg.runtime_shards` selects the worker-pool size (0 = one worker per
  /// hardware thread). Every other EngineConfig field is forwarded to the
  /// per-device engines.
  ShardedRuntime(const topo::Topology& topo, dvm::EngineConfig cfg = {});
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Installs an invariant on every device (localized per device space).
  /// Must be called while quiescent (waits for quiescence itself).
  void install(const planner::InvariantPlan& plan);

  /// Loads a device's FIB asynchronously (localized on the shard thread).
  void post_initialize(DeviceId dev, const fib::FibTable& fib);

  /// Applies a rule update asynchronously. After the next wait_quiescent()
  /// the returned handle's rule_id holds the id assigned on Insert.
  std::shared_ptr<const fib::FibUpdate> post_rule_update(
      DeviceId dev, const fib::FibUpdate& update);

  /// Blocks until every queue is drained and no message is in flight.
  /// Must not race with concurrent post_* calls from other threads.
  void wait_quiescent();

  /// Safe only after wait_quiescent().
  [[nodiscard]] std::vector<dvm::Violation> violations();

  /// Direct access to one device's verifier (digests, inspection).
  /// Safe only after wait_quiescent().
  [[nodiscard]] const verifier::OnDeviceVerifier& device(DeviceId dev) const {
    return shards_[shard_of(dev)]->host.verifier(dev);
  }

  [[nodiscard]] std::size_t device_count() const {
    return topo_->device_count();
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Aggregated shard counters. Safe only after wait_quiescent().
  [[nodiscard]] RuntimeMetrics metrics() const;

 private:
  struct Job {
    enum class Kind { Init, Update, Frame } kind = Kind::Frame;
    DeviceId dev = kNoDevice;          // destination device
    std::vector<WireRule> rules;       // Init
    std::shared_ptr<fib::FibUpdate> update;  // Update (result handle)
    WireRule update_rule;              // Update/Insert payload
    std::vector<std::uint8_t> bytes;   // Frame: encoded envelope batch
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Shard {
    Shard(const topo::Topology& topo, const std::vector<DeviceId>& devices,
          const dvm::EngineConfig& cfg)
        : host(topo, devices, cfg, /*deltas=*/true) {}

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Job> queue;  // MPSC: any thread pushes, shard thread drains
    std::thread thread;
    // Written by the shard thread only (read after quiescence). A device
    // always runs on its home shard, so the host's per-(src, dst) channel
    // encoders see each source's messages in emission order — the FIFO
    // discipline the delta streams require.
    DeviceHost host;
    RuntimeMetrics local;  // jobs_per_shard and queue wait
  };

  [[nodiscard]] std::size_t shard_of(DeviceId dev) const {
    return dev % shards_.size();
  }

  void enqueue(Job job);
  void worker_loop(std::size_t shard_index);
  void handle(Shard& shard, Job& job);
  void finish_one();

  const topo::Topology* topo_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};

  // Queued + executing jobs. A handler's outputs are enqueued before its
  // own decrement, so the count cannot touch zero while work remains.
  std::atomic<std::int64_t> inflight_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
};

}  // namespace tulkun::runtime
