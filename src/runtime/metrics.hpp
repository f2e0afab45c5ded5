// Runtime measurement containers shared by the simulator, the sharded
// worker-pool runtime, and the evaluation harness.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/stats.hpp"
#include "fib/prefix_index.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"

namespace tulkun::runtime {

/// Aggregate counters of one run.
struct RunStats {
  std::uint64_t events = 0;        // handler invocations
  std::uint64_t messages = 0;      // envelopes delivered
  std::uint64_t bytes = 0;         // wire bytes (when accounting enabled)
  Samples per_message_seconds;     // host-measured handler durations
};

/// Counters of one ShardedRuntime or DistributedRuntime run: how work
/// spread over shards, how well per-destination batching and the transfer
/// cache did, and how long jobs waited in shard queues. Summed over the
/// DeviceHosts; read only while the runtime is quiescent.
struct RuntimeMetrics {
  std::vector<std::uint64_t> jobs_per_shard;
  std::uint64_t jobs = 0;       // handled jobs (init + update + frame)
  std::uint64_t frames = 0;     // batched message frames enqueued
  std::uint64_t envelopes = 0;  // envelopes carried inside those frames
  std::uint64_t frame_bytes = 0;
  std::uint64_t transfer_cache_hits = 0;
  std::uint64_t transfer_cache_misses = 0;
  /// Node-ID delta streams (dvm::ChannelEncoders): predicates sent in delta
  /// form, BDD nodes actually shipped, and stream resets (epoch/generation
  /// moves or table-bound rollovers).
  std::uint64_t channel_roots = 0;
  std::uint64_t channel_nodes_shipped = 0;
  std::uint64_t channel_resets = 0;
  /// Per-device BDD garbage collection (bdd_gc_node_threshold > 0).
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_reclaimed_nodes = 0;
  Samples batch_size;          // envelopes per frame
  Samples queue_wait_seconds;  // enqueue -> dequeue latency per job

  /// Per-table prefix-index effectiveness (fib/lec/cib_in/loc/out_sent),
  /// snapshotted from the process-global counters over the run's window.
  std::array<fib::IndexCounters, fib::kNumIndexKinds> index;

  /// Wall time per update-processing phase, summed across devices:
  /// LEC-delta derivation/patching, LocCIB recompute, CIBOut emit.
  double lec_delta_seconds = 0.0;
  double recompute_seconds = 0.0;
  double emit_seconds = 0.0;

  /// Network-transport activity summed over links (zeros for purely
  /// in-process runs); net::LinkMetrics is the one counter vocabulary.
  net::LinkMetrics transport;

  [[nodiscard]] double transfer_cache_hit_rate() const;
  [[nodiscard]] double mean_batch_size() const;

  /// Accumulates another shard's (or run's) counters into this one.
  void merge(const RuntimeMetrics& other);
};

/// One-line-per-counter human-readable dump (bench binaries).
void print_metrics(std::ostream& os, const RuntimeMetrics& m);

/// Registers process-health gauges with obs::Registry and returns the
/// RAII handle: `proc_rss_bytes` (resident set, from /proc/self/statm) and
/// `bdd_live_nodes` (nodes allocated across every live bdd::Manager).
/// Together they are the memory-growth SLO inputs: a soak that keeps
/// verifying equivalent state while either climbs is leaking.
[[nodiscard]] obs::Registry::ProviderHandle register_process_gauges();

/// Current resident set size in bytes (0 when /proc is unavailable).
[[nodiscard]] std::uint64_t process_rss_bytes();

}  // namespace tulkun::runtime
